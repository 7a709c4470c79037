"""Finite-group symmetry tooling for robot learning.

Construct finite groups of generalized permutation matrices from
generators, compute bases of equivariant linear maps in linear time (with
a brute-force oracle to check them), build equivariant perceptron stacks
with variance-preserving initialization, augment measurement datasets
exactly, and certify candidate morphological symmetries of rigid-body
trees numerically.
"""

import importlib.util as _util
import sys as _sys

from .errors import (
    BadInertia,
    CapExceeded,
    ClosureExceeded,
    DegenerateBasis,
    DimMismatch,
    GroupMismatch,
    IncompatibleWidth,
    NonIntegralRank,
    ParseError,
    RoboSymError,
    SchemaError,
    TreeCycle,
)
from .groups import (
    FiniteGroup,
    Representation,
    act,
    direct_sum,
    group_closure,
    load_representation,
    regular_representation,
    tensor_on_linear_maps,
    tiled_regular_representation,
    trivial_representation,
    verify_homomorphism,
)

__version__ = "0.1.0"

# augment, basis, nets and rigid are registered in sys.modules but compiled and run on first
# attribute access, so a command loads only the layer it runs.
for _name in ("augment", "basis", "nets", "rigid"):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = globals()[_name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name: str):
    """The seven names re-exported from ``basis`` (PEP 562): the first one loads it."""
    if name in ("EquivBasis", "Orbits", "bias_basis", "burnside_rank", "dense_nullspace_oracle",
                "orbit_basis", "span_residual"):
        from . import basis
        return getattr(basis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
