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
import threading as _threading
import types as _types

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

_LOADING, _STARTED = _threading.RLock(), set()


class _Layer(_types.ModuleType):
    """A layer module registered in sys.modules but not yet run.  Its first attribute read runs it
    while holding one lock, and only then makes it a plain module, so another thread reading it
    meanwhile waits for the whole module (as Python 3.12's LazyLoader does; 3.11's takes no lock)."""

    def __getattribute__(self, name):
        with _LOADING:
            if type(self) is _Layer and self not in _STARTED:  # else run, or running in this thread
                _STARTED.add(self)
                _types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                self.__class__ = _types.ModuleType
        return _types.ModuleType.__getattribute__(self, name)


# augment, basis, nets and rigid are registered in sys.modules but compiled and run on first
# attribute access, so a command loads only the layer it runs.
for _name in ("augment", "basis", "nets", "rigid"):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _sys.modules[_spec.name] = globals()[_name] = _util.module_from_spec(_spec)
    globals()[_name].__class__ = _Layer


def __getattr__(name: str):
    """The seven names re-exported from ``basis`` (PEP 562): the first one loads it."""
    if name in ("EquivBasis", "Orbits", "bias_basis", "burnside_rank", "dense_nullspace_oracle",
                "orbit_basis", "span_residual"):
        from . import basis
        return getattr(basis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
