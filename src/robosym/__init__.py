"""Finite-group symmetry tooling for robot learning.

Construct finite groups of generalized permutation matrices from
generators, compute bases of equivariant linear maps in linear time (with
a brute-force oracle to check them), build equivariant perceptron stacks
with variance-preserving initialization, augment measurement datasets
exactly, and certify candidate morphological symmetries of rigid-body
trees numerically.
"""

from .basis import (
    EquivBasis,
    Orbits,
    bias_basis,
    burnside_rank,
    dense_nullspace_oracle,
    orbit_basis,
    span_residual,
    validate_basis,
)
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
    make_cyclic,
    regular_representation,
    tensor_on_linear_maps,
    tiled_regular_representation,
    trivial_representation,
    verify_homomorphism,
)

__version__ = "0.1.0"
