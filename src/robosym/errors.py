"""Exception types shared across the library, the integer and finiteness
checks that parsers of input files share, and the one check of an isometry."""

import numpy as np


class RoboSymError(Exception):
    """Base class for all library errors."""


class DimMismatch(RoboSymError):
    """Vector or matrix dimensions do not match the expected shape."""


class GroupMismatch(RoboSymError):
    """Operands belong to different groups (or no group at all)."""


class ClosureExceeded(RoboSymError):
    """Generator closure produced more elements than the configured cap."""


class CapExceeded(RoboSymError):
    """Problem size exceeds the configured cap for a verification-only path."""


class NonIntegralRank(RoboSymError):
    """Group-averaged trace is not an integer; input is not a representation."""


class DegenerateBasis(RoboSymError):
    """Equivariant basis has no free coefficients (all orbits zero-forced)."""


class IncompatibleWidth(RoboSymError):
    """Layer width is not a multiple of the regular-representation block."""


class SchemaError(RoboSymError):
    """Measurement schema is inconsistent with the group/isometry context."""


class ParseError(RoboSymError):
    """Input file is syntactically or structurally invalid."""


class TreeCycle(RoboSymError):
    """Joint graph is not a tree rooted at the base."""


class BadInertia(RoboSymError):
    """Body inertia is not symmetric positive semidefinite."""


def parse_int(key: str, value, where: str | None = None) -> int:
    """``value``, read for ``key`` (at ``where``, a place in the file, if
    given), if it is a JSON integer; anything else (a float, bool, string or
    list) raises ParseError naming both, so nothing is truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        at = f"{where}: " if where else ""
        raise ParseError(f"{at}{key!r} must be an integer, got {type(value).__name__}")
    return value


def parse_int_list(key: str, values) -> list[int]:
    """``values``, read for ``key``, as JSON integers; the first bad one is named
    by its index.  Only an entry that is not a plain int goes through parse_int."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        for j, v in enumerate(values):
            if type(v) is not int:
                parse_int(key, v, f"entry {j}")
    return values


def check_finite(where: str, **values) -> None:
    """Raise ParseError naming ``where`` and the first key whose value (a
    number or an array of them) holds a NaN or an infinity, so a parser
    rejects it before any arithmetic on it can warn."""
    for key, value in values.items():
        if not np.isfinite(value).all():
            raise ParseError(f"{where}: {key!r} has non-finite entries")


def check_isometry(name: str, r: np.ndarray, tol: float) -> int:
    """The sign of det(r), once ``r`` is checked to be a finite square matrix
    with |r^T r - I| <= ``tol`` entrywise and |det| within 1e-9 of 1; else
    ValueError naming ``name``.  Finiteness goes first, so no product warns."""
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"{name} has non-finite entries")
    if not np.abs(r.T @ r - np.eye(len(r))).max() <= tol:
        raise ValueError(f"{name} is not orthogonal")
    det = float(np.linalg.det(r))
    if not abs(abs(det) - 1.0) <= 1e-9:
        raise ValueError(f"{name} has |det| != 1")
    return 1 if det > 0 else -1
