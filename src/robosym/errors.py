"""Exception types shared across the library, the integer, float and finiteness
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


def parse_object(value, where: str | None = None) -> dict:
    """``value`` if it is a JSON object; anything else raises ParseError naming its type
    (and ``where``, the entry of a JSON list, if given)."""
    if not isinstance(value, dict):
        raise ParseError(f"{f'{where}: ' if where else ''}expected an object, got {type(value).__name__}")
    return value


def parse_int_list(key: str, values) -> list[int]:
    """``values``, read for ``key``, if it is a list of JSON integers; else ParseError naming
    the key, or the first bad entry by its index.  Only an entry that is not a plain int goes
    through parse_int."""
    if not isinstance(values, list):
        raise ParseError(f"{key!r} must be a list, got {type(values).__name__}")
    if not set(map(type, values)) <= {int}:
        for j, v in enumerate(values):
            if type(v) is not int:
                parse_int(key, v, f"entry {j}")
    return values


def parse_float(key: str, value, path: tuple = ()) -> np.ndarray:
    """``value``, read for ``key``, as a float array if it is a JSON number or a list (of lists)
    of them; a bool, string, null or object in it, a ragged nesting or an integer beyond the float
    range raises ParseError naming the key and the entry's index ``path``, so nothing is coerced.
    A flat list of numbers is one pass over types."""
    if isinstance(value, (bool, str, dict, type(None))):
        problem = f"must be a number, got {type(value).__name__}"
    else:
        if isinstance(value, list) and not set(map(type, value)) <= {int, float}:
            for j, v in enumerate(value):
                parse_float(key, v, (*path, j))
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # lists of unequal lengths, or lists beside numbers
            problem = "is ragged: its lists differ in length or sit beside numbers"
        except OverflowError:  # a JSON integer beyond the float range
            problem = "has an integer beyond the float range"
    at = f"entry {path[0] if len(path) == 1 else path}: " if path else ""
    raise ParseError(f"{at}{key!r} {problem}")


def check_finite(where: str, cap: float = np.finfo(float).max, **values) -> None:
    """Raise ParseError naming ``where`` and the first key whose value (a
    number or an array of them) holds a NaN or an infinity, or an entry above
    ``cap`` in magnitude, so a parser rejects it before any arithmetic on it can warn."""
    for key, value in values.items():
        if not (np.abs(value) <= cap).all():  # a NaN compares false
            what = "non-finite entries" if not np.isfinite(value).all() else f"entries above {cap:g} in magnitude"
            raise ParseError(f"{where}: {key!r} has {what}")


def check_isometry(name: str, r: np.ndarray, tol: float) -> np.ndarray:
    """The signs of det(r), once ``r``, a square matrix or a stack (n, d, d), is checked to be
    finite with |r^T r - I| <= ``tol`` entrywise and |det| within 1e-9 of 1; else ValueError
    naming ``name`` (a stack's first failing matrix i as ``name i``) and the first check it
    fails.  A non-finite matrix is then checked as I, so no product warns; an entry near the
    float maximum overflows to inf or nan, silently, and fails the orthogonality check."""
    if r.ndim not in (2, 3) or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {r.shape}")
    eye, finite = np.eye(r.shape[-1]), np.isfinite(r).all(axis=(-1, -2))
    r = np.where(finite[..., None, None], r, eye)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(r)
        failed = np.array([~finite, ~(np.abs(r.swapaxes(-1, -2) @ r - eye).max(axis=(-1, -2)) <= tol),
                           ~(np.abs(np.abs(det) - 1.0) <= 1e-9)]).reshape(3, -1)
    if failed.any():
        i = failed.any(axis=0).argmax()
        check = ("has non-finite entries", "is not orthogonal", "has |det| != 1")[failed[:, i].argmax()]
        raise ValueError(f"{name if r.ndim == 2 else f'{name} {i}'} {check}")
    return np.where(det > 0, 1, -1)
