"""Bases of equivariant linear maps for generalized permutation groups.

Two independent routes are provided on purpose:

* ``orbit_basis`` traces the orbits of the flat coordinates of vec(W) under
  the group action on linear maps, in O(|G| m n) time but O(m n) memory and
  without ever materializing an (mn x mn) matrix.
* ``dense_nullspace_oracle`` sums the generators' fix-point constraints into
  one dense Gram block and solves it by Gaussian elimination.  It exists
  solely to check the orbit route and is capped in size.

``burnside_rank`` gives the rank a third way, as a group-averaged signed
trace, so the three can be cross-checked in tests.
"""

from __future__ import annotations

import hashlib
from functools import cached_property

import numpy as np

from .errors import CapExceeded, NonIntegralRank
from .groups import (
    ORACLE_TOL,
    TRACE_CAP,
    FiniteGroup,
    Representation,
    _ReadOnly,
    _linear_map_action,
    _shared_group,
    trivial_representation,
)

ORACLE_CAP = 4096
TRACE_ENTRIES = 1 << 16  # entries per slab of the |G| x mn tables, one row at least; <= 2^30
BASIS_BLOCK = 1 << 14  # orbit entries per chunk of basis-file JSON text
SPAN_BLOCK = 256  # orbit vectors per projection in span_residual
# [:, v]: v as three ASCII digits, 000 to 999
_DIGITS = np.frombuffer(b"".join(b"%03d" % v for v in range(1000)), np.uint8).reshape(1000, 3).T.copy()


class Orbits(_ReadOnly):
    """Signed orbits of flat vec(W) coordinates, as three read-only arrays.

    Entry k puts ``sign[k]`` at flat coordinate ``index[k]`` of orbit
    ``orbit[k]``.  Entries are sorted by orbit, then by index.  Orbits are
    numbered in the order of their smallest index, whose sign is +1.
    """

    def __init__(self, index: np.ndarray, sign: np.ndarray, orbit: np.ndarray):
        for name, arr, dtype in (("index", index, np.intp), ("sign", sign, np.int8), ("orbit", orbit, np.intp)):
            if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and not arr.flags.writeable):
                arr = np.array(arr, dtype=dtype)  # a caller's array is copied, never frozen
                arr.flags.writeable = False
            self.__dict__[name] = arr

    def __len__(self) -> int:
        return int(self.orbit[-1]) + 1 if self.orbit.size else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orbits):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in ("index", "sign", "orbit"))


class EquivBasis(_ReadOnly):
    """Signed-orbit basis of the space of equivariant m x n linear maps.

    ``orbits`` hold one free coefficient each; ``zero_forced`` orbits are
    coordinates pinned to zero by a sign contradiction, and carry no
    coefficient and sign +1 throughout.  For bias bases use n = 1.
    """

    def __init__(self, m: int, n: int, orbits: Orbits, zero_forced: Orbits):
        self.__dict__.update(m=m, n=n, orbits=orbits, zero_forced=zero_forced)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.m, self.n, self.orbits, self.zero_forced)
                == (other.m, other.n, other.orbits, other.zero_forced))

    @property
    def rank(self) -> int:
        return len(self.orbits)

    @property
    def total_entries(self) -> int:
        """Sum of squared basis entries; every entry is +-1."""
        return self.orbits.index.size

    @cached_property
    def fingerprint(self) -> str:
        """``basis_fingerprint`` of this basis, computed once."""
        return basis_fingerprint(self)


def _trace_orbits(rep_in: Representation, rep_out: Representation) -> tuple[Orbits, Orbits]:
    """Orbits of vec(W) under the action on linear maps, free and zero-forced.

    Row g of each slab is the action of g, so the minimum over the group axis
    of target << 1 | [sign < 0] finds, for coordinate i, its orbit's smallest
    coordinate c and the sign an element sending i onto c gives i.  In a free
    orbit all such elements agree (two that differed would fix c with sign
    -1): that is the sign the orbit stores at i.  An orbit is zero-forced when
    some element fixes one of its coordinates with sign -1; then both signs
    send i onto c, and the minimum stores +1.  Slabs of ``TRACE_ENTRIES``
    int32 targets (one element's if mn is more) keep memory O(mn) whatever |G|.

    One in-place sort of the uint64 keys dead << 63 | c << 32 | i (c, i < mn
    < 2^31) then puts the zero-forced orbits after the free ones, each run
    ordered by smallest coordinate, then by index.  The keys' buffer becomes
    the orbit numbers: a flag where the high half changes, summed in place,
    from 0 again at the first zero-forced entry.
    """
    group = _shared_group(rep_in, rep_out)
    mn = rep_out.dim * rep_in.dim
    if mn >= TRACE_CAP:
        raise CapExceeded(f"mn = {mn} exceeds the orbit tracer's cap {TRACE_CAP - 1}")
    rows = max(1, TRACE_ENTRIES // max(mn, 1))
    coords = np.arange(mn, dtype=np.int32)
    best = coords.view(np.uint32) << 1  # the identity, element 0, maps i to itself with sign +1
    dead = np.zeros(mn, dtype=bool)
    for start in range(1, group.order, rows):  # element 0 is in best already
        t, s = _linear_map_action(rep_in, rep_out, slice(start, start + rows))
        neg = s < 0
        hit = t == coords
        hit &= neg
        dead |= hit[0] if rows == 1 else hit.any(axis=0)  # a one-element slab's row is its reduction
        key = t.view(np.uint32)
        key <<= 1
        key |= neg
        np.minimum(best, key[0] if rows == 1 else key.min(axis=0), out=best)  # target << 1 | [sign < 0]
        del t, s, neg, hit, key  # before the next slab is built
    sign = 1 - 2 * (best & 1).astype(np.int8)
    best >>= 1
    np.bitwise_or(best, 1 << 31, out=best, where=dead)
    free = mn - np.count_nonzero(dead)
    keys = best.astype(np.uint64)
    keys <<= 32
    keys |= coords.view(np.uint32)
    del best, dead, coords
    keys.sort()
    orbit = keys.view(np.intp)
    index = orbit & 0xFFFFFFFF
    sign = sign[index]
    orbit >>= 32
    orbit[1:] = orbit[1:] != orbit[:-1]
    for run in orbit[:free], orbit[free:]:
        run[:1] = 0
        np.cumsum(run, out=run)
    index.flags.writeable = sign.flags.writeable = orbit.flags.writeable = False
    return tuple(Orbits(index[p], sign[p], orbit[p]) for p in (slice(free), slice(free, None)))


def orbit_basis(rep_in: Representation, rep_out: Representation) -> EquivBasis:
    """Equivariant-map basis via orbit tracing, O(|G| m n) time, O(m n) memory.

    The orbit of each flat coordinate of vec(W) under the group action on
    linear maps becomes one basis vector, unless some element maps a
    coordinate onto another with contradictory signs: then the whole orbit
    is forced to zero, with every sign +1.  Orbits are sorted by their
    smallest flat index, so the basis depends only on the group's action.
    """
    return EquivBasis(rep_out.dim, rep_in.dim, *_trace_orbits(rep_in, rep_out))


def bias_basis(rep_out: Representation) -> EquivBasis:
    """Basis of the fixed subspace rho_out(g) b = b, as orbits over R^m."""
    triv = trivial_representation(rep_out.group, 1)
    return EquivBasis(rep_out.dim, 1, *_trace_orbits(triv, rep_out))


def burnside_rank(rep_in: Representation, rep_out: Representation) -> int:
    """Orbit count as the group-averaged product of signed traces.

    For unsigned permutation representations this equals the average number
    of fixed points; the signed traces extend the count to representations
    with -1 entries, where it equals the equivariant-subspace dimension.
    Raises NonIntegralRank when the average is not a non-negative integer,
    which signals that the inputs are not representations of the group.
    """
    group = _shared_group(rep_in, rep_out)
    total = int(rep_out.traces() @ rep_in.traces()[group.inverse])
    if total % group.order != 0 or total < 0:
        raise NonIntegralRank(
            f"trace average {total}/{group.order} is not a non-negative integer"
        )
    return total // group.order


def _nullspace_by_elimination(rep_in: Representation, rep_out: Representation, gens: tuple | list | range,
                              tol: float) -> np.ndarray:
    """Orthonormal nullspace basis of the Gram block sum_g (rho_W(g) - I)^T (rho_W(g) - I), g in ``gens``.
    As each rho_W(g) is a signed permutation, the block is sum_g (2I - rho_W(g) - rho_W(g)^T): one
    mn x mn block whatever the count of g.  It is built and eliminated in place (partial pivoting),
    then freed before the QR."""
    cols = rep_in.dim * rep_out.dim
    a, diag = np.diag(np.full(cols, 2.0 * len(gens))), np.arange(cols)
    for g in gens:
        t, s = _linear_map_action(rep_in, rep_out, slice(g, g + 1))
        a[t[0], diag] -= s[0]
        a[diag, t[0]] -= s[0]
    pivot_cols: list[int] = []
    r = 0
    for col in range(cols):
        c = a[:, col].copy()  # the one strided walk down this column; kept in step with a
        p = int(np.argmax(np.abs(c[r:]))) + r
        if abs(c[p]) <= tol:
            continue
        a[[r, p]], c[[r, p]] = a[[p, r]], c[[p, r]]
        a[r] /= c[r]
        c[r] = a[r, col]
        mask = np.abs(c) > 0
        mask[r] = False
        a[mask] -= np.outer(c[mask], a[r])
        pivot_cols.append(col)
        r += 1
    free_cols = np.setdiff1d(np.arange(cols), pivot_cols)
    basis = np.zeros((cols, len(free_cols)))
    basis[free_cols, np.arange(len(free_cols))] = 1.0
    basis[pivot_cols] = -a[: len(pivot_cols), free_cols]
    del a  # the block, before np.linalg.qr allocates its workspace
    q, _ = np.linalg.qr(basis)  # (cols, 0) when the nullspace is empty
    return q


def _generating_set(group: FiniteGroup) -> list[int]:
    """Generators read off the Cayley table: each element outside the subgroup the earlier ones generate."""
    gens, members = [], np.array([group.identity])
    for g in group.elements():
        if g not in members:
            gens.append(g)
            while (grown := np.union1d(members, group.cayley[np.ix_(members, gens)])).size > members.size:
                members = grown
    return gens


def dense_nullspace_oracle(rep_in: Representation, rep_out: Representation, tol: float = ORACLE_TOL) -> np.ndarray:
    """Brute-force equivariant basis: nullspace of the generators' fix-point constraints.

    Sums (rho_W(g) - I)^T (rho_W(g) - I) over the generators g (a generating
    set read off the Cayley table when the group records none; a map fixed by
    the generators is fixed by the group) into one mn x mn block and
    eliminates it.  Returns an orthonormal (mn x r') basis; refuses mn above
    ``ORACLE_CAP``.
    """
    group = _shared_group(rep_in, rep_out)
    mn = rep_in.dim * rep_out.dim
    if mn > ORACLE_CAP:
        raise CapExceeded(f"mn = {mn} exceeds oracle cap {ORACLE_CAP}")
    if group.order == 1:
        return np.eye(mn)
    return _nullspace_by_elimination(rep_in, rep_out, group.generator_indices or _generating_set(group), tol)


def span_residual(basis: EquivBasis, oracle: np.ndarray) -> float:
    """Largest distance of any orbit vector from the oracle's span.

    Orbit vectors are normalized before projection; residual is the 2-norm
    of the component outside the span.  ``SPAN_BLOCK`` vectors are projected at a time.
    """
    o, worst = basis.orbits, 0.0
    for k in range(0, basis.rank, SPAN_BLOCK):
        lo, hi = np.searchsorted(o.orbit, [k, k + SPAN_BLOCK])
        v = np.zeros((basis.m * basis.n, min(SPAN_BLOCK, basis.rank - k)))
        v[o.index[lo:hi], o.orbit[lo:hi] - k] = o.sign[lo:hi]
        v /= np.linalg.norm(v, axis=0)
        worst = max(worst, float(np.linalg.norm(v - oracle @ (oracle.T @ v), axis=0).max()))
    return worst


def _orbits_json(orbits: Orbits, sep: bytes, colon: bytes):
    """Yield the items of the orbits' JSON list, ``BASIS_BLOCK`` entries per chunk.
    Each entry is one fixed-width byte record, built column-major: "[", index, sep, "-1]" and an
    end slot of sep, or of 0x01 where the next entry opens an orbit, or of "]}" after the last.
    Unused bytes (leading zeros, "-" for +1) are zeroed and dropped, then each 0x01 expanded."""
    width, size, opener = len(str(int(orbits.index.max(initial=0)))), orbits.index.size, b'{"entries"%b[' % colon
    units, minus, end, slot = width, width + len(sep) + 1, width + len(sep) + 4, max(len(sep), 2)
    record = np.frombuffer(b"[%b%b-1]%b" % (b"0" * width, sep, sep) + b"\0" * (slot - len(sep)), np.uint8)[:, None]
    last = np.frombuffer(b"]}".ljust(slot, b"\0"), np.uint8)
    for lo in range(0, size, BASIS_BLOCK):
        hi = min(lo + BASIS_BLOCK, size)
        buf = np.repeat(record, hi - lo, axis=1)
        index = q = orbits.index[lo:hi].astype(np.int32)
        for k in range(0, width, 3):  # digits k, k + 1 and k + 2 from the right, fewer at the top
            q, r = np.divmod(q, 1000)
            top = min(k + 3, width)
            buf[units - top + 1 : units - k + 1] = np.take(_DIGITS[3 - top + k :], r, axis=1)
        for k in range(1, width):
            buf[units - k] *= index >= 10**k  # a leading zero is dropped, a units digit never
        buf[minus] *= orbits.sign[lo:hi] < 0
        opens = np.diff(orbits.orbit[lo : hi + 1]) != 0  # [k]: entry lo + k + 1 opens an orbit
        buf[end:, : opens.size] *= ~opens
        buf[end, : opens.size] |= opens
        if hi == size:
            buf[end:, -1] = last
        text = buf.T.tobytes().translate(None, b"\0").replace(b"\1", b"]}" + sep + opener)
        yield (opener + text if lo == 0 else text).decode()


def basis_json_chunks(basis: EquivBasis, separators: tuple[str, str] = (", ", ": ")):
    """Yield the basis file's JSON text as ``json.dumps`` with ``separators`` writes it."""
    sep, colon = separators
    if "\0" in sep or "\1" in sep:  # the formatter drops NUL bytes and expands 0x01 ones
        raise ValueError("the item separator must not hold a NUL or 0x01 character")
    yield f'{{"m"{colon}{basis.m}{sep}"n"{colon}{basis.n}{sep}"orbits"{colon}['
    yield from _orbits_json(basis.orbits, sep.encode(), colon.encode())
    yield f']{sep}"zero_forced"{colon}['
    yield from _orbits_json(basis.zero_forced, sep.encode(), colon.encode())
    yield "]}"


def basis_fingerprint(basis: EquivBasis) -> str:
    """Stable content hash used to pair weights files with their basis."""
    digest = hashlib.sha256()
    for chunk in basis_json_chunks(basis, (",", ":")):
        digest.update(chunk.encode())
    return digest.hexdigest()[:16]
