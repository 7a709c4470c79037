"""Bases of equivariant linear maps for generalized permutation groups.

Two independent routes are provided on purpose:

* ``orbit_basis`` traces the orbits of the flat coordinates of vec(W) under
  the group action on linear maps, in O(|G| m n) time but O(m n) memory and
  without ever materializing an (mn x mn) matrix.
* ``dense_nullspace_oracle`` stacks the fix-point constraints into one dense
  system and solves it by Gaussian elimination.  It exists solely to check
  the orbit route and is capped in size.

``burnside_rank`` gives the rank a third way, as a group-averaged signed
trace, so the three can be cross-checked in tests.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, GroupMismatch, NonIntegralRank
from .groups import (
    Representation,
    _ReadOnly,
    _linear_map_action,
    act,
    trivial_representation,
)

ORACLE_CAP = 4096
ORACLE_TOL = 1e-10
TRACE_ENTRIES = 1 << 16  # entries per slab of the |G| x mn tables, one row at least; <= 2^30
TRACE_CAP = 1 << 31  # mn bound of the int32 tracing tables
BASIS_BLOCK = 1 << 14  # orbit entries per chunk of basis-file JSON text


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
    coordinates pinned to zero by a sign contradiction and carry no
    coefficient.  For bias bases use n = 1.
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

    def materialize(self, k: int) -> np.ndarray:
        """Dense m x n matrix of basis vector k."""
        o = self.orbits
        lo, hi = np.searchsorted(o.orbit, [k, k + 1])
        w = np.zeros(self.m * self.n)
        w[o.index[lo:hi]] = o.sign[lo:hi]
        return w.reshape(self.m, self.n)

    @cached_property
    def fingerprint(self) -> str:
        """``basis_fingerprint`` of this basis, computed once."""
        return basis_fingerprint(self)


def _group_orbits(coords: np.ndarray, canon: np.ndarray, sign: np.ndarray) -> Orbits:
    """Orbits numbered by their smallest coordinates; entries ordered by one in-place
    sort of the unique int64 keys orbit * mn + index, which stay below mn^2 < 2^62."""
    if not coords.size:
        return Orbits([], [], [])
    mn = canon.size
    keys = np.zeros(mn, dtype=np.intp)
    keys[canon[coords]] = mn  # at each orbit's smallest coordinate
    keys = np.cumsum(keys, out=keys)[canon[coords]]  # (orbit + 1) * mn
    keys -= mn
    keys += coords
    keys.sort()
    index = np.empty_like(keys)
    np.divmod(keys, mn, out=(keys, index))
    sign = sign[index]
    index.flags.writeable = sign.flags.writeable = keys.flags.writeable = False
    return Orbits(index, sign, keys)


def _trace_orbits(rep_in: Representation, rep_out: Representation) -> tuple[Orbits, Orbits]:
    """Orbits of vec(W) under the action on linear maps, free and zero-forced.

    Row g of each slab is the action of g^-1, so the first minimum over the
    group axis finds, for coordinate i, the orbit's smallest coordinate c
    and the first element g (in group order) that sends c onto i.  The sign
    g^-1 gives i equals the sign g gives c, which is the sign the orbit
    stores at i.  An orbit is zero-forced when some element fixes one of
    its coordinates with sign -1.  Slabs of ``TRACE_ENTRIES`` int32 targets
    (one element's if mn is more) keep memory O(mn) whatever |G|.
    """
    group = rep_out.group
    mn = rep_out.dim * rep_in.dim
    if mn >= TRACE_CAP:
        raise CapExceeded(f"mn = {mn} exceeds the orbit tracer's cap {TRACE_CAP - 1}")
    rows = max(1, TRACE_ENTRIES // max(mn, 1))
    shift = (2 * rows - 1).bit_length()  # keys < 2^shift mn <= max(4 TRACE_ENTRIES, 2 mn)
    coords = np.arange(mn, dtype=np.int32)
    best = coords.view(np.uint32) << shift  # the identity, element 0, maps i to itself with sign +1
    flip = np.zeros(mn, dtype=np.int8)  # 1 where the stored sign is -1
    dead = np.zeros(mn, dtype=bool)
    for start in range(1, group.order, rows):  # element 0 is in best already
        t, s = _linear_map_action(rep_in, rep_out, group.inverse[start : start + rows])
        neg = s < 0
        dead |= ((t == coords) & neg).any(axis=0)
        key = t.view(np.uint32)
        key <<= shift
        key |= neg
        key |= np.arange(0, 2 * len(t), 2, dtype=np.uint32)[:, None]
        key = key.min(axis=0)  # target << shift | 2 row | [sign < 0]: the first minimum
        better = key < best  # best keeps no row bits, so an earlier slab wins a tie
        np.bitwise_and(key, 1, out=flip, where=better, casting="unsafe")
        np.bitwise_and(key, ~np.uint32((1 << shift) - 1), out=best, where=better)
    if group.order > 1:
        del t, s, neg, key, better  # the last slab, before the orbits are grouped
    canon, sign = np.right_shift(best, shift, out=best).view(np.int32), 1 - 2 * flip
    return _group_orbits(coords[~dead], canon, sign), _group_orbits(coords[dead], canon, sign)


def orbit_basis(rep_in: Representation, rep_out: Representation) -> EquivBasis:
    """Equivariant-map basis via orbit tracing, O(|G| m n) time, O(m n) memory.

    The orbit of each flat coordinate of vec(W) under the group action on
    linear maps becomes one basis vector, unless some element maps a
    coordinate onto another with contradictory signs, in which case the
    whole orbit is forced to zero.  Output orbits are sorted by their
    smallest flat index.
    """
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
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
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
    group = rep_in.group
    total = int(rep_out.traces() @ rep_in.traces()[group.inverse])
    if total % group.order != 0 or total < 0:
        raise NonIntegralRank(
            f"trace average {total}/{group.order} is not a non-negative integer"
        )
    return total // group.order


def _nullspace_by_elimination(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal nullspace basis of float ``a``, eliminated in place (partial pivoting)."""
    rows, cols = a.shape
    pivot_cols: list[int] = []
    r = 0
    for col in range(cols):
        if r >= rows:
            break
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
    q, _ = np.linalg.qr(basis)  # (cols, 0) when the nullspace is empty
    return q


def dense_nullspace_oracle(
    rep_in: Representation,
    rep_out: Representation,
    tol: float = ORACLE_TOL,
    cap: int = ORACLE_CAP,
) -> np.ndarray:
    """Brute-force equivariant basis: nullspace of the stacked constraints.

    Stacks (rho_W(g) - I) for each generator g not generated by the ones
    before it (every element when the group records none; a map fixed by the
    generators is fixed by the group) and eliminates.  Returns an orthonormal
    (mn x r') basis; refuses mn above ``cap`` or a stack above 2 cap^2 floats.
    """
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
    mn = rep_in.dim * rep_out.dim
    if mn > cap:
        raise CapExceeded(f"mn = {mn} exceeds oracle cap {cap}")
    group = rep_in.group
    gens, reached = [], np.zeros(group.order, bool)
    reached[group.identity] = True
    for g in sorted(set(group.generator_indices or group.elements())):
        if not reached[g]:  # else the kept generators generate it: its block adds no constraint
            gens.append(g)
            new = np.flatnonzero(reached)
            while new.size:  # close the reached subgroup under right products with the kept ones
                new = np.unique(group.cayley[new[:, None], gens])
                new = new[~reached[new]]
                reached[new] = True
    if len(gens) * mn * mn > 2 * cap * cap:
        raise CapExceeded(f"{len(gens)} generators at mn = {mn} exceed the oracle's stack of 2 x {cap}^2")
    if not gens:
        return np.eye(mn)
    t, s = _linear_map_action(rep_in, rep_out, gens)
    blocks, cols = np.zeros((len(gens), mn, mn)), np.arange(mn)  # block k: rho_W(g_k) - I
    blocks[np.arange(len(gens))[:, None], t, cols] = s
    blocks[:, cols, cols] -= 1
    return _nullspace_by_elimination(blocks.reshape(-1, mn), tol)


class BasisReport(NamedTuple):
    passed: bool
    rank: int
    burnside: int
    zero_forced: int
    max_residual: float
    first_violation: tuple[int, int, tuple[int, int]] | None = None


def validate_basis(
    basis: EquivBasis,
    rep_in: Representation,
    rep_out: Representation,
    tol: float = ORACLE_TOL,
) -> BasisReport:
    """Check every orbit vector satisfies rho_out(g) W = W rho_in(g).

    Also checks the orbit count against the Burnside rank.  Violations are
    reported, not raised.
    """
    group = rep_out.group
    worst = 0.0
    violation = None
    for k in range(basis.rank):
        w = basis.materialize(k)
        for g in group.elements():
            resid = act(rep_out, g, w.T).T - act(rep_in, group.inverse[g], w)  # rho_out(g) W - W rho_in(g)
            local = float(np.abs(resid).max()) if resid.size else 0.0
            if local > worst:
                worst = local
                if local > tol and violation is None:
                    i, j = np.unravel_index(int(np.abs(resid).argmax()), resid.shape)
                    violation = (g, k, (int(i), int(j)))
    try:
        expected = burnside_rank(rep_in, rep_out)
    except NonIntegralRank:
        expected = -1
    passed = worst <= tol and basis.rank == expected
    if basis.rank != expected and violation is None:
        violation = (group.identity, -1, (-1, -1))
    return BasisReport(passed, basis.rank, expected, len(basis.zero_forced), worst, violation)


def span_residual(basis: EquivBasis, oracle: np.ndarray) -> float:
    """Largest distance of any orbit vector from the oracle's span.

    Orbit vectors are normalized before projection; residual is the 2-norm
    of the component outside the span.
    """
    worst = 0.0
    for k in range(basis.rank):
        v = basis.materialize(k).ravel()
        v = v / np.linalg.norm(v)
        resid = v - oracle @ (oracle.T @ v)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def _orbits_json(orbits: Orbits, sep: str, colon: str):
    """Yield the items of the orbits' JSON list, ``BASIS_BLOCK`` entries per chunk.
    Each entry is one fixed-width byte record, built column-major; the bytes it does
    not use (first separator, head, leading zeros, "-" for +1, "]}") are zeroed and dropped."""
    width = len(str(int(orbits.index.max(initial=0))))
    fields = [sep, f'{{"entries"{colon}[', "[", "0" * width, sep, "-", "1]", "]}"]
    ends = np.cumsum([len(f) for f in fields]).tolist()
    head, units, minus, tail = slice(ends[0], ends[1]), ends[3] - 1, ends[4], slice(ends[6], None)
    template = np.frombuffer("".join(fields).encode(), dtype=np.uint8)[:, None]
    change = orbits.orbit[1:] != orbits.orbit[:-1]
    opens, closes = np.insert(change, 0, True), np.append(change, True)
    for lo in range(0, orbits.index.size, BASIS_BLOCK):
        block = slice(lo, lo + BASIS_BLOCK)
        buf = np.repeat(template, opens[block].size, axis=1)
        buf[: len(sep), 0] *= lo > 0
        buf[head] *= opens[block]
        q = orbits.index[block]
        for row in range(units, units - width, -1):
            shown = (q > 0) | (row == units)  # a leading zero is dropped, a units digit never
            q, r = np.divmod(q, 10)
            buf[row] = (r + ord("0")) * shown
        buf[minus] *= orbits.sign[block] < 0
        buf[tail] *= closes[block]
        yield buf.T.tobytes().translate(None, b"\0").decode()


def basis_json_chunks(basis: EquivBasis, separators: tuple[str, str] = (", ", ": ")):
    """Yield the basis file's JSON text as ``json.dumps`` with ``separators`` writes it."""
    sep, colon = separators
    yield f'{{"m"{colon}{basis.m}{sep}"n"{colon}{basis.n}{sep}"orbits"{colon}['
    yield from _orbits_json(basis.orbits, sep, colon)
    yield f']{sep}"zero_forced"{colon}['
    yield from _orbits_json(basis.zero_forced, sep, colon)
    yield "]}"


def basis_fingerprint(basis: EquivBasis) -> str:
    """Stable content hash used to pair weights files with their basis."""
    digest = hashlib.sha256()
    for chunk in basis_json_chunks(basis, (",", ":")):
        digest.update(chunk.encode())
    return digest.hexdigest()[:16]


def oracle_to_dict(oracle: np.ndarray, m: int, n: int) -> dict:
    """Oracle output in the basis-file shape, with dense vectors instead of
    sparse entries, so the two files can be diffed."""
    return {
        "m": m,
        "n": n,
        "orbits": [{"vector": oracle[:, k].tolist()} for k in range(oracle.shape[1])],
    }
