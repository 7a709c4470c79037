"""Bases of equivariant linear maps for generalized permutation groups.

Two independent routes are provided on purpose:

* ``orbit_basis`` traces the orbits of the flat coordinates of vec(W) under
  the group action on linear maps, in O(|G| m n) time and without ever
  materializing an (mn x mn) matrix.
* ``dense_nullspace_oracle`` stacks the fix-point constraints into one dense
  system and solves it by Gaussian elimination.  It exists solely to check
  the orbit route and is capped in size.

``burnside_rank`` gives the rank a third way, as a group-averaged signed
trace, so the three can be cross-checked in tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceeded, GroupMismatch, NonIntegralRank
from .groups import (
    Representation,
    _linear_map_action,
    act,
    tensor_on_linear_maps,
    trivial_representation,
)

ORACLE_CAP = 4096
ORACLE_TOL = 1e-10
TRACE_CHUNK = 32  # group elements per slab of the |G| x mn tracing tables
BASIS_BLOCK = 1 << 14  # orbit entries per chunk of basis-file JSON text


@dataclass(frozen=True, eq=False)
class Orbits:
    """Signed orbits of flat vec(W) coordinates, as three read-only arrays.

    Entry k puts ``sign[k]`` at flat coordinate ``index[k]`` of orbit
    ``orbit[k]``.  Entries are sorted by orbit, then by index.  Orbits are
    numbered in the order of their smallest index, whose sign is +1.
    """

    index: np.ndarray
    sign: np.ndarray
    orbit: np.ndarray

    def __post_init__(self):
        for name, dtype in (("index", np.intp), ("sign", np.int8), ("orbit", np.intp)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.orbit[-1]) + 1 if self.orbit.size else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orbits):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in ("index", "sign", "orbit"))


@dataclass(frozen=True)
class EquivBasis:
    """Signed-orbit basis of the space of equivariant m x n linear maps.

    ``orbits`` hold one free coefficient each; ``zero_forced`` orbits are
    coordinates pinned to zero by a sign contradiction and carry no
    coefficient.  For bias bases use n = 1.
    """

    m: int
    n: int
    orbits: Orbits
    zero_forced: Orbits

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
    """Orbits numbered by their smallest coordinates; entries ordered by one sort
    of the unique keys orbit * mn + index, which stay below 2^63 for mn < 3e9."""
    first = np.zeros(canon.size, dtype=bool)
    first[canon[coords]] = True
    orbit = first.astype(np.int64).cumsum()[canon[coords]] - 1
    orbit, index = np.divmod(np.sort(orbit * canon.size + coords), canon.size)
    return Orbits(index, sign[index], orbit)


def _trace_orbits(rep_in: Representation, rep_out: Representation) -> tuple[Orbits, Orbits]:
    """Orbits of vec(W) under the action on linear maps, free and zero-forced.

    Row g of each slab is the action of g^-1, so the first minimum over the
    group axis finds, for coordinate i, the orbit's smallest coordinate c
    and the first element g (in group order) that sends c onto i.  The sign
    g^-1 gives i equals the sign g gives c, which is the sign the orbit
    stores at i.  An orbit is zero-forced when some element fixes one of
    its coordinates with sign -1.
    """
    group = rep_out.group
    mn = rep_out.dim * rep_in.dim
    coords = np.arange(mn)
    canon = coords.copy()  # the identity, element 0, maps i to itself with sign +1
    sign = np.ones(mn, dtype=np.int8)
    dead = np.zeros(mn, dtype=bool)
    for start in range(0, group.order, TRACE_CHUNK):
        t, s = _linear_map_action(rep_in, rep_out, group.inverse[start : start + TRACE_CHUNK])
        dead |= ((t == coords) & (s < 0)).any(axis=0)
        first = t.argmin(axis=0)
        low = t[first, coords]
        better = low < canon
        canon[better] = low[better]
        sign[better] = s[first, coords][better]
    return _group_orbits(coords[~dead], canon, sign), _group_orbits(coords[dead], canon, sign)


def orbit_basis(rep_in: Representation, rep_out: Representation) -> EquivBasis:
    """Equivariant-map basis via orbit tracing, O(|G| m n).

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


def _nullspace_by_elimination(c: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal nullspace basis via Gauss-Jordan with partial pivoting."""
    rows, cols = c.shape
    a = c.astype(float).copy()
    pivot_cols: list[int] = []
    r = 0
    for col in range(cols):
        if r >= rows:
            break
        p = int(np.argmax(np.abs(a[r:, col]))) + r
        if abs(a[p, col]) <= tol:
            continue
        a[[r, p]] = a[[p, r]]
        a[r] /= a[r, col]
        mask = np.abs(a[:, col]) > 0
        mask[r] = False
        a[mask] -= np.outer(a[mask, col], a[r])
        pivot_cols.append(col)
        r += 1
    pivot_set = set(pivot_cols)
    free_cols = [c_ for c_ in range(cols) if c_ not in pivot_set]
    basis = np.zeros((cols, len(free_cols)))
    for j, fc in enumerate(free_cols):
        basis[fc, j] = 1.0
        for i, pc in enumerate(pivot_cols):
            basis[pc, j] = -a[i, fc]
    if basis.shape[1] == 0:
        return basis
    q, _ = np.linalg.qr(basis)
    return q


def dense_nullspace_oracle(
    rep_in: Representation,
    rep_out: Representation,
    tol: float = ORACLE_TOL,
    cap: int = ORACLE_CAP,
) -> np.ndarray:
    """Brute-force equivariant basis: nullspace of the stacked constraints.

    Stacks (rho_W(g) - I) for every non-identity g into one system and
    eliminates.  Returns an orthonormal (mn x r') basis of the nullspace.
    Verification-only; refuses problems with mn above ``cap``.
    """
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
    mn = rep_in.dim * rep_out.dim
    if mn > cap:
        raise CapExceeded(f"mn = {mn} exceeds oracle cap {cap}")
    group = rep_in.group
    rep_w = tensor_on_linear_maps(rep_in, rep_out)
    eye = np.eye(mn, dtype=np.int64)  # an integer eye: a sign flip gives no -0.0
    blocks = [
        act(rep_w, g, eye).T - np.eye(mn)
        for g in group.elements()
        if g != group.identity
    ]
    if not blocks:
        return np.eye(mn)
    return _nullspace_by_elimination(np.vstack(blocks), tol)


@dataclass
class BasisReport:
    passed: bool
    rank: int
    burnside: int
    zero_forced: int
    max_residual: float
    first_violation: tuple[int, int, tuple[int, int]] | None = None

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = (
            f"{status}: rank {self.rank} (burnside {self.burnside}), "
            f"{self.zero_forced} zero-forced orbit(s), max residual {self.max_residual:.3e}"
        )
        if self.rank != self.burnside:
            line += "; orbit count disagrees with the trace count"
        elif self.first_violation is not None:
            g, k, (i, j) = self.first_violation
            line += f"; first violation at element {g}, orbit {k}, entry ({i},{j})"
        return line


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
