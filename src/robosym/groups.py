"""Finite groups of generalized permutation matrices.

Everything in this module is exact integer arithmetic: a matrix with exactly
one +-1 entry per row and column is stored as a (target, sign) pair, and a
representation stacks one such pair per group element into two (|G|, dim)
arrays.  Groups are built by breadth-first closure of a generator list, so
element ordering (identity first, then discovery order) is reproducible
bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ClosureExceeded, DimMismatch, GroupMismatch, ParseError, parse_int

T = TypeVar("T")

DEFAULT_ORDER_CAP = 1024


@dataclass(frozen=True)
class GenPermMatrix:
    """Square matrix with exactly one +-1 entry per row and column.

    ``target[i]`` is the row receiving input coordinate ``i`` and ``sign[i]``
    its sign, i.e. ``M[target[i], i] = sign[i]``.
    """

    dim: int
    target: tuple[int, ...]
    sign: tuple[int, ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if len(self.target) != self.dim or len(self.sign) != self.dim:
            raise ValueError("target/sign length must equal dim")
        if sorted(self.target) != list(range(self.dim)):
            raise ValueError("target is not a permutation of 0..dim-1")
        if any(s not in (-1, 1) for s in self.sign):
            raise ValueError("sign entries must be +1 or -1")

    @classmethod
    def identity(cls, dim: int) -> "GenPermMatrix":
        return cls(dim, tuple(range(dim)), (1,) * dim)

    @classmethod
    def from_permutation(cls, target: Sequence[int], sign: Sequence[int] | None = None) -> "GenPermMatrix":
        target = tuple(int(t) for t in target)
        if sign is None:
            sign = (1,) * len(target)
        return cls(len(target), target, tuple(int(s) for s in sign))

    @property
    def is_identity(self) -> bool:
        return self.target == tuple(range(self.dim)) and all(s == 1 for s in self.sign)

    @property
    def is_unsigned(self) -> bool:
        return all(s == 1 for s in self.sign)

    def compose(self, other: "GenPermMatrix") -> "GenPermMatrix":
        """Matrix product self @ other, i.e. x -> self(other(x))."""
        if self.dim != other.dim:
            raise DimMismatch(f"cannot compose dims {self.dim} and {other.dim}")
        tgt = tuple(self.target[other.target[j]] for j in range(self.dim))
        sgn = tuple(other.sign[j] * self.sign[other.target[j]] for j in range(self.dim))
        return GenPermMatrix(self.dim, tgt, sgn)

    def __matmul__(self, other: "GenPermMatrix") -> "GenPermMatrix":
        return self.compose(other)

    def inverse(self) -> "GenPermMatrix":
        tgt = [0] * self.dim
        sgn = [1] * self.dim
        for i, t in enumerate(self.target):
            tgt[t] = i
            sgn[t] = self.sign[i]
        return GenPermMatrix(self.dim, tuple(tgt), tuple(sgn))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute M x in O(dim) without materializing the matrix.

        Accepts a vector of length dim or an array whose last axis has
        length dim (batched application).
        """
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise DimMismatch(f"vector of length {x.shape[-1]} for matrix of dim {self.dim}")
        out = np.empty_like(x, dtype=np.result_type(x, np.int64))
        out[..., list(self.target)] = x * np.asarray(self.sign)
        return out

    def as_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=np.int64)
        m[list(self.target), range(self.dim)] = self.sign
        return m


@dataclass(frozen=True)
class FiniteGroup:
    """Abstract finite group: Cayley table over element indices 0..order-1.

    Element 0 is the identity.  ``generator_indices`` points at the elements
    the group was closed from, in the order they were given.
    """

    order: int
    cayley: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    generator_indices: tuple[int, ...] = ()
    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.cayley[x][a]
            k += 1
        return k

    def validate(self) -> None:
        """Check identity, inverse and associativity axioms on the table."""
        e = self.identity
        for x in self.elements():
            if self.cayley[e][x] != x or self.cayley[x][e] != x:
                raise ValueError(f"identity axiom fails at element {x}")
            if self.cayley[x][self.inverse[x]] != e:
                raise ValueError(f"inverse axiom fails at element {x}")
        for a in self.elements():
            for b in self.elements():
                ab = self.cayley[a][b]
                for c in self.elements():
                    if self.cayley[ab][c] != self.cayley[a][self.cayley[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")


@dataclass(frozen=True, eq=False)
class Representation:
    """One generalized permutation matrix per group element, as two arrays.

    Element g sends coordinate i to ``targets[g, i]`` with sign
    ``signs[g, i]``.  Both arrays are (|G|, dim) and read-only; equality and
    hashing go by the group and the array contents.
    """

    group: FiniteGroup
    targets: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        targets = np.array(self.targets, dtype=np.intp)
        signs = np.array(self.signs, dtype=np.int8)
        if targets.ndim != 2 or targets.shape[0] != self.group.order:
            raise ValueError("need one target row per group element")
        if signs.shape != targets.shape:
            raise ValueError("signs must have the shape of targets")
        if (np.sort(targets, axis=1) != np.arange(targets.shape[1])).any():
            raise ValueError("every target row must be a permutation of 0..dim-1")
        if (np.abs(signs) != 1).any():
            raise ValueError("sign entries must be +1 or -1")
        targets.flags.writeable = False
        signs.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "signs", signs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.group == other.group
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.signs, other.signs)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.targets.shape, self.targets.tobytes(), self.signs.tobytes()))

    @property
    def dim(self) -> int:
        return self.targets.shape[1]

    @property
    def is_unsigned(self) -> bool:
        return bool((self.signs == 1).all())

    def matrix(self, g: int) -> GenPermMatrix:
        return GenPermMatrix(self.dim, tuple(self.targets[g].tolist()), tuple(self.signs[g].tolist()))

    def traces(self) -> np.ndarray:
        """Signed trace of every element: the signs of its fixed coordinates, summed."""
        return np.where(self.targets == np.arange(self.dim), self.signs, 0).sum(axis=1)

    def apply_matrix_left(self, g: int, w: np.ndarray) -> np.ndarray:
        """rho(g) @ W without densifying rho(g)."""
        out = np.empty_like(w, dtype=float)
        out[self.targets[g], :] = self.signs[g][:, None] * w
        return out

    def apply_matrix_right(self, w: np.ndarray, g: int) -> np.ndarray:
        """W @ rho(g) without densifying rho(g)."""
        # column j of W @ rho(g) is sign[j] * W[:, target[j]]
        return w[:, self.targets[g]] * self.signs[g][None, :]


def act(rep: Representation, g: int, x: np.ndarray) -> np.ndarray:
    """Group action rho(g) x, computed coordinate-wise in O(dim)."""
    return rep.matrix(g).apply(x)


def group_closure(
    generators: Sequence[GenPermMatrix], order_cap: int = DEFAULT_ORDER_CAP
) -> tuple[FiniteGroup, Representation]:
    """Close a generator list under matrix product.

    Returns the abstract group (Cayley table, inverses) together with the
    representation holding every distinct product.  Element 0 is the
    identity; the rest follow breadth-first discovery order, so the result
    is deterministic for a fixed generator list.
    """
    if not generators:
        raise GroupMismatch("need at least one generator")
    if order_cap < 1:
        raise ValueError("order_cap must be >= 1")
    dims = {g.dim for g in generators}
    if len(dims) != 1:
        raise DimMismatch(f"generators have mixed dims {sorted(dims)}")

    gens = [(np.asarray(g.target, dtype=np.intp), np.asarray(g.sign, dtype=np.int8)) for g in generators]
    dim = generators[0].dim
    targets = [np.arange(dim, dtype=np.intp)]
    signs = [np.ones(dim, dtype=np.int8)]
    index = {targets[0].tobytes() + signs[0].tobytes(): 0}
    right = []  # right[x][j]: index of element x times generator j
    found_by = [(0, 0)]  # element b was found as element x times generator j
    x = 0
    while x < len(targets):
        row = []
        for j, (gen_t, gen_s) in enumerate(gens):
            t, s = targets[x][gen_t], gen_s * signs[x][gen_t]
            key = t.tobytes() + s.tobytes()
            k = index.get(key)
            if k is None:
                if len(targets) >= order_cap:
                    raise ClosureExceeded(
                        f"closure exceeds cap of {order_cap} elements; "
                        "generators may not generate a finite group of that size"
                    )
                k = index[key] = len(targets)
                targets.append(t)
                signs.append(s)
                found_by.append((x, j))
            row.append(k)
        right.append(row)
        x += 1

    # Column b of the Cayley table: a b = (a x) gen_j when b = x gen_j, and
    # x was found before b.
    order = len(targets)
    right_arr = np.array(right, dtype=np.intp)
    cayley = np.empty((order, order), dtype=np.intp)
    cayley[:, 0] = np.arange(order)
    for b in range(1, order):
        x, j = found_by[b]
        cayley[:, b] = right_arr[cayley[:, x], j]
    inverse = (cayley == 0).argmax(axis=1)
    gen_indices = tuple(index[t.tobytes() + s.tobytes()] for t, s in gens)
    group = FiniteGroup(order, tuple(map(tuple, cayley.tolist())), tuple(inverse.tolist()), gen_indices)
    return group, Representation(group, np.stack(targets), np.stack(signs))


def make_cyclic(k: int, block_dim: int = 1) -> tuple[FiniteGroup, Representation]:
    """Cyclic group C_k acting by cycling k blocks of block_dim coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if block_dim < 1:
        raise ValueError("block_dim must be >= 1")
    dim = k * block_dim
    tgt = tuple(((i // block_dim + 1) % k) * block_dim + i % block_dim for i in range(dim))
    gen = GenPermMatrix(dim, tgt, (1,) * dim)
    return group_closure([gen], order_cap=max(k, 1))


def element_words(group: FiniteGroup) -> list[list[int]]:
    """Generator word for each element, replaying the closure's BFS order.

    Entry g is a list of generator indices whose left-to-right product equals
    element g; the identity gets the empty word.
    """
    words: list[list[int] | None] = [None] * group.order
    words[group.identity] = []
    i = 0
    seen = [group.identity]
    while i < len(seen):
        x = seen[i]
        for j in group.generator_indices:
            y = group.cayley[x][j]
            if words[y] is None:
                words[y] = words[x] + [j]  # type: ignore[operator]
                seen.append(y)
        i += 1
    if any(w is None for w in words):
        raise GroupMismatch("generator_indices do not generate the group")
    return words  # type: ignore[return-value]


def extend_by_words(
    group: FiniteGroup,
    generator_values: dict[int, T],
    compose: Callable[[T, T], T],
    identity_value: T,
) -> list[T]:
    """Extend per-generator values to all elements along their BFS words.

    ``compose(a, b)`` must mirror the group product: the value of x*gen is
    compose(value(x), value(gen)).
    """
    values: list[T] = [identity_value] * group.order
    for g, word in enumerate(element_words(group)):
        v = identity_value
        for j in word:
            v = compose(v, generator_values[j])
        values[g] = v
    return values


def direct_sum(reps: Sequence[Representation]) -> Representation:
    """Block-diagonal sum of representations of one group."""
    if not reps:
        raise GroupMismatch("direct_sum of an empty list has no group")
    group = reps[0].group
    if any(r.group != group for r in reps[1:]):
        raise GroupMismatch("representations belong to different groups")
    offsets = np.cumsum([0] + [r.dim for r in reps])
    targets = np.hstack([r.targets + off for r, off in zip(reps, offsets)])
    return Representation(group, targets, np.hstack([r.signs for r in reps]))


def _linear_map_action(rep_in: Representation, rep_out: Representation, elements):
    """(targets, signs) on vec(W) of the selected elements, each (k, m*n).

    ``elements`` is an index array or slice over the group; the rows follow
    the row-major convention vec(W)[i*n + j] = W[i, j].
    """
    n = rep_in.dim
    t = rep_out.targets[elements, :, None] * n + rep_in.targets[elements, None, :]
    s = rep_out.signs[elements, :, None] * rep_in.signs[elements, None, :]
    return t.reshape(len(t), -1), s.reshape(len(s), -1)


def tensor_on_linear_maps(rep_in: Representation, rep_out: Representation) -> Representation:
    """Representation on vectorized m x n linear maps W.

    Element g acts by rho_out(g) (x) rho_in(g^-1)^T under the row-major
    convention vec(W)[i*n + j] = W[i, j]; the fixed points of this action
    are exactly the maps with rho_out(g) W = W rho_in(g).  Generalized
    permutations are orthogonal, so rho_in(g^-1)^T = rho_in(g) and the
    action is a broadcast of the two index arrays.
    """
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
    return Representation(rep_in.group, *_linear_map_action(rep_in, rep_out, slice(None)))


def regular_representation(group: FiniteGroup) -> Representation:
    """Group acting on itself by left multiplication; fixed-point free."""
    return Representation(group, group.cayley, np.ones((group.order, group.order)))


def tiled_regular_representation(group: FiniteGroup, width: int) -> Representation:
    """Copies of the regular representation stacked to the requested width."""
    from .errors import IncompatibleWidth

    if width % group.order != 0:
        raise IncompatibleWidth(
            f"width {width} is not a multiple of the group order {group.order}"
        )
    reg = regular_representation(group)
    return direct_sum([reg] * (width // group.order))


def trivial_representation(group: FiniteGroup, dim: int = 1) -> Representation:
    shape = (group.order, dim)
    return Representation(group, np.broadcast_to(np.arange(dim), shape), np.ones(shape))


@dataclass
class HomomorphismReport:
    passed: bool
    checked_pairs: int
    first_violation: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.passed:
            return f"homomorphism holds on all {self.checked_pairs} pairs"
        g, h = self.first_violation  # type: ignore[misc]
        return f"homomorphism fails at pair ({g}, {h})"


def verify_homomorphism(rep: Representation) -> HomomorphismReport:
    """Exact check of rho(g h) == rho(g) rho(h) over every pair."""
    group = rep.group
    for g in group.elements():
        # rho(g) rho(h) for every h at once, against rho(g h)
        gh = list(group.cayley[g])
        bad = (rep.targets[g][rep.targets] != rep.targets[gh]).any(axis=1)
        bad |= (rep.signs * rep.signs[g][rep.targets] != rep.signs[gh]).any(axis=1)
        if bad.any():
            h = int(bad.argmax())
            return HomomorphismReport(False, g * group.order + h + 1, (g, h))
    checked = group.order**2
    if not rep.matrix(group.identity).is_identity:
        return HomomorphismReport(False, checked, (group.identity, group.identity))
    return HomomorphismReport(True, checked)


def _line_of_occurrence(text: str, token: str, occurrence: int) -> int | None:
    """1-based line of the n-th occurrence of token, or None."""
    pos = -1
    for _ in range(occurrence + 1):
        pos = text.find(token, pos + 1)
        if pos < 0:
            return None
    return text.count("\n", 0, pos) + 1


def parse_generator(entry: dict, dim: int) -> GenPermMatrix:
    if "target" not in entry or "sign" not in entry:
        raise ParseError("generator needs 'target' and 'sign' arrays")
    target, sign = (
        tuple(parse_int(f"entry {j}", key, v) for j, v in enumerate(entry[key]))
        for key in ("target", "sign")
    )
    return GenPermMatrix(dim, target, sign)


def load_generator_file(path: str) -> tuple[int, list[GenPermMatrix]]:
    """Load {"dim": n, "generators": [{"target": [...], "sign": [...]}, ...]}.

    Validation failures report the generator's line in the file.
    """
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or not isinstance(data.get("generators"), list):
        raise ParseError(f"{path}: expected object with 'dim' and a 'generators' list")
    dim = parse_int(path, "dim", data["dim"])
    gens = []
    for i, entry in enumerate(data["generators"]):
        try:
            gens.append(parse_generator(entry, dim))
        except (ValueError, ParseError, TypeError) as exc:
            line = _line_of_occurrence(text, '"target"', i)
            where = f"line {line}" if line is not None else f"index {i}"
            raise ParseError(f"{path}: generator {i} ({where}): {exc}") from exc
    if not gens:
        raise ParseError(f"{path}: no generators")
    return dim, gens


def load_representation(path: str, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[FiniteGroup, Representation]:
    """Load a generator file and close it into (group, representation)."""
    _, gens = load_generator_file(path)
    return group_closure(gens, order_cap=order_cap)


def load_representation_pair(
    path_in: str, path_out: str, order_cap: int = DEFAULT_ORDER_CAP
) -> tuple[Representation, Representation]:
    """Load two generator files describing aligned actions of one group.

    Generator k of both files must realize the same abstract generator; the
    pair is closed jointly (block-diagonally), so the two representations
    share one group even when either is unfaithful on its own (e.g. a
    trivial output representation).
    """
    dim_in, gens_in = load_generator_file(path_in)
    dim_out, gens_out = load_generator_file(path_out)
    if len(gens_in) != len(gens_out):
        raise ParseError(
            f"{path_in} and {path_out} must list the same number of generators "
            f"({len(gens_in)} vs {len(gens_out)}); generator k of each file must "
            "realize the same abstract group generator"
        )
    joint = [
        GenPermMatrix(
            dim_in + dim_out,
            tuple(gi.target) + tuple(dim_in + t for t in go.target),
            tuple(gi.sign) + tuple(go.sign),
        )
        for gi, go in zip(gens_in, gens_out)
    ]
    group, rep = group_closure(joint, order_cap=order_cap)
    return (
        Representation(group, rep.targets[:, :dim_in], rep.signs[:, :dim_in]),
        Representation(group, rep.targets[:, dim_in:] - dim_in, rep.signs[:, dim_in:]),
    )
