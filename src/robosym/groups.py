"""Finite groups of generalized permutation matrices.

Everything in this module is exact integer arithmetic.  A matrix with
exactly one +-1 entry per row and column is a signed permutation, stored as
a (target, sign) pair of arrays: coordinate i goes to ``target[i]`` with
sign ``sign[i]``.  A representation stacks one such pair per group element
into two (|G|, dim) arrays, and a group is its Cayley table.  Groups are
built by breadth-first closure of a generator list, so element ordering
(identity first, then discovery order) is reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (ClosureExceeded, DimMismatch, GroupMismatch, IncompatibleWidth, ParseError,
                     parse_int, parse_int_list)
from .fileio import json_input

T = TypeVar("T")

DEFAULT_ORDER_CAP = 1024


def _checked_signed(targets, signs) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutations (..., dim) as intp targets and int8 signs, checked:
    every target row lists 0..dim-1 once and every sign is +1 or -1."""
    targets, signs = np.asarray(targets), np.asarray(signs)
    if signs.shape != targets.shape:
        raise ValueError("sign must have the shape of target")
    if (np.sort(targets, axis=-1) != np.arange(targets.shape[-1])).any():
        raise ValueError("target is not a permutation of 0..dim-1")
    if (np.abs(signs) != 1).any():
        raise ValueError("sign entries must be +1 or -1")
    return targets.astype(np.intp), signs.astype(np.int8)


def signed_permutation(target: Sequence[int],
                       sign: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One signed permutation as checked (target, sign) arrays.

    Coordinate i goes to ``target[i]`` with sign ``sign[i]`` (all +1 when
    ``sign`` is None), i.e. the matrix M has ``M[target[i], i] = sign[i]``;
    dim 0 is allowed.
    """
    return _checked_signed(target, np.ones(len(target)) if sign is None else sign)


def _apply_signed(target: np.ndarray, sign: np.ndarray, x) -> np.ndarray:
    """M x for the signed permutation (target, sign), as one gather (faster than a scatter).

    Accepts a vector of length dim or an array whose last axis has length
    dim (batched application); ``_apply_signed(t, s, np.eye(dim, dtype=int)).T``
    is M, with no -0.0, as the result has the dtype of ``x`` and int64 combined.
    """
    x = np.asarray(x)
    if x.shape[-1] != len(target):
        raise DimMismatch(f"vector of length {x.shape[-1]} for matrix of dim {len(target)}")
    src = np.argsort(target)  # the inverse permutation: target[src[j]] = j
    out = np.take(x, src, axis=-1).astype(np.result_type(x, np.int64), copy=False)
    out *= sign[src]
    return out


class _ReadOnly:
    """Base of records whose attributes ``__init__`` sets once, through ``__dict__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class FiniteGroup(_ReadOnly):
    """Abstract finite group: Cayley table over element indices 0..order-1.

    ``cayley[a, b]`` is the element a b and ``inverse[a]`` is a^-1, both
    read-only intp arrays; equality and hashing go by their contents.
    Element 0 is the identity.  ``generator_indices`` points at the elements
    the group was closed from, in the order they were given.
    """

    identity = 0

    def __init__(self, cayley: np.ndarray, inverse: np.ndarray, generator_indices: tuple[int, ...] = ()):
        cayley, inverse = np.array(cayley, dtype=np.intp), np.array(inverse, dtype=np.intp)
        cayley.flags.writeable = inverse.flags.writeable = False
        self.__dict__.update(cayley=cayley, inverse=inverse, generator_indices=generator_indices)
        if self.cayley.shape != (self.order, self.order) or self.inverse.shape != (self.order,):
            raise ValueError("need a square Cayley table and one inverse per element")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or (
            self.generator_indices == other.generator_indices
            and np.array_equal(self.cayley, other.cayley)
            and np.array_equal(self.inverse, other.inverse)
        )

    def __hash__(self) -> int:
        return hash((self.order, self.cayley.tobytes(), self.generator_indices))

    @property
    def order(self) -> int:
        return len(self.cayley)

    def elements(self) -> range:
        return range(self.order)

    def validate(self) -> None:
        """Check identity, inverse and associativity axioms on the table,
        one element's row of products at a time; raises at the first failure."""
        c, every = self.cayley, np.arange(self.order)
        bad_identity = (c[self.identity] != every) | (c[:, self.identity] != every)
        bad = bad_identity | (c[every, self.inverse] != self.identity)
        if bad.any():
            x = int(bad.argmax())
            raise ValueError(f"{'identity' if bad_identity[x] else 'inverse'} axiom fails at element {x}")
        for a in self.elements():
            bad = c[c[a]] != c[a][c]  # [b, c]: (a b) c against a (b c)
            if bad.any():
                b, cc = divmod(int(bad.argmax()), self.order)
                raise ValueError(f"associativity fails at ({a},{b},{cc})")


class Representation(_ReadOnly):
    """One generalized permutation matrix per group element, as two arrays.

    Element g sends coordinate i to ``targets[g, i]`` with sign
    ``signs[g, i]``.  Both arrays are (|G|, dim) and read-only; equality and
    hashing go by the group and the array contents.
    """

    def __init__(self, group: FiniteGroup, targets: np.ndarray, signs: np.ndarray):
        targets, signs = _checked_signed(targets, signs)
        if targets.ndim != 2 or targets.shape[0] != group.order:
            raise ValueError("need one target row per group element")
        targets.flags.writeable = signs.flags.writeable = False
        self.__dict__.update(group=group, targets=targets, signs=signs)

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

    def traces(self) -> np.ndarray:
        """Signed trace of every element: the signs of its fixed coordinates, summed."""
        return np.where(self.targets == np.arange(self.dim), self.signs, 0).sum(axis=1)


def act(rep: Representation, g: int, x: np.ndarray) -> np.ndarray:
    """Group action rho(g) x, computed coordinate-wise in O(dim)."""
    return _apply_signed(rep.targets[g], rep.signs[g], x)


def group_closure(
    targets: Sequence[Sequence[int]], signs: Sequence[Sequence[int]], order_cap: int = DEFAULT_ORDER_CAP
) -> tuple[FiniteGroup, Representation]:
    """Close a generator list under matrix product.

    Generator k is the signed permutation (``targets[k]``, ``signs[k]``):
    two (k, dim) arrays, as ``load_generator_file`` returns them, or lists
    of rows.  Returns the abstract group (Cayley table, inverses) together
    with the representation holding every distinct product.  Element 0 is
    the identity; the rest follow breadth-first discovery order, so the
    result is deterministic for a fixed generator list.
    """
    if len(targets) == 0:
        raise GroupMismatch("need at least one generator")
    if order_cap < 1:
        raise ValueError("order_cap must be >= 1")
    gens = [signed_permutation(t, s) for t, s in zip(targets, signs, strict=True)]
    dims = {len(t) for t, _ in gens}
    if len(dims) != 1:
        raise DimMismatch(f"generators have mixed dims {sorted(dims)}")

    dim = dims.pop()
    elem_t = [np.arange(dim, dtype=np.intp)]
    elem_s = [np.ones(dim, dtype=np.int8)]
    index = {elem_t[0].tobytes() + elem_s[0].tobytes(): 0}
    right = []  # right[x][j]: index of element x times generator j
    found_by = [(0, 0)]  # element b was found as element x times generator j
    x = 0
    while x < len(elem_t):
        row = []
        for j, (gen_t, gen_s) in enumerate(gens):
            t, s = elem_t[x][gen_t], gen_s * elem_s[x][gen_t]
            key = t.tobytes() + s.tobytes()
            k = index.get(key)
            if k is None:
                if len(elem_t) >= order_cap:
                    raise ClosureExceeded(
                        f"closure exceeds cap of {order_cap} elements; "
                        "generators may not generate a finite group of that size"
                    )
                k = index[key] = len(elem_t)
                elem_t.append(t)
                elem_s.append(s)
                found_by.append((x, j))
            row.append(k)
        right.append(row)
        x += 1

    # Column b of the Cayley table: a b = (a x) gen_j when b = x gen_j, and
    # x was found before b.
    order = len(elem_t)
    right_arr = np.array(right, dtype=np.intp)
    cayley = np.empty((order, order), dtype=np.intp)
    cayley[:, 0] = np.arange(order)
    for b in range(1, order):
        x, j = found_by[b]
        cayley[:, b] = right_arr[cayley[:, x], j]
    inverse = (cayley == 0).argmax(axis=1)
    gen_indices = tuple(index[t.tobytes() + s.tobytes()] for t, s in gens)
    group = FiniteGroup(cayley, inverse, gen_indices)
    return group, Representation(group, np.stack(elem_t), np.stack(elem_s))


def make_cyclic(k: int, block_dim: int = 1) -> tuple[FiniteGroup, Representation]:
    """Cyclic group C_k acting by cycling k blocks of block_dim coordinates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if block_dim < 1:
        raise ValueError("block_dim must be >= 1")
    dim = k * block_dim
    tgt = [((i // block_dim + 1) % k) * block_dim + i % block_dim for i in range(dim)]
    return group_closure([tgt], [[1] * dim], order_cap=k)


def extend_by_words(
    group: FiniteGroup,
    generator_values: dict[int, T],
    compose: Callable[[T, T], T],
    identity_value: T,
) -> list[T]:
    """Extend per-generator values to all elements along their BFS words.

    A breadth-first search from the identity over the Cayley table, right
    multiplying by the generators in ``generator_indices`` order, first
    reaches each element y as x * gen; y gets compose(value(x), value(gen)),
    the left-to-right product along its word, composed once.
    ``compose(a, b)`` must mirror the group product.
    """
    values: list = [None] * group.order
    values[group.identity] = identity_value
    reached = [group.identity]
    for x in reached:
        for j in group.generator_indices:
            y = int(group.cayley[x, j])
            if values[y] is None:
                values[y] = compose(values[x], generator_values[j])
                reached.append(y)
    if len(reached) != group.order:
        raise GroupMismatch("generator_indices do not generate the group")
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
    the row-major convention vec(W)[i*n + j] = W[i, j].  Targets are int32,
    so m*n must be below 2^31.
    """
    n = rep_in.dim
    t = np.add(rep_out.targets[elements, :, None] * n, rep_in.targets[elements, None, :], dtype=np.int32)
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
    if width < 1:
        raise IncompatibleWidth(f"width {width} must be positive")
    if width % group.order != 0:
        raise IncompatibleWidth(
            f"width {width} is not a multiple of the group order {group.order}"
        )
    reg = regular_representation(group)
    return direct_sum([reg] * (width // group.order))


def trivial_representation(group: FiniteGroup, dim: int = 1) -> Representation:
    shape = (group.order, dim)
    return Representation(group, np.broadcast_to(np.arange(dim), shape), np.ones(shape))


class HomomorphismReport(NamedTuple):
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
        gh = group.cayley[g]
        bad = (rep.targets[g][rep.targets] != rep.targets[gh]).any(axis=1)
        bad |= (rep.signs * rep.signs[g][rep.targets] != rep.signs[gh]).any(axis=1)
        if bad.any():
            h = int(bad.argmax())
            return HomomorphismReport(False, g * group.order + h + 1, (g, h))
    checked = group.order**2
    e = group.identity
    if (rep.targets[e] != np.arange(rep.dim)).any() or (rep.signs[e] != 1).any():
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


def parse_generator(entry: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A generator entry {"target": [...], "sign": [...]} as checked
    (target, sign) arrays of length ``dim``."""
    if "target" not in entry or "sign" not in entry:
        raise ParseError("generator needs 'target' and 'sign' arrays")
    target, sign = (parse_int_list(key, entry[key]) for key in ("target", "sign"))
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if len(target) != dim:
        raise ValueError("target/sign length must equal dim")
    return signed_permutation(target, sign)


def generator_arrays(path: str, data) -> tuple[np.ndarray, np.ndarray]:
    """``load_generator_file``'s arrays from ``data``, decoded from ``path``
    inside ``json_input(path)``, which names the file."""
    if not isinstance(data, dict) or "dim" not in data or not isinstance(data.get("generators"), list):
        raise ParseError("expected object with 'dim' and a 'generators' list")
    dim = parse_int("dim", data["dim"])
    gens = []
    for i, entry in enumerate(data["generators"]):
        try:
            gens.append(parse_generator(entry, dim))
        except (ValueError, ParseError, TypeError) as exc:
            line = None  # the i-th "target" token is this entry's only if the entry holds one
            if isinstance(entry, dict) and "target" in entry:
                with open(path, encoding="utf-8") as f:
                    line = _line_of_occurrence(f.read(), '"target"', i)
            where = f"line {line}" if line is not None else f"index {i}"
            raise ParseError(f"generator {i} ({where}): {exc}") from exc
    if not gens:
        raise ParseError("no generators")
    return np.array([t for t, _ in gens]), np.array([s for _, s in gens])


def load_generator_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load {"dim": n, "generators": [{"target": [...], "sign": [...]}, ...]}
    as (k, n) target and sign arrays.

    Validation failures report the generator's line in the file.
    """
    with json_input(path) as data:
        return generator_arrays(path, data)


def load_representation(path: str) -> tuple[FiniteGroup, Representation]:
    """Load a generator file and close it into (group, representation)."""
    return group_closure(*load_generator_file(path))


def load_representation_pair(path_in: str, path_out: str) -> tuple[Representation, Representation]:
    """Load two generator files describing aligned actions of one group.

    Generator k of both files must realize the same abstract generator; the
    pair is closed jointly (block-diagonally), so the two representations
    share one group even when either is unfaithful on its own (e.g. a
    trivial output representation).
    """
    t_in, s_in = load_generator_file(path_in)
    t_out, s_out = load_generator_file(path_out)
    if len(t_in) != len(t_out):
        raise ParseError(
            f"{path_in} and {path_out} must list the same number of generators "
            f"({len(t_in)} vs {len(t_out)}); generator k of each file must "
            "realize the same abstract group generator"
        )
    dim_in = t_in.shape[1]
    joint = np.hstack([t_in, t_out + dim_in]), np.hstack([s_in, s_out])
    group, rep = group_closure(*joint)
    return (
        Representation(group, rep.targets[:, :dim_in], rep.signs[:, :dim_in]),
        Representation(group, rep.targets[:, dim_in:] - dim_in, rep.signs[:, dim_in:]),
    )
