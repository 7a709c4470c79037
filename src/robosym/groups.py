"""Finite groups of generalized permutation matrices, and the one stored group action.

A matrix with exactly one +-1 entry per row and column is a signed
permutation, stored as a (target, sign) pair of arrays: coordinate i goes to
``target[i]`` with sign ``sign[i]``.  A representation stacks one such pair
per group element into two (|G|, dim) arrays, then may carry rotation blocks,
and a group is its Cayley table.  Groups are built by breadth-first closure
of a generator list, so element ordering (identity first, then discovery
order) is reproducible bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (ClosureExceeded, DimMismatch, GroupMismatch, IncompatibleWidth, ParseError,
                     check_isometry, parse_float, parse_int, parse_int_list, parse_object)
from .fileio import json_input

T = TypeVar("T")

DEFAULT_ORDER_CAP = 1024
CLOSE_ENTRIES = 1 << 16  # product entries per slab of the closure, one element's at least
TRACE_CAP = 1 << 31  # m*n bound of _linear_map_action's int32 tables, so also a tiled width's
PLAN_TOL = 1e-12  # entrywise |R^T R - I| allowed in a group file's isometries and in their products
ORACLE_TOL = 1e-10  # the dense oracle's pivot tolerance, and the largest span residual that agrees


def signed_permutation(target: Sequence, sign: Sequence | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutations (..., dim) as checked intp targets and int8 signs.

    Coordinate i goes to ``target[i]`` with sign ``sign[i]`` (all +1 when
    ``sign`` is None), i.e. the matrix M has ``M[target[i], i] = sign[i]``;
    every target row lists 0..dim-1 once, every sign is +1 or -1, and dim 0 is allowed.
    """
    target = np.asarray(target)
    sign = np.ones(target.shape) if sign is None else np.asarray(sign)
    if sign.shape != target.shape:
        raise ValueError("sign must have the shape of target")
    if (np.sort(target, axis=-1) != np.arange(target.shape[-1])).any():
        raise ValueError("target is not a permutation of 0..dim-1")
    if (np.abs(sign) != 1).any():
        raise ValueError("sign entries must be +1 or -1")
    return target.astype(np.intp), sign.astype(np.int8)


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
    the group was closed from, in the order they were given; the relation
    checks (``_broken_relation``) assume they generate the group.
    """

    identity = 0

    def __init__(self, cayley: np.ndarray, inverse: np.ndarray, generator_indices: tuple[int, ...] = ()):
        cayley, inverse = np.array(cayley, dtype=np.intp, order="C"), np.array(inverse, dtype=np.intp)
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


class Representation(_ReadOnly):
    """A group action: per element, one signed gather, then optional rotation blocks.

    Element g sends coordinate i to ``targets[g, i]`` with sign ``signs[g, i]``
    (+1 if ``signs`` is None); both arrays are (E, dim) and read-only.  Then,
    for each ``(slice, blocks, is_identity)`` in ``blocks``, ``blocks[g]`` of
    the (E, k, k) array turns every k-chunk of the slice, skipped where
    ``is_identity[g]`` says it is exactly the identity.  E is the group's
    order, or any count of candidates if ``group`` is None (a list that need
    not close).  Equality and hashing go by the group and the array contents.
    """

    def __init__(self, group: FiniteGroup | None, targets: np.ndarray, signs: np.ndarray | None, blocks=()):
        targets, signs = signed_permutation(targets, signs)
        if targets.ndim != 2 or group is not None and targets.shape[0] != group.order:
            raise ValueError("need one target row per group element")
        arrays = [(sl, np.array(b, dtype=float)) for sl, b in blocks]
        blocks = tuple((sl, b, (b == np.eye(b.shape[-1])).all(axis=(1, 2))) for sl, b in arrays)
        for a in (targets, signs, *(a for _, b, same in blocks for a in (b, same))):
            a.flags.writeable = False
        self.__dict__.update(group=group, targets=targets, signs=signs, blocks=blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.group == other.group
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.signs, other.signs)
            and [(sl, b.tobytes()) for sl, b, _ in self.blocks] == [(sl, b.tobytes()) for sl, b, _ in other.blocks]
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
        if self.blocks:
            raise ValueError("a signed trace reads only the signed gather, but this action has rotation blocks")
        return np.where(self.targets == np.arange(self.dim), self.signs, 0).sum(axis=1)


def act(rep: Representation, g: int, x: np.ndarray) -> np.ndarray:
    """rho(g) x on the last axis of x: one signed gather, in O(dim), then g's blocks that are
    not the identity, so values no block turns (NaN and -0.0 included) move exactly.  Without
    blocks ``act(rep, g, np.eye(dim, dtype=int)).T`` is rho(g) as integers, with no -0.0."""
    x = np.asarray(x, dtype=float) if rep.blocks else np.asarray(x)
    if x.shape[-1] != rep.dim:
        raise DimMismatch(f"vector of length {x.shape[-1]} for matrix of dim {rep.dim}")
    src = np.argsort(rep.targets[g])  # the inverse permutation: target[src[j]] = j
    out = np.take(x, src, axis=-1).astype(np.result_type(x, np.int64), copy=False)
    out *= rep.signs[g][src]
    for sl, blocks, is_identity in rep.blocks:
        if not is_identity[g]:
            field = out[..., sl]
            with np.errstate(invalid="ignore"):  # inf * 0 in the product is a NaN, as documented
                out[..., sl] = (field.reshape(-1, blocks.shape[-1]) @ blocks[g].T).reshape(field.shape)
    return out


def group_closure(
    targets: Sequence[Sequence[int]], signs: Sequence[Sequence[int]], order_cap: int = DEFAULT_ORDER_CAP
) -> tuple[FiniteGroup, Representation]:
    """Close a generator list under matrix product.

    Generator k is the signed permutation (``targets[k]``, ``signs[k]``):
    two (k, dim) arrays, as ``load_generator_file`` returns first, or lists
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

    # Element x is one int32 row of codes, target * 2 + [sign < 0], keyed by the
    # row's bytes; x times generator j is codes[x][target_j] ^ [sign_j < 0].
    dim, k = dims.pop(), len(gens)
    gen_t, gen_neg = np.array([t for t, _ in gens]), np.array([s < 0 for _, s in gens], np.int32)
    codes = np.arange(0, 2 * dim, 2, dtype=np.int32)[None].copy()
    index = {codes[0].tobytes(): 0}
    right, found = [], [[0]]  # right[x * k + j]: x times generator j; element b > 0 is first right[found[b]]
    rows, width = max(1, CLOSE_ENTRIES // max(k * dim, 1)), 4 * dim
    x = 0
    while x < len(index):  # the next slab of found elements, each times every generator
        n = len(index)
        prod = codes[x : min(x + rows, n)][:, gen_t]
        prod ^= gen_neg
        raw = prod.tobytes()  # the products' keys, element first and generator second
        ids = [index.setdefault(raw[i * width : (i + 1) * width], len(index))  # a new one gets the next index
               for i in range(len(prod) * k)]
        if len(index) > order_cap:
            raise ClosureExceeded(
                f"closure exceeds cap of {order_cap} elements; "
                "generators may not generate a finite group of that size"
            )
        if len(index) > n:
            seen = np.maximum.accumulate([n - 1] + ids)
            first = np.flatnonzero(seen[1:] > seen[:-1])  # where each new element is found
            if len(index) > len(codes):  # grown in place: no view of codes is alive
                codes.resize((min(order_cap, 2 * len(index)), dim), refcheck=False)
            codes[n : len(index)] = prod.reshape(-1, dim)[first]
            found.append(first + x * k)
        right += ids
        x += len(prod)

    # Column b of the Cayley table: a b = (a x) gen_j when b = x gen_j.  Columns are
    # rows of cayley_t, filled a BFS level at a time: the elements found by those before.
    order = len(index)
    found_x, found_j = np.divmod(np.concatenate(found), k)
    found_j *= order  # the offset of generator j's products in right_t
    right_t = np.array(right).reshape(order, k).T.ravel()  # right_t[j * order + x]
    cayley_t = np.empty((order, order), dtype=np.intp)  # cayley_t[b, a] = a b
    cayley_t[0] = np.arange(order)
    lo = 1
    while lo < order:
        hi = int(np.searchsorted(found_x, lo))
        level = cayley_t[found_x[lo:hi]]
        level += found_j[lo:hi, None]
        cayley_t[lo:hi] = right_t[level]
        lo = hi
    inverse = (cayley_t == 0).argmax(axis=1)  # cayley_t[a, c] = c a is the identity at c = a^-1
    group = FiniteGroup(cayley_t.T, inverse, tuple(right[:k]))  # identity times generator j
    codes = codes[:order]
    return group, Representation(group, codes >> 1, 1 - 2 * (codes & 1))


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
    ``compose(a, b)`` must mirror the group product.  Of two generators at one
    element, the later one's value is used (``load_group_bundle`` rejects a clash).
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
    """Block-diagonal sum of representations of one group (or of equally long candidate lists)."""
    if not reps:
        raise GroupMismatch("direct_sum of an empty list has no group")
    group = reps[0].group
    if any(r.group != group for r in reps[1:]):
        raise GroupMismatch("representations belong to different groups")
    offsets = np.cumsum([0] + [r.dim for r in reps]).tolist()
    targets = np.hstack([r.targets + off for r, off in zip(reps, offsets)])
    blocks = [(slice(sl.start + off, sl.stop + off), b) for r, off in zip(reps, offsets) for sl, b, _ in r.blocks]
    return Representation(group, targets, np.hstack([r.signs for r in reps]), blocks)


def _shared_group(rep_in: Representation, rep_out: Representation) -> FiniteGroup:
    """The group two actions share, for the bases, which read only the gathers: blocks are refused."""
    if rep_in.group != rep_out.group:
        raise GroupMismatch("input and output representations must share a group")
    if rep_in.blocks or rep_out.blocks:
        raise ValueError("an equivariant basis reads only the signed gather, but an action has rotation blocks")
    return rep_in.group


def _linear_map_action(rep_in: Representation, rep_out: Representation, elements):
    """(targets, signs) on vec(W) of the selected elements, each (k, m*n).

    ``elements`` is an index array or slice over the group; the rows follow
    the row-major convention vec(W)[i*n + j] = W[i, j].  Targets are int32,
    so m*n must be below ``TRACE_CAP``.
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
    return Representation(_shared_group(rep_in, rep_out), *_linear_map_action(rep_in, rep_out, slice(None)))


def regular_representation(group: FiniteGroup) -> Representation:
    """Group acting on itself by left multiplication; fixed-point free."""
    return Representation(group, group.cayley, np.ones((group.order, group.order)))


def tiled_regular_representation(group: FiniteGroup, width: int) -> Representation:
    """Copies of the regular representation stacked to the requested width."""
    if width < 1:
        raise IncompatibleWidth(f"width {width} must be positive")
    if width >= TRACE_CAP:
        raise IncompatibleWidth(f"width {width} exceeds the orbit tracer's cap {TRACE_CAP - 1}")
    if width % group.order != 0:
        raise IncompatibleWidth(
            f"width {width} is not a multiple of the group order {group.order}"
        )
    reg = regular_representation(group)
    return direct_sum([reg] * (width // group.order))


def trivial_representation(group: FiniteGroup, dim: int = 1) -> Representation:
    shape = (group.order, dim)
    return Representation(group, np.broadcast_to(np.arange(dim), shape), np.ones(shape))


def _broken_relation(group: FiniteGroup, values: np.ndarray, times, tol: float, given=None):
    """The first (x, s, j), s generator j's element, where times(values, v)[x], v =
    ``given[j]`` or values[s], is off values[x s] by more than ``tol``; or None.

    None makes values a homomorphism if the ``generator_indices`` (all elements
    if it lists none) generate the group and values[e] = I, which x = e forces
    for invertible v = values[s]; x = e then gives v = values[s], and induction
    on z's word gives values[y] values[z] = values[y z]."""
    for j, s in enumerate(group.generator_indices or group.elements()):
        gap = np.abs(times(values, values[s] if given is None else given[j]) - values[group.cayley[:, s]])
        bad = ~(gap.reshape(len(gap), -1) <= tol).all(axis=1)
        if bad.any():
            return int(bad.argmax()), s, j
    return None


class HomomorphismReport(NamedTuple):
    passed: bool
    checked_pairs: int
    first_violation: tuple[int, int] | None = None


def verify_homomorphism(rep: Representation) -> HomomorphismReport:
    """Exact check of rho(x) rho(s) == rho(x s) on every element x and generator
    s, so on all pairs if ``generator_indices`` generate the group: reports the
    first failing (x, s) and the k |G| pairs checked."""
    codes = rep.targets * 2 + (rep.signs < 0)  # as in group_closure: x s is codes[x][target_s] ^ [sign_s < 0]
    bad = _broken_relation(rep.group, codes, lambda c, s: c[:, s >> 1] ^ (s & 1), 0)
    return HomomorphismReport(not bad, len(codes) * len(rep.group.generator_indices or codes), bad and bad[:2])


def _generator_line(path: str, i: int) -> int:
    """The line on which entry i of the ``generators`` list starts in the JSON file
    at ``path``, decoded again to note where each array's entries start (by its id)."""
    starts = {}

    def parse_array(s_and_end, scan_once):
        at = []
        values, end = json.decoder.JSONArray(s_and_end, lambda s, idx: at.append(idx) or scan_once(s, idx))
        starts[id(values)] = at
        return values, end

    decoder = json.JSONDecoder()
    decoder.parse_array = parse_array  # set first: the scanner keeps the hook it is built with
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    return text.count("\n", 0, starts[id(decoder.decode(text)["generators"])][i]) + 1


def load_generator_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Load {"dim": n, "generators": [{"target": [...], "sign": [...]}, ...]} as (k, n) target and
    sign arrays, then each generator's optional "isometry" (a d x d matrix, orthogonal to
    ``PLAN_TOL``) and "leg_perm" (each leg 0..L-1 once) as (k, d, d) and (k, L) arrays, or None
    where no generator carries the key; a generator that carries a key generator 0 does not, or
    lacks one it carries, fails.

    A failing generator is named with the line in the file on which its entry starts.
    """
    with json_input(path) as data:
        if not isinstance(data, dict) or "dim" not in data or not isinstance(data.get("generators"), list):
            raise ParseError("expected object with 'dim' and a 'generators' list")
        dim = parse_int("dim", data["dim"])
        gens, isos, legs = [], [], []
        for i, entry in enumerate(data["generators"]):
            try:
                if "target" not in parse_object(entry) or "sign" not in entry:
                    raise ParseError("generator needs 'target' and 'sign' arrays")
                target, sign = (parse_int_list(key, entry[key]) for key in ("target", "sign"))
                if dim <= 0:
                    raise ValueError(f"dim must be positive, got {dim}")
                if len(target) != dim:
                    raise ValueError("target/sign length must equal dim")
                gens.append(signed_permutation(target, sign))
                for key, given in (("isometry", isos), ("leg_perm", legs)):
                    if i and (key in entry) != bool(given):  # carried unlike generator 0
                        raise ParseError(f"either all generators carry {key!r} or none")
                if "isometry" in entry:
                    m = parse_float("isometry", entry["isometry"])
                    if m.ndim != 2:  # check_isometry would take it for a stack
                        raise ValueError(f"'isometry' must be a square matrix, got shape {m.shape}")
                    check_isometry("'isometry'", m, PLAN_TOL)
                    if isos and m.shape != isos[0].shape:
                        raise ValueError(f"'isometry' has shape {m.shape} but an earlier "
                                         f"generator's has shape {isos[0].shape}")
                    isos.append(m)
                if "leg_perm" in entry:
                    perm = parse_int_list("leg_perm", entry["leg_perm"])
                    if not perm or sorted(perm) != list(range(len(perm))):
                        raise ValueError(f"'leg_perm' must list each leg 0..L-1 once, got {perm}")
                    if legs and len(perm) != len(legs[0]):
                        raise ValueError(f"'leg_perm' lists {len(perm)} legs but an earlier "
                                         f"generator's lists {len(legs[0])}")
                    legs.append(perm)
            except (ValueError, ParseError, TypeError) as exc:
                raise ParseError(f"generator {i} (line {_generator_line(path, i)}): {exc}") from exc
        if not gens:
            raise ParseError("no generators")
    return (np.array([t for t, _ in gens]), np.array([s for _, s in gens]),
            np.array(isos) if isos else None, np.array(legs, dtype=np.intp) if legs else None)


def load_representation(path: str) -> tuple[FiniteGroup, Representation]:
    """Load a generator file and close it into (group, representation)."""
    return group_closure(*load_generator_file(path)[:2])


def load_representation_pair(path_in: str, path_out: str) -> tuple[Representation, Representation]:
    """Load two generator files describing aligned actions of one group.

    Generator k of both files must realize the same abstract generator; the
    pair is closed jointly (block-diagonally), so the two representations
    share one group even when either is unfaithful on its own (e.g. a
    trivial output representation).
    """
    t_in, s_in = load_generator_file(path_in)[:2]
    t_out, s_out = load_generator_file(path_out)[:2]
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
