"""Exact symmetry augmentation of measurement rows.

A measurement row is a concatenation of typed fields (joint-space vectors,
spatial vectors, pseudovectors, per-leg quantities, categorical contact
states, flattened poses, invariant scalars).  A schema plus a group bundle
compiles into one ``Representation``: per group element, one signed gather
over the row's coordinates (it moves every value exactly, NaN and -0.0
included) and then small dense blocks for the fields a rotation mixes; no
permutation is ever held as a dense matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from operator import add, matmul
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, ParseError, SchemaError, check_isometry, parse_int, parse_object
from .fileio import atomic_write_text, errors_named, json_input
from .groups import (
    PLAN_TOL,
    FiniteGroup,
    Representation,
    _broken_relation,
    act,
    direct_sum,
    extend_by_words,
    group_closure,
    load_generator_file,
    tensor_on_linear_maps,
    trivial_representation,
)

# rows per block when CSV text is formatted or parsed
CSV_BLOCK_ROWS = 128  # the buffers of a block of 76 columns take about 1 MiB
CSV_RECORD = 25  # bytes per value written: separator, sign, %.17g of the magnitude (<= 23)
_CSV_SIGNS = bytes.maketrans(b"\1", b"-")  # a sign byte is 1 for "-", 0 for none


class SchemaField(NamedTuple):
    name: str
    kind: str
    dim: int


class MeasurementSchema(NamedTuple):
    fields: tuple[SchemaField, ...]

    @property
    def width(self) -> int:
        return sum(f.dim for f in self.fields)

    def column_names(self) -> Iterator[str]:
        return (f"{f.name}_{i}" for f in self.fields for i in range(f.dim))


def contact_state_rep(leg_perm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Targets of the permutation of the 2^L categorical contact states
    induced by a leg permutation.

    ``leg_perm`` is a (target, sign) pair of (..., L) arrays, one leg
    permutation or a stack of them; the result is (..., 2^L).  State s is
    read as an L-bit string with leg 0 in the most significant bit; each
    state goes to the state whose legs are permuted accordingly.
    """
    target, sign = (np.asarray(a) for a in leg_perm)
    num_legs = target.shape[-1]
    if num_legs > 16:
        raise SchemaError(f"{num_legs} legs would give 2^{num_legs} states; capped at 16")
    if (sign != 1).any():
        raise SchemaError("contact states carry no sign; leg permutation must be unsigned")
    shift = num_legs - 1 - np.arange(num_legs)
    bits = (np.arange(1 << num_legs) >> shift[:, None]) & 1
    # leg i's bit moves to the bit of leg target[i]
    return (1 << shift[target]) @ bits


def _turned(rep: Representation, blocks: np.ndarray) -> Representation:
    """``rep``'s gather, then ``blocks`` (|G|, k, k) on every k-chunk of its coordinates."""
    return Representation(rep.group, rep.targets, rep.signs, [(slice(0, rep.dim), blocks)])


def _pose_action(b: GroupBundle, dim: int) -> Representation:
    """X -> H X H^-1 on the flattened homogeneous matrix; H is orthogonal
    with zero translation, so this is kron(H, H) under row-major
    flattening: entry (i p + k, j p + l) is the one product H_ij H_kl."""
    r = b.isometries.blocks[0][1]
    d = r.shape[-1]
    h = np.zeros((len(r), d + 1, d + 1))
    h[:, :d, :d], h[:, d, d] = r, 1.0
    blocks = (h[:, :, None, :, None] * h[:, None, :, None, :]).reshape(len(h), h[0].size, -1)
    return _turned(trivial_representation(b.group, blocks.shape[-1]), blocks)


def _kron_action(b: GroupBundle, dim: int) -> Representation:
    """Leg i's d-block moves to leg target[i]'s (the legs' action on L x d maps), then R turns every leg."""
    r = b.isometries.blocks[0][1]
    return _turned(tensor_on_linear_maps(trivial_representation(b.group, r.shape[-1]), b.leg_perm), r)


def _pseudo_action(b: GroupBundle, dim: int) -> Representation:
    """det(R) R: a pseudovector turns as a vector under a proper element."""
    r = b.isometries.blocks[0][1]
    return _turned(b.isometries, np.where(np.linalg.det(r) > 0, 1, -1)[:, None, None] * r)


# kind -> (the bundle fields it needs, named for the error, its dim given the
# bundle and the raw field, and its action on the bundle, given the field's dim)
_KINDS = {
    "joint_space": (("joint_rep",), "a joint-space representation",
                    lambda b, raw: b.joint_rep.dim, lambda b, dim: b.joint_rep),
    "e3_vector": (("isometries",), "an isometry set", lambda b, raw: b.isometries.dim, lambda b, dim: b.isometries),
    "e3_pseudovector": (("isometries",), "an isometry set", lambda b, raw: b.isometries.dim, _pseudo_action),
    "kron_perm_vector": (("leg_perm", "isometries"), "leg permutations and isometries",
                         lambda b, raw: b.leg_perm.dim * b.isometries.dim, _kron_action),
    "categorical_contact": (("leg_perm",), "leg permutations", lambda b, raw: 1 << b.leg_perm.dim,
                            lambda b, dim: Representation(b.group, contact_state_rep((b.leg_perm.targets,
                                                                                      b.leg_perm.signs)), None)),
    "pose_conjugation": (("isometries",), "an isometry set", lambda b, raw: (b.isometries.dim + 1) ** 2,
                         _pose_action),
    "invariant_scalar": ((), None, lambda b, raw: int(raw.get("dim", 1)),
                         lambda b, dim: trivial_representation(b.group, dim)),
}
FIELD_KINDS = tuple(_KINDS)


def _field_kind(name: str, kind: str, b: GroupBundle):
    """The (dim, action) pair of a field's kind, once ``b`` holds the context it needs."""
    if kind not in _KINDS:
        raise SchemaError(f"field {name!r}: unknown kind {kind!r}")
    needs, what, dim, action = _KINDS[kind]
    if any(getattr(b, c) is None for c in needs):
        raise SchemaError(f"field {name!r}: schema needs {what}")
    return dim, action


def resolve_schema(
    raw_fields,
    joint_rep: Representation | None = None,
    isometries: Representation | None = None,
    leg_perm: Representation | None = None,
) -> MeasurementSchema:
    """Fill in field dims from the group context and validate them."""
    context = GroupBundle(None, joint_rep, isometries, leg_perm)  # type: ignore[arg-type]
    fields = []
    for raw in raw_fields:
        name, kind = raw["name"], raw["kind"]
        dim = _field_kind(name, kind, context)[0](context, raw)
        declared = raw.get("dim")
        if declared is not None and int(declared) != dim:
            raise SchemaError(f"field {name!r}: declared dim {declared} but kind implies {dim}")
        fields.append(SchemaField(name, kind, dim))
    return MeasurementSchema(tuple(fields))


def compile_schema(
    schema: MeasurementSchema,
    group: FiniteGroup,
    joint_rep: Representation | None = None,
    isometries: Representation | None = None,
    leg_perm: Representation | None = None,
) -> Representation:
    """The action on a row of the resolved schema: the direct sum of its fields' actions."""
    context = GroupBundle(group, joint_rep, isometries, leg_perm)  # type: ignore[arg-type]
    actions = []
    for f in schema.fields:
        actions.append(_field_kind(f.name, f.kind, context)[1](context, f.dim))
        if actions[-1].dim != f.dim:
            raise SchemaError(f"field {f.name!r}: transform has dim {actions[-1].dim}, field dim is {f.dim}")
    return direct_sum(actions) if actions else trivial_representation(group, 0)


def augment_dataset(plan: Representation, rows: np.ndarray) -> np.ndarray:
    """Emit the |G| symmetric copies of a dataset, g-major.

    The identity block comes first, so the original rows open the output.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.vstack([act(plan, g, rows) for g in plan.group.elements()])


def orbit_mean(plan: Representation, target_rows: np.ndarray) -> np.ndarray:
    """The N rows that ``orbit_average`` copies: the average of T(g)^-1 over the blocks."""
    rows = np.atleast_2d(np.asarray(target_rows, dtype=float))
    order = plan.group.order
    if rows.shape[0] % order != 0:
        raise DimMismatch(f"{rows.shape[0]} rows is not a multiple of group order {order}")
    n = rows.shape[0] // order
    mean = np.zeros((n, plan.dim))
    for g in plan.group.elements():
        mean += act(plan, plan.group.inverse[g], rows[g * n : (g + 1) * n])
    mean /= order
    return mean


def orbit_average(plan: Representation, target_rows: np.ndarray) -> np.ndarray:
    """Replace each orbit of evaluated targets with its group average.

    ``target_rows`` holds |G| g-major blocks of N rows each (the layout
    ``augment_dataset`` produces): block g carries the targets evaluated at
    the g-transformed inputs.  Every block is replaced by T(g) applied to
    the average of T(g)^-1 over the blocks, which projects the targets onto
    the exactly-equivariant set; applying it twice changes nothing.
    """
    return augment_dataset(plan, orbit_mean(plan, target_rows))


class GroupBundle(NamedTuple):
    """Group plus the concrete representations a schema can reference."""

    group: FiniteGroup
    joint_rep: Representation
    isometries: Representation | None = None  # the identity gather, then one (|G|, d, d) block: R
    leg_perm: Representation | None = None


def load_group_bundle(path: str) -> GroupBundle:
    """Load a group file whose generators may carry an "isometry" and a "leg_perm" (as
    ``load_generator_file`` reads and checks them), close it, and extend both to the whole group
    along the closure; each generator's value must respect the group relations: value(x) times
    it is value(x s) for every element x.  An error after the file is read names the file."""
    targets, signs, isos, legs = load_generator_file(path)
    with errors_named(path):
        group, joint_rep = group_closure(targets, signs)
        at = group.generator_indices
        ext = {}  # key -> the values of all elements; leg perms are unsigned: P_a P_b sends leg i to a[b[i]]
        for key, given, unit, compose, tol in (("isometry", isos, np.eye, matmul, PLAN_TOL),
                                               ("leg_perm", legs, np.arange, lambda a, b: a[..., b], 0)):
            if given is not None:
                ext[key] = np.array(extend_by_words(group, dict(zip(at, given)), compose, unit(given.shape[-1])))
                if bad := _broken_relation(group, ext[key], compose, tol, given):  # x's word, then j
                    word = extend_by_words(group, {s: (i,) for i, s in enumerate(at)}, add, ())[bad[0]]
                    raise ParseError(f"generator {bad[2]}: its {key!r} breaks the group relations on the "
                                     f"product of generators {', '.join(map(str, word + (bad[2],)))}")
        isometries = None
        if isos is not None:  # each generator's is checked; a product of them, to the same tolerance, here.
            # e maps to I, and x s to value(x) value(s), by the extension and the relation check above
            check_isometry("isometry", ext["isometry"], PLAN_TOL)
            isometries = _turned(trivial_representation(group, isos.shape[-1]), ext["isometry"])
        leg_perm = Representation(group, ext["leg_perm"], None) if legs is not None else None
    return GroupBundle(group, joint_rep, isometries, leg_perm)


def load_schema(path: str) -> list[dict]:
    with json_input(path) as data:
        if not isinstance(data, dict) or not isinstance(data.get("fields"), list):
            raise ParseError("expected an object with a 'fields' list")
        for i, field in enumerate(data["fields"]):
            parse_object(field, f"schema field {i}")
            for key in ("name", "kind"):
                if key not in field:
                    raise ParseError(f"schema field {i} has no {key!r} key")
            if "dim" in field and parse_int("dim", field["dim"], f"schema field {i}") < 0:
                raise ParseError(f"schema field {i}: 'dim' must be >= 0, got {field['dim']}")
        return data["fields"]


def write_csv(path: str, column_names: Iterable[str], rows: np.ndarray, plan: Representation | None = None) -> int:
    """Write a header line of ``column_names`` and one line per row, every
    value as ``%.17g`` (it parses back to the same float), streamed to the
    atomic writer ``CSV_BLOCK_ROWS`` rows at a time; given ``plan``, those of
    ``augment_dataset(plan, rows)``, from ``rows`` alone.  A magnitude that
    occurs in ``rows`` more than once is formatted once, and a copy reuses
    the text of the value its gather moved there, formatting only what its
    rotation blocks changed; returns the number of values formatted."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    keys = np.abs(rows).view(np.uint64).ravel()
    keys.sort()
    run = keys[1:] == keys[:-1]  # key i + 1 repeats key i
    formatted = int(keys.size - np.count_nonzero(run))
    run[1:] &= ~run[:-1]  # now: the first repeat of each run
    # the repeated magnitudes, sorted, then a sentinel above every magnitude
    table = np.append(keys[1:][run], np.uint64(2**64 - 1))
    del keys, run
    table_text = _csv_records(table.view(float))
    elements = range(1) if plan is None else plan.group.elements()  # element 0 writes the rows as they are
    kept = np.empty(rows.shape if len(elements) > 1 else (0, 0), table_text.dtype)  # the base rows' texts

    def chunks():
        nonlocal formatted
        yield ",".join(column_names) + "\n"
        for g in elements:
            src = np.argsort(plan.targets[g]) if g else None  # act's gather: coordinate j comes from src[j]
            for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
                x = rows[start : start + CSV_BLOCK_ROWS]
                if g:
                    text, y = np.take(kept[start : start + CSV_BLOCK_ROWS], src, axis=1), act(plan, g, x)
                    fresh = np.abs(y).view(np.uint64) != np.abs(np.take(x, src, axis=1)).view(np.uint64)
                    text[fresh], x = _csv_records(np.abs(y[fresh])), y
                    formatted += int(np.count_nonzero(fresh))
                else:
                    cells = np.abs(x).view(np.uint64).ravel()
                    order = cells.argsort()  # sorted lookups run about twice as fast
                    at = np.empty_like(order)
                    at[order] = table.searchsorted(cells[order])
                    text, miss = table_text[at], table[at] != cells  # the sentinel matches no magnitude
                    text[miss] = _csv_records(cells[miss].view(float))
                    if kept.size:
                        kept[start : start + CSV_BLOCK_ROWS] = text.reshape(x.shape)
                lines = np.empty((len(x), x.shape[1] * CSV_RECORD + 1), np.uint8)
                lines[:, :-1] = text.view(np.uint8).reshape(lines[:, :-1].shape)
                lines[:, 1::CSV_RECORD] = np.signbit(x) & ~np.isnan(x)  # %.17g prints NaN as "nan"
                lines[:, 0], lines[:, -1] = ord(" "), ord("\n")  # no separator before a row's first value
                yield lines.tobytes().translate(_CSV_SIGNS, b" \0").decode()

    atomic_write_text(path, chunks())
    return formatted


def _csv_records(magnitudes: np.ndarray) -> np.ndarray:
    """One ``CSV_RECORD``-byte record per value: a separator, a sign byte
    (blank here), then ``%.17g`` of the value padded with blanks."""
    text = np.empty(len(magnitudes), f"V{CSV_RECORD}")
    for i in range(0, len(magnitudes), 1024):
        part = magnitudes[i : i + 1024].tolist()
        text[i : i + len(part)] = np.frombuffer((", %-23.17g" * len(part) % tuple(part)).encode(), text.dtype)
    return text


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a header line and rows of as many floats, in blocks of
    ``CSV_BLOCK_ROWS`` lines; every line break ``str.splitlines`` knows ends a
    row.  Blank lines before the first row and after the last are ignored; a
    blank line between rows, a row of another width or a value ``float()``
    rejects raises ``ParseError`` naming its line."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if not header:
                raise ParseError(f"{path}: missing header line")
            names = header.split(",")
            width = len(names)
            parsed, lineno, blank = [np.empty((0, width))], 1, 0
            while block := list(islice(f, CSV_BLOCK_ROWS)):
                lines, first, error = [], 0, None  # the block's rows, consecutive from line `first`
                for line in "".join(block).splitlines():
                    lineno += 1
                    if not line.strip():
                        if (lines or len(parsed) > 1) and not blank:
                            blank = lineno
                        continue
                    if blank:
                        error = f"line {blank}: blank line between rows"
                    elif line.count(",") != width - 1:
                        error = f"line {lineno}: {line.count(',') + 1} columns, header has {width}"
                    else:
                        first = first or lineno
                        lines.append(line)
                        continue
                    break
                if lines:  # parsed before a structural error is raised, so the first bad line is named
                    parsed.append(_parse_rows(path, lines, first, width))
                if error:
                    raise ParseError(f"{path}: {error}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return names, np.concatenate(parsed)


def _parse_rows(path: str, lines: list[str], first: int, width: int) -> np.ndarray:
    """Parse consecutive lines (the first is line ``first`` of the file), each
    with ``width`` comma-separated values, into a (len(lines), width) array."""
    try:
        # numpy converts each str with float(): same accepted forms, same bits
        return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), width)
    except ValueError:
        for i, line in enumerate(lines):
            with errors_named(f"{path}: line {first + i}: malformed numeric row"):
                np.array(line.split(","), dtype=float)
        raise
