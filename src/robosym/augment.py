"""Exact symmetry augmentation of measurement rows.

A measurement row is a concatenation of typed fields (joint-space vectors,
spatial vectors, pseudovectors, per-leg quantities, categorical contact
states, flattened poses, invariant scalars).  A schema plus a group bundle
compiles into, per group element, one signed gather over the row's
coordinates (it moves every value exactly, NaN and -0.0 included) and then
small dense blocks for the fields a rotation mixes; no permutation is ever
held as a dense matrix.
"""

from __future__ import annotations

from itertools import islice
from operator import matmul
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, ParseError, SchemaError, check_isometry, parse_int
from .fileio import atomic_write_text, errors_named, json_input
from .groups import (
    FiniteGroup,
    Representation,
    act,
    direct_sum,
    extend_by_words,
    generator_arrays,
    group_closure,
    trivial_representation,
    verify_homomorphism,
)

PLAN_TOL = 1e-12

# rows per block when CSV text is formatted or parsed
CSV_BLOCK_ROWS = 128  # the buffers of a block of 76 columns take about 1 MiB
CSV_RECORD = 25  # bytes per value written: separator, sign, %.17g of the magnitude (<= 23)
_CSV_SIGNS = bytes.maketrans(b"\1", b"-")  # a sign byte is 1 for "-", 0 for none


class IsometrySet:
    """One orthogonal d x d matrix per group element: the spatial
    rotations/reflections the group imitates, restricted to linear isometries
    fixing the origin.  ``rotations`` is a read-only (|G|, d, d) array and
    ``dets`` a read-only (|G|,) array of the signs of their determinants.
    """

    def __init__(self, group: FiniteGroup, rotations):
        self.group = group
        r = self.rotations = np.array(rotations, dtype=float)
        if r.ndim != 3 or len(r) != group.order:
            raise ValueError("need one d x d isometry per group element")
        self.dets = np.array([check_isometry(f"isometry {g}", m, PLAN_TOL) for g, m in enumerate(r)])
        self.dim = r.shape[-1]
        r.flags.writeable = self.dets.flags.writeable = False
        if not np.abs(r[group.identity] - np.eye(self.dim)).max() <= PLAN_TOL:
            raise ValueError("identity element must map to the identity isometry")
        for g in group.elements():
            # R(g) R(h) against R(g h), for every h at once
            bad = ~(np.abs(r[g] @ r - r[group.cayley[g]]).max(axis=(1, 2)) <= 1e-9)
            if bad.any():
                raise ValueError(f"isometries violate the Cayley table at ({g},{int(bad.argmax())})")


class SchemaField(NamedTuple):
    name: str
    kind: str
    dim: int


class MeasurementSchema(NamedTuple):
    fields: tuple[SchemaField, ...]

    @property
    def width(self) -> int:
        return sum(f.dim for f in self.fields)

    def column_names(self) -> list[str]:
        return [f"{f.name}_{i}" for f in self.fields for i in range(f.dim)]

    def slices(self) -> list[slice]:
        ends = np.cumsum([0] + [f.dim for f in self.fields]).tolist()
        return [slice(a, b) for a, b in zip(ends, ends[1:])]


def contact_state_rep(num_legs: int, leg_perm: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Targets of the permutation of the 2^L categorical contact states
    induced by a leg permutation.

    ``leg_perm`` is a (target, sign) pair of (..., L) arrays, one leg
    permutation or a stack of them; the result is (..., 2^L).  State s is
    read as an L-bit string with leg 0 in the most significant bit; each
    state goes to the state whose legs are permuted accordingly.
    """
    target, sign = (np.asarray(a) for a in leg_perm)
    if num_legs > 16:
        raise SchemaError(f"{num_legs} legs would give 2^{num_legs} states; capped at 16")
    if target.shape[-1] != num_legs:
        raise DimMismatch(f"leg permutation has dim {target.shape[-1]}, expected {num_legs}")
    if (sign != 1).any():
        raise SchemaError("contact states carry no sign; leg permutation must be unsigned")
    shift = num_legs - 1 - np.arange(num_legs)
    bits = (np.arange(1 << num_legs) >> shift[:, None]) & 1
    # leg i's bit moves to the bit of leg target[i]
    return (1 << shift[target]) @ bits


def _pose_blocks(iso: IsometrySet) -> np.ndarray:
    """X -> H X H^-1 on the flattened homogeneous matrix; H is orthogonal
    with zero translation, so this is kron(H, H) under row-major
    flattening: entry (i p + k, j p + l) is the one product H_ij H_kl."""
    d = iso.dim
    h = np.zeros((len(iso.rotations), d + 1, d + 1))
    h[:, :d, :d], h[:, d, d] = iso.rotations, 1.0
    return (h[:, :, None, :, None] * h[:, None, :, None, :]).reshape(len(h), h[0].size, -1)


def _kron_action(b: GroupBundle) -> tuple[Representation, np.ndarray]:
    """Leg i's d-block moves to leg target[i]'s, then R turns every leg."""
    d, legs = b.isometries.dim, b.leg_perm
    targets = legs.targets[:, :, None] * d + np.arange(d)
    perm = Representation(b.group, targets.reshape(b.group.order, -1), np.repeat(legs.signs, d, axis=1))
    return perm, b.isometries.rotations


def _contact_action(b: GroupBundle) -> tuple[Representation, None]:
    states = contact_state_rep(b.leg_perm.dim, (b.leg_perm.targets, b.leg_perm.signs))
    return Representation(b.group, states, np.ones(states.shape)), None


# kind -> (the bundle fields it needs, named for the error, its dim given the
# bundle and the raw field, its action on the bundle: the coordinate
# permutation, None where no coordinate moves, and, where a rotation mixes
# the coordinates, the (|G|, k, k) blocks applied to each k-chunk after it)
_KINDS = {
    "joint_space": (("joint_rep",), "a joint-space representation",
                    lambda b, raw: b.joint_rep.dim, lambda b: (b.joint_rep, None)),
    "e3_vector": (("isometries",), "an isometry set", lambda b, raw: b.isometries.dim,
                  lambda b: (None, b.isometries.rotations)),
    "e3_pseudovector": (("isometries",), "an isometry set", lambda b, raw: b.isometries.dim,
                        lambda b: (None, b.isometries.dets[:, None, None] * b.isometries.rotations)),
    "kron_perm_vector": (("leg_perm", "isometries"), "leg permutations and isometries",
                         lambda b, raw: b.leg_perm.dim * b.isometries.dim, _kron_action),
    "categorical_contact": (("leg_perm",), "leg permutations", lambda b, raw: 1 << b.leg_perm.dim,
                            _contact_action),
    "pose_conjugation": (("isometries",), "an isometry set", lambda b, raw: (b.isometries.dim + 1) ** 2,
                         lambda b: (None, _pose_blocks(b.isometries))),
    "invariant_scalar": ((), None, lambda b, raw: int(raw.get("dim", 1)), lambda b: (None, None)),
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


class AugmentationPlan:
    """Per group element, a signed gather over the row (``perm``, the direct
    sum of the fields' coordinate permutations), then, for each ``(slice,
    blocks, is_identity)`` in ``rotations``, ``blocks[g]`` (k x k) on every
    k-chunk of the slice, skipped where ``is_identity[g]`` says the block is
    exactly the identity (so the gathered values, NaN and -0.0 included,
    stay as they are)."""

    def __init__(self, schema: MeasurementSchema, group: FiniteGroup, perm: Representation, rotations):
        self.schema = schema
        self.group = group
        self.perm = perm
        self.rotations = rotations

    @property
    def width(self) -> int:
        return self.schema.width

    def apply_rows(self, g: int, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.shape[-1] != self.width:
            raise DimMismatch(f"rows have width {rows.shape[-1]}, plan width {self.width}")
        out = act(self.perm, g, rows)
        for sl, blocks, is_identity in self.rotations:
            if is_identity[g]:
                continue
            field = out[..., sl]
            with np.errstate(invalid="ignore"):  # inf * 0 in the product is a NaN, as documented
                out[..., sl] = (field.reshape(-1, blocks.shape[-1]) @ blocks[g].T).reshape(field.shape)
        return out

    def transform_matrix(self, g: int) -> np.ndarray:
        """Dense T(g); the rows of apply_rows(g, I) are its columns."""
        return self.apply_rows(g, np.eye(self.width)).T

    def verify(self, tol: float = PLAN_TOL) -> float:
        """Worst |T(g)T(h) - T(gh)| over all pairs; raises above tol."""
        mats = np.stack([self.transform_matrix(g) for g in self.group.elements()])
        worst = 0.0
        for g in self.group.elements():
            # T(g) T(h) against T(g h), for every h at once
            worst = max(worst, float(np.abs(mats[g] @ mats - mats[self.group.cayley[g]]).max()))
        if worst > tol:
            raise SchemaError(f"plan transforms violate the Cayley table by {worst:.3e}")
        return worst


def resolve_schema(
    raw_fields,
    joint_rep: Representation | None = None,
    isometries: IsometrySet | None = None,
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
    isometries: IsometrySet | None = None,
    leg_perm: Representation | None = None,
) -> AugmentationPlan:
    """Build the row permutation and rotation blocks for a resolved schema."""
    context = GroupBundle(group, joint_rep, isometries, leg_perm)  # type: ignore[arg-type]
    perms, rotations = [], []
    for f, sl in zip(schema.fields, schema.slices()):
        perm, blocks = _field_kind(f.name, f.kind, context)[1](context)
        if perm is None:
            perm = trivial_representation(group, f.dim if blocks is None else blocks.shape[-1])
        if perm.dim != f.dim:
            raise SchemaError(f"field {f.name!r}: transform has dim {perm.dim}, field dim is {f.dim}")
        perms.append(perm)
        if blocks is not None:
            rotations.append((sl, blocks, (blocks == np.eye(blocks.shape[-1])).all(axis=(1, 2))))
    perm = direct_sum(perms) if perms else trivial_representation(group, 0)
    return AugmentationPlan(schema, group, perm, rotations)


def augment_dataset(plan: AugmentationPlan, rows: np.ndarray) -> np.ndarray:
    """Emit the |G| symmetric copies of a dataset, g-major.

    The identity block comes first, so the original rows open the output.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return np.vstack([plan.apply_rows(g, rows) for g in plan.group.elements()])


def orbit_average(plan: AugmentationPlan, target_rows: np.ndarray) -> np.ndarray:
    """Replace each orbit of evaluated targets with its group average.

    ``target_rows`` holds |G| g-major blocks of N rows each (the layout
    ``augment_dataset`` produces): block g carries the targets evaluated at
    the g-transformed inputs.  Every block is replaced by T(g) applied to
    the average of T(g)^-1 over the blocks, which projects the targets onto
    the exactly-equivariant set; applying it twice changes nothing.
    """
    rows = np.atleast_2d(np.asarray(target_rows, dtype=float))
    order = plan.group.order
    if rows.shape[0] % order != 0:
        raise DimMismatch(f"{rows.shape[0]} rows is not a multiple of group order {order}")
    n = rows.shape[0] // order
    mean = np.zeros((n, plan.width))
    for g in plan.group.elements():
        ginv = plan.group.inverse[g]
        mean += plan.apply_rows(ginv, rows[g * n : (g + 1) * n])
    mean /= order
    return np.vstack([plan.apply_rows(g, mean) for g in plan.group.elements()])


class GroupBundle(NamedTuple):
    """Group plus the concrete representations a schema can reference."""

    group: FiniteGroup
    joint_rep: Representation
    isometries: IsometrySet | None = None
    leg_perm: Representation | None = None


def load_group_bundle(path: str) -> GroupBundle:
    """Load a representation file with optional per-generator extensions.

    Beyond the core {"dim", "generators": [{"target", "sign"}]} layout, each
    generator may carry an "isometry" (d x d row-major matrix) and a
    "leg_perm" (target array over the legs); both are extended to the whole
    group along the closure, and every generator must carry the value its
    element gets.
    """
    with json_input(path) as data:
        group, joint_rep = group_closure(*generator_arrays(path, data))
        gens = data["generators"]
        isos, legs = [], []  # per generator, in file order
        for k, entry in enumerate(gens):
            with errors_named(f"generator {k}"):
                if "isometry" in entry:
                    m = np.asarray(entry["isometry"], dtype=float)
                    check_isometry("'isometry'", m, PLAN_TOL)
                    if isos and m.shape != isos[0].shape:
                        raise ValueError(f"'isometry' has shape {m.shape} but an earlier "
                                         f"generator's has shape {isos[0].shape}")
                    isos.append(m)
                if "leg_perm" in entry:
                    if not isinstance(entry["leg_perm"], list):
                        raise ValueError("'leg_perm' must be a list of leg indices")
                    target = [parse_int("leg_perm", t) for t in entry["leg_perm"]]
                    if not target or sorted(target) != list(range(len(target))):
                        raise ValueError(f"'leg_perm' must list each leg 0..L-1 once, got {target}")
                    if legs and len(target) != len(legs[0]):
                        raise ValueError(f"'leg_perm' lists {len(target)} legs but an earlier "
                                         f"generator's lists {len(legs[0])}")
                    legs.append(np.array(target, dtype=np.intp))
        for key, values in (("isometry", isos), ("leg_perm", legs)):
            if 0 < len(values) < len(gens):
                raise ParseError(f"either all generators carry {key!r} or none")
        isometries = leg_perm = None
        at = group.generator_indices
        if isos:
            rotations = extend_by_words(group, dict(zip(at, isos)), matmul, np.eye(len(isos[0])))
            isometries = IsometrySet(group, rotations)
        if legs:
            # leg perms are unsigned: P_a P_b sends leg i to a[b[i]]
            perms = extend_by_words(group, dict(zip(at, legs)), lambda a, b: a[b], np.arange(len(legs[0])))
            leg_perm = Representation(group, perms, np.ones((group.order, len(legs[0]))))
            if not (check := verify_homomorphism(leg_perm)).passed:
                raise ParseError(f"leg permutations do not respect the group relations ({check})")
        # values are keyed by element: a generator that repeats an earlier
        # one's element, or is the identity, must carry what its element gets
        for k, gi in enumerate(at):
            if isos and np.abs(rotations[gi] - isos[k]).max() > PLAN_TOL:
                key = "isometry"
            elif legs and (perms[gi] != legs[k]).any():
                key = "leg_perm"
            else:
                continue
            raise ParseError(f"generator {k}: its {key!r} differs from the one its "
                             "element gets from the other generators")
    return GroupBundle(group, joint_rep, isometries, leg_perm)


def load_schema(path: str) -> list[dict]:
    with json_input(path) as data:
        if not isinstance(data, dict) or not isinstance(data.get("fields"), list):
            raise ParseError("expected an object with a 'fields' list")
        for i, field in enumerate(data["fields"]):
            for key in ("name", "kind"):
                if not isinstance(field, dict) or key not in field:
                    raise ParseError(f"schema field {i} has no {key!r} key")
            if "dim" in field and parse_int("dim", field["dim"], f"schema field {i}") < 0:
                raise ParseError(f"schema field {i}: 'dim' must be >= 0, got {field['dim']}")
        return data["fields"]


def write_csv(path: str, column_names: list[str], rows: np.ndarray) -> int:
    """Write a header line of ``column_names`` and one line per row, every
    value as ``%.17g`` (it parses back to the same float), streamed to the
    atomic writer ``CSV_BLOCK_ROWS`` rows at a time.  A magnitude that occurs
    more than once is formatted once; returns the number of distinct ones."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    keys = np.abs(rows).view(np.uint64).ravel()
    keys.sort()
    run = keys[1:] == keys[:-1]  # key i + 1 repeats key i
    distinct = int(keys.size - np.count_nonzero(run))
    run[1:] &= ~run[:-1]  # now: the first repeat of each run
    # the repeated magnitudes, sorted, then a sentinel above every magnitude
    table = np.append(keys[1:][run], np.uint64(2**64 - 1))
    del keys, run
    table_text = _csv_records(table.view(float))

    def chunks():
        yield ",".join(column_names) + "\n"
        for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            x = rows[start : start + CSV_BLOCK_ROWS]
            cells = np.abs(x).view(np.uint64).ravel()
            order = cells.argsort()  # sorted lookups run about twice as fast
            at = np.empty_like(order)
            at[order] = table.searchsorted(cells[order])
            text, miss = table_text[at], table[at] != cells  # the sentinel matches no magnitude
            text[miss] = _csv_records(cells[miss].view(float))
            lines = np.empty((len(x), x.shape[1] * CSV_RECORD + 1), np.uint8)
            lines[:, :-1] = text.view(np.uint8).reshape(lines[:, :-1].shape)
            lines[:, 1::CSV_RECORD] = np.signbit(x) & ~np.isnan(x)  # %.17g prints NaN as "nan"
            lines[:, 0], lines[:, -1] = ord(" "), ord("\n")  # no separator before a row's first value
            yield lines.tobytes().translate(_CSV_SIGNS, b" \0").decode()

    atomic_write_text(path, chunks())
    return distinct


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
