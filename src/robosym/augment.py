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
from itertools import chain, islice
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
            if not isinstance(name := field["name"], str) or "," in name or "".join(name.splitlines()) != name:
                raise ParseError(f"schema field {i}: 'name' must be a string without commas or line breaks, "
                                 f"got {name!r}")
            if not isinstance(field["kind"], str):
                raise ParseError(f"schema field {i}: 'kind' must be a string, got {type(field['kind']).__name__}")
            if "dim" in field and parse_int("dim", field["dim"], f"schema field {i}") < 0:
                raise ParseError(f"schema field {i}: 'dim' must be >= 0, got {field['dim']}")
        return data["fields"]


def write_csv(path: str, column_names: Iterable[str], rows: np.ndarray, plan: Representation | None = None) -> None:
    """Write a header line of ``column_names`` and one line per row, every
    value as ``%.17g`` (it parses back to the same float), streamed to the
    atomic writer ``CSV_BLOCK_ROWS`` rows at a time; given ``plan``, those of
    ``augment_dataset(plan, rows)``, from ``rows`` alone.  Each value of
    ``rows`` is formatted once, and a copy reuses the text of the value its
    gather moved there, formatting only what its rotation blocks changed."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    elements = range(1) if plan is None else plan.group.elements()  # element 0 writes the rows as they are
    kept = np.empty(rows.shape if len(elements) > 1 else (0, 0), f"V{CSV_RECORD}")  # the base rows' texts

    def chunks():
        yield ",".join(column_names) + "\n"
        for g in elements:
            src = np.argsort(plan.targets[g]) if g else None  # act's gather: coordinate j comes from src[j]
            for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
                x = rows[start : start + CSV_BLOCK_ROWS]
                if g:
                    text, y = np.take(kept[start : start + CSV_BLOCK_ROWS], src, axis=1), act(plan, g, x)
                    fresh = np.abs(y).view(np.uint64) != np.abs(np.take(x, src, axis=1)).view(np.uint64)
                    text[fresh], x = _csv_records(np.abs(y[fresh])), y
                else:
                    text = _csv_records(np.abs(x).ravel())
                    if kept.size:
                        kept[start : start + CSV_BLOCK_ROWS] = text.reshape(x.shape)
                lines = np.empty((len(x), x.shape[1] * CSV_RECORD + 1), np.uint8)
                lines[:, :-1] = text.view(np.uint8).reshape(lines[:, :-1].shape)
                lines[:, 1::CSV_RECORD] = np.signbit(x) & ~np.isnan(x)  # %.17g prints NaN as "nan"
                lines[:, 0], lines[:, -1] = ord(" "), ord("\n")  # no separator before a row's first value
                yield lines.tobytes().translate(_CSV_SIGNS, b" \0").decode()

    atomic_write_text(path, chunks())


def _csv_records(magnitudes: np.ndarray) -> np.ndarray:
    """One ``CSV_RECORD``-byte record per value: a separator, a sign byte
    (blank here), then ``%.17g`` of the value padded with blanks."""
    text = np.empty(len(magnitudes), f"V{CSV_RECORD}")
    for i in range(0, len(magnitudes), 4096):  # a part's buffers, the output's included, take 0.7 MiB
        v, part = magnitudes[i : i + 4096], text[i : i + 4096]
        fast, zero = (v >= 1e-4) & (v < 1e16), (v == 0) & ~np.signbit(v)
        at = np.flatnonzero(fast)
        records, order = _fixed_records(v[at])
        part[at[order]], part[zero] = records, np.void(b", 0".ljust(CSV_RECORD))
        # fork kept: % formats the rest exactly (NaN, inf, -0.0, e-notation), rare forms each needing a layout
        if (rest := np.flatnonzero(~(fast | zero))).size:
            part[rest] = np.frombuffer((", %-23.17g" * len(rest) % tuple(v[rest].tolist())).encode(), text.dtype)
    return text


_POW10 = 10.0 ** np.arange(23)  # exact: 10**p = 2**p 5**p, and 5**22 < 2**53
# "0000".."9999" as the uint32 of their 4 ASCII bytes, then the same with trailing zeros blank
_V4 = (np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_V4 = np.vstack([_V4, np.where(np.maximum.accumulate(_V4[:, ::-1], 1)[:, ::-1] > ord("0"), _V4, ord(" "))])
_V4 = _V4.view(np.uint32)  # built in int16 and uint8: int64 temporaries lift peak RSS by 1.7 MB


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo into 26-bit halves: a product of two halves is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product: x * y = p + e exactly, p the rounded product, if nothing over- or underflows."""
    p = x * y
    (xh, xl), (yh, yl) = _halves(x), _halves(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _rounded(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """v * s rounded to an int64, ties to even, where it is 2**53 or more: hi even and |lo| <= hi's ulp / 2."""
    hi, lo = _two_product(v, s)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_records(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The records of magnitudes v in [1e-4, 1e16), sorted by exponent, and ``order``: record k is v[order[k]]'s.

    ``%.17g`` prints N, v * 10**(16 - x) rounded, x its exponent, in fixed point without trailing fraction zeros."""
    p = 16 - np.floor(np.log10(v)).astype(np.intp)
    sig = _rounded(v, _POW10[p])
    # log10 may be a digit off near a power of ten. No v in the range lies within 5e-17 of one from
    # below, so no product in [10**16 - 0.5, 10**16) rounds up to an N of 10**16 that passes here
    while (off := np.flatnonzero((sig < 10**16) | (sig >= 10**17))).size:
        p[off] += np.where(sig[off] < 10**16, 1, -1)
        sig[off] = _rounded(v[off], _POW10[p[off]])
    order = np.argsort(-p.astype(np.int8), kind="stable")  # each exponent's records in one run
    hi, lo = (half.astype(np.uint32) for half in np.divmod(sig[order], 10**8))
    groups = np.stack([hi // 10**8, hi // 10**4 % 10**4, hi % 10**4, lo // 10**4, lo % 10**4], 1, dtype=np.intp)
    last = np.ones(groups.shape, bool)  # no later group holds a digit but 0
    for i in range(3, -1, -1):
        last[:, i] = last[:, i + 1] & (groups[:, i + 1] == 0)
    np.add(groups, 10000, out=groups, where=last)  # looked up in the half that blanks trailing zeros
    digits = _V4[groups].view(np.uint8).reshape(-1, 20)  # digit j at column 3 + j
    out = np.full((len(v), CSV_RECORD), ord(" "), np.uint8)
    out[:, 0], end = ord(","), 0
    for x, count in enumerate(np.bincount(20 - p, minlength=20), -4):
        o, d, end = out[end : end + count], digits[end : end + count], end + count
        if x < 0 and count:  # 0.000ddd
            o[:, 2 : 3 - x] = np.frombuffer(b"0.000", np.uint8)[: 1 - x]
            o[:, 3 - x : 20 - x] = d[:, 3:]
        elif count:  # dd.ddd
            o[:, 2 : 3 + x] = np.maximum(d[:, 3 : 4 + x], ord("0"))  # an integer digit keeps its 0
            o[:, 3 + x] = np.minimum(d[:, 4 + x], ord("."))  # blank before a blank fraction
            o[:, 4 + x : 20] = d[:, 4 + x :]
    return out.view(f"V{CSV_RECORD}").ravel(), order


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a header line and rows of as many floats, ``CSV_BLOCK_ROWS`` lines at a time; any break
    ``str.splitlines`` knows ends a line, and a leading BOM is skipped.  Blank lines before the first row
    and after the last are ignored; a blank line between rows, a row of another width or a value
    ``float()`` rejects raises ``ParseError`` naming its line."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            rows = chain.from_iterable(map(str.splitlines, f))
            if not (header := next(rows, "").strip()):
                raise ParseError(f"{path}: missing header line")
            names = header.split(",")
            width = len(names)
            parsed, lineno, blank = [np.empty((0, width))], 1, 0
            while block := list(islice(rows, CSV_BLOCK_ROWS)):
                lines, first, error = [], 0, None  # the block's rows, consecutive from line `first`
                for line in block:
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
    text = (",".join(lines) + "\0" * 40).encode()  # the words read for a token span 33 bytes from its start
    ends = np.flatnonzero(np.frombuffer(text, np.uint8)[:-40] == ord(","))
    starts, ends = np.append(0, ends + 1), np.append(ends, len(text) - 40)
    try:  # 4,096 values at a time: a part's buffers take about 0.8 MiB
        return np.concatenate([_parse_part(text, starts[i : i + 4096], ends[i : i + 4096])
                               for i in range(0, len(ends), 4096)]).reshape(len(lines), width)
    except ValueError:
        for i, line in enumerate(lines):
            with errors_named(f"{path}: line {first + i}: malformed numeric row"):
                np.array(line.split(","), dtype=float)
        raise


_EIGHT = 0x0101010101010101  # one in every byte
_ZEROS, _WORDS = np.uint64(0x30 * _EIGHT), np.array([[0], [8], [16]])  # "00000000"; a fraction's 3 words
_P10 = 10 ** np.arange(16, dtype=np.uint64)
_LIMIT = 10**18 // _P10  # a number below _LIMIT[c] stays below 10**18 with c digits appended
# 10**-f = hi + lo for f <= 22, each part rounded exactly by int division: the sum is within 2**-106 of it
_INV10_HI, _INV10_LO = np.array([(hi, (b - a * 10**f) / (b * 10**f))
                                 for f in range(23) for hi in [1 / 10**f] for a, b in [hi.as_integer_ratio()]]).T


def _parse_part(text: bytes, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``float()`` of the tokens ``text[s:e]``.  A ``-ddd.ddd`` of at most 8 integer bytes, "-" included, and
    22 fraction digits f is read 8 digits per uint64 op (Lemire) into its significand m; of at most 18 digits,
    m is scaled exactly: m / 10**f where m < 2**53 (Clinger), else the double-double m * 10**-f rounded once."""
    raw = np.frombuffer(text, np.uint8)
    words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))  # words[i]: bytes i..i+7, unaligned
    w = words[s]
    neg = (w & 0xFF) == ord("-")
    z = w ^ 0x2E * _EIGHT  # a "." byte becomes 0, and the bit 7 of the first zero byte is set:
    z = (z - _EIGHT) & ~z & 0x80 * _EIGHT
    d = np.minimum(((((z - 1) & ~z) >> 7 & _EIGHT) * _EIGHT >> 56).astype(np.intp), e - s)  # bytes before it
    f = np.clip(e - s - d - 1, 0, 22)
    c = np.clip(f - _WORDS, 0, 8)  # the fraction's digits in each of its words
    bits = (8 * np.vstack((d, c))).astype(np.uint8)
    v = np.vstack((w + 3 * neg.astype(np.uint64), words[s + d + 1 + _WORDS]))  # "-" read as "0"
    v <<= 64 - bits  # a word's digits right-aligned behind "0"s
    v |= _ZEROS >> bits
    t = (v + 0x46 * _EIGHT | v - _ZEROS) & 0x80 * _EIGHT  # bit 7 set in a byte that is no digit
    ok = (t[0] | t[1] | t[2] | t[3] == 0) & (d + f + 1 >= e - s) & (d - neg + f > 0)
    ok &= (d == e - s) | (raw[s + d] == ord("."))
    v = ((v & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8 & 0x00FF00FF00FF00FF) * 6553601 >> 16  # 2, then 4 digits per lane
    v = (v & 0x0000FFFF0000FFFF) * 42949672960001 >> 32  # parse_eight_digits
    hi, rest = v[0] * _P10[c[0]] + v[1], f - c[0]  # hi < 10**16: m is hi, then `rest` digits
    ok &= hi < _LIMIT[rest]  # m has at most 18 digits: no int64 overflow
    m = (hi * _P10[rest] + v[2] * _P10[c[2]] + v[3]) * ok  # a rejected token's m may be any uint64
    del v, t, z, bits
    mh = m.astype(float)
    ml = (m - mh.astype(np.uint64)).view(np.int64).astype(float)  # m = mh + ml exactly
    ph, pl = _INV10_HI[f], _INV10_LO[f]
    y, lo = _two_product(mh, ph)
    lo += mh * pl + ml * ph  # mh ph - y, then the rest
    r = lo - ((y + lo) - y)  # y + lo - (y + lo rounded), exactly (Fast2Sum)
    exact = m < 2**53
    ok &= exact | _off_midpoint(y + lo, r)
    y = np.where(exact, mh / _POW10[f], y + lo) * (1 - 2 * neg)  # -0 keeps its sign
    for j in np.flatnonzero(~ok):  # fork kept, as in _csv_records: rare forms and near-ties
        y[j] = float(text[s[j] : e[j]].decode())
    return y


def _off_midpoint(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether y + r, which rounds to y > 0, lies more than 2**-90 y from a rounding midpoint: half a
    spacing above or below y, or a quarter below it (the spacing below a power of two is half)."""
    half, tol = np.spacing(y) / 2, y * 2.0**-90
    return (np.abs(r) < half - tol) & (np.abs(r + half / 2) > tol)
