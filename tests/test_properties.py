"""Property tests: augmentation on the fixture bundles, with drawn rows; the
CSV writer and reader on drawn floats; and the closure, the three rank routes, the
action, free orbits and basis-file text on drawn generator sets."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from conftest import (FIXTURES, assert_closure_is_sequential, basis_to_dict, breaks_some_pair, compose,
                      csv_reference_text, dense, gpm, plan_matrices)
from robosym import basis as basis_module
from robosym.augment import (
    PLAN_TOL,
    augment_dataset,
    compile_schema,
    load_group_bundle,
    load_schema,
    orbit_average,
    read_csv,
    resolve_schema,
    write_csv,
)
from robosym.basis import (
    basis_fingerprint,
    basis_json_chunks,
    bias_basis,
    burnside_rank,
    dense_nullspace_oracle,
    orbit_basis,
)
from robosym.errors import ClosureExceeded
from robosym.groups import FiniteGroup, Representation, _broken_relation, act, group_closure, verify_homomorphism

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

# one field of every kind
ALL_KINDS = [
    {"name": "q", "kind": "joint_space"},
    {"name": "v", "kind": "e3_vector"},
    {"name": "w", "kind": "e3_pseudovector"},
    {"name": "feet", "kind": "kron_perm_vector"},
    {"name": "c", "kind": "categorical_contact"},
    {"name": "pose", "kind": "pose_conjugation"},
    {"name": "s", "kind": "invariant_scalar", "dim": 2},
]


def _plans():
    plans = []
    for group_file, schemas in [
        ("k4_solo.json", ["com_schema.json", ALL_KINDS]),
        ("c2_minicheetah.json", ["minicheetah_schema.json", "contact_schema.json", ALL_KINDS]),
    ]:
        bundle = load_group_bundle(str(FIXTURES / group_file))
        for raw in schemas:
            if isinstance(raw, str):
                raw = load_schema(str(FIXTURES / raw))
            schema = resolve_schema(raw, bundle.joint_rep, bundle.isometries, bundle.leg_perm)
            plans.append(compile_schema(schema, bundle.group, bundle.joint_rep,
                                        bundle.isometries, bundle.leg_perm))
    return plans


PLANS = _plans()
SCALE = 1e6
VALUES = st.floats(-SCALE, SCALE)
# values a gather must move bit for bit and a product with an identity block would not
SPECIALS = st.one_of(VALUES, st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
# exact arithmetic would give 0; allow rounding relative to the drawn scale
ATOL = 1e-12 * SCALE
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def plan_and_rows(draw, per_element=False, elements=VALUES):
    """A fixture plan and 1 to 3 drawn rows for it, or as many g-major
    blocks of rows as the group has elements."""
    plan = draw(st.sampled_from(PLANS))
    n = draw(st.integers(1, 3)) * (plan.group.order if per_element else 1)
    return plan, draw(hnp.arrays(float, (n, plan.dim), elements=elements))


@SETTINGS
@given(plan_and_rows(), st.data())
def test_inverse_undoes_each_element(case, data):
    plan, rows = case
    g = data.draw(st.sampled_from(list(plan.group.elements())))
    back = act(plan, plan.group.inverse[g], act(plan, g, rows))
    np.testing.assert_allclose(back, rows, rtol=0, atol=ATOL)


@SETTINGS
@given(plan_and_rows(elements=SPECIALS))
def test_identity_block_is_the_input(case):
    # bytes, not values: assert_array_equal takes -0.0 for 0.0
    plan, rows = case
    assert augment_dataset(plan, rows)[: len(rows)].tobytes() == rows.tobytes()


@SETTINGS
@given(plan_and_rows(per_element=True))
def test_orbit_average_is_idempotent(case):
    plan, targets = case
    once = orbit_average(plan, targets)
    np.testing.assert_allclose(orbit_average(plan, once), once, rtol=0, atol=ATOL)


# any float64 (NaN, infinities, -0.0, subnormals, 1.8e308), short decimals and integers
DECIMALS = st.floats(-1e6, 1e6).map(lambda v: round(v, 3))
ANY_FLOAT = st.one_of(st.floats(), DECIMALS, st.integers(-10**17, 10**17).map(float))
# the same below 1e300 in magnitude, so a rotation block cannot overflow
PLAN_FLOAT = st.one_of(st.floats(-1e300, 1e300), DECIMALS, st.sampled_from([np.nan, np.inf, -np.inf]))


@SETTINGS
@given(hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 8)), elements=ANY_FLOAT))
def test_write_is_the_fstring_reference(tmp_path_factory, rows):
    names = [f"c_{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("write") / "w.csv"
    write_csv(str(path), names, rows)
    assert path.read_bytes() == csv_reference_text(names, rows).encode()


@SETTINGS
@given(hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 8)), elements=ANY_FLOAT))
def test_read_returns_what_was_written(tmp_path_factory, rows):
    # by write_csv, or by repr joined with commas; a NaN is written "nan" and reads back as a NaN
    names = [f"c_{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("read") / "r.csv"
    for write in (lambda: write_csv(str(path), names, rows),
                  lambda: path.write_text("\n".join([",".join(names)] + [",".join(map(repr, row))
                                                                          for row in rows.tolist()]) + "\n")):
        write()
        back = read_csv(str(path))[1]
        assert back.shape == rows.shape and np.array_equal(np.isnan(back), np.isnan(rows))
        assert back[~np.isnan(rows)].tobytes() == rows[~np.isnan(rows)].tobytes()


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: hnp.arrays(float, (n, PLANS[1].dim), elements=PLAN_FLOAT)))
def test_write_under_the_every_kind_plan_is_a_plain_write_of_the_copies(tmp_path_factory, rows):
    plan = PLANS[1]  # K4 of k4_solo.json on one field of every kind
    names = [f"c_{i}" for i in range(plan.dim)]
    out = tmp_path_factory.mktemp("plan")
    write_csv(str(out / "plan.csv"), names, rows, plan)
    write_csv(str(out / "plain.csv"), names, augment_dataset(plan, rows))
    assert (out / "plan.csv").read_bytes() == (out / "plain.csv").read_bytes()


@st.composite
def signed_generators(draw):
    """1 to 4 signed permutations of one dim from 0 to 6, as target and sign lists."""
    dim = draw(st.integers(0, 6))
    targets, signs = [], []
    for _ in range(draw(st.integers(1, 4))):
        targets.append(draw(st.permutations(range(dim))))
        signs.append(draw(st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim)))
    return targets, signs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(signed_generators())
def test_closure_matches_the_sequential_reference(gens):
    order = assert_closure_is_sequential(*gens, order_cap=256)
    if order:  # a cap of the group's order, then of one element less
        assert assert_closure_is_sequential(*gens, order_cap=order) == order
        assert order == 1 or assert_closure_is_sequential(*gens, order_cap=order - 1) is None


@st.composite
def corrupted_closure(draw):
    """The representation closed from drawn signed generators (order <= 64),
    on its group or on the same table listing no generators, with one
    element's value replaced by a drawn signed permutation (maybe the same)."""
    targets, signs = draw(signed_generators())
    try:
        group, rep = group_closure(targets, signs, order_cap=64)
    except ClosureExceeded:
        hypothesis.reject()
    if draw(st.booleans()):
        group = FiniteGroup(group.cayley, group.inverse)
    t, s = rep.targets.copy(), rep.signs.copy()
    g = draw(st.sampled_from(list(group.elements())))
    t[g] = draw(st.permutations(range(rep.dim)))
    s[g] = draw(st.lists(st.sampled_from([-1, 1]), min_size=rep.dim, max_size=rep.dim))
    return Representation(group, t, s)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(corrupted_closure())
def test_relation_checks_agree_with_all_pairs(rep):
    group = rep.group
    mats = np.array([dense(rep, g) for g in group.elements()])
    holds = not breaks_some_pair(group, mats, 0.0)
    report = verify_homomorphism(rep)
    assert report.passed == holds
    if not holds:
        x, s = report.first_violation
        assert (mats[x] @ mats[s] != mats[group.cayley[x, s]]).any()
    # the check a group file's isometries pass, at its tolerance
    assert (_broken_relation(group, mats, np.matmul, 1e-9) is None) == holds
    schema = resolve_schema([{"name": "q", "kind": "joint_space"}], joint_rep=rep)
    plan_mats = plan_matrices(compile_schema(schema, group, joint_rep=rep))
    assert breaks_some_pair(group, plan_mats, 0.0) == breaks_some_pair(group, plan_mats, PLAN_TOL) == (not holds)


@st.composite
def pair_generators(draw, count=st.integers(1, 3)):
    """n and signed generators on R^(n+m), each a signed permutation of the
    first n coordinates beside one of the last m."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    targets, signs = [], []
    for _ in range(draw(count)):
        moved = [n + i for i in draw(st.permutations(range(m)))]
        targets.append(draw(st.permutations(range(n))) + moved)
        signs.append(draw(st.lists(st.sampled_from([-1, 1]), min_size=n + m, max_size=n + m)))
    return n, targets, signs


def close_pair(n, targets, signs):
    """Representations of one group on R^n and R^m, closed jointly as the
    pair loader does."""
    try:
        group, rep = group_closure(targets, signs, order_cap=256)
    except ClosureExceeded:
        hypothesis.reject()
    return (Representation(group, rep.targets[:, :n], rep.signs[:, :n]),
            Representation(group, rep.targets[:, n:] - n, rep.signs[:, n:]))


@st.composite
def signed_pair(draw):
    """Representations of one group on R^n and R^m from drawn signed generators."""
    return close_pair(*draw(pair_generators()))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pair_generators(st.integers(2, 3)))
def test_generator_lists_of_one_group_give_the_same_free_orbits(case):
    # [a1 a2, a2, ..., ak] reversed generates the group that [a1, ..., ak] does,
    # so the two lists give the same basis files and fingerprints, zero-forced
    # orbits included
    n, targets, signs = case
    a = [gpm(t, s) for t, s in zip(targets, signs)]
    other = ([compose(a[0], a[1])] + a[1:])[::-1]
    one, two = close_pair(n, targets, signs), close_pair(n, [t for t, _ in other], [s for _, s in other])
    assert one[0].group.order == two[0].group.order
    for x, y in ((orbit_basis(*one), orbit_basis(*two)), (bias_basis(one[1]), bias_basis(two[1]))):
        assert x.orbits == y.orbits and x.zero_forced == y.zero_forced
        for separators in ((", ", ": "), (",", ":")):
            assert "".join(basis_json_chunks(x, separators)) == "".join(basis_json_chunks(y, separators))
        assert basis_fingerprint(x) == basis_fingerprint(y)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(signed_pair(), st.integers(1, 7))
def test_basis_text_is_json_dumps(pair, block):
    # blocks of 1 to 7 entries split orbits between chunks
    rep_in, rep_out = pair
    with mock.patch.object(basis_module, "BASIS_BLOCK", block):
        for basis in (orbit_basis(rep_in, rep_out), bias_basis(rep_out)):
            reference = basis_to_dict(basis)
            assert "".join(basis_json_chunks(basis)) == json.dumps(reference)
            compact = json.dumps(reference, sort_keys=True, separators=(",", ":"))
            assert "".join(basis_json_chunks(basis, (",", ":"))) == compact
            assert basis_fingerprint(basis) == hashlib.sha256(compact.encode()).hexdigest()[:16]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(signed_pair(), st.data())
def test_ranks_and_action_agree(pair, data):
    # m n <= 16 here, far inside the oracle's cap
    rep_in, rep_out = pair
    assert verify_homomorphism(rep_in).passed and verify_homomorphism(rep_out).passed
    rank = orbit_basis(rep_in, rep_out).rank
    assert rank == burnside_rank(rep_in, rep_out) == dense_nullspace_oracle(rep_in, rep_out).shape[1]
    g = data.draw(st.sampled_from(list(rep_in.group.elements())))
    for rep in pair:
        x = data.draw(hnp.arrays(float, (2, rep.dim), elements=VALUES))
        np.testing.assert_array_equal(act(rep, g, x[0]), dense(rep, g) @ x[0])
        np.testing.assert_array_equal(act(rep, g, x), x @ dense(rep, g).T)
