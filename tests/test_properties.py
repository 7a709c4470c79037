"""Property tests: augmentation on the fixture bundles, with drawn rows, and
the three rank routes, the action and basis-file text on drawn generator sets."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from conftest import FIXTURES, basis_to_dict, dense
from robosym import basis as basis_module
from robosym.augment import (
    augment_dataset,
    compile_schema,
    load_group_bundle,
    load_schema,
    orbit_average,
    resolve_schema,
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
from robosym.groups import Representation, act, group_closure, verify_homomorphism

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
    return plan, draw(hnp.arrays(float, (n, plan.width), elements=elements))


@SETTINGS
@given(plan_and_rows(), st.data())
def test_inverse_undoes_each_element(case, data):
    plan, rows = case
    g = data.draw(st.sampled_from(list(plan.group.elements())))
    back = plan.apply_rows(plan.group.inverse[g], plan.apply_rows(g, rows))
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


@st.composite
def signed_pair(draw):
    """Representations of one group on R^n and R^m from drawn signed
    generators, closed jointly as the pair loader does."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    targets, signs = [], []
    for _ in range(draw(st.integers(1, 3))):
        moved = [n + i for i in draw(st.permutations(range(m)))]
        targets.append(draw(st.permutations(range(n))) + moved)
        signs.append(draw(st.lists(st.sampled_from([-1, 1]), min_size=n + m, max_size=n + m)))
    try:
        group, rep = group_closure(targets, signs, order_cap=256)
    except ClosureExceeded:
        hypothesis.reject()
    return (Representation(group, rep.targets[:, :n], rep.signs[:, :n]),
            Representation(group, rep.targets[:, n:] - n, rep.signs[:, n:]))


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
