"""Property tests of augmentation on the fixture bundles, with drawn rows."""

import numpy as np
import pytest

from conftest import FIXTURES
from robosym.augment import (
    augment_dataset,
    augment_row,
    compile_schema,
    load_group_bundle,
    load_schema,
    orbit_average,
    resolve_schema,
)

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
# exact arithmetic would give 0; allow rounding relative to the drawn scale
ATOL = 1e-12 * SCALE
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def plan_and_rows(draw, per_element=False):
    """A fixture plan and 1 to 3 drawn rows for it, or as many g-major
    blocks of rows as the group has elements."""
    plan = draw(st.sampled_from(PLANS))
    n = draw(st.integers(1, 3)) * (plan.group.order if per_element else 1)
    return plan, draw(hnp.arrays(float, (n, plan.width), elements=VALUES))


@SETTINGS
@given(plan_and_rows(), st.data())
def test_inverse_undoes_each_element(case, data):
    plan, rows = case
    g = data.draw(st.sampled_from(list(plan.group.elements())))
    back = augment_row(plan, plan.group.inverse[g], augment_row(plan, g, rows))
    np.testing.assert_allclose(back, rows, rtol=0, atol=ATOL)


@SETTINGS
@given(plan_and_rows())
def test_identity_block_is_the_input(case):
    plan, rows = case
    np.testing.assert_array_equal(augment_dataset(plan, rows)[: len(rows)], rows)


@SETTINGS
@given(plan_and_rows(per_element=True))
def test_orbit_average_is_idempotent(case):
    plan, targets = case
    once = orbit_average(plan, targets)
    np.testing.assert_allclose(orbit_average(plan, once), once, rtol=0, atol=ATOL)
