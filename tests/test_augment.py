"""Schema compilation, exact augmentation, and orbit averaging."""

import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (FIXTURES, breaks_some_pair, closure, csv_reference_text, dense, gpm, isometries,
                      plan_matrices, write_z2_power_bundle)
from robosym import augment
from robosym.augment import (
    augment_dataset,
    compile_schema,
    contact_state_rep,
    load_group_bundle,
    load_schema,
    orbit_average,
    read_csv,
    resolve_schema,
    write_csv,
)
from robosym.errors import DimMismatch, ParseError, SchemaError, check_isometry
from robosym.fileio import atomic_write_text
from robosym.groups import FiniteGroup, Representation, _broken_relation, act, verify_homomorphism
from robosym.rigid import candidates_from_dict, tree_from_dict

# full image of the 16 contact states under the left-right leg swap,
# cross-checked by hand from the bit encoding (leg 0 = most significant)
CONTACT_TABLE = [0, 2, 1, 3, 8, 10, 9, 11, 4, 6, 5, 7, 12, 14, 13, 15]


@pytest.fixture(scope="module")
def cheetah():
    return load_group_bundle(str(FIXTURES / "c2_minicheetah.json"))


@pytest.fixture(scope="module")
def solo():
    return load_group_bundle(str(FIXTURES / "k4_solo.json"))


def make_plan(bundle, schema_file):
    raw = load_schema(str(FIXTURES / schema_file))
    schema = resolve_schema(raw, bundle.joint_rep, bundle.isometries, bundle.leg_perm)
    return schema, compile_schema(
        schema, bundle.group, bundle.joint_rep, bundle.isometries, bundle.leg_perm
    )


class TestIsometrySet:
    """The isometries of a group file: checked where the file is read, and kept as
    the one-block action ``load_group_bundle`` builds."""

    @staticmethod
    def _bundle(tmp_path, *isometries):
        """A C2 file (a joint swap) with each generator's isometry, or a file of generators."""
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"dim": 2, "generators": [
            {"target": [1, 0], "sign": [1, 1], "isometry": np.asarray(m).tolist()} for m in isometries]}))
        return str(path)

    def test_non_orthogonal_rejected(self, tmp_path):
        bad = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ParseError, match=r"generator 0 \(line 1\): 'isometry' is not orthogonal"):
            load_group_bundle(self._bundle(tmp_path, bad))

    @pytest.mark.parametrize("g", [0, 1])
    def test_nan_rejected(self, g):
        # NaN and +-inf in a stack of isometries (the check a group file's elements
        # pass) are named by the element, before any product on them can warn
        for value in (np.nan, np.inf, -np.inf):
            rotations = np.array([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
            rotations[g][1, 1] = value
            with pytest.raises(ValueError, match=f"isometry {g} has non-finite entries"):
                check_isometry("isometry", rotations, augment.PLAN_TOL)

    def test_stack_check_names_what_the_per_element_check_named(self):
        # the first failing element, then its first failing check; a non-finite one warns of nothing
        rng = np.random.default_rng(5)
        stack = np.array([np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(6)])
        assert check_isometry("isometry", stack, 1e-12).tolist() == [
            check_isometry("isometry", m, 1e-12) for m in stack]
        stack[4, 0, 0] = np.inf
        stack[2] *= 1.1  # orthogonal columns, but not unit ones
        for first, check in ((2, "is not orthogonal"), (4, "has non-finite entries")):
            with pytest.raises(ValueError, match=f"^isometry {first} {check}$"):
                check_isometry("isometry", stack, 1e-12)
            stack[first] = np.eye(3)
        with pytest.raises(ValueError, match=r"^'isometry' must be a square matrix, got shape \(1, 6, 3, 3\)$"):
            check_isometry("'isometry'", stack[None], 1e-12)

    def test_generator_isometry_must_be_one_matrix(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"dim": 2, "generators": [
            {"target": [1, 0], "sign": [1, 1], "isometry": [np.eye(2).tolist()]}]}))
        with pytest.raises(ParseError, match=r"generator 0 \(line 1\): 'isometry' must be a square matrix, "
                                             r"got shape \(1, 2, 2\)$"):
            load_group_bundle(str(group))

    def test_cayley_violation_rejected(self, tmp_path):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        # a 90-degree rotation does not square to the identity, as the joint swap does
        with pytest.raises(ParseError, match="generator 0: its 'isometry' breaks the group relations "
                                             "on the product of generators 0, 0$"):
            load_group_bundle(self._bundle(tmp_path, rot))

    def test_group_without_generators_checks_every_element(self):
        # the relation check that load_group_bundle runs takes every element as a generator
        group, _ = closure(gpm([1, 0, 3, 2]), gpm([2, 3, 0, 1]))
        bare = FiniteGroup(group.cayley, group.inverse)
        rotations = np.array([np.diag(d) for d in ([1, 1, 1], [-1, 1, 1], [1, -1, 1], [-1, -1, 1])])
        assert _broken_relation(bare, rotations, np.matmul, 1e-9) is None
        rotations[3] = np.diag([1.0, 1.0, -1.0])  # no longer the product of elements 2 and 1
        assert _broken_relation(bare, rotations, np.matmul, 1e-9)[:2] == (2, 1)

    @pytest.mark.parametrize("name", ["group", "targets", "signs", "blocks", "dim"])
    def test_attributes_are_read_only(self, tmp_path, name):
        iso = load_group_bundle(self._bundle(tmp_path, np.diag([-1.0, 1.0, 1.0]))).isometries
        with pytest.raises(AttributeError):
            setattr(iso, name, None)
        with pytest.raises(AttributeError):
            delattr(iso, name)
        assert iso.dim == 3 and iso.group.order == 2 and len(iso.blocks) == 1

    def test_tolerances_pinned(self, tmp_path):
        # orthogonal to 1e-10: inside a candidate's 1e-9, outside a group file's 1e-12
        r = np.diag([-1.0, 1.0, 1.0])
        r[0, 1] = 1e-10
        assert 5e-11 < np.abs(r.T @ r - np.eye(3)).max() < 2e-10
        rock = tree_from_dict({"base": "fixed", "bodies": [{"name": "rock", "mass": 1.0, "com": [0, 0, 0],
                                                            "inertia": [0.1, 0, 0, 0.1, 0, 0.1]}]})
        cands = candidates_from_dict({"candidates": [{"isometry": r.tolist(), "joint_perm": {"target": []},
                                                      "body_pairing": {"rock": "rock"}}]}, rock)
        assert np.array_equal(cands.isometries[0], r) and np.linalg.det(r) < 0
        with pytest.raises(ParseError, match=r"generator 0 \(line 1\): 'isometry' is not orthogonal"):
            load_group_bundle(self._bundle(tmp_path, r))
        r[0, 1] = 0.0
        blocks = load_group_bundle(self._bundle(tmp_path, r)).isometries.blocks[0][1]
        assert np.sign(np.linalg.det(blocks)).tolist() == [1, -1]

    def test_dets(self, solo):
        dets = np.sign(np.linalg.det(solo.isometries.blocks[0][1]))
        assert dets[0] == 1
        assert sorted(dets) == [-1, -1, 1, 1]  # two reflections, e, rotation

    def test_pseudo_equals_rotation_for_proper_elements(self, solo):
        # a pseudovector turns with det(R) R: as a vector under a proper element
        iso = solo.isometries
        raw = [{"name": "v", "kind": "e3_vector"}, {"name": "w", "kind": "e3_pseudovector"}]
        plan = compile_schema(resolve_schema(raw, isometries=iso), solo.group, isometries=iso)
        for g, det in enumerate(np.sign(np.linalg.det(iso.blocks[0][1]))):
            out = act(plan, g, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
            np.testing.assert_array_equal(out[3:], det * out[:3])
            if det == 1:
                np.testing.assert_array_equal(out[3:], out[:3])

    def test_stored_read_only(self, solo):
        sl, rotations, is_identity = solo.isometries.blocks[0]
        assert not rotations.flags.writeable and not is_identity.flags.writeable
        assert sl == slice(0, 3) and rotations.shape == (4, 3, 3) and is_identity.tolist() == [True] + [False] * 3


class TestContactStateRep:
    def test_paper_table_rows(self):
        perm = gpm([1, 0, 3, 2])  # RF<->LF, RH<->LH
        rep = contact_state_rep(perm)
        assert list(rep) == CONTACT_TABLE
        assert rep[1] == 2
        assert rep[5] == 10
        assert rep[15] == 15

    def test_identity_permutation(self):
        rep = contact_state_rep(gpm([0, 1, 2, 3]))
        assert list(rep) == list(range(16))

    def test_signed_leg_perm_rejected(self):
        with pytest.raises(SchemaError, match="unsigned"):
            contact_state_rep(gpm([1, 0], [-1, 1]))

    @pytest.mark.parametrize("legs", [1, 3, 5, 8])
    def test_matches_bit_loop(self, legs):
        # reference: read each state's bits and move leg i's bit to target[i]
        target = np.random.default_rng(legs).permutation(legs).tolist()
        expected = []
        for state in range(1 << legs):
            bits = [(state >> (legs - 1 - leg)) & 1 for leg in range(legs)]
            permuted = [0] * legs
            for leg in range(legs):
                permuted[target[leg]] = bits[leg]
            expected.append(sum(b << (legs - 1 - i) for i, b in enumerate(permuted)))
        assert list(contact_state_rep(gpm(target))) == expected

    def test_leg_cap(self):
        with pytest.raises(SchemaError):
            contact_state_rep(gpm(list(range(17))))


class TestCompileSchema:
    def test_e3_vector_reflection(self, cheetah):
        schema = resolve_schema(
            [{"name": "v", "kind": "e3_vector"}], isometries=cheetah.isometries
        )
        plan = compile_schema(schema, cheetah.group, isometries=cheetah.isometries)
        out = act(plan, 1, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [1.0, -2.0, 3.0])

    def test_pseudovector_reflection(self):
        group, _ = closure(gpm([1, 0]))
        iso = isometries(group, [np.eye(3), np.diag([-1.0, 1.0, 1.0])])
        schema = resolve_schema([{"name": "w", "kind": "e3_pseudovector"}], isometries=iso)
        plan = compile_schema(schema, group, isometries=iso)
        # det R = -1 so the transform is -R = diag(1, -1, -1)
        np.testing.assert_array_equal(
            act(plan, 1, np.array([0.0, 0.0, 1.0])), [0.0, 0.0, -1.0]
        )

    def test_rotation_fields_match_dense_blocks(self):
        # a 120-degree turn is not symmetric, so a transposed block would
        # show; signed leg perms are reachable only through the library API
        group, legs3 = closure(gpm([1, 2, 0]))
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        iso = isometries(group, [np.eye(3), turn, turn @ turn])
        legs = Representation(group, legs3.targets, np.tile([1, -1, -1], (3, 1)))
        raw = [{"name": "v", "kind": "e3_vector"}, {"name": "p", "kind": "kron_perm_vector"}]
        schema = resolve_schema(raw, isometries=iso, leg_perm=legs)
        plan = compile_schema(schema, group, isometries=iso, leg_perm=legs)
        x = np.random.default_rng(9).standard_normal(schema.width)
        for g in group.elements():
            r = iso.blocks[0][1][g]
            expected = np.concatenate([r @ x[:3], np.kron(dense(legs, g), r) @ x[3:]])
            np.testing.assert_allclose(act(plan, g, x), expected, atol=1e-14)

    def test_minicheetah_schema_width_54(self, cheetah):
        schema, plan = make_plan(cheetah, "minicheetah_schema.json")
        assert schema.width == 54
        assert [f.dim for f in schema.fields] == [12, 12, 3, 3, 12, 12]
        assert not breaks_some_pair(plan.group, plan_matrices(plan), augment.PLAN_TOL)

    def test_corrupted_rotation_block_fails_verify(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        sl, blocks, _ = plan.blocks[0]
        blocks = blocks.copy()
        blocks[2] = blocks[2] @ np.diag([1.0, 1.0, -1.0])
        bad = Representation(plan.group, plan.targets, plan.signs, [(sl, blocks)])
        mats = plan_matrices(bad)  # the largest gap is 2: an entry +-1 against -+1
        assert breaks_some_pair(bad.group, mats, 1.99) and not breaks_some_pair(bad.group, mats, 2.0)

    def test_missing_context_reports_field(self, cheetah):
        with pytest.raises(SchemaError, match="'p'"):
            resolve_schema([{"name": "p", "kind": "kron_perm_vector"}])

    def test_declared_dim_mismatch(self, cheetah):
        with pytest.raises(SchemaError, match="'q'"):
            resolve_schema(
                [{"name": "q", "kind": "joint_space", "dim": 7}], joint_rep=cheetah.joint_rep
            )

    def test_plan_homomorphism_all_schemas(self, cheetah, solo):
        for bundle, schema_file in [
            (cheetah, "minicheetah_schema.json"),
            (cheetah, "contact_schema.json"),
            (solo, "com_schema.json"),
        ]:
            _, plan = make_plan(bundle, schema_file)
            assert not breaks_some_pair(plan.group, plan_matrices(plan), 1e-12)

    def test_pose_conjugation_block(self, solo):
        schema = resolve_schema(
            [{"name": "X", "kind": "pose_conjugation"}], isometries=solo.isometries
        )
        plan = compile_schema(schema, solo.group, isometries=solo.isometries)
        rng = np.random.default_rng(0)
        for g in solo.group.elements():
            x = np.eye(4)
            x[:3, :3] = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            x[:3, 3] = rng.standard_normal(3)
            h = np.eye(4)
            h[:3, :3] = solo.isometries.blocks[0][1][g]
            expected = h @ x @ np.linalg.inv(h)
            out = act(plan, g, x.reshape(-1)).reshape(4, 4)
            np.testing.assert_allclose(out, expected, atol=1e-12)


class TestAugmentRow:
    def test_identity_unchanged(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        row = np.arange(plan.dim, dtype=float)
        np.testing.assert_array_equal(act(plan, 0, row), row)

    def test_group_inverse_roundtrip(self, cheetah):
        _, plan = make_plan(cheetah, "minicheetah_schema.json")
        rng = np.random.default_rng(1)
        row = rng.standard_normal(plan.dim)
        for g in cheetah.group.elements():
            back = act(plan, cheetah.group.inverse[g], act(plan, g, row))
            np.testing.assert_allclose(back, row, atol=1e-12)

    def test_com_momentum_vector_pseudovector_split(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        rng = np.random.default_rng(2)
        row = rng.standard_normal(plan.dim)
        for g in solo.group.elements():
            out = act(plan, g, row)
            r = solo.isometries.blocks[0][1][g]
            det = np.sign(np.linalg.det(r))
            np.testing.assert_allclose(out[24:27], r @ row[24:27], atol=1e-14)
            np.testing.assert_allclose(out[27:30], det * (r @ row[27:30]), atol=1e-14)

    def test_width_mismatch(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        with pytest.raises(DimMismatch):
            act(plan, 0, np.ones(plan.dim + 1))


class TestAugmentDataset:
    def test_order_times_n_rows(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        rows = np.random.default_rng(3).standard_normal((100, plan.dim))
        out = augment_dataset(plan, rows)
        assert out.shape == (400, plan.dim)
        np.testing.assert_array_equal(out[:100], rows)

    def test_trivial_group_identity(self):
        group, rep = closure(gpm([0, 1]))
        schema = resolve_schema([{"name": "q", "kind": "joint_space"}], joint_rep=rep)
        plan = compile_schema(schema, group, joint_rep=rep)
        rows = np.random.default_rng(4).standard_normal((7, 2))
        np.testing.assert_array_equal(augment_dataset(plan, rows), rows)

    def test_closed_set_is_permuted_rowwise(self, solo):
        # augmenting a G-closed set returns the same multiset of rows
        _, plan = make_plan(solo, "com_schema.json")
        rng = np.random.default_rng(5)
        closed = augment_dataset(plan, rng.standard_normal((6, plan.dim)))
        again = augment_dataset(plan, closed)

        def canon(rows):
            return np.array(sorted(np.round(r, 10).tolist() for r in rows))

        a = canon(closed)
        b = canon(again)
        # every row of `closed` appears |G| times in `again`
        assert len(b) == 4 * len(a)
        np.testing.assert_allclose(np.unique(a, axis=0), np.unique(b, axis=0), atol=1e-10)


class TestOrbitAverage:
    def test_equivariant_targets_unchanged(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        rng = np.random.default_rng(6)
        blocks = augment_dataset(plan, rng.standard_normal((9, plan.dim)))
        np.testing.assert_allclose(orbit_average(plan, blocks), blocks, atol=1e-12)

    def test_corrupted_image_projected_consistently(self):
        group, rep = closure(gpm([1, 0]))
        schema = resolve_schema([{"name": "y", "kind": "joint_space"}], joint_rep=rep)
        plan = compile_schema(schema, group, joint_rep=rep)
        y = np.array([[1.0, 2.0]])
        stacked = np.vstack([y, act(plan, 1, y[0])[None, :] + 0.1])
        fixed = orbit_average(plan, stacked)
        # after averaging the pair is exactly equivariant
        np.testing.assert_allclose(act(plan, 1, fixed[0]), fixed[1], atol=1e-12)
        np.testing.assert_allclose(orbit_average(plan, fixed), fixed, atol=1e-12)

    def test_zero_targets(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        z = np.zeros((8, plan.dim))
        np.testing.assert_array_equal(orbit_average(plan, z), z)

    def test_row_count_must_divide(self, solo):
        _, plan = make_plan(solo, "com_schema.json")
        with pytest.raises(DimMismatch):
            orbit_average(plan, np.zeros((5, plan.dim)))


class TestBundleLoading:
    def test_k4_bundle(self, solo):
        assert solo.group.order == 4
        assert solo.joint_rep.dim == 12
        assert solo.leg_perm.dim == 4

    def test_partial_isometries_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(
            '{"dim": 2, "generators": ['
            '{"target": [1, 0], "sign": [1, 1], "isometry": [[1,0,0],[0,1,0],[0,0,1]]},'
            '{"target": [0, 1], "sign": [-1, -1]}]}'
        )
        with pytest.raises(ParseError, match="isometry"):
            load_group_bundle(str(path))

    def test_leg_perm_violating_group_relations_rejected(self, tmp_path):
        # order-2 joint generator paired with an order-3 leg cycle
        path = tmp_path / "legs.json"
        path.write_text(
            '{"dim": 2, "generators": ['
            '{"target": [1, 0], "sign": [1, 1], "leg_perm": [1, 2, 0]}]}'
        )
        with pytest.raises(ParseError, match="relations"):
            load_group_bundle(str(path))

    def test_z2_power_bundle_of_order_1024_loads(self, tmp_path):
        bundle = load_group_bundle(write_z2_power_bundle(tmp_path / "z2.json", 10))
        assert bundle.group.order == 1024 and bundle.joint_rep.dim == 20
        assert bundle.isometries.dim == 3 and verify_homomorphism(bundle.leg_perm).passed
        assert sorted(set(map(tuple, bundle.leg_perm.targets.tolist()))) == [
            (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]

    def test_four_cycle_leg_perm_names_generator_and_element(self, tmp_path):
        # generator 0's 4-cycle squares to no identity: element 1 (its own) times it is not e
        path = write_z2_power_bundle(tmp_path / "z2.json", 10, {0: [1, 2, 3, 0]})
        with pytest.raises(ParseError) as info:
            load_group_bundle(path)
        assert str(info.value) == (f"{path}: generator 0: its 'leg_perm' breaks the group relations "
                                   "on the product of generators 0, 0")

    def test_a_broken_relation_is_named_by_the_files_generators(self, tmp_path):
        # generator 9's 4-cycle: its element times generator 0 is the first product to fail,
        # and the message names it by the file's generator numbers, not an element index
        path = write_z2_power_bundle(tmp_path / "z2.json", 10, {9: [1, 2, 3, 0]})
        with pytest.raises(ParseError) as info:
            load_group_bundle(path)
        assert str(info.value) == (f"{path}: generator 0: its 'leg_perm' breaks the group relations "
                                   "on the product of generators 9, 0")

    @staticmethod
    def _write_bundle(tmp_path, generators):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"dim": 2, "generators": generators}))
        return str(path)

    SWAP = {"target": [1, 0], "sign": [1, 1]}
    STAY = {"target": [0, 1], "sign": [1, 1]}
    REFLECT_X = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    REFLECT_Y = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize(
        "generators, bad",
        [
            # the identity generator would carry a leg swap the group cannot hold
            ([{**SWAP, "leg_perm": [1, 0]}, {**STAY, "leg_perm": [1, 0]}], 1),
            # two copies of one element with different leg perms
            ([{**SWAP, "leg_perm": [1, 0, 2]}, {**SWAP, "leg_perm": [0, 2, 1]}], 0),
            # two copies of one element with different isometries
            ([{**SWAP, "isometry": REFLECT_X}, {**SWAP, "isometry": REFLECT_Y}], 0),
        ],
        ids=["identity_leg_perm", "repeated_leg_perm", "repeated_isometry"],
    )
    def test_generator_extension_must_match_its_element(self, tmp_path, generators, bad):
        path = self._write_bundle(tmp_path, generators)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}: generator {bad}: its '"):
            load_group_bundle(path)

    def test_repeated_generator_with_the_same_extension_loads(self, tmp_path):
        swap = {**self.SWAP, "leg_perm": [1, 0], "isometry": self.REFLECT_Y}
        stay = {**self.STAY, "leg_perm": [0, 1], "isometry": np.eye(3).tolist()}
        bundle = load_group_bundle(self._write_bundle(tmp_path, [swap, swap, stay]))
        assert bundle.group.order == 2
        assert bundle.leg_perm.targets.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize(
        "leg_perm, message",
        [
            ([1, 0.0], "generator 0 (line 1): entry 1: 'leg_perm' must be an integer, got float"),
            ("10", "generator 0 (line 1): 'leg_perm' must be a list, got str"),
        ],
        ids=["float_entry", "not_a_list"],
    )
    def test_leg_perm_is_read_as_an_integer_list(self, tmp_path, leg_perm, message):
        path = self._write_bundle(tmp_path, [{**self.SWAP, "leg_perm": leg_perm}])
        with pytest.raises(ParseError) as info:
            load_group_bundle(path)
        assert str(info.value) == f"{path}: {message}"

    def test_joint_block_pair_matches_direct_sum(self, solo):
        # the (q, dq) input of the momentum schema transforms as the
        # joint-space rep summed with itself
        from robosym.groups import direct_sum

        _, plan = make_plan(solo, "com_schema.json")
        doubled = direct_sum([solo.joint_rep, solo.joint_rep])
        for g, mat in enumerate(plan_matrices(plan)):
            np.testing.assert_array_equal(mat[:24, :24], dense(doubled, g))


def _contact_bundle(tmp_path, legs):
    """C2 swapping 2 joints with a sign flip and swapping legs 2i <-> 2i+1."""
    swap = [i ^ 1 for i in range(legs)]
    path = tmp_path / f"legs{legs}.json"
    path.write_text(json.dumps({"dim": 2, "generators": [
        {"target": [1, 0], "sign": [-1, -1], "leg_perm": swap,
         "isometry": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}]}))
    return load_group_bundle(str(path)), swap


class TestSignedGather:
    """Permuted fields move every value exactly; no field is held dense."""

    FIELDS = [
        {"name": "q", "kind": "joint_space"},
        {"name": "c", "kind": "categorical_contact"},
        {"name": "s", "kind": "invariant_scalar", "dim": 3},
        {"name": "v", "kind": "e3_vector"},
    ]

    @staticmethod
    def _specials(x):
        """Per row, the count of values that are not finite or are zero."""
        return (~np.isfinite(x) | (x == 0)).sum(axis=1)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, -0.0])
    def test_specials_move_exactly(self, tmp_path, special):
        bundle, _ = _contact_bundle(tmp_path, 2)
        schema = resolve_schema(self.FIELDS, bundle.joint_rep, bundle.isometries, bundle.leg_perm)
        plan = compile_schema(schema, bundle.group, bundle.joint_rep, bundle.isometries,
                              bundle.leg_perm)
        rng = np.random.default_rng(8)
        rows = rng.uniform(1.0, 2.0, (6, schema.width))
        ends = np.cumsum([0] + [f.dim for f in schema.fields]).tolist()
        permuted = [slice(a, b) for a, b in zip(ends[:3], ends[1:4])]  # q, c and s
        for i, sl in enumerate(permuted):
            rows[i, sl.start + i % (sl.stop - sl.start)] = special
        out = augment_dataset(plan, rows)
        # the identity block is the input, bit for bit
        assert out[:6].tobytes() == rows.tobytes()
        for g in bundle.group.elements():
            block = out[6 * g : 6 * (g + 1)]
            for sl in permuted:
                moved, orig = block[:, sl], rows[:, sl]
                # each row keeps its one special value, in one coordinate
                # (a sign flip may turn -0.0 into 0.0 and inf into -inf)
                np.testing.assert_array_equal(self._specials(moved), self._specials(orig))
                np.testing.assert_array_equal(np.sort(np.abs(moved), axis=1),
                                              np.sort(np.abs(orig), axis=1))

    def test_sign_flip_of_zero_is_negative_zero(self, tmp_path):
        bundle, _ = _contact_bundle(tmp_path, 2)
        schema = resolve_schema(self.FIELDS[:1], bundle.joint_rep)
        plan = compile_schema(schema, bundle.group, bundle.joint_rep)
        out = act(plan, 1, np.array([0.0, -0.0]))
        # both coordinates swap places with their sign flipped
        assert np.signbit(out).tolist() == [False, True]

    @staticmethod
    def _traced_peak(tmp_path, legs):
        bundle, swap = _contact_bundle(tmp_path, legs)
        tracemalloc.start()
        try:
            schema = resolve_schema([{"name": "c", "kind": "categorical_contact"}],
                                    leg_perm=bundle.leg_perm)
            plan = compile_schema(schema, bundle.group, leg_perm=bundle.leg_perm)
            rows = np.zeros((4, schema.width))
            states = [5, 6, (1 << legs) - 2, 1 << (legs - 1)]
            rows[np.arange(4), states] = 1.0
            out = augment_dataset(plan, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the swapped copy is one-hot at the state with each leg pair swapped
        for row, state in zip(out[4:], states):
            bits = [(state >> (legs - 1 - leg)) & 1 for leg in range(legs)]
            moved = sum(bits[leg] << (legs - 1 - swap[leg]) for leg in range(legs))
            assert row.nonzero()[0].tolist() == [moved]
        return peak

    def test_twelve_leg_contact_fits_64_mib(self, tmp_path):
        assert self._traced_peak(tmp_path, 12) < 64 * 2**20

    def test_sixteen_leg_contact_fits_64_mib(self, tmp_path):
        assert self._traced_peak(tmp_path, 16) < 64 * 2**20


class TestCsvRoundtrip:
    def test_exact_float_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((12, 5))
        path = tmp_path / "d.csv"
        write_csv(str(path), [f"c_{i}" for i in range(5)], rows)
        names, back = read_csv(str(path))
        assert names == [f"c_{i}" for i in range(5)]
        np.testing.assert_array_equal(back, rows)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,b\n")
        names, rows = read_csv(str(path))
        assert names == ["a", "b"] and rows.shape == (0, 2)

    SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]

    # 10k int64 bit patterns (NaN payloads, subnormals, both zeros) over
    # 1250 rows, more than two CSV_BLOCK_ROWS blocks
    BIT_PATTERNS = (np.random.default_rng(11)
                    .integers(-(2**63), 2**63 - 1, size=(1250, 8), dtype=np.int64, endpoint=True)
                    .view(np.float64))

    @staticmethod
    def _signed_repeats():
        """The bit patterns and the specials, each beside its negation, twice
        over: every magnitude repeats, in other blocks too, with both signs."""
        block = np.vstack([np.resize(TestCsvRoundtrip.SPECIALS, (2, 8)), TestCsvRoundtrip.BIT_PATTERNS])
        return np.tile(np.vstack([block, -block]), (2, 1))

    @pytest.mark.parametrize("shape", ["row", "column", "no_rows", "bit_patterns", "signed_repeats",
                                       "no_repeats"])
    def test_write_matches_fstring_reference(self, tmp_path, shape):
        rows = {
            "row": np.array([self.SPECIALS]),
            "column": np.array(self.SPECIALS)[:, None],
            "no_rows": np.zeros((0, 3)),
            "bit_patterns": self.BIT_PATTERNS,
            "signed_repeats": self._signed_repeats(),
            # all magnitudes distinct, so every lookup misses
            "no_repeats": (np.sqrt(np.arange(2, 7702)) * np.resize([1, -1], 7700)).reshape(1100, 7),
        }[shape]
        names = [f"c_{i}" for i in range(rows.shape[1])]
        path = tmp_path / "w.csv"
        write_csv(str(path), names, rows)
        assert path.read_bytes() == csv_reference_text(names, rows).encode()
        _, back = read_csv(str(path))
        finite = ~np.isnan(rows)
        assert back.shape == rows.shape and np.array_equal(np.isnan(back), ~finite)
        assert back[finite].tobytes() == rows[finite].tobytes()

    def test_write_no_columns_matches_fstring_reference(self, tmp_path):
        # one "\n" per row; read_csv refuses the blank header, so no read-back
        path = tmp_path / "w.csv"
        write_csv(str(path), [], np.zeros((3, 0)))
        assert path.read_bytes() == csv_reference_text([], np.zeros((3, 0))).encode() == b"\n" * 4

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "signed_copies"])
    def test_write_memory_is_bounded_per_value(self, tmp_path, repeats):
        # 10,000 x 76 values, formatted a block of CSV_BLOCK_ROWS rows at a time:
        # the buffers of one block (about 1 MiB) are all the writer holds
        rng = np.random.default_rng(5)
        if repeats:  # each row four times, with its signs flipped in two copies
            base = rng.standard_normal((2500, 76))
            rows = np.repeat(base, 4, axis=0) * np.resize([[1.0], [-1.0]], (10000, 1))
        else:
            rows = rng.standard_normal((10000, 76))
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "w.csv"), [f"c_{i}" for i in range(76)], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_augment_write_memory_is_bounded_per_value_written(self, tmp_path, solo, repeats):
        # 2,500 x 76 base rows under K4 are written as 10,000 x 76 values from
        # the base rows' texts: 25 bytes per base value, 6.25 per value written
        fields = [{"name": "q", "kind": "joint_space"}, {"name": "v", "kind": "e3_vector"},
                  {"name": "w", "kind": "e3_pseudovector"}, {"name": "feet", "kind": "kron_perm_vector"},
                  {"name": "c", "kind": "categorical_contact"}, {"name": "pose", "kind": "pose_conjugation"},
                  {"name": "s", "kind": "invariant_scalar", "dim": 14}]
        schema = resolve_schema(fields, solo.joint_rep, solo.isometries, solo.leg_perm)
        plan = compile_schema(schema, solo.group, solo.joint_rep, solo.isometries, solo.leg_perm)
        rng = np.random.default_rng(5)
        if repeats:  # 625 rows, then their negations, twice over: copies in other blocks
            base = rng.standard_normal((625, schema.width))
            rows = np.tile(np.vstack([base, -base]), (2, 1))
            at = dict(zip((f.name for f in schema.fields), np.cumsum([0] + [f.dim for f in schema.fields])))
            rows[:, at["c"] : at["pose"]] = np.eye(16)[rng.integers(16, size=len(rows))]  # one-hot
            rows[:, at["pose"] : at["s"]] = rng.integers(2, size=(len(rows), 16))  # zeros and ones
        else:
            rows = rng.standard_normal((2500, schema.width))
        names = list(schema.column_names())
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "w.csv"), names, rows, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert schema.width == 76 and peak < 10 * plan.group.order * rows.size
        # the bytes of the copies written whole; K4 moves and flips the base magnitudes
        write_csv(str(tmp_path / "whole.csv"), names, augment_dataset(plan, rows))
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_read_accepts_what_float_accepts(self, tmp_path):
        tokens = ["1_0", " 1.5 ", "inf", "-NaN", "1e400", "-0", "+nan", "1e-400"]
        path = tmp_path / "r.csv"
        # blank lines before the first row and after the last are ignored
        path.write_text("a,b,c,d\n\n \n" + ",".join(tokens[:4]) + "\n"
                        + ",".join(tokens[4:]) + "\n\n\t\n")
        _, rows = read_csv(str(path))
        expected = np.array([float(t) for t in tokens]).reshape(2, 4)
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2\n\n3,4\n", 3),  # blank line between rows
            ("1,2\n  \n3,4\n", 3),  # whitespace-only line between rows
            ("1,2\n3\n", 3),  # short row
            ("1,2\n3,4,5\n", 3),  # long row
            ("1,2\n3,x\n", 3),  # not a number
            ("1,2\n" * 600 + "3,x\n" + "4,\n", 602),  # first bad row, second block
            ("1,2\n3,\n4,5,6\n", 3),  # a malformed value before a ragged row
            ("1,2\r\n\r\n3,4\r\n", 3),  # blank line between "\r\n" rows
            ("1,2\n3,4\n x , 5\n", 4),  # a bad value on the last row
        ],
        ids=["blank", "whitespace", "short", "long", "not_a_number", "second_block",
             "value_before_ragged", "crlf_blank", "last_row"],
    )
    def test_read_rejects_and_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line {line}: "):
            read_csv(str(path))

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("\n1,2\r3,4\r", 2),
            ("\n1,2\x0c3,4\x0c", 2),
            ("\n1,2\u20283,4\u2028", 2),
            # no "\n" after the header: 1,500 rows over three blocks
            ("\n" + "1,2\r3,4\r" * 750, 1500),
            # blank lines before the first row span three blocks
            ("\n" * 1201 + "1,2\n3,4\n", 2),
            # the header ends at the first line break too, and the rows that follow on its line are read
        ] + [(brk + "1,2" + brk + "3,4\n", 2) for brk in ("\x0c", "\x1c", "\x85", "\u2028", "\v")],
        ids=["cr", "form_feed", "line_separator", "cr_only_grows", "leading_blank_blocks", "header_form_feed",
             "header_file_separator", "header_next_line", "header_line_separator", "header_vertical_tab"],
    )
    def test_read_splits_rows_at_every_line_break(self, tmp_path, text, rows):
        path = tmp_path / "r.csv"
        path.write_bytes(("a,b" + text).encode())
        names, back = read_csv(str(path))
        expected = np.array([[1.0, 2.0], [3.0, 4.0]] * (rows // 2))
        assert names == ["a", "b"] and back.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("brk", ["\x0c", "\u2028"], ids=["form_feed", "line_separator"])
    def test_read_parses_a_block_of_rows_at_a_time_whatever_the_break(self, tmp_path, monkeypatch, brk):
        # 1,000 rows on the one physical line after the header: blocks are cut at rows, not at "\n"
        body = [",".join(map(repr, row)) for row in np.random.default_rng(127).standard_normal((1000, 3)).tolist()]
        (tmp_path / "n.csv").write_bytes(("a,b,c\n" + "\n".join(body) + "\n").encode())
        (tmp_path / "b.csv").write_bytes(("a,b,c\n" + brk.join(body) + brk).encode())
        _, expected = read_csv(str(tmp_path / "n.csv"))
        sizes, parse_rows = [], augment._parse_rows

        def recording(path, lines, first, width):
            sizes.append(len(lines))
            return parse_rows(path, lines, first, width)

        monkeypatch.setattr(augment, "_parse_rows", recording)
        names, back = read_csv(str(tmp_path / "b.csv"))
        assert names == ["a", "b", "c"] and back.tobytes() == expected.tobytes()
        assert sum(sizes) == 1000 and max(sizes) <= augment.CSV_BLOCK_ROWS

    def test_read_opens_its_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(augment, "open", counting_open, raising=False)
        _, rows = read_csv(str(path))
        assert opened == [str(path)] and rows.shape == (2, 2)

    def test_failed_chunk_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def chunks():
            yield "a,b\n"
            raise RuntimeError("stream broke")

        with pytest.raises(RuntimeError):
            atomic_write_text(str(path), chunks())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_threads_writing_one_path_never_tear_it(self, tmp_path):
        # two threads of one process write 1 MB each to one path, in 1 KB
        # chunks, while a third reads it.  Each writer needs a temporary file
        # of its own: two sharing one mix their text in it and rename it
        # away from each other
        path = tmp_path / "out.csv"
        texts = [c * 2**20 for c in "ab"]
        path.write_text(texts[0])
        errors, seen, done = [], set(), threading.Event()

        def guarded(fn):
            def run(*args):
                try:
                    fn(*args)
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)
            return run

        @guarded
        def write(text, barrier):
            barrier.wait(timeout=30)
            atomic_write_text(str(path), (text[k : k + 1024] for k in range(0, len(text), 1024)))

        @guarded
        def read():
            while not done.is_set():
                text = path.read_text()
                seen.add(text[:1] + text[-1:] if len(text) == 2**20 and len(set(text)) == 1 else "torn")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        reader = threading.Thread(target=read)
        reader.start()
        try:
            for _ in range(10):
                barrier = threading.Barrier(2)
                writers = [threading.Thread(target=write, args=(t, barrier)) for t in texts]
                for w in writers:
                    w.start()
                for w in writers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in writers)
                assert path.read_text() in texts
        finally:
            done.set()
            reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and errors == [] and seen <= {"aa", "bb"}
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCsvRecords:
    """``_csv_records`` against ``", %-23.17g"``, record for record: the
    digit layout covers [1e-4, 1e16), zero is a constant and the % loop the rest."""

    @staticmethod
    def _assert_records_match(values):
        values = np.asarray(values, dtype=float)
        got = augment._csv_records(values)
        reference = np.frombuffer((", %-23.17g" * len(values) % tuple(values.tolist())).encode(), got.dtype)
        bad = np.flatnonzero(got != reference)
        assert not bad.size, [(values[i], bytes(got[i]), bytes(reference[i])) for i in bad[:5]]

    def test_powers_of_ten_up_to_22_are_exact(self):
        assert all(10.0**p == 10**p for p in range(23))

    def test_random_bit_patterns(self):
        # 10^6 doubles drawn uniformly by bit pattern from 1e-6 to 1e17: every exponent class,
        # both sides of the layout's range, with 17 significant digits or fewer
        low, high = np.array([1e-6, 1e17]).view(np.int64)
        self._assert_records_match(np.random.default_rng(48).integers(low, high, 10**6).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 may be a digit off here; 1e-4 and 1e16 are the layout's edges
        powers = 10.0 ** np.arange(-7, 18)
        self._assert_records_match(np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)]))

    def test_exact_ties_round_to_even(self):
        # t / 2**17 for odd t has 17 decimals, its last a 5: halfway between two 17-digit numbers
        self._assert_records_match(np.arange(2**17 + 1, 10 * 2**17, 2) / 2.0**17)

    def test_short_digit_strings(self):
        # trailing zeros in the fraction are dropped, in the integer part kept
        rng = np.random.default_rng(5)
        self._assert_records_match(np.concatenate([np.round(rng.uniform(0, 10.0 ** rng.integers(-4, 16, 10**4)), 3),
                                                   rng.integers(1, 10**6, 10**4) * 10.0 ** rng.integers(-10, 10, 10**4),
                                                   [0.5, 1.0, 10.0, 100.5, 1e15 + 0.5, 1.5e-5, 1e-4 + 1e-20]]))

    def test_zeros_subnormals_infinities_and_nan(self):
        self._assert_records_match([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                                    np.inf, -np.inf, np.nan, 1.7976931348623157e308, 9.99e-6, 1e16 + 2])

    def test_empty_and_all_of_one_kind(self):
        for values in ([], np.zeros(5000), np.full(5000, np.nan), np.full(5000, 1e-5)):
            self._assert_records_match(values)


def test_two_product_is_exact():
    # p + e == x * y exactly, at the writer's and the reader's scales and for signed, tiny and huge factors
    from fractions import Fraction

    rng = np.random.default_rng(50)
    n = 4000
    f, p = rng.integers(0, 23, n), rng.integers(0, 23, n)
    bits = np.array([1e-130, 1e130]).view(np.int64)
    x = np.concatenate([rng.integers(1, 10**18, n).astype(float), 10.0 ** rng.uniform(-4, 16, n),
                        rng.integers(*bits, n).view(np.float64) * rng.choice([-1.0, 1.0], n)])
    y = np.concatenate([augment._INV10_HI[f], augment._POW10[p],
                        rng.integers(*bits, n).view(np.float64) * rng.choice([-1.0, 1.0], n)])
    product, error = augment._two_product(x, y)
    bad = [(a, b) for a, b, q, e in zip(x.tolist(), y.tolist(), product.tolist(), error.tolist())
           if Fraction(q) + Fraction(e) != Fraction(a) * Fraction(b)]
    assert not bad, bad[:5]


class TestCsvParse:
    """The CSV value parser against ``float()``, bit for bit: a ``-ddd.ddd`` token of at most 18
    significant digits is read and rounded in numpy, every other token by ``float()``."""

    @staticmethod
    def _assert_parses_as_float(tokens):
        tokens = list(tokens)
        got = augment._parse_rows("t.csv", [",".join(tokens)], 2, len(tokens)).ravel()
        expected = np.array([float(t) for t in tokens])
        bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert not bad.size, [(tokens[i], got[i], expected[i]) for i in bad[:5]]

    @staticmethod
    def _with_dots(digits):
        """Each digit string with its "." at every place, with and without a "-"."""
        return [sign + d[:k] + "." + d[k:] for d in digits for k in range(len(d) + 1) for sign in ("", "-")]

    @staticmethod
    def _near_ties():
        """Decimals m / 10**f of at most 18 digits, f <= 22, within 2**-103 of a rounding midpoint
        t * 2**-k (t odd, 54 bits): m 2**s = t 5**f + j for s = k - f and a small odd j."""
        tokens = []
        for f, s in [(22, 46), (22, 47), (21, 44), (20, 41)]:
            for j in (1, -1, 3, -3):
                t0 = -j * pow(5, -f, 2**s) % 2**s  # t = t0 mod 2**s makes m whole
                for t in range(2**53 + (t0 - 2**53) % 2**s, 2**54, 2**s)[:16]:
                    m = (t * 5**f + j) >> s
                    if t % 2 and 2**53 <= m < 10**18:
                        tokens.append(f"0.{m:0{f}d}")
        return tokens

    @staticmethod
    def _float_calls(monkeypatch):
        """The tokens ``augment`` passes to ``float()`` from now on; as a dtype it stays float64."""
        calls = []

        class Recorder:
            dtype = np.dtype(float)

            def __new__(cls, token):
                calls.append(token)
                return float(token)

        monkeypatch.setattr(augment, "float", Recorder, raising=False)
        return calls

    def test_random_bit_patterns_by_repr_and_17g(self):
        # 10^6 doubles drawn uniformly by bit pattern from 1e-6 to 1e9, both signs: every exponent class on
        # both sides of the fast path's (e-notation below 1e-4 by repr, 1e-5 by %.17g; 9 integer bytes)
        rng = np.random.default_rng(49)
        low, high = np.array([1e-6, 1e9]).view(np.int64)
        values = rng.integers(low, high, 10**6).view(np.float64) * rng.choice([-1.0, 1.0], 10**6)
        for part in np.array_split(values, 10):
            part = part.tolist()
            self._assert_parses_as_float(map(repr, part))
            self._assert_parses_as_float("%.17g" % v for v in part)

    def test_normal_values_by_6f(self):
        self._assert_parses_as_float("%.6f" % v for v in np.random.default_rng(6).standard_normal(10**5))

    def test_digit_strings_with_the_dot_at_every_place(self):
        # 1 to 22 digits: past 18 significant ones m would overflow int64
        rng = np.random.default_rng(22)
        digits = ["".join(rng.choice(list("0123456789"), n)) for n in range(1, 23) for _ in range(40)]
        self._assert_parses_as_float(self._with_dots(digits + ["9" * n for n in range(1, 23)]))

    def test_integer_parts_of_7_8_and_9_bytes(self):
        # 8 bytes, "-" included, is the longest integer part read in numpy
        parts = [sign + "1234567890"[:n] for n in (6, 7, 8, 9) for sign in ("", "-")]
        self._assert_parses_as_float(p + tail for p in parts for tail in ("", ".", ".5", ".0625", ".123456789"))

    def test_fractions_of_8_16_17_22_and_23_digits(self):
        rng = np.random.default_rng(23)
        fractions = ["".join(rng.choice(list("0123456789"), n)) for n in (8, 16, 17, 22, 23) for _ in range(200)]
        self._assert_parses_as_float(sign + whole + "." + fraction for fraction in fractions
                                     for whole in ("", "0", "7", "000") for sign in ("", "-"))

    def test_significands_at_the_exact_and_int64_bounds(self):
        # Clinger's single division is exact below 2**53; m has at most 18 digits
        self._assert_parses_as_float(self._with_dots([str(2**53 - 1), str(2**53), str(2**53 + 1),
                                                      str(10**18 - 1), str(10**18)]))

    def test_decimal_midpoints_between_adjacent_doubles(self):
        from decimal import Decimal

        rng = np.random.default_rng(24)
        values = np.concatenate([rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 9, 2000),
                                 2.0 ** np.arange(-20, 27)])  # the spacing below a power of two halves
        self._assert_parses_as_float(str((Decimal(a) + Decimal(b)) / 2) for a, b in
                                     zip(np.tile(values, 2).tolist(), np.concatenate(
                                         [np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]).tolist()))

    def test_near_ties_are_read_by_float(self, monkeypatch):
        # the double-double is kept only where it lies more than 2**-90 of itself from a midpoint
        tokens = self._near_ties()
        calls = self._float_calls(monkeypatch)
        self._assert_parses_as_float(tokens)
        assert len(tokens) >= 50 and calls == tokens

    def test_float_reads_only_the_rare_forms(self, monkeypatch):
        values = np.random.default_rng(25).standard_normal(10**4) * 10.0 ** np.arange(-3, 5).repeat(1250)
        tokens = [repr(v) for v in values.tolist()] + ["1e-05", "nan", "+1", " 2"]
        calls = self._float_calls(monkeypatch)
        self._assert_parses_as_float(tokens)
        assert calls == [t for t in tokens if "e" in t or "n" in t or t[0] in "+ "]

    def test_signs_dots_zeros_and_what_float_accepts(self):
        self._assert_parses_as_float(["-0", "0", "-0.0", ".5", "5.", "-.5", "-5.", "00012.5", "-00000000.5",
                                      "1_0", " 1.5 ", "inf", "-NaN", "1e400", "+nan", "1e-400", "1.5e3", "١٢",
                                      "1.5 "])

    @pytest.mark.parametrize("token", ["", "-", ".", "-.", "--1", "1-2", "1..2", "1.2.3", "1,", "e5", "0x10"])
    def test_what_float_rejects_names_the_line(self, token):
        with pytest.raises(ParseError, match=r"^t\.csv: line 2: malformed numeric row: "):
            augment._parse_rows("t.csv", [token], 2, token.count(",") + 1)

    def test_midpoint_guard(self):
        # y + r rounds to y; the midpoints lie half a spacing from y, and a quarter below a power of two
        y = np.array([1.5] * 4 + [1.0] * 5)
        half = np.spacing(y) / 2
        r = half * [1, -1, 1 - 2.0**-30, -(1 - 2.0**-30), -0.5, -0.5 * (1 - 2.0**-60), -0.5 * (1 - 2.0**-30), 0.0, 0.4]
        assert augment._off_midpoint(y, r).tolist() == [False, False, True, True, False, False, True, True, True]
