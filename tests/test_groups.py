"""Group construction, closure, and representation algebra."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import (assert_closure_is_sequential, assert_sequential, breaks_some_pair, closure, cyclic, dense,
                      dense_perm, gpm, make_c3, make_d8, make_k4)
from robosym import groups as groups_module
from robosym.errors import ClosureExceeded, DimMismatch, GroupMismatch, ParseError
from robosym.groups import (
    FiniteGroup,
    Representation,
    act,
    direct_sum,
    group_closure,
    load_representation,
    load_representation_pair,
    regular_representation,
    tensor_on_linear_maps,
    trivial_representation,
    signed_permutation,
    verify_homomorphism,
)


def element_order(group, a: int) -> int:
    """The least k >= 1 with a^k the identity, read off the Cayley table."""
    k, x = 1, a
    while x != group.identity:
        x = group.cayley[x, a]
        k += 1
    return k


class TestGenPermMatrix:
    """Generalized permutation matrices in their (target, sign) array form."""

    def test_rejects_non_permutation_target(self):
        with pytest.raises(ValueError, match="permutation"):
            signed_permutation([0, 0], [1, 1])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            signed_permutation([1, 0], [1, 2])

    def test_a_stack_passes_as_intp_targets_and_int8_signs(self):
        targets, signs = signed_permutation([[1, 0, 2], [2, 1, 0]], [[1, -1, 1], [-1, -1, 1]])
        assert targets.dtype == np.intp and signs.dtype == np.int8
        np.testing.assert_array_equal(targets, [[1, 0, 2], [2, 1, 0]])
        np.testing.assert_array_equal(signs, [[1, -1, 1], [-1, -1, 1]])
        np.testing.assert_array_equal(signed_permutation([[1, 0], [0, 1]])[1], np.ones((2, 2)))

    @pytest.mark.parametrize("targets, signs, message", [
        ([[1, 0], [0, 1]], [[1, 1]], "sign must have the shape of target"),
        ([[1, 0], [1, 1]], [[1, 1], [1, 1]], "target is not a permutation of 0..dim-1"),
        ([[1, 0], [0, 1]], [[1, 1], [0, 1]], "sign entries must be +1 or -1"),
    ])
    def test_a_malformed_stack_gets_one_message_from_both_entry_points(self, targets, signs, message):
        with pytest.raises(ValueError) as direct:
            signed_permutation(targets, signs)
        with pytest.raises(ValueError) as via_rep:
            Representation(cyclic(2)[0], targets, signs)
        assert str(direct.value) == str(via_rep.value) == message

    def test_compose_matches_dense_product(self):
        # the closure's products, every pair of the group; up to dim 4 the
        # group (at most the 384 signed permutations of 4 coordinates) stays
        # under the order cap
        rng = np.random.default_rng(0)
        for _ in range(30):
            dim = int(rng.integers(1, 5))
            a = gpm(rng.permutation(dim), rng.choice([-1, 1], dim))
            b = gpm(rng.permutation(dim), rng.choice([-1, 1], dim))
            group, rep = closure(a, b)
            ia, ib = group.generator_indices
            np.testing.assert_array_equal(dense(rep, ia), dense_perm(a))
            np.testing.assert_array_equal(dense(rep, ib), dense_perm(b))
            mats = np.stack([dense(rep, g) for g in group.elements()])
            np.testing.assert_array_equal(mats[group.cayley], mats[:, None] @ mats[None, :])

    def test_inverse_is_transpose(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dim = int(rng.integers(1, 8))
            m = gpm(rng.permutation(dim), rng.choice([-1, 1], dim))
            group, rep = closure(m)
            g = group.generator_indices[0]
            np.testing.assert_array_equal(dense(rep, group.inverse[g]), dense_perm(m).T)
            assert group.cayley[g, group.inverse[g]] == group.identity

    def test_orthogonality(self):
        group, rep = closure(gpm([2, 0, 1], [-1, 1, -1]))
        d = act(rep, group.generator_indices[0], np.eye(3, dtype=np.int64)).T
        np.testing.assert_array_equal(d.T @ d, np.eye(3, dtype=np.int64))


class TestClosure:
    def test_swap_gives_reflection_group(self):
        group, rep = closure(gpm([1, 0]))
        assert group.order == 2
        np.testing.assert_array_equal(dense(rep, 0), np.eye(2))
        assert_sequential(group, rep)

    def test_leg_pair_swaps_give_klein_four(self):
        # two commuting leg-pair swaps
        group, rep = make_k4()
        assert group.order == 4
        assert sorted(element_order(group, g) for g in group.elements()) == [1, 2, 2, 2]
        assert_sequential(group, rep)

    def test_three_cycle_gives_cyclic_order_three(self):
        group, rep = make_c3()
        assert group.order == 3
        assert_sequential(group, rep)

    def test_dihedral_order_eight(self):
        group, rep = make_d8()
        assert group.order == 8
        assert_sequential(group, rep)

    @pytest.mark.parametrize("targets, signs, order_cap", [
        ([list(range(1, 12)) + [0]], [[1] * 12], 12),  # 12 levels of one element
        ([list(range(1, 12)) + [0]], [[1] * 12], 11),
        ([list(range(8))] * 4, [[-1 if i // 2 == j else 1 for i in range(8)] for j in range(4)], 16),
        ([[1, 0, 2], [1, 0, 2], [0, 1, 2], [0, 2, 1]], [[1, -1, 1], [1, -1, 1], [1, 1, 1], [1, 1, -1]], 256),
        ([[]], [[]], 1),
    ], ids=["c12", "c12_over_cap", "z2_4_sign_flips_dim8", "repeated_and_identity", "dim0"])
    @pytest.mark.parametrize("entries", [1, 100, groups_module.CLOSE_ENTRIES])
    def test_matches_the_sequential_reference(self, monkeypatch, targets, signs, order_cap, entries):
        # slabs of one element, of a few (which split levels), and the default
        monkeypatch.setattr(groups_module, "CLOSE_ENTRIES", entries)
        assert_closure_is_sequential(targets, signs, order_cap)

    def test_peak_at_the_order_cap(self):
        # (Z2)^10 on its regular representation: order 1024 on dim 1024 with
        # ten generators, the closure's widest levels at its cap.  It peaks at
        # 41.8 MiB, and at 52.8 MiB when built one product at a time
        idx = np.arange(1024)
        tracemalloc.start()
        try:
            group, _ = group_closure([idx ^ (1 << j) for j in range(10)], np.ones((10, 1024)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group.order == 1024 and peak < 48 * 2**20

    def test_cap_exceeded(self):
        with pytest.raises(ClosureExceeded):
            closure(gpm([1, 2, 3, 4, 0]), order_cap=4)

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            closure(gpm([1, 0]), gpm([1, 2, 0]))

    def test_generator_order_gives_isomorphic_group(self):
        gens = [gpm([1, 0, 3, 2]), gpm([2, 3, 0, 1])]
        g1, _ = closure(*gens)
        g2, _ = closure(*gens[::-1])
        assert g1.order == g2.order
        orders1 = sorted(element_order(g1, g) for g in g1.elements())
        orders2 = sorted(element_order(g2, g) for g in g2.elements())
        assert orders1 == orders2

    def test_d8_generator_order_isomorphic(self):
        gens = [gpm([1, 2, 3, 0]), gpm([3, 2, 1, 0])]
        g1, _ = closure(*gens)
        g2, _ = closure(*gens[::-1])
        assert g1.order == g2.order == 8
        assert sorted(element_order(g1, g) for g in g1.elements()) == sorted(
            element_order(g2, g) for g in g2.elements()
        )


class TestMakeCyclic:
    def test_order_two_swap(self):
        group, rep = cyclic(2, 1)
        assert group.order == 2
        np.testing.assert_array_equal(dense(rep, 1), [[0, 1], [1, 0]])

    def test_trifinger_block_cycle(self):
        group, rep = cyclic(3, 3)
        assert group.order == 3
        assert rep.dim == 9
        x = np.arange(9.0)
        # generator sends block i to block i+1
        np.testing.assert_array_equal(
            act(rep, group.generator_indices[0], x),
            np.concatenate([x[6:], x[:3], x[3:6]]),
        )

    def test_trivial_group(self):
        group, rep = cyclic(1, 4)
        assert group.order == 1
        np.testing.assert_array_equal(dense(rep, 0), np.eye(4))


class TestAct:
    def test_identity(self):
        group, rep = closure(gpm([1, 0]))
        np.testing.assert_array_equal(act(rep, 0, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_swap(self):
        group, rep = closure(gpm([1, 0]))
        np.testing.assert_array_equal(act(rep, 1, np.array([5.0, 7.0])), [7.0, 5.0])

    def test_signed_action_matches_dense_matvec(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(1, 9))
            m = gpm(rng.permutation(dim), rng.choice([-1, 1], dim))
            x = rng.integers(-10, 10, dim).astype(float)
            group, rep = closure(m)
            np.testing.assert_array_equal(act(rep, group.generator_indices[0], x), dense_perm(m) @ x)

    def test_signed_swap_example(self):
        m = gpm([1, 0], [1, -1])
        group, rep = closure(m)
        np.testing.assert_array_equal(act(rep, 1, np.array([5.0, 7.0])), dense_perm(m) @ [5.0, 7.0])

    def test_dim_mismatch(self):
        group, rep = closure(gpm([1, 0]))
        with pytest.raises(DimMismatch):
            act(rep, 1, np.ones(3))

    def test_inverse_roundtrip_exact(self, all_pairs):
        rng = np.random.default_rng(4)
        seen = set()
        for _, rep, _ in all_pairs:
            if id(rep) in seen:
                continue
            seen.add(id(rep))
            group = rep.group
            x = rng.integers(-50, 50, rep.dim)
            for g in group.elements():
                back = act(rep, g, act(rep, group.inverse[g], x))
                np.testing.assert_array_equal(back, x)


class TestDirectSum:
    def test_two_swaps(self):
        group, rep = closure(gpm([1, 0]))
        s = direct_sum([rep, rep])
        assert s.dim == 4
        np.testing.assert_array_equal(
            dense(s, 1), np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        )

    def test_homomorphism_preserved(self, k4):
        _, reps = k4
        s = direct_sum([reps["perm4"], reps["leg12"]])
        assert verify_homomorphism(s).passed

    def test_empty_list_rejected(self):
        with pytest.raises(GroupMismatch):
            direct_sum([])

    def test_group_mismatch(self, c2, c3):
        with pytest.raises(GroupMismatch):
            direct_sum([c2[1]["swap2"], c3[1]["cyc3"]])


class TestTensorOnLinearMaps:
    def test_trivial_reps(self):
        group, _ = closure(gpm([1, 0]))
        triv = trivial_representation(group, 1)
        w = tensor_on_linear_maps(triv, triv)
        assert all((dense(w, g) == np.eye(1)).all() for g in group.elements())

    def test_swap_squared_permutation(self):
        group, rep = closure(gpm([1, 0]))
        w = tensor_on_linear_maps(rep, rep)
        x = np.array([1.0, 2.0, 3.0, 4.0])  # (w00, w01, w10, w11)
        np.testing.assert_array_equal(act(w, 1, x), [4.0, 3.0, 2.0, 1.0])

    def test_matches_dense_kronecker(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            if rep_in.dim * rep_out.dim > 64:
                continue
            group = rep_in.group
            w = tensor_on_linear_maps(rep_in, rep_out)
            for g in group.elements():
                expected = np.kron(dense(rep_out, g), dense(rep_in, group.inverse[g]).T)
                np.testing.assert_array_equal(dense(w, g), expected, err_msg=label)

    def test_signed_output_flips_all_signs(self):
        group, rep = closure(gpm([1, 0]))
        from conftest import _extend

        signed = _extend(group, [gpm([1, 0], [-1, -1])])
        w = tensor_on_linear_maps(rep, signed)
        assert (w.signs[1] == -1).all()

    def test_output_is_homomorphism(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            if rep_in.group.order > 8 or rep_in.dim * rep_out.dim > 64:
                continue
            assert verify_homomorphism(tensor_on_linear_maps(rep_in, rep_out)).passed, label

    def test_fixed_points_solve_intertwining_equation(self, k4):
        # vectors fixed by the action on maps are exactly the W commuting
        # with the group action
        _, reps = k4
        rep = reps["perm4"]
        w = tensor_on_linear_maps(rep, rep)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(16)
        for g in rep.group.elements():
            lhs = act(w, g, v).reshape(4, 4)
            rhs = dense(rep, g) @ v.reshape(4, 4) @ dense(rep, g).T
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestVerifyHomomorphism:
    def test_canonical_pass(self):
        _, rep = closure(gpm([1, 0]))
        assert verify_homomorphism(rep).passed

    def test_corrupted_identity_fails(self):
        group, rep = closure(gpm([1, 0]))
        from robosym.groups import Representation

        bad = Representation(group, rep.targets[[1, 1]], rep.signs[[1, 1]])
        report = verify_homomorphism(bad)
        assert not report.passed
        assert report.first_violation is not None

    def test_k4_leg_rep_passes(self, k4):
        _, reps = k4
        assert verify_homomorphism(reps["leg12"]).passed

    def test_checks_each_element_times_each_generator(self, d8):
        group, reps = d8
        report = verify_homomorphism(reps["planar2"])
        assert report == (True, 8 * 2, None)
        # element 3's value swapped for element 5's: the first failing x s names both
        t, s = reps["planar2"].targets.copy(), reps["planar2"].signs.copy()
        t[3], s[3] = t[5], s[5]
        report = verify_homomorphism(Representation(group, t, s))
        assert not report.passed and report.checked_pairs == 16
        x, g = report.first_violation
        assert g in group.generator_indices
        mats = [dense_perm((t[a], s[a])) for a in group.elements()]
        assert (mats[x] @ mats[g] != mats[group.cayley[x, g]]).any()

    def test_group_without_generators_checks_every_element(self, k4):
        group, reps = k4
        bare = FiniteGroup(group.cayley, group.inverse)
        rep = reps["leg12"]
        assert verify_homomorphism(Representation(bare, rep.targets, rep.signs)) == (True, 16, None)
        signs = rep.signs.copy()
        signs[2, 0] *= -1
        corrupted = Representation(bare, rep.targets, signs)
        report = verify_homomorphism(corrupted)
        assert not report.passed and report.checked_pairs == 16
        assert breaks_some_pair(bare, np.array([dense(corrupted, g) for g in bare.elements()]), 0)


class TestRepresentationInvariants:
    def test_inverse_materializes_as_transpose(self, all_pairs):
        seen = set()
        for _, rep, _ in all_pairs:
            if id(rep) in seen:
                continue
            seen.add(id(rep))
            for g in rep.group.elements():
                ginv = rep.group.inverse[g]
                np.testing.assert_array_equal(dense(rep, ginv), dense(rep, g).T)

    def test_regular_rep_fixed_point_free(self, d8):
        group, _ = d8
        reg = regular_representation(group)
        for g in group.elements():
            if g != group.identity:
                assert reg.traces()[g] == 0
        assert verify_homomorphism(reg).passed


class TestJsonLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"dim": 2, "generators": [{"target": [1, 0], "sign": [1, 1]}]}))
        group, rep = load_representation(str(path))
        assert group.order == 2 and rep.dim == 2

    def test_invalid_permutation_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{\n "dim": 2,\n "generators": [\n'
            '  {"target": [1, 0], "sign": [1, 1]},\n'
            '  {"target": [0, 0], "sign": [1, 1]}\n ]\n}\n'
        )
        with pytest.raises(ParseError, match=r"generator 1 \(line 5\)"):
            load_representation(str(path))

    def test_a_bom_file_names_the_same_generator_and_line(self, tmp_path):
        text = ('{\n "dim": 2,\n "generators": [\n'
                '  {"target": [1, 0], "sign": [1, 1]},\n'
                '  {"target": [1, 0], "sign": [1, 2]}\n ]\n}\n')
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        errors = []
        for path in (plain, bom):
            with pytest.raises(ParseError) as info:
                load_representation(str(path))
            errors.append(str(info.value).removeprefix(f"{path}: "))
        assert errors == ["generator 1 (line 5): sign entries must be +1 or -1"] * 2

    def test_line_counts_target_keys_not_values(self, tmp_path):
        # the string "target" on line 2 is a value, so it names no generator
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dim": 2, "generators": [\n'
            ' {"label": "target", "target": [1, 0], "sign": [1, 1]},\n'
            ' {"target": [0, 0], "sign": [1, 1]}\n]}\n'
        )
        with pytest.raises(ParseError) as info:
            load_representation(str(path))
        assert str(info.value) == (f"{path}: generator 1 (line 3): "
                                   "target is not a permutation of 0..dim-1")

    @pytest.mark.parametrize("generators", [
        r'{"\u0074arget": [0, 0], "sign": [1, 1]}',
        # one "target" key in the file, but it is generator 1's
        r'{"\u0074arget": [1, 0], "sign": [1, 1]}, {"target": [0, 0], "sign": [1, 1]}',
    ])
    def test_escaped_target_key_is_named_by_index(self, tmp_path, generators):
        # "\u0074arget" decodes to "target" but is not spelled so in the file;
        # the failing entry is still named by the line it starts on
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "generators": [' + generators + "]}")
        i = generators.count("sign") - 1
        with pytest.raises(ParseError) as info:
            load_representation(str(path))
        assert str(info.value) == (f"{path}: generator {i} (line 1): "
                                   "target is not a permutation of 0..dim-1")

    @pytest.mark.parametrize("text, where", [
        # generator 0's key is escaped, so the second plain "target" key is generator 2's
        ('{"dim": 2, "generators": [\n {"\\u0074arget": [1, 0], "sign": [1, 1]},\n'
         ' {"target": [0, 0], "sign": [1, 1]},\n {"target": [1, 0], "sign": [1, 1]}\n]}\n',
         "generator 1 (line 3): target is not a permutation of 0..dim-1"),
        # a top-level "target" key before the list is no generator's
        ('{"target": "none",\n "dim": 2, "generators": [\n {"target": [0, 0], "sign": [1, 1]}\n]}\n',
         "generator 0 (line 3): target is not a permutation of 0..dim-1"),
        # an entry that is no object is named by its own line too
        ('{"dim": 2, "generators": [\n {"target": [1, 0], "sign": [1, 1]},\n\n  5\n]}\n',
         "generator 1 (line 4): expected an object, got int"),
    ], ids=["escaped_key_before", "top_level_target_key", "non_object_entry"])
    def test_failing_entry_is_named_by_the_line_it_starts_on(self, tmp_path, text, where):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_representation(str(path))
        assert str(info.value) == f"{path}: {where}"

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            load_representation(str(path))

    def test_pair_loading_keeps_group_shared(self, tmp_path):
        flip = tmp_path / "flip.json"
        flip.write_text(json.dumps({"dim": 1, "generators": [{"target": [0], "sign": [-1]}]}))
        triv = tmp_path / "triv.json"
        triv.write_text(json.dumps({"dim": 1, "generators": [{"target": [0], "sign": [1]}]}))
        rep_in, rep_out = load_representation_pair(str(flip), str(triv))
        assert rep_in.group is rep_out.group or rep_in.group == rep_out.group
        assert rep_in.group.order == 2
        np.testing.assert_array_equal(dense(rep_out, 1), np.eye(1))
