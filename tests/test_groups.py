"""Group construction, closure, and representation algebra."""

import json
import re

import numpy as np
import pytest

from conftest import closure, dense, dense_perm, gpm, make_c3, make_d8, make_k4
from robosym.errors import ClosureExceeded, DimMismatch, GroupMismatch, ParseError
from robosym.groups import (
    FiniteGroup,
    act,
    direct_sum,
    load_representation,
    load_representation_pair,
    make_cyclic,
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
        group.validate()

    def test_leg_pair_swaps_give_klein_four(self):
        # two commuting leg-pair swaps
        group, _ = make_k4()
        assert group.order == 4
        assert sorted(element_order(group, g) for g in group.elements()) == [1, 2, 2, 2]
        group.validate()

    def test_three_cycle_gives_cyclic_order_three(self):
        group, _ = make_c3()
        assert group.order == 3
        group.validate()

    def test_dihedral_order_eight(self):
        group, _ = make_d8()
        assert group.order == 8
        group.validate()

    def test_validate_names_the_first_failure_of_the_axiom_loops(self):
        def first_failure(c, inv):  # the axioms as plain loops, in order
            n = len(c)
            for x in range(n):
                if c[0][x] != x or c[x][0] != x:
                    return f"identity axiom fails at element {x}"
                if c[x][inv[x]] != 0:
                    return f"inverse axiom fails at element {x}"
            for a in range(n):
                for b in range(n):
                    for cc in range(n):
                        if c[c[a][b]][cc] != c[a][c[b][cc]]:
                            return f"associativity fails at ({a},{b},{cc})"

        group, _ = make_d8()
        rng = np.random.default_rng(6)
        for _ in range(30):
            cayley, inverse = group.cayley.copy(), group.inverse.copy()
            a, b = rng.integers(0, 8, 2)
            cayley[a, b] = rng.integers(0, 8)  # may break any axiom, or none
            if rng.random() < 0.3:
                inverse[rng.integers(0, 8)] = rng.integers(0, 8)
            bad = FiniteGroup(cayley, inverse, group.generator_indices)
            expected = first_failure(cayley.tolist(), inverse.tolist())
            if expected is None:
                bad.validate()
            else:
                with pytest.raises(ValueError, match=re.escape(expected)):
                    bad.validate()

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
        group, rep = make_cyclic(2, 1)
        assert group.order == 2
        np.testing.assert_array_equal(dense(rep, 1), [[0, 1], [1, 0]])

    def test_trifinger_block_cycle(self):
        group, rep = make_cyclic(3, 3)
        assert group.order == 3
        assert rep.dim == 9
        x = np.arange(9.0)
        # generator sends block i to block i+1
        np.testing.assert_array_equal(
            act(rep, group.generator_indices[0], x),
            np.concatenate([x[6:], x[:3], x[3:6]]),
        )

    def test_trivial_group(self):
        group, rep = make_cyclic(1, 4)
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
