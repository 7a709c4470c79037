"""Equivariant basis: orbit algorithm vs dense oracle vs trace count."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import FIXTURES, basis_to_dict, closure, cyclic, dense, gpm, make_k4, orbit_vector
from robosym import basis as basis_module
from robosym import cli
from robosym.augment import augment_dataset, compile_schema, load_group_bundle, load_schema, resolve_schema
from robosym.basis import (
    EquivBasis,
    Orbits,
    _generating_set,
    _nullspace_by_elimination,
    basis_fingerprint,
    basis_json_chunks,
    bias_basis,
    burnside_rank,
    dense_nullspace_oracle,
    orbit_basis,
    span_residual,
)
from robosym.errors import CapExceeded, ClosureExceeded, GroupMismatch, NonIntegralRank
from robosym.groups import (
    ORACLE_TOL,
    FiniteGroup,
    Representation,
    act,
    direct_sum,
    load_representation,
    regular_representation,
    tensor_on_linear_maps,
    tiled_regular_representation,
    trivial_representation,
    verify_homomorphism,
)
from test_groups import assert_sequential


def flip_and_trivial():
    group, flip = closure(gpm([0], [-1]))
    return flip, trivial_representation(group, 1)


def traced_peak(fn):
    """fn's result and the peak bytes of Python and numpy allocations during the call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def basis_bytes(basis):
    return sum(a.nbytes for o in (basis.orbits, basis.zero_forced) for a in (o.index, o.sign, o.orbit))


class TestOracle:
    """The oracle itself gets its own sanity anchors first."""

    def test_trivial_group_identity_basis(self):
        group, rep = cyclic(1, 3)
        q = dense_nullspace_oracle(rep, rep)
        np.testing.assert_array_equal(q, np.eye(9))

    def test_c2_swap_rank_two_and_span(self):
        _, rep = closure(gpm([1, 0]))
        q = dense_nullspace_oracle(rep, rep)
        assert q.shape == (4, 2)
        # hand-built solutions of rho W = W rho for the swap: shared diagonal
        # and shared off-diagonal
        for v in ([1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]):
            v = np.asarray(v) / np.linalg.norm(v)
            assert np.linalg.norm(v - q @ (q.T @ v)) < 1e-12

    def test_k4_regular_rank_four(self, k4):
        group, _ = k4
        from robosym.groups import regular_representation

        reg = regular_representation(group)
        assert dense_nullspace_oracle(reg, reg).shape[1] == 4

    def test_nullspace_property(self, all_pairs):
        # every oracle column annihilates the stacked constraints
        from robosym.groups import tensor_on_linear_maps

        for label, rep_in, rep_out in all_pairs:
            if rep_in.dim * rep_out.dim > 64:
                continue
            q = dense_nullspace_oracle(rep_in, rep_out)
            if q.shape[1] == 0:
                continue
            w = tensor_on_linear_maps(rep_in, rep_out)
            for g in rep_in.group.elements():
                resid = dense(w, g) @ q - q
                assert np.abs(resid).max() < 1e-12, label

    def test_cap(self):
        group, rep = cyclic(2, 40)
        with pytest.raises(CapExceeded):
            dense_nullspace_oracle(rep, rep)  # mn = 6400

    def test_memory_is_one_block_whatever_the_elements_summed(self):
        # B3, the signed permutations of 3 axes (order 48), from its regular
        # representation to its standard one: mn = 144, one block of 162 KiB.
        # The closure records 3 generators; the same group recording none sums
        # over all 48 elements, into the same one block
        group, std = closure(gpm([1, 0, 2]), gpm([1, 2, 0]), gpm([0, 1, 2], [-1, 1, 1]))
        reg = regular_representation(group)
        bare = FiniteGroup(group.cayley, group.inverse)
        assert group.order == 48 and len(group.generator_indices) == 3 and not bare.generator_indices
        for rep_in, rep_out in ((reg, std), (Representation(bare, reg.targets, reg.signs),
                                             Representation(bare, std.targets, std.signs))):
            q, peak = traced_peak(lambda: dense_nullspace_oracle(rep_in, rep_out))
            assert peak < 2 * 2**20
            assert q.shape[1] == burnside_rank(rep_in, rep_out) == orbit_basis(rep_in, rep_out).rank

    def test_group_without_generators_reads_a_generating_set(self):
        # B3 recording no generators: the oracle eliminates the constraints of
        # generators read off its Cayley table, not of all 48 elements, and gets
        # the rank and the span that all 48 give
        group, std = closure(gpm([1, 0, 2]), gpm([1, 2, 0]), gpm([0, 1, 2], [-1, 1, 1]))
        bare = FiniteGroup(group.cayley, group.inverse)
        reg = regular_representation(group)
        rep_in, rep_out = (Representation(bare, r.targets, r.signs) for r in (reg, std))
        assert 2 ** len(_generating_set(bare)) <= group.order  # each one at least doubles the subgroup
        q = dense_nullspace_oracle(rep_in, rep_out)
        every = _nullspace_by_elimination(rep_in, rep_out, bare.elements(), ORACLE_TOL)
        assert q.shape == every.shape and q.shape[1] == burnside_rank(rep_in, rep_out) > 0
        np.testing.assert_allclose(q @ q.T, every @ every.T, atol=1e-10)

    def test_memory_is_about_one_block(self):
        # K4 tiled 32 -> 32, mn = 1024 and two generators: their constraints
        # sum into one float block of 8 MiB, which is eliminated in place.  At
        # the cap (mn = 4096) the call peaks at 1.63 blocks (209 MiB) but takes
        # about 1.8 s, too slow for this suite
        group, _ = closure(gpm([1, 0, 3, 2]), gpm([2, 3, 0, 1]))
        rep = tiled_regular_representation(group, 32)
        q, peak = traced_peak(lambda: dense_nullspace_oracle(rep, rep))
        assert peak <= 2 * 1024**2 * 8
        assert q.shape[1] == burnside_rank(rep, rep) == orbit_basis(rep, rep).rank


    @staticmethod
    def _c2_cubed(masks):
        """C2^3 on dim 32 (four tiles of its regular representation, mn =
        1024), generated by the XOR masks listed: generator m sends i to i ^ m."""
        idx = np.arange(32)
        return closure(*(gpm((idx ^ m).tolist()) for m in masks))[1]

    def test_seven_listed_elements_share_one_block(self):
        # listing all 7 non-identity elements as generators adds 4 redundant
        # constraints to the same one block: the peak stays that of the 3
        # generators (1.48 blocks, 11.8 MiB)
        three = self._c2_cubed([1, 2, 4])
        seven = self._c2_cubed(range(1, 8))
        assert len(seven.group.generator_indices) == 7
        q3, peak3 = traced_peak(lambda: dense_nullspace_oracle(three, three))
        q7, peak7 = traced_peak(lambda: dense_nullspace_oracle(seven, seven))
        assert q7.shape == q3.shape == (1024, burnside_rank(three, three))
        assert np.abs(q7 - q3 @ (q3.T @ q7)).max() < 1e-10  # the same span
        assert peak7 <= 1.1 * peak3 and peak3 < 2 * 1024**2 * 8


class TestOrbitBasis:
    def test_trivial_group_all_singletons(self):
        _, rep = cyclic(1, 3)
        basis = orbit_basis(rep, rep)
        assert basis.rank == 9
        assert list(basis.orbits.orbit) == list(range(9))
        assert set(basis.orbits.sign.tolist()) == {1} and len(basis.zero_forced) == 0

    def test_c2_swap_two_orbits(self):
        _, rep = closure(gpm([1, 0]))
        basis = orbit_basis(rep, rep)
        assert basis.rank == 2
        assert basis_to_dict(basis)["orbits"] == [
            {"entries": [[0, 1], [3, 1]]},
            {"entries": [[1, 1], [2, 1]]},
        ]

    def test_sign_flip_zero_forced(self):
        flip, triv = flip_and_trivial()
        basis = orbit_basis(flip, triv)
        assert basis.rank == 0
        assert len(basis.zero_forced) == 1
        assert dense_nullspace_oracle(flip, triv).shape[1] == 0

    def test_group_mismatch(self, c2, c3):
        with pytest.raises(GroupMismatch):
            orbit_basis(c2[1]["swap2"], c3[1]["cyc3"])

    def test_deterministic_order(self, k4):
        _, reps = k4
        b1 = orbit_basis(reps["leg12"], reps["perm4"])
        b2 = orbit_basis(reps["leg12"], reps["perm4"])
        assert b1 == b2
        canon = [o["entries"][0][0] for o in basis_to_dict(b1)["orbits"]]
        assert canon == sorted(canon)

    def test_orbits_partition_indices(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            basis = orbit_basis(rep_in, rep_out)
            seen = np.concatenate([basis.orbits.index, basis.zero_forced.index])
            assert sorted(seen) == list(range(rep_in.dim * rep_out.dim)), label


class TestTracerMemory:
    def test_peak_is_o_mn_at_order_1024(self):
        # C1024 on its regular representation to itself: mn = 2^20 at the
        # order cap.  A slab holds one element here, so the peak is O(mn)
        group, _ = cyclic(1024)
        reg = regular_representation(group)
        basis, peak = traced_peak(lambda: orbit_basis(reg, reg))
        assert basis.rank == burnside_rank(reg, reg) == 1024
        assert peak < 24 * 2**20  # about 19 bytes per entry of W: the basis's 17 and 2 more

    def test_peak_within_one_and_a_quarter_bases(self):
        # C2 tiled 512 -> 512, the widest map of the benchmark's catalogue,
        # whose trace sets that workload's peak memory
        group, _ = cyclic(2)
        rep = tiled_regular_representation(group, 512)
        basis, peak = traced_peak(lambda: orbit_basis(rep, rep))
        assert basis.rank == 512 * 512 // 2
        assert peak <= 1.25 * basis_bytes(basis)

    def test_basis_command_peak_within_1_6_bases(self, tmp_path):
        # the whole `robosym basis` run on C2 tiled 512: closure, trace, and the
        # file's JSON text, whose block buffers sit on top of the basis
        gens = tmp_path / "c2_512.json"
        gens.write_text(json.dumps({"dim": 512, "generators": [
            {"target": (np.arange(512) ^ 1).tolist(), "sign": [1] * 512}]}))
        _, rep = load_representation(str(gens))
        size = basis_bytes(orbit_basis(rep, rep))
        out = tmp_path / "basis.json"
        code, peak = traced_peak(lambda: cli.main(["basis", "--rep-in", str(gens), "--out", str(out)]))
        assert code == 0 and json.loads(out.read_text())["m"] == 512
        assert peak <= 1.6 * size

    def test_cap_raises_before_allocating(self):
        group, _ = cyclic(2)
        rep = tiled_regular_representation(group, 46342)  # mn = 46342^2 > 2^31 - 1
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="2147483647"):
                orbit_basis(rep, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_records_refuse_assignment(self, k4):
        group, reps = k4
        rep = reps["perm4"]
        basis = orbit_basis(rep, rep)
        for obj, name in ((group, "cayley"), (rep, "targets"), (basis.orbits, "index"),
                          (basis, "m"), (basis, "fingerprint"), (basis, "new")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert basis.fingerprint == basis_fingerprint(basis) and basis.m == 4

    def test_orbits_copy_only_writable_arrays(self):
        index = np.array([0, 1], dtype=np.intp)
        orbits = Orbits(index, [1, -1], [0, 0])
        assert orbits.index is not index and index.flags.writeable
        index[0] = 5
        assert orbits.index.tolist() == [0, 1]
        index.flags.writeable = False
        assert Orbits(index, [1, -1], [0, 0]).index is index


class TestBurnside:
    def test_c2_swap(self):
        _, rep = closure(gpm([1, 0]))
        assert burnside_rank(rep, rep) == 2

    def test_k4_regular_is_mn_over_order(self, k4):
        group, _ = k4
        from robosym.groups import regular_representation

        reg = regular_representation(group)
        assert burnside_rank(reg, reg) == 16 // 4

    def test_sign_flip_counterexample_is_zero(self):
        # diagonal-fix-point counting would give the non-integer 1/2 here;
        # the signed trace gives the true rank
        flip, triv = flip_and_trivial()
        assert burnside_rank(flip, triv) == 0

    def test_non_representation_raises(self):
        # traces (1, 1, -1) over C3 average to 1/3: not a representation
        group, _ = closure(gpm([1, 2, 0]))
        bad = Representation(group, [[0], [0], [0]], [[1], [1], [-1]])
        triv = trivial_representation(group, 1)
        with pytest.raises(NonIntegralRank):
            burnside_rank(bad, triv)


class TestGatherOnly:
    """A schema's action has rotation blocks; what reads only the signed gather refuses it."""

    @pytest.fixture(scope="class")
    def solo(self):
        bundle = load_group_bundle(str(FIXTURES / "k4_solo.json"))
        schema = resolve_schema(load_schema(str(FIXTURES / "com_schema.json")), bundle.joint_rep,
                                bundle.isometries, bundle.leg_perm)
        return bundle, compile_schema(schema, bundle.group, bundle.joint_rep, bundle.isometries, bundle.leg_perm)

    def test_bases_and_ranks_refuse_blocks(self, solo):
        bundle, plan = solo
        joint = bundle.joint_rep
        for call in (lambda: orbit_basis(plan, joint), lambda: orbit_basis(joint, plan), lambda: bias_basis(plan),
                     lambda: burnside_rank(joint, bundle.isometries), lambda: tensor_on_linear_maps(plan, joint),
                     lambda: dense_nullspace_oracle(joint, plan)):
            with pytest.raises(ValueError, match="^an equivariant basis reads only the signed gather, "
                                                 "but an action has rotation blocks$"):
                call()
        assert orbit_basis(joint, joint).rank == burnside_rank(joint, joint)

    def test_traces_refuse_blocks(self, solo):
        bundle, plan = solo
        for rep in (plan, bundle.isometries):
            with pytest.raises(ValueError, match="^a signed trace reads only the signed gather, "
                                                 "but this action has rotation blocks$"):
                rep.traces()
        assert bundle.joint_rep.traces()[0] == 12


class TestBiasBasis:
    def test_trivial_rank_three(self):
        _, rep = cyclic(1, 3)
        assert bias_basis(rep).rank == 3

    def test_swap_shared_bias(self):
        _, rep = closure(gpm([1, 0]))
        basis = bias_basis(rep)
        assert basis.rank == 1
        assert basis_to_dict(basis)["orbits"] == [{"entries": [[0, 1], [1, 1]]}]

    def test_sign_flip_bias_forced_to_zero(self):
        flip, _ = flip_and_trivial()
        basis = bias_basis(flip)
        assert basis.rank == 0
        assert len(basis.zero_forced) == 1

    def test_fixed_subspace_property(self, all_pairs):
        seen = set()
        for _, rep, _ in all_pairs:
            if id(rep) in seen:
                continue
            seen.add(id(rep))
            basis = bias_basis(rep)
            for k in range(basis.rank):
                b = orbit_vector(basis, k).ravel()
                for g in rep.group.elements():
                    np.testing.assert_allclose(act(rep, g, b), b, atol=0)


class TestOracleEquivalence:
    """Span agreement between the two routes over the whole fixture matrix."""

    def test_ranks_and_span_agree(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            basis = orbit_basis(rep_in, rep_out)
            oracle = dense_nullspace_oracle(rep_in, rep_out)
            rank_b = burnside_rank(rep_in, rep_out)
            assert basis.rank == oracle.shape[1] == rank_b, label
            assert span_residual(basis, oracle) < 1e-10, label

    def test_span_residual_matches_one_vector_at_a_time(self):
        # span_residual projects a block of orbit vectors at once; the reference,
        # one vector at a time, against the true span and a random one, across blocks too
        def reference(basis, q):
            worst = 0.0
            for k in range(basis.rank):
                v = orbit_vector(basis, k).ravel()
                v = v / np.linalg.norm(v)
                worst = max(worst, float(np.linalg.norm(v - q @ (q.T @ v))))
            return worst

        rng = np.random.default_rng(94)
        pairs = [_random_pair(rng) for _ in range(20)]
        group, _ = cyclic(2)
        pairs.append((tiled_regular_representation(group, 32),) * 2)  # rank 512: two blocks
        for rep_in, rep_out in pairs:
            basis, mn = orbit_basis(rep_in, rep_out), rep_in.dim * rep_out.dim
            oracle = dense_nullspace_oracle(rep_in, rep_out)
            other = np.linalg.qr(rng.standard_normal((mn, max(1, mn // 2))))[0]
            for q in oracle, other:
                assert abs(span_residual(basis, q) - reference(basis, q)) <= 1e-15

    def test_parameter_reduction_bounds(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            mn = rep_in.dim * rep_out.dim
            r = orbit_basis(rep_in, rep_out).rank
            assert 0 <= r <= mn, label
            if rep_in.is_unsigned and rep_out.is_unsigned:
                order = rep_in.group.order
                assert r * order >= mn, label  # mn/|G| <= r


def basis_text(basis, separators=(", ", ": ")) -> str:
    return "".join(basis_json_chunks(basis, separators))


def write_basis(tmp_path, *argv) -> str:
    """The text of the file `robosym basis` writes with these options."""
    out = tmp_path / "basis.json"
    assert cli.main(["basis", *argv, "--out", str(out)]) == 0
    return out.read_text()


class TestBasisSerialization:
    def test_roundtrip(self, tmp_path):
        solo = str(FIXTURES / "k4_solo.json")
        _, rep = load_representation(solo)
        assert json.loads(write_basis(tmp_path, "--rep-in", solo)) == basis_to_dict(orbit_basis(rep, rep))

    def test_files_and_fingerprints_match_reference(self, all_pairs, tmp_path, monkeypatch):
        assert len(all_pairs) == 106
        for label, rep_in, rep_out in all_pairs:
            # the CLI's own write path, on representations built in memory
            monkeypatch.setattr(cli, "_load_rep_pair", lambda args: (rep_in, rep_out))
            text = write_basis(tmp_path, "--rep-in", str(FIXTURES / "c2_swap.json"))
            assert text == json.dumps(basis_to_dict(orbit_basis(rep_in, rep_out))) + "\n", label
            for basis in (orbit_basis(rep_in, rep_out), bias_basis(rep_out)):
                reference = basis_to_dict(basis)
                assert basis_text(basis) == json.dumps(reference), label
                compact = json.dumps(reference, sort_keys=True, separators=(",", ":"))
                assert basis_text(basis, (",", ":")) == compact, label
                assert basis_fingerprint(basis) == hashlib.sha256(compact.encode()).hexdigest()[:16], label

    def test_block_size_does_not_change_text(self, all_pairs, monkeypatch):
        bases = [f(*args) for _, r_in, r_out in all_pairs
                 for f, args in ((orbit_basis, (r_in, r_out)), (bias_basis, (r_out,)))]
        expected = [(basis_text(b), basis_fingerprint(b)) for b in bases]
        for block in (1, 2, 3):
            monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
            assert [(basis_text(b), basis_fingerprint(b)) for b in bases] == expected, block

    @staticmethod
    def assert_text_is_json_dumps(basis):
        reference = basis_to_dict(basis)
        compact = json.dumps(reference, separators=(",", ":"))
        assert basis_text(basis) == json.dumps(reference)
        assert basis_text(basis, (",", ":")) == compact
        assert basis_fingerprint(basis) == hashlib.sha256(compact.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("block", [1, 2, 3, basis_module.BASIS_BLOCK])
    def test_indices_at_digit_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        index = [0, 9, 10, 99, 100, 101, 1000]
        orbits = Orbits(index, [1, -1, 1, -1, 1, -1, 1], [0, 0, 0, 1, 1, 2, 3])
        basis = EquivBasis(11, 101, orbits, Orbits([5, 55], [1, -1], [0, 0]))
        self.assert_text_is_json_dumps(basis)
        assert '[[0, 1], [9, -1], [10, 1]]' in basis_text(basis)

    @pytest.mark.parametrize("block", [1, 2, 3, basis_module.BASIS_BLOCK])
    def test_seven_to_ten_digit_indices(self, monkeypatch, block):
        # digits are written three at a time; 7 and 10 digits leave a partial
        # top group, and 2^31 - 2 is the largest index below the tracer's cap
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        index = [999999, 10**6, 10**7 - 1, 10**9, 2**31 - 2]
        orbits = Orbits(index, [1, -1, 1, 1, -1], [0, 0, 1, 1, 1])
        basis = EquivBasis(2**16, 2**15, orbits, Orbits([7, 123456789], [1, -1], [0, 0]))
        self.assert_text_is_json_dumps(basis)
        assert '[[9999999, 1], [1000000000, 1], [2147483646, -1]]' in basis_text(basis)

    @pytest.mark.parametrize("block", [1, 2, 3, basis_module.BASIS_BLOCK])
    def test_zero_forced_orbit_with_negative_signs(self, monkeypatch, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        _, rep = closure(gpm([1, 0], [-1, 1]))  # e0 -> -e1 -> -e0: order 4
        basis = bias_basis(rep)
        assert basis.rank == 0 and (basis.zero_forced.sign == 1).all()  # zero-forced signs are +1
        self.assert_text_is_json_dumps(basis)
        self.assert_text_is_json_dumps(orbit_basis(rep, rep))

    @pytest.mark.parametrize("block", [1, 2, 3, basis_module.BASIS_BLOCK])
    def test_single_entry_bias_orbits(self, monkeypatch, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        group, _ = cyclic(3)
        basis = bias_basis(trivial_representation(group, 12))
        assert basis.rank == 12 and basis.total_entries == 12
        self.assert_text_is_json_dumps(basis)

    @pytest.mark.parametrize("block", [1, 2, 3, 4, basis_module.BASIS_BLOCK])
    def test_record_edge_cases(self, monkeypatch, block):
        # blocks of 2: the first ends where orbit 0 ends, so the next chunk opens orbit 1, a
        # singleton; the free list's last entry ends the fourth block; the zero-forced list is
        # split inside its second orbit; indices cross 9/10, 99/100, 999/1000 and 9999/10000,
        # with sign -1 at four and five digits
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        orbits = Orbits([9, 10, 999, 1000, 9999, 10000, 10001, 12345],
                        [1, -1, 1, 1, -1, 1, -1, -1], [0, 0, 1, 2, 2, 3, 3, 3])
        basis = EquivBasis(125, 100, orbits, Orbits([0, 1, 99, 100, 101], [1] * 5, [0, 0, 1, 1, 1]))
        self.assert_text_is_json_dumps(basis)
        for sep, colon in (", ", ": "), (",", ":"):
            chunks = list(basis_json_chunks(basis, (sep, colon)))
            assert len(chunks) == 3 + -(-8 // block) + -(-5 // block)
            assert not any("\0" in c or "\1" in c for c in chunks)
            if block == 2:
                assert chunks[1] == f'{{"entries"{colon}[[9{sep}1]{sep}[10{sep}-1]]}}{sep}{{"entries"{colon}['
                assert chunks[2].startswith("[999") and chunks[4].endswith(f"[12345{sep}-1]]}}")

    @pytest.mark.parametrize("block", [1, 3, basis_module.BASIS_BLOCK])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_non_ascii_and_wide_separators(self, monkeypatch, k, block):
        # the record is laid out in bytes, so a separator of several UTF-8 bytes, or of
        # several characters, shifts every later column by its encoded length
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        rep = tiled_regular_representation(cyclic(k)[0], 4 * k)
        for basis in (orbit_basis(rep, rep), bias_basis(rep)):
            reference = basis_to_dict(basis)
            for separators in (("，", "："), ("é", "ü"), (" ,  ", " : "), ("", "")):
                assert basis_text(basis, separators) == json.dumps(reference, separators=separators)

    @pytest.mark.parametrize("sep", ["\0", ",\1"])
    def test_separator_with_nul_or_0x01_is_rejected(self, sep):
        _, rep = closure(gpm([1, 0]))
        with pytest.raises(ValueError, match="^the item separator must not hold a NUL or 0x01 character$"):
            basis_text(orbit_basis(rep, rep), (sep, ": "))

    @pytest.mark.parametrize("group, width, digest", [
        # 102,400 entries, six-digit indices, orbits of 2
        (cyclic(2)[0], 320, "d35ee4677a51d9b75a74db96d9686e7feb737fa6e911b66a66777417c18c5cd5"),
        # 16,384 entries, five-digit indices, orbits of 4
        (make_k4()[0], 128, "08bbcfc9d4f59b02f405d325150066cc603f26da79f46485a97d5f84fc4f2b16"),
    ], ids=["c2_tiled_320", "k4_tiled_128"])
    def test_text_at_benchmark_widths(self, group, width, digest):
        rep = tiled_regular_representation(group, width)
        basis = orbit_basis(rep, rep)
        self.assert_text_is_json_dumps(basis)
        # the file's exact bytes, pinned apart from json.dumps
        assert hashlib.sha256((basis_text(basis) + "\n").encode()).hexdigest() == digest

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
    @pytest.mark.parametrize("block", [2, 3, 7, 1 << 10])
    def test_chunks_hold_at_most_a_block_of_records(self, monkeypatch, separators, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        group, _ = cyclic(4)
        rep = tiled_regular_representation(group, 64)
        basis = orbit_basis(rep, rep)
        sep, colon = separators
        record = f'{sep}{{"entries"{colon}[[{"9" * len(str(64 * 64 - 1))}{sep}-1]]}}'
        chunks = list(basis_json_chunks(basis, separators))
        assert max(len(c) for c in chunks) <= block * len(record)
        # three fixed chunks, then one per block
        assert len(chunks) == 3 + -(-basis.total_entries // block)

    def test_rank_zero_with_only_zero_forced_orbits(self, tmp_path):
        text = write_basis(tmp_path, "--rep-in", str(FIXTURES / "sign_flip.json"),
                           "--rep-out", str(FIXTURES / "trivial_c2.json"))
        assert text == '{"m": 1, "n": 1, "orbits": [], "zero_forced": [{"entries": [[0, 1]]}]}\n'

    def test_empty_zero_forced(self):
        _, rep = closure(gpm([1, 0]))
        assert basis_text(orbit_basis(rep, rep), (",", ":")) == (
            '{"m":2,"n":2,"orbits":[{"entries":[[0,1],[3,1]]},{"entries":[[1,1],[2,1]]}],"zero_forced":[]}')


def test_orbit_runtime_scales_roughly_linearly(k4):
    # sanity benchmark, deliberately loose: doubling mn should not blow up
    import time

    from robosym.groups import tiled_regular_representation

    group, _ = k4
    r1 = tiled_regular_representation(group, 32)
    r2 = tiled_regular_representation(group, 64)

    def elapsed(rep):
        t0 = time.perf_counter()
        orbit_basis(rep, rep)
        return time.perf_counter() - t0

    elapsed(r1)  # warm up
    t_small = max(elapsed(r1), 1e-4)
    t_big = elapsed(r2)  # mn quadruples from 1024 to 4096
    assert t_big < 40 * t_small


def _reference_basis_dict(rep_in, rep_out) -> dict:
    """The orbit tracer as a plain loop over seeds, on the Kronecker action
    rho_out(g) (x) rho_in(g^-1)^T built entry by entry."""
    group = rep_in.group
    m, n = rep_out.dim, rep_in.dim
    action = []
    for g in group.elements():
        a_target, a_sign = rep_out.targets[g].tolist(), rep_out.signs[g].tolist()
        # b = rho_in(g^-1) inverted: it sends coordinate target[k] back to k
        b_target, b_sign = [0] * n, [1] * n
        ginv = group.inverse[g]
        for k, (t, s) in enumerate(zip(rep_in.targets[ginv].tolist(), rep_in.signs[ginv].tolist())):
            b_target[t], b_sign[t] = k, s
        action.append({
            i * n + j: (a_target[i] * n + b_target[j], a_sign[i] * b_sign[j])
            for i in range(m) for j in range(n)
        })
    visited, orbits, dead = set(), [], []
    for seed in range(m * n):
        if seed in visited:
            continue
        reached, consistent = {}, True
        for images in action:
            i, s = images[seed]
            consistent &= reached.setdefault(i, s) == s
        visited.update(reached)
        # a zero-forced orbit carries no coefficient, and every sign in it is +1
        (orbits if consistent else dead).append({"entries": sorted([i, s if consistent else 1]
                                                                   for i, s in reached.items())})
    return {"m": m, "n": n, "orbits": orbits, "zero_forced": dead}


def _random_pair(rng):
    """Representations of one group on R^n and R^m from random signed
    generators, closed jointly as the pair loader does."""
    while True:
        n, m, k = (int(v) for v in rng.integers(1, [5, 5, 3], endpoint=True))
        gens = []
        for _ in range(k):
            t = np.concatenate([rng.permutation(n), n + rng.permutation(m)])
            signed = rng.random() < 0.5  # unsigned generators keep some ranks nonzero
            gens.append(gpm(t, rng.choice([-1, 1], n + m) if signed else None))
        try:
            group, rep = closure(*gens)
        except ClosureExceeded:
            continue
        return (
            Representation(group, rep.targets[:, :n], rep.signs[:, :n]),
            Representation(group, rep.targets[:, n:] - n, rep.signs[:, n:]),
        )


def orbits_fixed(basis, rep_in, rep_out) -> bool:
    """Whether every element fixes every orbit vector, checked for all entries and elements
    at once: g fixes orbit vector k exactly when it sends each entry i of k to an entry of k,
    with sgn[t_g(i)] = s_g(i) sgn[i]."""
    action = tensor_on_linear_maps(rep_in, rep_out)
    o = basis.orbits
    oid, sgn = np.full(basis.m * basis.n, -1), np.zeros(basis.m * basis.n, dtype=int)
    oid[o.index], sgn[o.index] = o.orbit, o.sign
    t, s = action.targets[:, o.index], action.signs[:, o.index]
    return bool((oid[t] == o.orbit).all() and (sgn[t] == s * o.sign).all())


class TestRefactorSafetyNet:
    def test_fingerprints_pinned(self, all_pairs):
        # weights files store these hashes, and a file whose hash changed no longer
        # loads: one changes only with the basis file's definition
        pinned = json.loads((FIXTURES / "basis_fingerprints.json").read_text())
        assert len(pinned) == len(all_pairs)
        for label, rep_in, rep_out in all_pairs:
            got = [basis_fingerprint(orbit_basis(rep_in, rep_out)), basis_fingerprint(bias_basis(rep_out))]
            assert got == pinned[label], label

    def test_matches_reference_tracer(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            assert basis_to_dict(orbit_basis(rep_in, rep_out)) == _reference_basis_dict(rep_in, rep_out), label

    def test_random_signed_generators(self):
        rng = np.random.default_rng(20230217)
        for trial in range(30):
            rep_in, rep_out = _random_pair(rng)
            basis = orbit_basis(rep_in, rep_out)
            label = f"trial {trial}, |G| = {rep_in.group.order}"
            assert_sequential(rep_in.group, direct_sum([rep_in, rep_out]))
            assert verify_homomorphism(rep_in).passed and verify_homomorphism(rep_out).passed, label
            assert basis_to_dict(basis) == _reference_basis_dict(rep_in, rep_out), label
            assert basis.rank == burnside_rank(rep_in, rep_out), label
            if rep_in.dim * rep_out.dim <= 256:
                assert basis.rank == dense_nullspace_oracle(rep_in, rep_out).shape[1], label
            assert orbits_fixed(basis, rep_in, rep_out), label

    def test_invariance_check_rejects_a_corrupted_sign(self):
        _, rep = closure(gpm([1, 0]))
        good = orbit_basis(rep, rep)
        assert basis_to_dict(good)["orbits"][1] == {"entries": [[1, 1], [2, 1]]}
        assert orbits_fixed(good, rep, rep)
        o = good.orbits
        bad = EquivBasis(good.m, good.n, Orbits(o.index, [1, 1, 1, -1], o.orbit), good.zero_forced)
        assert not orbits_fixed(bad, rep, rep)

    @staticmethod
    def relabelled(rep_in, rep_out, rng):
        """The pair with the group's non-identity elements relabelled at random:
        old element a becomes p[a] in the Cayley table, the inverses, the
        generator indices and both representations' rows alike."""
        group = rep_in.group
        p = np.concatenate([[0], 1 + rng.permutation(group.order - 1)])
        q = np.argsort(p)  # q[p[a]] = a
        relabelled = FiniteGroup(p[group.cayley[q][:, q]], p[group.inverse[q]],
                                 tuple(int(p[g]) for g in group.generator_indices))
        # p is an isomorphism from the checked group, so the relabelled table is a group's
        np.testing.assert_array_equal(relabelled.cayley[p[:, None], p], p[group.cayley])
        np.testing.assert_array_equal(relabelled.inverse[p], p[group.inverse])
        return tuple(Representation(relabelled, r.targets[q], r.signs[q]) for r in (rep_in, rep_out))

    def test_relabelled_elements_give_the_same_basis_bytes(self, all_pairs):
        # the basis depends only on the group's action, also in its zero-forced orbits
        _, swap_neg = closure(gpm([1, 0], [-1, 1]))  # order 4, a zero-forced bias basis
        d8 = next((r_in, r_out) for label, r_in, r_out in all_pairs if label == "d8:planar2->planar2")
        rng = np.random.default_rng(24)
        for rep_in, rep_out in (d8, (swap_neg, swap_neg)):
            bases = (orbit_basis(rep_in, rep_out), bias_basis(rep_out))
            assert any(len(b.zero_forced) for b in bases)
            for _ in range(4):
                other_in, other_out = self.relabelled(rep_in, rep_out, rng)
                for x, y in zip(bases, (orbit_basis(other_in, other_out), bias_basis(other_out))):
                    for separators in ((", ", ": "), (",", ":")):
                        assert basis_text(x, separators) == basis_text(y, separators)
                    assert basis_fingerprint(x) == basis_fingerprint(y)

    def test_chunk_size_does_not_change_basis(self, all_pairs, monkeypatch):
        # entry budgets of 1 (one element per slab), 3, and above |G| * mn
        # (the whole group in one slab)
        pairs = [p for p in all_pairs if p[1].group.order > 2]
        expected = [basis_to_dict(orbit_basis(r_in, r_out)) for _, r_in, r_out in pairs]
        whole = max(r_out.group.order * r_in.dim * r_out.dim for _, r_in, r_out in pairs) + 1
        for budget in (1, 3, whole):
            monkeypatch.setattr(basis_module, "TRACE_ENTRIES", budget)
            for (label, r_in, r_out), want in zip(pairs, expected):
                assert basis_to_dict(orbit_basis(r_in, r_out)) == want, (label, budget)


class TestAugmentedLeastSquares:
    def test_fit_on_augmented_copies_equals_fit_in_orbit_coefficients(self):
        # least squares over the |G| copies of each (x, y) row is a G-invariant problem, so its
        # one minimizer is equivariant and minimizes the plain loss over the equivariant maps:
        # the fit of the orbit-basis coefficients to the original rows
        rng = np.random.default_rng(2302)
        for trial in range(30):
            rep_in, rep_out = _random_pair(rng)
            group, n, m = rep_in.group, rep_in.dim, rep_out.dim
            label = f"trial {trial}, |G| = {group.order}, n = {n}, m = {m}"
            plan = direct_sum([rep_in, rep_out])  # the action on rows (x, y)
            rows = rng.standard_normal((-(-n // group.order), n + m))  # N |G| >= n
            while np.linalg.matrix_rank(augment_dataset(plan, rows)[:, :n]) < n:  # W is then unique
                rows = np.vstack([rows, rng.standard_normal(n + m)])
            copies = augment_dataset(plan, rows)
            w_aug = np.linalg.lstsq(copies[:, :n], copies[:, n:], rcond=None)[0].T
            basis = orbit_basis(rep_in, rep_out)
            vectors = np.array([orbit_vector(basis, k) for k in range(basis.rank)]).reshape(basis.rank, m, n)
            design = (vectors @ rows[:, :n].T).transpose(2, 1, 0).reshape(len(rows) * m, basis.rank)  # [(i, j), k]
            coeffs = np.linalg.lstsq(design, rows[:, n:].ravel(), rcond=None)[0]
            w_orbit = np.tensordot(coeffs, vectors, axes=1)
            np.testing.assert_allclose(w_aug, w_orbit, rtol=0, atol=1e-9, err_msg=label)
            for g in group.elements():
                np.testing.assert_allclose(dense(rep_out, g) @ w_aug, w_aug @ dense(rep_in, g),
                                           rtol=0, atol=1e-9, err_msg=label)
