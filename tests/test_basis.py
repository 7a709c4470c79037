"""Equivariant basis: orbit algorithm vs dense oracle vs trace count."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import FIXTURES, basis_to_dict, closure, dense, gpm
from robosym import basis as basis_module
from robosym import cli
from robosym.basis import (
    EquivBasis,
    Orbits,
    basis_fingerprint,
    basis_json_chunks,
    bias_basis,
    burnside_rank,
    dense_nullspace_oracle,
    orbit_basis,
    span_residual,
    validate_basis,
)
from robosym.errors import CapExceeded, ClosureExceeded, GroupMismatch, NonIntegralRank
from robosym.groups import (
    Representation,
    act,
    load_representation,
    make_cyclic,
    regular_representation,
    tiled_regular_representation,
    trivial_representation,
    verify_homomorphism,
)


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
        group, rep = make_cyclic(1, 3)
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
        group, rep = make_cyclic(2, 40)
        with pytest.raises(CapExceeded):
            dense_nullspace_oracle(rep, rep)  # mn = 6400

    def test_memory_is_one_block_per_generator(self):
        # B3, the signed permutations of 3 axes (order 48), from its regular
        # representation to its standard one: mn = 144.  A block for each of
        # the 47 non-identity elements peaked at 30 MiB; the cap allows
        # mn = 2304 for B3 regular to itself, which would take about 7.7 GB
        # (extrapolated from the peak at mn = 144)
        group, std = closure(gpm([1, 0, 2]), gpm([1, 2, 0]), gpm([0, 1, 2], [-1, 1, 1]))
        reg = regular_representation(group)
        assert group.order == 48
        tracemalloc.start()
        try:
            q = dense_nullspace_oracle(reg, std)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert q.shape[1] == burnside_rank(reg, std) == orbit_basis(reg, std).rank

    def test_memory_is_about_the_constraint_stack(self):
        # K4 tiled 32 -> 32, mn = 1024 and two generators: the blocks go
        # straight into one float stack of 16 MiB, which is eliminated in
        # place.  At the cap (mn = 4096) the call takes 362 MiB but 1.4-2.5 s,
        # too slow for this suite
        group, _ = closure(gpm([1, 0, 3, 2]), gpm([2, 3, 0, 1]))
        rep = tiled_regular_representation(group, 32)
        q, peak = traced_peak(lambda: dense_nullspace_oracle(rep, rep))
        assert peak <= 1.5 * 2 * 1024**2 * 8
        assert q.shape[1] == burnside_rank(rep, rep) == orbit_basis(rep, rep).rank


class TestOrbitBasis:
    def test_trivial_group_all_singletons(self):
        _, rep = make_cyclic(1, 3)
        basis = orbit_basis(rep, rep)
        assert basis.rank == 9
        assert list(basis.orbits.orbit) == list(range(9))

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
        group, _ = make_cyclic(1024)
        reg = regular_representation(group)
        basis, peak = traced_peak(lambda: orbit_basis(reg, reg))
        assert basis.rank == burnside_rank(reg, reg) == 1024
        assert peak < 128 * 2**20

    def test_peak_within_three_bases(self):
        # C2 tiled 512 -> 512, the widest map of the benchmark's catalogue,
        # whose trace sets that workload's peak memory
        group, _ = make_cyclic(2)
        rep = tiled_regular_representation(group, 512)
        basis, peak = traced_peak(lambda: orbit_basis(rep, rep))
        assert basis.rank == 512 * 512 // 2
        assert peak <= 3 * basis_bytes(basis)

    def test_cap_raises_before_allocating(self):
        group, _ = make_cyclic(2)
        rep = tiled_regular_representation(group, 46342)  # mn = 46342^2 > 2^31 - 1
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="2147483647"):
                orbit_basis(rep, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

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


class TestBiasBasis:
    def test_trivial_rank_three(self):
        _, rep = make_cyclic(1, 3)
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
                b = basis.materialize(k).ravel()
                for g in rep.group.elements():
                    np.testing.assert_allclose(act(rep, g, b), b, atol=0)


class TestValidateBasis:
    def test_pass_and_rank_match(self):
        _, rep = closure(gpm([1, 0]))
        report = validate_basis(orbit_basis(rep, rep), rep, rep)
        assert report.passed and report.rank == report.burnside == 2

    def test_corrupted_sign_fails_with_location(self):
        _, rep = closure(gpm([1, 0]))
        good = orbit_basis(rep, rep)
        assert basis_to_dict(good)["orbits"][1] == {"entries": [[1, 1], [2, 1]]}
        o = good.orbits
        bad = EquivBasis(good.m, good.n, Orbits(o.index, [1, 1, 1, -1], o.orbit), good.zero_forced)
        report = validate_basis(bad, rep, rep)
        assert not report.passed
        g, k, (i, j) = report.first_violation
        assert k == 1 and g == 1

    def test_empty_basis_vacuous_pass(self):
        flip, triv = flip_and_trivial()
        report = validate_basis(orbit_basis(flip, triv), flip, triv)
        assert report.passed and report.rank == 0 and report.zero_forced == 1


class TestOracleEquivalence:
    """Span agreement between the two routes over the whole fixture matrix."""

    def test_ranks_and_span_agree(self, all_pairs):
        for label, rep_in, rep_out in all_pairs:
            basis = orbit_basis(rep_in, rep_out)
            oracle = dense_nullspace_oracle(rep_in, rep_out)
            rank_b = burnside_rank(rep_in, rep_out)
            assert basis.rank == oracle.shape[1] == rank_b, label
            assert span_residual(basis, oracle) < 1e-10, label

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
    def test_zero_forced_orbit_with_negative_signs(self, monkeypatch, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        _, rep = closure(gpm([1, 0], [-1, 1]))  # e0 -> -e1 -> -e0: order 4
        basis = bias_basis(rep)
        assert basis.rank == 0 and (basis.zero_forced.sign < 0).any()
        self.assert_text_is_json_dumps(basis)
        self.assert_text_is_json_dumps(orbit_basis(rep, rep))

    @pytest.mark.parametrize("block", [1, 2, 3, basis_module.BASIS_BLOCK])
    def test_single_entry_bias_orbits(self, monkeypatch, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        group, _ = make_cyclic(3)
        basis = bias_basis(trivial_representation(group, 12))
        assert basis.rank == 12 and basis.total_entries == 12
        self.assert_text_is_json_dumps(basis)

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
    @pytest.mark.parametrize("block", [2, 3, 7, 1 << 10])
    def test_chunks_hold_at_most_a_block_of_records(self, monkeypatch, separators, block):
        monkeypatch.setattr(basis_module, "BASIS_BLOCK", block)
        group, _ = make_cyclic(4)
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
        (orbits if consistent else dead).append({"entries": sorted([i, s] for i, s in reached.items())})
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


class TestRefactorSafetyNet:
    def test_fingerprints_pinned(self, all_pairs):
        # weights files store these hashes, so they may never change
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
            rep_in.group.validate()
            assert verify_homomorphism(rep_in).passed and verify_homomorphism(rep_out).passed, label
            assert basis_to_dict(basis) == _reference_basis_dict(rep_in, rep_out), label
            assert basis.rank == burnside_rank(rep_in, rep_out), label
            if rep_in.dim * rep_out.dim <= 256:
                assert basis.rank == dense_nullspace_oracle(rep_in, rep_out).shape[1], label
            assert validate_basis(basis, rep_in, rep_out).passed, label

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
