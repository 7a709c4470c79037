"""Equivariant perceptron stacks: init, forward, gradients, variance."""

import json

import numpy as np
import pytest

from conftest import closure, gpm
from robosym.basis import EquivBasis, Orbits, orbit_basis
from robosym.errors import DegenerateBasis, DimMismatch, IncompatibleWidth
from robosym.groups import (
    act,
    make_cyclic,
    tiled_regular_representation,
    trivial_representation,
)
from robosym.nets import (
    EquivLayer,
    EquivNet,
    activation_variance_profile,
    build_mlp,
    check_equivariance,
    forward,
    get_nonlinearity,
    grad_coeffs,
    init_coeffs,
    init_variance,
    load_weights,
    save_weights,
)

RELU = get_nonlinearity("relu")
IDENT = get_nonlinearity("identity")
TANH = get_nonlinearity("tanh")
SELU = get_nonlinearity("selu")


def c2_swap_rep():
    _, rep = closure(gpm([1, 0]))
    return rep


class TestGains:
    def test_relu_and_selu_constants(self):
        assert RELU.gain == 0.5
        assert SELU.gain == 1.0

    def test_tanh_gain_regenerated_matches_quadrature(self):
        # independent oracle: brute-force trapezoid integral of
        # tanh(z)^2 phi(z) over a wide interval
        z = np.linspace(-12.0, 12.0, 200001)
        phi = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
        expected = np.trapezoid(np.tanh(z) ** 2 * phi, z)
        assert abs(TANH.gain - expected) < 1e-8
        assert 0.35 < TANH.gain < 0.45

    def test_selu_gain_consistent_with_sampling(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(2_000_000)
        assert abs(np.mean(SELU.fn(z) ** 2) - SELU.gain) < 5e-3


class TestInit:
    def test_c2_swap_relu_variance_is_one(self):
        rep = c2_swap_rep()
        basis = orbit_basis(rep, rep)
        # two orbits with two unit entries each: lambda = 4, m = 2
        assert basis.total_entries == 4
        assert init_variance(basis, RELU, "fan_in") == 1.0

    def test_trivial_single_entry_identity(self):
        _, rep = make_cyclic(1, 1)
        basis = orbit_basis(rep, rep)
        assert init_variance(basis, IDENT, "fan_in") == 1.0

    def test_fan_out_uses_input_dim(self):
        group, _ = closure(gpm([1, 0]))
        rep_in = tiled_regular_representation(group, 4)
        rep_out = tiled_regular_representation(group, 8)
        basis = orbit_basis(rep_in, rep_out)
        assert init_variance(basis, IDENT, "fan_in") == 8 / basis.total_entries
        assert init_variance(basis, IDENT, "fan_out") == 4 / basis.total_entries

    def test_degenerate_basis_raises(self):
        group, flip = closure(gpm([0], [-1]))
        triv = trivial_representation(group, 1)
        basis = orbit_basis(flip, triv)
        with pytest.raises(DegenerateBasis):
            init_coeffs(basis, RELU, "fan_in", 0)

    def test_seeded_determinism(self):
        rep = c2_swap_rep()
        basis = orbit_basis(rep, rep)
        np.testing.assert_array_equal(
            init_coeffs(basis, RELU, "fan_in", 42), init_coeffs(basis, RELU, "fan_in", 42)
        )

    def test_sampled_std_tracks_formula(self):
        group, _ = closure(gpm([1, 0]))
        rep = tiled_regular_representation(group, 64)
        basis = orbit_basis(rep, rep)
        target = np.sqrt(init_variance(basis, RELU, "fan_in"))
        draws = np.concatenate(
            [init_coeffs(basis, RELU, "fan_in", s) for s in range(10)]
        )
        assert abs(draws.std() - target) / target < 0.05


class TestForward:
    def test_identity_weight_passes_input_through(self):
        rep = c2_swap_rep()
        layer = EquivLayer(rep, rep, IDENT, coeffs=np.array([1.0, 0.0]))
        np.testing.assert_array_equal(layer.weight(), np.eye(2))
        net = EquivNet([layer])
        y, _ = forward(net, np.array([3.0, -1.5]))
        np.testing.assert_array_equal(y, [3.0, -1.5])

    def test_zero_coeffs_give_sigma_of_zero(self):
        rep = c2_swap_rep()
        layer = EquivLayer(rep, rep, TANH)
        y, _ = forward(EquivNet([layer]), np.array([3.0, -1.5]))
        np.testing.assert_array_equal(y, [0.0, 0.0])

    def test_toy_k4_net_is_equivariant(self, k4):
        _, reps = k4
        net = build_mlp(reps["leg12"], reps["perm4"], [8, 8], RELU, rng_seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(12)
        y, _ = forward(net, x)
        group = reps["leg12"].group
        for g in group.elements():
            gx = act(reps["leg12"], g, x)
            ygx, _ = forward(net, gx)
            np.testing.assert_allclose(ygx, act(reps["perm4"], g, y), atol=1e-12)

    def test_dim_mismatch(self):
        rep = c2_swap_rep()
        net = EquivNet([EquivLayer(rep, rep, IDENT)])
        with pytest.raises(DimMismatch):
            forward(net, np.ones(3))

    def test_scaling_coeffs_scales_preactivations(self):
        rep = c2_swap_rep()
        layer = EquivLayer(rep, rep, TANH, coeffs=np.array([0.7, -0.3]))
        net = EquivNet([layer])
        x = np.array([1.0, 2.0])
        _, acts = forward(net, x)
        layer.coeffs = 3.0 * layer.coeffs
        _, acts3 = forward(net, x)
        np.testing.assert_allclose(acts3[0].z, 3.0 * acts[0].z, rtol=1e-14)

    def test_signed_rep_with_relu_rejected(self):
        group, flip = closure(gpm([0], [-1]))
        with pytest.raises(ValueError, match="not odd"):
            EquivLayer(flip, flip, RELU)

    def test_signed_rep_with_tanh_allowed_and_equivariant(self):
        group, flip = closure(gpm([0], [-1]))
        layer = EquivLayer(flip, flip, TANH, coeffs=np.array([0.8]))
        report = check_equivariance(EquivNet([layer]), samples=16, tol=1e-12, rng_seed=0)
        assert report.passed


class TestGradients:
    def _fd_check(self, net, x, rng, h=1e-5, loss_vec=None):
        y, _ = forward(net, x)
        c = rng.standard_normal(y.shape) if loss_vec is None else loss_vec
        grads = grad_coeffs(net, x, c)
        worst = 0.0
        for layer, g in zip(net.layers, grads):
            for arr, garr in ((layer.coeffs, g.coeffs), (layer.bias_coeffs, g.bias_coeffs)):
                for k in range(arr.size):
                    orig = arr[k]
                    arr[k] = orig + h
                    yp, _ = forward(net, x)
                    arr[k] = orig - h
                    ym, _ = forward(net, x)
                    arr[k] = orig
                    fd = float(c @ (yp - ym)) / (2 * h)
                    err = abs(garr[k] - fd) / max(1.0, abs(garr[k]))
                    worst = max(worst, err)
        return worst

    def test_random_two_layer_c2_net(self):
        rep = c2_swap_rep()
        rng = np.random.default_rng(3)
        net = build_mlp(rep, rep, [4], TANH, rng_seed=5)
        assert self._fd_check(net, rng.standard_normal(2), rng) < 1e-5

    def test_orbit_gradient_is_sum_of_entry_gradients(self, k4):
        _, reps = k4
        rep = reps["reg4"]
        layer = EquivLayer(rep, rep, IDENT)
        rng = np.random.default_rng(4)
        layer.coeffs = rng.standard_normal(layer.coeffs.shape)
        net = EquivNet([layer])
        x = rng.standard_normal(4)
        c = rng.standard_normal(4)
        grads = grad_coeffs(net, x, c)
        dw = np.outer(c, x)  # dense weight gradient for the linear layer
        orbits = layer.basis.orbits
        for k in range(layer.basis.rank):
            at = orbits.orbit == k
            assert at.sum() == 4
            total = dw.reshape(-1)[orbits.index[at]] @ orbits.sign[at]
            assert abs(grads[0].coeffs[k] - total) < 1e-12

    def test_zero_upstream_gives_zero_gradients(self):
        rep = c2_swap_rep()
        net = build_mlp(rep, rep, [4], RELU, rng_seed=0)
        grads = grad_coeffs(net, np.ones(2), np.zeros(2))
        for g in grads:
            assert not g.coeffs.any() and not g.bias_coeffs.any()

    def test_batched_gradient_sums_over_batch(self):
        rep = c2_swap_rep()
        net = build_mlp(rep, rep, [4], TANH, rng_seed=7)
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((3, 2))
        cs = rng.standard_normal((3, 2))
        batched = grad_coeffs(net, xs, cs)
        summed = [np.zeros_like(g.coeffs) for g in batched]
        for x, c in zip(xs, cs):
            for acc, g in zip(summed, grad_coeffs(net, x, c)):
                acc += g.coeffs
        for acc, g in zip(summed, batched):
            np.testing.assert_allclose(acc, g.coeffs, atol=1e-12)


class TestCheckEquivariance:
    def test_validated_net_passes(self, k4):
        _, reps = k4
        net = build_mlp(reps["tiled16"], reps["tiled16"], [16], RELU, rng_seed=2)
        assert check_equivariance(net, samples=16, tol=1e-10, rng_seed=1).passed

    def test_corrupted_basis_fails(self):
        rep = c2_swap_rep()
        # orbit 0 lacks coordinate 3, which the swap pairs with coordinate 0
        bad_basis = EquivBasis(2, 2, Orbits([0, 1, 2], [1, 1, 1], [0, 1, 1]), Orbits([], [], []))
        layer = EquivLayer(rep, rep, IDENT, coeffs=np.array([1.0, 0.5]))
        layer.basis = bad_basis
        report = check_equivariance(EquivNet([layer]), samples=8, tol=1e-10, rng_seed=0)
        assert not report.passed
        assert report.worst_element == 1

    def test_nan_coefficient_fails(self, k4):
        _, reps = k4
        net = build_mlp(reps["tiled16"], reps["tiled16"], [16], RELU, rng_seed=2)
        net.layers[1].coeffs[3] = np.nan
        report = check_equivariance(net, samples=4, tol=1e-10, rng_seed=1)
        assert not report.passed and np.isnan(report.max_violation)
        assert (report.worst_element, report.worst_sample) == (0, 0)
        assert str(report).startswith("FAIL: max violation nan")

    def test_identity_net_passes_at_zero_tol(self):
        rep = c2_swap_rep()
        layer = EquivLayer(rep, rep, IDENT, coeffs=np.array([1.0, 0.0]))
        report = check_equivariance(EquivNet([layer]), samples=4, tol=0.0, rng_seed=0)
        assert report.passed


class TestParameterCount:
    def test_regular_interface_net_reduced_by_group_order(self, d8):
        group, _ = d8
        rep16 = tiled_regular_representation(group, 16)
        rep8 = tiled_regular_representation(group, 8)
        net = build_mlp(rep16, rep8, [16, 16], RELU, rng_seed=0)
        expected_w = (16 * 16 + 16 * 16 + 8 * 16) // group.order
        assert sum(layer.basis.rank for layer in net.layers) == expected_w

    def test_layer_boundary_mismatch_rejected(self, k4):
        _, reps = k4
        a = EquivLayer(reps["reg4"], reps["reg4"], RELU)
        b = EquivLayer(reps["tiled16"], reps["tiled16"], RELU)
        with pytest.raises(DimMismatch):
            EquivNet([a, b])


class TestVarianceProfile:
    def test_fan_in_profile_stays_flat(self, k4):
        group, _ = k4
        profile = activation_variance_profile(20, 256, group, RELU, "fan_in",
                                              batch=256, rng_seed=0)
        assert profile.shape == (20,)
        assert 1 / 3 < profile[-1] / profile[0] < 3

    def test_constant_variance_control_decays(self, k4):
        group, _ = k4
        profile = activation_variance_profile(20, 256, group, RELU, 0.05**2,
                                              batch=256, rng_seed=0)
        assert profile[0] / profile[-1] > 10
        assert np.all(np.diff(profile) < 0)

    def test_depth_one(self, k4):
        group, _ = k4
        profile = activation_variance_profile(1, 8, group, RELU, "fan_in", rng_seed=0)
        assert profile.shape == (1,)

    def test_incompatible_width(self, c3):
        group, _ = c3
        with pytest.raises(IncompatibleWidth):
            activation_variance_profile(2, 10, group, RELU, "fan_in", rng_seed=0)

    @pytest.mark.parametrize("width", [0, -3, -6])
    def test_non_positive_width_rejected(self, c3, width):
        # 0 and -6 are multiples of the order; they used to reach direct_sum([])
        group, _ = c3
        with pytest.raises(IncompatibleWidth, match=f"width {width} must be positive"):
            tiled_regular_representation(group, width)


class TestWeightsFile:
    def test_roundtrip(self, tmp_path, k4):
        _, reps = k4
        net = build_mlp(reps["reg4"], reps["reg4"], [8], RELU, rng_seed=3)
        path = tmp_path / "w.json"
        save_weights(net, str(path))
        net2 = build_mlp(reps["reg4"], reps["reg4"], [8], RELU, rng_seed=99)
        load_weights(net2, str(path))
        for a, b in zip(net.layers, net2.layers):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_basis_hash_mismatch_rejected(self, tmp_path, k4):
        from robosym.errors import ParseError

        _, reps = k4
        net = build_mlp(reps["reg4"], reps["reg4"], [8], RELU, rng_seed=3)
        path = tmp_path / "w.json"
        save_weights(net, str(path))
        other = build_mlp(reps["tiled16"], reps["tiled16"], [16], RELU, rng_seed=3)
        with pytest.raises(ParseError, match="hash"):
            load_weights(other, str(path))

    @pytest.mark.parametrize("key", ["coeffs", "bias_coeffs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_coefficient_rejected(self, tmp_path, k4, key, value):
        from robosym.errors import ParseError

        _, reps = k4
        net = build_mlp(reps["reg4"], reps["reg4"], [8], RELU, rng_seed=3)
        path = tmp_path / "w.json"
        save_weights(net, str(path))
        data = json.loads(path.read_text())
        data["layers"][1][key][0] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"layer 1: '{key}' has non-finite entries"):
            load_weights(net, str(path))

    def test_failed_load_leaves_every_layer_as_it_was(self, tmp_path):
        from robosym.errors import ParseError

        group, reg = make_cyclic(4)
        net = build_mlp(reg, reg, [8], RELU, rng_seed=3)
        path = tmp_path / "w.json"
        save_weights(build_mlp(reg, reg, [8], RELU, rng_seed=4), str(path))
        data = json.loads(path.read_text())
        data["layers"][1]["coeffs"][0] = np.nan
        path.write_text(json.dumps(data))
        before = [(layer.coeffs, layer.bias_coeffs) for layer in net.layers]
        with pytest.raises(ParseError, match="layer 1: 'coeffs' has non-finite entries"):
            load_weights(net, str(path))
        for layer, (coeffs, bias_coeffs) in zip(net.layers, before):
            assert layer.coeffs is coeffs and layer.bias_coeffs is bias_coeffs

    def test_each_basis_is_fingerprinted_once(self, tmp_path, monkeypatch):
        from robosym import basis as basis_module
        from robosym import nets

        nets._cached_bases.cache_clear()
        _, reg = make_cyclic(4)
        net = build_mlp(reg, reg, [8, 8], RELU, rng_seed=3)
        bases = {id(b): b for layer in net.layers for b in (layer.basis, layer.bias_basis)}
        hashes = {k: basis_module.basis_fingerprint(b) for k, b in bases.items()}
        calls = []
        chunks = basis_module.basis_json_chunks
        monkeypatch.setattr(basis_module, "basis_json_chunks",
                            lambda *a: calls.append(1) or chunks(*a))
        path = tmp_path / "w.json"
        for _ in range(3):
            save_weights(net, str(path))
            load_weights(net, str(path))
        assert len(calls) == len(bases)
        saved = json.loads(path.read_text())["layers"]
        assert [(e["basis_hash"], e["bias_basis_hash"]) for e in saved] == [
            (hashes[id(layer.basis)], hashes[id(layer.bias_basis)]) for layer in net.layers]

    def test_failed_save_keeps_existing_file(self, tmp_path, k4):
        _, reps = k4
        net = build_mlp(reps["reg4"], reps["reg4"], [8], RELU, rng_seed=3)
        path = tmp_path / "w.json"
        save_weights(net, str(path))
        before = path.read_text()
        net.layers[-1].coeffs = np.array([object()] * net.layers[-1].coeffs.size)
        with pytest.raises(TypeError):
            save_weights(net, str(path))
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.json"]
