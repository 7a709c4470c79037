"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with measured values.
"""

import time

import numpy as np

from conftest import (FIXTURES, c2_reps, c3_reps, closure, config_action, d8_reps, dense, gpm, k4_reps,
                      rep_matrix)
from robosym.augment import (
    augment_dataset,
    compile_schema,
    load_group_bundle,
    load_schema,
    resolve_schema,
)
from robosym.basis import (
    burnside_rank,
    dense_nullspace_oracle,
    orbit_basis,
    span_residual,
)
from robosym.groups import (
    act,
    regular_representation,
    tiled_regular_representation,
    trivial_representation,
)
from robosym.nets import (
    activation_variance_profile,
    build_mlp,
    check_equivariance,
    forward,
    get_nonlinearity,
    grad_coeffs,
)
from robosym.rigid import (
    check_mass_matrix_equivariance,
    com_momentum,
    load_candidates,
    load_robot,
    random_config,
)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {name} ({detail})")
    assert passed, f"criterion {num}: {name}: {detail}"


def test_criterion_1_oracle_equivalence():
    """Orbit basis, dense oracle, and trace count agree over the fixture
    matrix (C2, C3, K4, D8; signed and unsigned; mn up to 256)."""
    t0 = time.monotonic()
    pairs = rep_matrix(max_mn=256)
    assert len(pairs) > 50
    worst_resid = 0.0
    for label, rep_in, rep_out in pairs:
        basis = orbit_basis(rep_in, rep_out)
        oracle = dense_nullspace_oracle(rep_in, rep_out)
        rank_b = burnside_rank(rep_in, rep_out)
        assert basis.rank == oracle.shape[1] == rank_b, label
        resid = span_residual(basis, oracle)
        worst_resid = max(worst_resid, resid)
        assert resid < 1e-10, f"{label}: residual {resid:.3e}"
    elapsed = time.monotonic() - t0
    report(
        1,
        "oracle equivalence",
        elapsed < 60.0,
        f"{len(pairs)} pairs, worst span residual {worst_resid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_parameter_reduction():
    """Fixed-point-free regular reps on both sides give r = mn/|G| exactly."""
    checked = []
    for builder in (c2_reps, c3_reps, k4_reps, d8_reps):
        group, _ = builder()
        for rep in (
            regular_representation(group),
            tiled_regular_representation(group, 2 * group.order),
        ):
            mn = rep.dim * rep.dim
            r = orbit_basis(rep, rep).rank
            assert r * group.order == mn, f"|G|={group.order}: r={r}, mn={mn}"
            checked.append((group.order, r, mn))
    detail = "; ".join(f"|G|={o}: {r}={mn}/{o}" for o, r, mn in checked[::2])
    report(2, "parameter reduction 1/|G|", True, detail)


def test_criterion_3_network_equivariance():
    """20-layer width-256 K4 net stays equivariant on 64 random inputs."""
    t0 = time.monotonic()
    group, _ = k4_reps()
    rep = tiled_regular_representation(group, 256)
    net = build_mlp(rep, rep, [256] * 19, get_nonlinearity("relu"), rng_seed=0)
    assert len(net.layers) == 20
    result = check_equivariance(net, samples=64, tol=1e-9, rng_seed=0)
    elapsed = time.monotonic() - t0
    report(
        3,
        "deep network equivariance",
        result.passed and elapsed < 10.0,
        f"max violation {result.max_violation:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_gradient_correctness():
    """Coefficient gradients match central finite differences on 100 nets."""
    rng = np.random.default_rng(2024)
    builders = [c2_reps, c3_reps, k4_reps]
    sigmas = ["relu", "selu", "tanh", "identity"]
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        group, reps = builders[trial % 3]()
        width = group.order * int(rng.integers(1, 4))
        rep = tiled_regular_representation(group, width)
        depth = int(rng.integers(1, 3))  # 2 or 3 layers including the linear head
        sigma = get_nonlinearity(sigmas[trial % 4])
        net = build_mlp(rep, rep, [width] * depth, sigma, rng_seed=trial)
        x = rng.standard_normal(width)
        c = rng.standard_normal(width)
        grads = grad_coeffs(net, x, c)
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
        assert worst < 1e-5, f"trial {trial}: relative error {worst:.3e}"
    report(4, "gradient correctness", worst < 1e-5, f"100 nets, worst rel err {worst:.2e}")


def test_criterion_5_initialization_profile():
    """Fan-in init keeps the activation-std profile flat over depth 20,
    measured over 10 seeds; a constant 0.05^2 variance decays more than
    tenfold."""
    group, _ = k4_reps()
    relu = get_nonlinearity("relu")
    profiles = np.array([
        activation_variance_profile(20, 256, group, relu, "fan_in",
                                    batch=256, rng_seed=seed)
        for seed in range(10)
    ])
    # ensemble profile: pooled std per layer across the 10 seeds
    pooled = np.sqrt((profiles**2).mean(axis=0))
    ratio = float(pooled[-1] / pooled[0])
    band_ok = 1 / 3 < ratio < 3
    per_seed = profiles[:, -1] / profiles[:, 0]
    control = activation_variance_profile(20, 256, group, relu, 0.05**2,
                                          batch=256, rng_seed=0)
    decay = float(control[0] / control[-1])
    report(
        5,
        "variance-preserving initialization",
        band_ok and decay > 10.0,
        f"pooled ratio {ratio:.2f} over 10 seeds "
        f"(per-seed {per_seed.min():.2f}..{per_seed.max():.2f}), "
        f"control decay {decay:.0f}x",
    )


def test_criterion_6_mass_matrix_equivariance():
    """Mirrored fixtures pass at 1e-8 over 100 samples; a 10% mass
    perturbation fails by more than 1e-3."""
    t0 = time.monotonic()
    biped = load_robot(str(FIXTURES / "minibiped.json"))
    _, rep_c2 = closure(gpm([1, 0], [-1, -1]))
    rep_biped = check_mass_matrix_equivariance(biped, rep_c2, samples=100, tol=1e-8, rng_seed=0)

    tri = load_robot(str(FIXTURES / "trifinger.json"))
    _, rep_c3 = closure(gpm([2, 3, 4, 5, 0, 1]))
    rep_tri = check_mass_matrix_equivariance(tri, rep_c3, samples=100, tol=1e-8, rng_seed=0)

    pert = load_robot(str(FIXTURES / "minibiped_perturbed.json"))
    rep_pert = check_mass_matrix_equivariance(pert, rep_c2, samples=100, tol=1e-8, rng_seed=0)
    elapsed = time.monotonic() - t0
    report(
        6,
        "mass-matrix equivariance",
        rep_biped.passed and rep_tri.passed and (not rep_pert.passed)
        and rep_pert.max_violation > 1e-3 and elapsed < 5.0,
        f"biped {rep_biped.max_violation:.1e}, trifinger {rep_tri.max_violation:.1e}, "
        f"perturbed {rep_pert.max_violation:.1e}, {elapsed:.1f}s",
    )


def test_criterion_7_com_momentum_equivariance():
    """g.h(q, dq) = h(gq, g dq): linear part via R, angular via det(R) R."""
    worst = 0.0
    for robot, cand_file in [
        ("minibiped.json", "minibiped_candidates.json"),
        ("trifinger.json", "trifinger_candidates.json"),
    ]:
        tree = load_robot(str(FIXTURES / robot))
        cands = load_candidates(str(FIXTURES / cand_file), tree)
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_config(tree, rng)
            dq = rng.standard_normal(tree.nv)
            for c, r in enumerate(cands.isometries):
                h = com_momentum(tree, q, dq)
                hg = com_momentum(tree, config_action(tree, cands, c, q), dense(cands.joint, c) @ dq)
                det = np.sign(np.linalg.det(r))
                worst = max(worst, float(np.abs(r @ h[:3] - hg[:3]).max()))
                worst = max(worst, float(np.abs(det * (r @ h[3:]) - hg[3:]).max()))
    report(7, "CoM momentum equivariance", worst < 1e-10, f"max error {worst:.2e}")


def test_criterion_8_augmentation_contract():
    """|G| x N row counts, the hand-checked contact-state permutation, and
    exact g o g^-1 round trips."""
    solo = load_group_bundle(str(FIXTURES / "k4_solo.json"))
    schema = resolve_schema(
        load_schema(str(FIXTURES / "com_schema.json")),
        solo.joint_rep, solo.isometries, solo.leg_perm,
    )
    plan = compile_schema(schema, solo.group, solo.joint_rep, solo.isometries, solo.leg_perm)
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((25, schema.width))
    out = augment_dataset(plan, rows)
    count_ok = out.shape == (100, schema.width)

    cheetah = load_group_bundle(str(FIXTURES / "c2_minicheetah.json"))
    cschema = resolve_schema(
        load_schema(str(FIXTURES / "contact_schema.json")),
        cheetah.joint_rep, cheetah.isometries, cheetah.leg_perm,
    )
    cplan = compile_schema(cschema, cheetah.group, cheetah.joint_rep,
                           cheetah.isometries, cheetah.leg_perm)
    logits = rng.standard_normal(16)
    moved = act(cplan, 1, logits)
    table = [0, 2, 1, 3, 8, 10, 9, 11, 4, 6, 5, 7, 12, 14, 13, 15]
    table_ok = all(moved[table[s]] == logits[s] for s in range(16))
    spot_ok = table[1] == 2 and table[5] == 10 and table[15] == 15

    mschema = resolve_schema(
        load_schema(str(FIXTURES / "minicheetah_schema.json")),
        cheetah.joint_rep, cheetah.isometries, cheetah.leg_perm,
    )
    mplan = compile_schema(mschema, cheetah.group, cheetah.joint_rep,
                           cheetah.isometries, cheetah.leg_perm)
    row = rng.standard_normal(mschema.width)
    worst_rt = 0.0
    for plan_k, r in ((mplan, row), (plan, rows[0])):
        for g in plan_k.group.elements():
            ginv = plan_k.group.inverse[g]
            back = act(plan_k, ginv, act(plan_k, g, r))
            worst_rt = max(worst_rt, float(np.abs(back - r).max()))
    report(
        8,
        "augmentation contract",
        count_ok and table_ok and spot_ok and worst_rt <= 1e-12,
        f"25->100 rows, contact table exact, round trip {worst_rt:.1e}",
    )


def test_criterion_9_burnside_integrality():
    """The trace average is an integer on every fixture pair and the signed
    flip counterexample gives 0, agreeing with the oracle."""
    for label, rep_in, rep_out in rep_matrix(max_mn=256):
        r = burnside_rank(rep_in, rep_out)  # raises NonIntegralRank on failure
        assert isinstance(r, int), label
    group, flip = closure(gpm([0], [-1]))
    triv = trivial_representation(group, 1)
    r_flip = burnside_rank(flip, triv)
    oracle_rank = dense_nullspace_oracle(flip, triv).shape[1]
    report(
        9,
        "Burnside integrality",
        r_flip == 0 == oracle_rank,
        f"all pairs integral; signed flip r={r_flip}, oracle {oracle_rank}",
    )
