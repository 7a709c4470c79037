"""Kinematics, mass matrix, momentum, and symmetry certification."""

import json

import numpy as np
import pytest

from conftest import FIXTURES, closure, dense_perm, gpm, integrate_config
from robosym import rigid
from robosym.errors import DimMismatch, ParseError, TreeCycle
from robosym.rigid import (
    CandidateDMS,
    KinematicTree,
    RigidBody,
    check_mass_matrix_equivariance,
    com_momentum,
    forward_kinematics,
    identify_dms,
    jacobians,
    load_candidates,
    load_robot,
    mass_matrix,
    random_config,
    rpy_matrix,
    tree_from_dict,
)


@pytest.fixture(scope="module")
def biped():
    return load_robot(str(FIXTURES / "minibiped.json"))


@pytest.fixture(scope="module")
def biped_cands(biped):
    return load_candidates(str(FIXTURES / "minibiped_candidates.json"), biped)


@pytest.fixture(scope="module")
def trifinger():
    return load_robot(str(FIXTURES / "trifinger.json"))


@pytest.fixture(scope="module")
def trifinger_cands(trifinger):
    return load_candidates(str(FIXTURES / "trifinger_candidates.json"), trifinger)


@pytest.fixture(scope="module")
def solo():
    return load_robot(str(FIXTURES / "solo_like.json"))


@pytest.fixture(scope="module")
def solo_cands(solo):
    return load_candidates(str(FIXTURES / "solo_like_candidates.json"), solo)


def pendulum_dict(mass=1.0, radius=0.5, axis=(0.0, 1.0, 0.0)):
    return {
        "base": "fixed",
        "bodies": [
            {"name": "anchor", "mass": 0.0, "com": [0, 0, 0], "inertia": [0, 0, 0, 0, 0, 0]},
            {"name": "bob", "mass": mass, "com": [0.0, 0.0, -radius],
             "inertia": [0, 0, 0, 0, 0, 0]},
        ],
        "joints": [
            {"name": "pivot", "parent": "anchor", "child": "bob", "type": "revolute",
             "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0], "axis": list(axis)}
        ],
    }


def random_chain_dict(rng, floating=False, links=4):
    """Arbitrary serial chain with random geometry for oracle checks."""
    bodies = [{"name": "b0", "mass": 1.5, "com": rng.uniform(-0.2, 0.2, 3).tolist(),
               "inertia": [0.1, 0.0, 0.0, 0.12, 0.0, 0.14]}]
    joints = []
    for i in range(1, links + 1):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        diag = rng.uniform(0.01, 0.1, 3)
        bodies.append(
            {"name": f"b{i}", "mass": float(rng.uniform(0.2, 2.0)),
             "com": rng.uniform(-0.3, 0.3, 3).tolist(),
             "inertia": [diag[0], 0.0, 0.0, diag[1], 0.0, diag[2]]}
        )
        joints.append(
            {"name": f"j{i}", "parent": f"b{i-1}", "child": f"b{i}",
             "type": "revolute" if rng.uniform() < 0.7 else "prismatic",
             "origin_xyz": rng.uniform(-0.5, 0.5, 3).tolist(),
             "origin_rpy": rng.uniform(-1.0, 1.0, 3).tolist(),
             "axis": axis.tolist()}
        )
    return {"base": "floating" if floating else "fixed", "bodies": bodies, "joints": joints}


def fd_jacobians(tree, q, name, h=1e-7):
    """Central finite differences of the body-CoM position and orientation."""
    body = tree.body_index[name]
    jp = np.zeros((3, tree.nv))
    jr = np.zeros((3, tree.nv))
    for i in range(tree.nv):
        dq = np.zeros(tree.nv)
        dq[i] = 1.0
        fp = forward_kinematics(tree, integrate_config(tree, q, dq, h))[name]
        fm = forward_kinematics(tree, integrate_config(tree, q, dq, -h))[name]
        jp[:, i] = ((fp[1] + fp[0] @ body.com) - (fm[1] + fm[0] @ body.com)) / (2 * h)
        # w_hat = dR R^T
        what = (fp[0] - fm[0]) / (2 * h) @ forward_kinematics(tree, q)[name][0].T
        jr[:, i] = [what[2, 1], what[0, 2], what[1, 0]]
    return jp, jr


class TestLoadRobot:
    def test_single_body_zero_dof(self):
        tree = tree_from_dict(
            {"base": "fixed",
             "bodies": [{"name": "rock", "mass": 2.0, "com": [0, 0, 0],
                         "inertia": [0.1, 0.0, 0.0, 0.1, 0.0, 0.1]}]}
        )
        assert tree.nj == 0 and tree.nv == 0

    def test_minibiped_two_dof(self, biped):
        assert tree_from_dict.__module__  # fixture sanity
        assert biped.nj == 2
        assert biped.base == "fixed"

    def test_duplicate_joint_name(self):
        d = pendulum_dict()
        d["bodies"].append({"name": "bob2", "mass": 1.0, "com": [0, 0, 0],
                            "inertia": [0, 0, 0, 0, 0, 0]})
        d["joints"].append(dict(d["joints"][0], child="bob2"))
        with pytest.raises(ParseError, match="duplicate joint"):
            tree_from_dict(d)

    def test_cycle_rejected(self):
        d = pendulum_dict()
        d["joints"].append(
            {"name": "back", "parent": "bob", "child": "anchor", "type": "fixed",
             "origin_xyz": [0, 0, 0], "origin_rpy": [0, 0, 0], "axis": [0, 0, 1]}
        )
        with pytest.raises(TreeCycle):
            tree_from_dict(d)

    def test_bad_inertia(self):
        from robosym.errors import BadInertia

        d = pendulum_dict()
        d["bodies"][1]["inertia"] = [-0.1, 0.0, 0.0, 0.1, 0.0, 0.1]
        with pytest.raises(BadInertia, match="bob"):
            tree_from_dict(d)


class TestForwardKinematics:
    def test_zero_config_composes_origins(self, trifinger):
        poses = forward_kinematics(trifinger, np.zeros(6))
        # first finger mounts 0.15 out along x, 0.2 up; its lower link 0.25 below
        np.testing.assert_allclose(poses["up_0"][1], [0.15, 0.0, 0.2], atol=1e-15)
        np.testing.assert_allclose(poses["low_0"][1], [0.15, 0.0, -0.05], atol=1e-15)

    def test_quarter_turn_about_z(self):
        d = pendulum_dict(axis=(0.0, 0.0, 1.0))
        tree = tree_from_dict(d)
        poses = forward_kinematics(tree, np.array([np.pi / 2]))
        r = poses["bob"][0]
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_mirrored_configurations_give_mirrored_poses(self, biped, biped_cands):
        cand = biped_cands[0]
        rng = np.random.default_rng(0)
        refl = cand.isometry
        for _ in range(10):
            q = random_config(biped, rng)
            gq = cand.config_action(biped, q)
            kin_q = forward_kinematics(biped, q)
            kin_gq = forward_kinematics(biped, gq)
            for k, i in cand.body_pairing.items():
                ck = kin_q[k][1] + kin_q[k][0] @ biped.body_index[k].com
                ci = kin_gq[i][1] + kin_gq[i][0] @ biped.body_index[i].com
                np.testing.assert_allclose(refl @ ck, ci, atol=1e-14)


class TestFixedJoints:
    """A fixed-joint foot on each leg of the minibiped: no DoF, rigidly carried."""

    @pytest.fixture(scope="class")
    def footed(self):
        robot = json.loads((FIXTURES / "minibiped.json").read_text())
        cands = json.loads((FIXTURES / "minibiped_candidates.json").read_text())["candidates"]
        for side, other in (("l", "r"), ("r", "l")):
            robot["bodies"].append({"name": f"foot_{side}", "mass": 0.3, "com": [0.0, 0.02, -0.05],
                                    "inertia": [0.002, 0.0, 0.0, 0.003, 0.0, 0.001]})
            robot["joints"].append({"name": f"ankle_{side}", "parent": f"leg_{side}",
                                    "child": f"foot_{side}", "type": "fixed", "origin_xyz": [0, 0, -0.4]})
            cands[0]["body_pairing"][f"foot_{side}"] = f"foot_{other}"
        tree = tree_from_dict(robot)
        c = cands[0]
        perm = (c["joint_perm"]["target"], c["joint_perm"]["sign"])
        return tree, CandidateDMS(c["name"], np.array(c["isometry"]), perm, c["body_pairing"])

    def test_foot_pose_is_leg_pose_composed_with_the_joint_origin(self, footed):
        tree, _ = footed
        assert tree.nj == 2
        rng = np.random.default_rng(3)
        for _ in range(5):
            poses = forward_kinematics(tree, random_config(tree, rng))
            for side in "lr":
                leg_rot, leg_pos = poses[f"leg_{side}"]
                foot_rot, foot_pos = poses[f"foot_{side}"]
                np.testing.assert_array_equal(foot_rot, leg_rot)  # the origin has no rotation
                np.testing.assert_array_equal(foot_pos, leg_pos + leg_rot @ [0.0, 0.0, -0.4])

    def test_sagittal_candidate_with_feet_paired_verifies(self, footed):
        tree, cand = footed
        report = identify_dms(tree, [cand], samples=50, rng_seed=1)
        assert report.verified == ["sagittal"] and report.group.order == 2
        c = report.candidates[0]
        assert max(c.dynamic_violation, c.kinematic_violation, c.mass_matrix_violation) <= 1e-12


class TestJacobians:
    def test_zero_dof_tree_empty(self):
        tree = tree_from_dict(
            {"base": "fixed",
             "bodies": [{"name": "rock", "mass": 2.0, "com": [0, 0, 0],
                         "inertia": [0.1, 0.0, 0.0, 0.1, 0.0, 0.1]}]}
        )
        jp, jr = jacobians(tree, np.zeros(0))["rock"]
        assert jp.shape == (3, 0) and jr.shape == (3, 0)

    def test_pendulum_column_norm_is_radius(self):
        tree = tree_from_dict(pendulum_dict(radius=0.5))
        for q in (0.0, 0.7, -1.3):
            jp, _ = jacobians(tree, np.array([q]))["bob"]
            assert abs(np.linalg.norm(jp[:, 0]) - 0.5) < 1e-14

    @pytest.mark.parametrize("floating", [False, True])
    def test_matches_finite_differences_on_random_chains(self, floating):
        rng = np.random.default_rng(11 + floating)
        for trial in range(3):
            tree = tree_from_dict(random_chain_dict(rng, floating=floating))
            q = random_config(tree, rng)
            jac = jacobians(tree, q)
            for name in tree.body_index:
                jp, jr = jac[name]
                fp, fr = fd_jacobians(tree, q, name)
                assert np.abs(jp - fp).max() < 1e-6
                assert np.abs(jr - fr).max() < 1e-6

    @pytest.mark.parametrize(
        "fixture", ["minibiped.json", "trifinger.json", "solo_like.json"]
    )
    def test_matches_finite_differences_on_fixtures(self, fixture):
        tree = load_robot(str(FIXTURES / fixture))
        rng = np.random.default_rng(20)
        for _ in range(3):
            q = random_config(tree, rng)
            jac = jacobians(tree, q)
            for name in tree.body_index:
                jp, jr = jac[name]
                fp, fr = fd_jacobians(tree, q, name)
                assert np.abs(jp - fp).max() < 1e-6
                assert np.abs(jr - fr).max() < 1e-6


class TestMassMatrix:
    def test_point_mass_pendulum(self):
        tree = tree_from_dict(pendulum_dict(mass=1.3, radius=0.5))
        m = mass_matrix(tree, np.array([0.4]))
        np.testing.assert_allclose(m, [[1.3 * 0.25]], atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        tree = tree_from_dict(random_chain_dict(rng, floating=True))
        for _ in range(5):
            m = mass_matrix(tree, random_config(tree, rng))
            assert np.abs(m - m.T).max() < 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(14)
        tree = tree_from_dict(random_chain_dict(rng, floating=True))
        for _ in range(5):
            m = mass_matrix(tree, random_config(tree, rng))
            assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_kinetic_energy_matches_per_body_sum(self):
        rng = np.random.default_rng(15)
        for floating in (False, True):
            tree = tree_from_dict(random_chain_dict(rng, floating=floating))
            q = random_config(tree, rng)
            dq = rng.standard_normal(tree.nv)
            t_matrix = 0.5 * dq @ mass_matrix(tree, q) @ dq
            jac = jacobians(tree, q)
            kin = forward_kinematics(tree, q)
            t_bodies = 0.0
            for b in tree.bodies:
                jp, jr = jac[b.name]
                v, w = jp @ dq, jr @ dq
                iw = kin[b.name][0] @ b.inertia @ kin[b.name][0].T
                t_bodies += 0.5 * b.mass * v @ v + 0.5 * w @ iw @ w
            assert abs(t_matrix - t_bodies) / max(1.0, abs(t_matrix)) < 1e-10


class TestComMomentum:
    def test_free_body_translation(self):
        tree = tree_from_dict(
            {"base": "floating",
             "bodies": [{"name": "brick", "mass": 2.5, "com": [0.1, 0.0, 0.0],
                         "inertia": [0.05, 0.0, 0.0, 0.05, 0.0, 0.05]}]}
        )
        q = np.concatenate([np.eye(3).ravel(), [0.0, 0.0, 0.0]])
        dq = np.array([0.3, -0.2, 0.5, 0.0, 0.0, 0.0])
        h = com_momentum(tree, q, dq)
        np.testing.assert_allclose(h[:3], 2.5 * dq[:3], atol=1e-15)
        np.testing.assert_allclose(h[3:], 0.0, atol=1e-15)

    def test_static_configuration_zero(self, trifinger):
        rng = np.random.default_rng(16)
        q = random_config(trifinger, rng)
        np.testing.assert_array_equal(com_momentum(trifinger, q, np.zeros(6)), np.zeros(6))

    def test_equivariance_on_mirrored_fixture(self, biped, biped_cands):
        cand = biped_cands[0]
        rng = np.random.default_rng(17)
        r, det = cand.isometry, cand.det
        for _ in range(20):
            q = random_config(biped, rng)
            dq = rng.standard_normal(biped.nv)
            h = com_momentum(biped, q, dq)
            h_g = com_momentum(
                biped, cand.config_action(biped, q), dense_perm(cand.joint_perm) @ dq
            )
            np.testing.assert_allclose(r @ h[:3], h_g[:3], atol=1e-10)
            np.testing.assert_allclose(det * (r @ h[3:]), h_g[3:], atol=1e-10)


MASS_MATRIX_REFERENCE = json.loads((FIXTURES / "mass_matrix_reference.json").read_text())


class TestMassMatrixEquivariance:
    def c2_rep(self):
        _, rep = closure(gpm([1, 0], [-1, -1]))
        return rep

    def test_biped_passes(self, biped):
        report = check_mass_matrix_equivariance(biped, self.c2_rep(), samples=100, rng_seed=0)
        assert report.passed, str(report)

    def test_trifinger_passes(self, trifinger):
        _, rep = closure(gpm([2, 3, 4, 5, 0, 1]))
        report = check_mass_matrix_equivariance(trifinger, rep, samples=100, rng_seed=0)
        assert report.passed, str(report)

    def test_perturbed_mass_fails_proportionally(self):
        base = json.loads((FIXTURES / "minibiped.json").read_text())
        violations = {}
        for bump in (1.05, 1.10):
            d = json.loads(json.dumps(base))
            for b in d["bodies"]:
                if b["name"] == "leg_r":
                    b["mass"] *= bump
            tree = tree_from_dict(d)
            report = check_mass_matrix_equivariance(tree, self.c2_rep(), samples=50, rng_seed=0)
            assert not report.passed
            violations[bump] = report.max_violation
        assert violations[1.10] > violations[1.05] > 0

    def test_identity_only_group_vacuous_pass(self, biped):
        from robosym.groups import make_cyclic

        _, rep = make_cyclic(1, 2)
        report = check_mass_matrix_equivariance(biped, rep, samples=5, rng_seed=0)
        assert report.passed and report.max_violation == 0.0

    def test_floating_base_rejected(self, solo):
        with pytest.raises(DimMismatch, match="identify_dms"):
            check_mass_matrix_equivariance(solo, self.c2_rep(), samples=1)

    @pytest.mark.parametrize("case", MASS_MATRIX_REFERENCE, ids=lambda c: "{}{}-{}".format(
        c["robot"].removesuffix(".json"), f"*{c['leg_r_mass_factor']}" * bool(c["leg_r_mass_factor"]), c["rep"]))
    def test_matches_recorded_report(self, case):
        """Reports bit-identical to those recorded from the check's own
        sample x element loop, before it ran on identify_dms's passes; a pass
        reads "verified on N samples" and a failure "REJECTED"."""
        data = json.loads((FIXTURES / case["robot"]).read_text())
        for body in data["bodies"]:
            if body["name"] == "leg_r" and case["leg_r_mass_factor"] is not None:
                body["mass"] *= case["leg_r_mass_factor"]
        tree = tree_from_dict(data)
        _, rep = closure(gpm(case["target"], case["sign"]))
        for want in case["reports"]:
            report = check_mass_matrix_equivariance(tree, rep, samples=want["samples"], rng_seed=want["seed"])
            got = {"seed": want["seed"], "samples": report.samples, "passed": report.passed,
                   "max_violation": report.max_violation.hex(),
                   "worst_element": report.worst_element, "worst_sample": report.worst_sample}
            assert got == want
            status = "verified" if report.passed else "REJECTED"
            assert str(report).startswith(f"{status} on {want['samples']} samples: max violation ")

    def test_nan_mass_rejected(self, biped):
        bodies = [RigidBody(b.name, np.nan if b.name == "leg_r" else b.mass, b.com, b.inertia)
                  for b in biped.bodies]
        tree = KinematicTree("fixed", bodies, biped.joints)
        report = check_mass_matrix_equivariance(tree, self.c2_rep(), samples=5, rng_seed=0)
        assert not report.passed and np.isnan(report.max_violation)
        assert str(report).startswith("REJECTED on 5 samples: max violation nan")

    def test_kinetic_energy_invariance(self, biped, biped_cands):
        cand = biped_cands[0]
        rng = np.random.default_rng(18)
        for _ in range(20):
            q = random_config(biped, rng)
            dq = rng.standard_normal(biped.nv)
            t1 = 0.5 * dq @ mass_matrix(biped, q) @ dq
            dq_g = dense_perm(cand.joint_perm) @ dq
            t2 = 0.5 * dq_g @ mass_matrix(biped, cand.config_action(biped, q)) @ dq_g
            assert abs(t1 - t2) <= 1e-8 * max(1.0, abs(t1))


class TestIdentifyDms:
    def test_biped_sagittal_verified_c2(self, biped, biped_cands):
        report = identify_dms(biped, biped_cands, samples=50, rng_seed=1)
        assert report.verified == ["sagittal"]
        assert report.group.order == 2

    def test_trifinger_cycle_verified_c3(self, trifinger, trifinger_cands):
        report = identify_dms(trifinger, trifinger_cands, samples=50, rng_seed=1)
        assert report.verified == ["rot120"]
        assert report.group.order == 3

    def test_floating_solo_two_reflections_generate_k4(self, solo, solo_cands):
        report = identify_dms(solo, solo_cands, samples=50, rng_seed=1)
        assert report.verified == ["sagittal", "transversal"]
        assert report.group.order == 4

    def test_wrong_pairing_rejected_at_kinematic_check(self, trifinger, trifinger_cands):
        good = trifinger_cands[0]
        swapped = dict(good.body_pairing)
        # reverse the cycle direction of the pairing only
        for i in range(3):
            swapped[f"up_{i}"] = f"up_{(i + 2) % 3}"
            swapped[f"low_{i}"] = f"low_{(i + 2) % 3}"
        bad = CandidateDMS("wrong_pairing", good.isometry, good.joint_perm, swapped)
        report = identify_dms(trifinger, [bad], samples=20, rng_seed=1)
        assert report.verified == []
        assert not report.candidates[0].passed
        assert report.candidates[0].kinematic_violation > 1e-3
        assert report.group.order == 1

    def test_perturbed_robot_rejected(self, biped_cands):
        tree = load_robot(str(FIXTURES / "minibiped_perturbed.json"))
        report = identify_dms(tree, biped_cands, samples=20, rng_seed=1)
        assert not report.candidates[0].passed
        assert report.candidates[0].failed_check is not None

    def test_closure_exceeded_propagates(self, biped):
        from robosym.errors import ClosureExceeded

        cand = CandidateDMS(
            "ok", np.diag([-1.0, 1.0, 1.0]), gpm([1, 0], [-1, -1]),
            {"torso": "torso", "leg_l": "leg_r", "leg_r": "leg_l"},
        )
        with pytest.raises(ClosureExceeded):
            identify_dms(biped, [cand], samples=2, rng_seed=0, order_cap=1)


REFERENCE = json.loads((FIXTURES / "identify_dms_reference.json").read_text())
VIOLATIONS = ("dynamic_violation", "kinematic_violation", "mass_matrix_violation")


class TestRefactorSafetyNet:
    """Certification pinned to reports recorded with the per-body-dict
    kinematics that the one-pass arrays replaced (50 samples, seeds 0, 1)."""

    @pytest.mark.parametrize("key", sorted(REFERENCE))
    def test_identify_dms_matches_recorded_report(self, key):
        robot, seed = key.split(":")
        cand_file = "minibiped" if robot == "minibiped_perturbed" else robot
        tree = load_robot(str(FIXTURES / f"{robot}.json"))
        cands = load_candidates(str(FIXTURES / f"{cand_file}_candidates.json"), tree)
        report = identify_dms(tree, cands, samples=50, rng_seed=int(seed))
        want = REFERENCE[key]
        assert report.verified == want["verified"]
        assert report.group.order == want["group_order"]
        assert len(report.candidates) == len(want["candidates"])
        for got, exp in zip(report.candidates, want["candidates"]):
            assert (got.name, got.passed, got.failed_check, got.worst_sample) == (
                exp["name"], exp["passed"], exp["failed_check"], exp["worst_sample"]
            )
            for field in VIOLATIONS:
                assert abs(getattr(got, field) - exp[field]) <= 1e-12

    def test_one_kinematics_pass_per_configuration(self, solo, solo_cands, monkeypatch):
        calls = []
        one_pass = rigid._kinematics
        monkeypatch.setattr(rigid, "_kinematics", lambda tree, q: calls.append(q) or one_pass(tree, q))
        samples = 7
        for kin_block in (rigid.KIN_BLOCK, 7):  # 7 // (1 + 2 candidates): passes of 2 samples
            monkeypatch.setattr(rigid, "KIN_BLOCK", kin_block)
            calls.clear()
            report = identify_dms(solo, solo_cands, samples=samples, rng_seed=0)
            block = kin_block // (len(solo_cands) + 1)
            assert len(calls) == -(-samples // block) == report.sizes["kinematics_passes"]
            assert max(len(q) for q in calls) <= kin_block
            assert sum(len(q) for q in calls) == samples * (len(solo_cands) + 1)
        q = random_config(solo, np.random.default_rng(0))
        dq = np.ones(solo.nv)
        for fn, args in ((mass_matrix, ()), (com_momentum, (dq,))):
            calls.clear()
            fn(solo, q, *args)
            assert len(calls) == 1, fn.__name__

    @pytest.mark.parametrize("floating", [False, True])
    def test_stacked_pass_equals_single_passes(self, floating):
        rng = np.random.default_rng(31 + floating)
        tree = tree_from_dict(random_chain_dict(rng, floating=floating, links=5))
        qs = np.array([random_config(tree, rng) for _ in range(6)])
        stacked = rigid._kinematics(tree, qs)
        singles = [rigid._kinematics(tree, q[None]) for q in qs]
        for field, got in zip(stacked._fields, stacked):
            assert got.shape[:2] == (len(qs), len(tree.bodies)), field
            assert np.array_equal(got, np.concatenate([getattr(k, field) for k in singles])), field
        masses = rigid._mass_matrix(tree, stacked)
        assert np.array_equal(masses, [mass_matrix(tree, q) for q in qs])

    def test_config_action_acts_on_a_stack(self, solo, solo_cands):
        qs = np.array([random_config(solo, np.random.default_rng(s)) for s in range(4)])
        for cand in solo_cands:
            assert np.array_equal(cand.config_action(solo, qs), [cand.config_action(solo, q) for q in qs])

    @pytest.mark.parametrize("kin_block", [1, 5, 1000])
    def test_sampled_violations_do_not_depend_on_the_block(self, solo, solo_cands, monkeypatch, kin_block):
        want = rigid._sampled_violations(solo, solo_cands, 9, 3)
        monkeypatch.setattr(rigid, "KIN_BLOCK", kin_block)
        assert np.array_equal(rigid._sampled_violations(solo, solo_cands, 9, 3), want)

    @pytest.mark.parametrize("floating", [False, True])
    def test_mass_matrix_and_momentum_are_per_body_sums(self, floating):
        rng = np.random.default_rng(21 + floating)
        tree = tree_from_dict(random_chain_dict(rng, floating=floating))
        for _ in range(3):
            q = random_config(tree, rng)
            dq = rng.standard_normal(tree.nv)
            jac = jacobians(tree, q)
            poses = forward_kinematics(tree, q)
            total = sum(b.mass for b in tree.bodies)
            coms = {b.name: poses[b.name][1] + poses[b.name][0] @ b.com for b in tree.bodies}
            c = sum(b.mass * coms[b.name] for b in tree.bodies) / total
            m, h = np.zeros((tree.nv, tree.nv)), np.zeros(6)
            for b in tree.bodies:
                jp, jr = jac[b.name]
                r = poses[b.name][0]
                inertia_w = r @ b.inertia @ r.T
                m += b.mass * jp.T @ jp + jr.T @ inertia_w @ jr
                h += np.concatenate([b.mass * jp @ dq, np.cross(coms[b.name] - c, b.mass * jp @ dq)
                                     + inertia_w @ jr @ dq])
            np.testing.assert_allclose(mass_matrix(tree, q), m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(com_momentum(tree, q, dq), h, rtol=0, atol=1e-12)

    def test_rejection_names_the_failing_body_pair(self, trifinger, trifinger_cands, biped_cands):
        tree = load_robot(str(FIXTURES / "minibiped_perturbed.json"))
        report = identify_dms(tree, biped_cands, samples=5, rng_seed=0)
        assert report.candidates[0].failed_where == "mass of body leg_l vs leg_r"
        assert report.candidates[0].worst_sample == 0  # a mass mismatch is sample-free
        good = trifinger_cands[0]
        swapped = dict(good.body_pairing)
        for i in range(3):  # reverse the cycle direction of the pairing only
            swapped[f"up_{i}"] = f"up_{(i + 2) % 3}"
            swapped[f"low_{i}"] = f"low_{(i + 2) % 3}"
        bad = CandidateDMS("swapped", good.isometry, good.joint_perm, swapped)
        where = identify_dms(trifinger, [bad], samples=5, rng_seed=0).candidates[0].failed_where
        assert where.split(" of body ")[0] in ("CoM", "inertia", "J_P", "J_R")
        k, i = where.split(" of body ")[1].split(" vs ")
        assert swapped[k] == i and good.body_pairing[k] != i
        assert identify_dms(trifinger, [good], samples=5).candidates[0].failed_where is None


class TestRotations:
    def test_rodrigues_against_small_angle(self):
        r = rpy_matrix(0.0, 0.0, 1e-8)  # about the z axis
        np.testing.assert_allclose(r, np.eye(3) + 1e-8 * np.array(
            [[0, -1, 0], [1, 0, 0], [0, 0, 0]]), atol=1e-15)

    def test_random_rotation_is_special_orthogonal(self):
        from robosym.rigid import random_rotation

        rng = np.random.default_rng(19)
        for _ in range(10):
            r = random_rotation(rng)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
