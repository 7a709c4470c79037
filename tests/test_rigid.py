"""Kinematics, mass matrix, momentum, and symmetry certification."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import FIXTURES, closure, config_action, cyclic, dense, gpm, integrate_config
from robosym.augment import compile_schema, load_group_bundle, resolve_schema
from robosym.groups import act
from robosym import rigid
from robosym.errors import DimMismatch, ParseError, TreeCycle
from robosym.rigid import (
    KinematicTree,
    RigidBody,
    candidates_from_dict,
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


def reversed_trifinger_pairing(tree, name):
    """trifinger's candidate with the cycle direction of its body pairing reversed, and nothing
    else changed: the pairing (a dict of body names) and the candidate as a stack of one."""
    entry = json.loads((FIXTURES / "trifinger_candidates.json").read_text())["candidates"][0]
    for i in range(3):
        entry["body_pairing"][f"up_{i}"] = f"up_{(i + 2) % 3}"
        entry["body_pairing"][f"low_{i}"] = f"low_{(i + 2) % 3}"
    entry["name"] = name
    return entry["body_pairing"], candidates_from_dict({"candidates": [entry]}, tree)


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


def random_tree_dict(rng, floating=False, links=6):
    """random_chain_dict's bodies and joints, each joint hung off a random
    earlier body (so the tree branches) and revolute, prismatic or fixed."""
    data = random_chain_dict(rng, floating, links)
    for i, joint in enumerate(data["joints"], 1):
        joint["parent"] = f"b{rng.integers(i)}"
        joint["type"] = str(rng.choice(rigid.JOINT_TYPES))
    return data


def all_pairs_kinematics(tree, q):
    """The kinematics pass as it was before path pairs: every (body, joint)
    column of J_P and J_R is built, then masked to the joints above the body."""
    rot0, pos0, qjs = rigid.split_config(tree, q)
    ns, nb = len(qjs), len(tree.bodies)
    rot, pos = np.empty((ns, nb, 3, 3)), np.empty((ns, nb, 3))
    root = tree._body_id[tree.root]
    rot[:, root], pos[:, root] = rot0, pos0
    axes, points = np.zeros((2, ns, tree.nj, 3))
    for j, parent, child, k, skews in tree._walk:
        r_pre = rot[:, parent] @ j.origin_rot
        p_pre = pos[:, parent] + rot[:, parent] @ j.origin_xyz
        rot[:, child], pos[:, child] = r_pre, p_pre
        if k < 0:
            continue
        axes[:, k] = r_pre @ j.axis
        points[:, k] = p_pre
        if skews is not None:
            rot[:, child] = r_pre @ rigid._rodrigues(*skews, qjs[:, k, None, None])
        else:
            pos[:, child] = p_pre + axes[:, k] * qjs[:, k, None]
    com = pos + (rot @ tree._com[:, :, None])[..., 0]
    inertia = rot @ tree._inertia @ rot.swapaxes(-1, -2)
    on_path, revolute, axes = tree._on_path[:, :, None], tree._revolute[:, None], axes[:, None]
    cols = np.cross(axes, com[:, :, None] - points[:, None])
    np.copyto(cols, axes, where=~revolute)
    cols *= on_path
    jp, jr = np.zeros((2, ns, nb, 3, tree.nv))
    if tree.floating:
        jp[..., 0:3] = np.eye(3)
        jp[..., 3:6] = np.cross(np.eye(3), (com - pos0[:, None])[..., None, :]).swapaxes(-1, -2)
        jr[..., 3:6] = np.eye(3)
    off = tree.nv - tree.nj
    jp[..., off:] = cols.swapaxes(-1, -2)
    jr[..., off:] = np.multiply(axes * revolute, on_path, out=cols).swapaxes(-1, -2)
    return rigid._Kinematics(rot, pos, com, inertia, jp, jr)


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
        rng = np.random.default_rng(0)
        refl = biped_cands.isometries[0]
        for _ in range(10):
            q = random_config(biped, rng)
            gq = config_action(biped, biped_cands, 0, q)
            kin_q = forward_kinematics(biped, q)
            kin_gq = forward_kinematics(biped, gq)
            for body, paired in zip(biped.bodies, biped_cands.pairs[0]):
                k, i = body.name, biped.bodies[paired].name
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
        return tree, candidates_from_dict({"candidates": cands}, tree)

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

    def test_stack_without_the_feet_is_refused(self, footed, biped_cands):
        # the same joints, two bodies fewer: the pairings do not fit the tree
        with pytest.raises(DimMismatch, match=r"^body pairings of shape \(1, 3\), tree has 5 bodies$"):
            identify_dms(footed[0], biped_cands, samples=2)

    def test_sagittal_candidate_with_feet_paired_verifies(self, footed):
        tree, cands = footed
        report = identify_dms(tree, cands, samples=50, rng_seed=1)
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
        rng = np.random.default_rng(17)
        r = biped_cands.isometries[0]
        det = np.sign(np.linalg.det(r))
        for _ in range(20):
            q = random_config(biped, rng)
            dq = rng.standard_normal(biped.nv)
            h = com_momentum(biped, q, dq)
            h_g = com_momentum(
                biped, config_action(biped, biped_cands, 0, q), dense(biped_cands.joint, 0) @ dq
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
        _, rep = cyclic(1, 2)
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
        rng = np.random.default_rng(18)
        for _ in range(20):
            q = random_config(biped, rng)
            dq = rng.standard_normal(biped.nv)
            t1 = 0.5 * dq @ mass_matrix(biped, q) @ dq
            dq_g = dense(biped_cands.joint, 0) @ dq
            t2 = 0.5 * dq_g @ mass_matrix(biped, config_action(biped, biped_cands, 0, q)) @ dq_g
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

    def test_wrong_pairing_rejected_at_kinematic_check(self, trifinger):
        _, bad = reversed_trifinger_pairing(trifinger, "wrong_pairing")
        report = identify_dms(trifinger, bad, samples=20, rng_seed=1)
        assert report.verified == []
        assert not report.candidates[0].passed
        assert report.candidates[0].kinematic_violation > 1e-3
        assert report.group.order == 1

    def test_perturbed_robot_rejected(self, biped_cands):
        tree = load_robot(str(FIXTURES / "minibiped_perturbed.json"))
        report = identify_dms(tree, biped_cands, samples=20, rng_seed=1)
        assert not report.candidates[0].passed
        assert report.candidates[0].failed_check is not None

    def test_nan_mass_matrix_gap_fails_and_is_named(self, biped, biped_cands):
        # CoMs of 1e160 overflow M to inf, so its gap is a NaN while the dynamic and kinematic gaps
        # stay 0; the NaN, though not the first check's, must fail the candidate and be named
        bodies = [b if b.name == "torso" else RigidBody(b.name, b.mass, b.com * 1e160, b.inertia)
                  for b in biped.bodies]
        tree = KinematicTree(biped.base, bodies, biped.joints)
        with np.errstate(over="ignore", invalid="ignore"):
            report = identify_dms(tree, biped_cands, samples=5, rng_seed=0)
        cand = report.candidates[0]
        assert report.verified == [] and (cand.dynamic_violation, cand.kinematic_violation) == (0.0, 0.0)
        assert not cand.passed and np.isnan(cand.mass_matrix_violation)
        assert str(cand) == "sagittal: rejected: mass_matrix violation nan at sample 0 (M, tol 1.0e-08)"

    @pytest.mark.parametrize("name", ["minibiped", "solo_like", "trifinger"])
    def test_candidates_from_dict_is_load_candidates(self, name):
        tree, path = load_robot(str(FIXTURES / f"{name}.json")), FIXTURES / f"{name}_candidates.json"
        got, want = candidates_from_dict(json.loads(path.read_text()), tree), load_candidates(str(path), tree)
        assert got.names == want.names and got.joint == want.joint and got.joint.group is None
        for field in ("isometries", "pairs"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert got.isometries.shape == (len(got.names), 3, 3) and got.pairs.shape == (len(got.names), len(tree.bodies))

    def test_stack_of_another_robot_is_refused(self, biped, solo_cands):
        with pytest.raises(DimMismatch, match=r"^candidate 'sagittal': joint permutation dim 4, tree has nj = 2$"):
            identify_dms(biped, solo_cands, samples=2)

    def test_closure_exceeded_propagates(self, biped):
        from robosym.errors import ClosureExceeded

        cands = candidates_from_dict({"candidates": [{
            "name": "ok", "isometry": np.diag([-1.0, 1.0, 1.0]).tolist(),
            "joint_perm": {"target": [1, 0], "sign": [-1, -1]},
            "body_pairing": {"torso": "torso", "leg_l": "leg_r", "leg_r": "leg_l"}}]}, biped)
        with pytest.raises(ClosureExceeded):
            identify_dms(biped, cands, samples=2, rng_seed=0, order_cap=1)


REFERENCE = json.loads((FIXTURES / "identify_dms_reference.json").read_text())
VIOLATIONS = ("dynamic_violation", "kinematic_violation", "mass_matrix_violation")


class TestRefactorSafetyNet:
    """Certification pinned to reports recorded with the per-body-dict
    kinematics that the one-pass arrays replaced (50 samples, seeds 0, 1)."""

    @pytest.mark.parametrize("name", ["minibiped", "solo_like", "trifinger"])
    def test_velocity_stack_is_the_compiled_schema(self, tmp_path, name):
        # a group file written from the verified candidates, compiled with the velocity fields (v, w
        # and dq; dq alone on a fixed base), acts on velocities exactly as the candidates' stack does
        tree = load_robot(str(FIXTURES / f"{name}.json"))
        entries = json.loads((FIXTURES / f"{name}_candidates.json").read_text())["candidates"]
        names = identify_dms(tree, candidates_from_dict({"candidates": entries}, tree), samples=5).verified
        verified = candidates_from_dict({"candidates": [e for e in entries if e["name"] in names]}, tree)
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"dim": tree.nj, "generators": [
            {"target": t.tolist(), "sign": s.tolist(), "isometry": r.tolist()}
            for t, s, r in zip(verified.joint.targets, verified.joint.signs, verified.isometries)]}))
        bundle = load_group_bundle(str(path))
        fields = [{"name": "v", "kind": "e3_vector"}, {"name": "w", "kind": "e3_pseudovector"}] * tree.floating
        schema = resolve_schema(fields + [{"name": "dq", "kind": "joint_space"}], bundle.joint_rep, bundle.isometries)
        plan = compile_schema(schema, bundle.group, bundle.joint_rep, bundle.isometries)
        r = verified.isometries
        t = rigid._velocity_action(tree, r, np.sign(np.linalg.det(r))[:, None, None] * r, verified.joint)
        assert t.group is None and len(verified.names) == len(bundle.group.generator_indices) == 1 + tree.floating
        for c, g in enumerate(bundle.group.generator_indices):
            assert np.array_equal(act(t, c, np.eye(tree.nv)), act(plan, g, np.eye(tree.nv)))

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
            block = kin_block // (len(solo_cands.names) + 1)
            assert len(calls) == -(-samples // block) == report.sizes["kinematics_passes"]
            assert max(len(q) for q in calls) <= kin_block
            assert sum(len(q) for q in calls) == samples * (len(solo_cands.names) + 1)
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

    @pytest.mark.parametrize("floating", [False, True])
    def test_path_columns_equal_the_all_pairs_build(self, floating):
        kinds, branched = set(), False
        for seed in range(12):
            rng = np.random.default_rng(40 + seed)
            tree = tree_from_dict(random_tree_dict(rng, floating=floating))
            kinds |= {j.jtype for j in tree.joints}
            branched |= len({j.parent for j in tree.joints}) < len(tree.joints)
            qs = np.array([random_config(tree, rng) for _ in range(4)])
            got, want = rigid._kinematics(tree, qs), all_pairs_kinematics(tree, qs)
            for field in got._fields:
                assert np.array_equal(getattr(got, field), getattr(want, field)), (seed, field)
            assert len(tree._path_pairs[0]) == tree._on_path.sum()
        assert kinds == set(rigid.JOINT_TYPES) and branched

    def test_path_pairs_are_the_joints_above_each_body(self, solo, trifinger):
        assert len(solo._path_pairs[0]) == 4 and len(trifinger._path_pairs[0]) == 9
        body, k = trifinger._path_pairs
        moved = {(trifinger.bodies[b].name, trifinger.actuated[j].name) for b, j in zip(body, k)}
        assert ("low_0", "upper_0") in moved and ("up_0", "lower_0") not in moved

    def test_one_draw_per_sample_equals_the_per_joint_draws(self):
        for seed in range(50):
            tree = tree_from_dict(random_tree_dict(np.random.default_rng(seed), floating=bool(seed % 2)))
            rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_config(tree, rng)
            qjs = [scalar.uniform(-np.pi, np.pi) if j.jtype == "revolute" else scalar.uniform(-0.5, 0.5)
                   for j in tree.actuated]
            if tree.floating:
                qjs = rigid.merge_config(tree, rigid.random_rotation(scalar), scalar.uniform(-1.0, 1.0, 3), qjs)
            assert got.tobytes() == np.asarray(qjs, dtype=float).tobytes(), seed
            assert rng.random() == scalar.random()  # the same stream consumed

    def test_memory_does_not_grow_with_samples(self, solo, solo_cands):
        def peak(samples):
            tracemalloc.start()
            try:
                identify_dms(solo, solo_cands, samples=samples, rng_seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        identify_dms(solo, solo_cands, samples=20, rng_seed=0)  # first-call allocations
        assert peak(5000) - peak(20) <= 2**20

    def test_failed_where_names_the_jacobian_column(self, solo, solo_cands):
        best = np.zeros(3, rigid._WORST)
        best["value"] = [0.0, 1.0, 0.0]  # the kinematic check fails
        for col, suffix in ((2, "base"), (6, f"joint {solo.actuated[0].name}")):
            best[1] = (1.0, 3, rigid._TERMS.index("J_P"), 1, col)
            report = rigid._candidate_report(solo, solo_cands, 0, best, 5, 1e-8)
            body, paired = solo.bodies[1].name, solo.bodies[solo_cands.pairs[0, 1]].name
            assert report.failed_where == f"J_P of body {body} vs {paired}, {suffix}"
            assert report.worst_sample == 3

    def test_config_action_acts_on_a_stack(self, solo, solo_cands):
        # every candidate at every configuration at once: bit for bit each (candidate, q) alone,
        # and R rot R^T, R pos and the signed joint permutation
        qs = np.array([random_config(solo, np.random.default_rng(s)) for s in range(4)])
        got = rigid._config_action(solo, solo_cands.isometries, solo_cands.joint, qs)
        entries = json.loads((FIXTURES / "solo_like_candidates.json").read_text())["candidates"]
        assert got.shape == (len(entries), len(qs), solo.nq)
        for c, entry in enumerate(entries):
            one = candidates_from_dict({"candidates": [entry]}, solo)
            r = one.isometries[0]
            for s, q in enumerate(qs):
                assert np.array_equal(got[c, s], rigid._config_action(solo, one.isometries, one.joint, q[None])[0, 0])
                rot, pos, qjs = rigid.split_config(solo, q)
                want = rigid.merge_config(solo, r @ rot @ r.T, r @ pos, dense(one.joint, 0) @ qjs)
                np.testing.assert_allclose(got[c, s], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kin_block", [1, 5, 1000])
    def test_sampled_violations_do_not_depend_on_the_block(self, solo, solo_cands, monkeypatch, kin_block):
        stack = solo_cands[1:]  # isometries, joint, pairs
        want = rigid._sampled_violations(solo, *stack, 9, 3)
        monkeypatch.setattr(rigid, "KIN_BLOCK", kin_block)
        assert np.array_equal(rigid._sampled_violations(solo, *stack, 9, 3), want)

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
        swapped, bad = reversed_trifinger_pairing(trifinger, "swapped")
        where = identify_dms(trifinger, bad, samples=5, rng_seed=0).candidates[0].failed_where
        where, joint = where.split(", joint ")  # a Jacobian failure names its column's joint
        assert where.split(" of body ")[0] in ("CoM", "inertia", "J_P", "J_R")
        k, i = where.split(" of body ")[1].split(" vs ")
        ids = trifinger._body_id
        assert swapped[k] == i and trifinger.bodies[trifinger_cands.pairs[0, ids[k]]].name != i
        # a gap is nonzero where one side is: the joint moves body k at q, or its image body i at g.q
        j = trifinger.dof_index[joint]
        assert trifinger._on_path[ids[k], j] or trifinger._on_path[ids[i], trifinger_cands.joint.targets[0, j]]
        assert identify_dms(trifinger, trifinger_cands, samples=5).candidates[0].failed_where is None


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

    @pytest.mark.parametrize("name", ["minibiped", "minibiped_perturbed", "solo_like", "trifinger"])
    def test_random_config_draws_as_uniform_does(self, name):
        # each range -r..r forms -r + 2r u, bit for bit rng.uniform's draw on the same stream
        from robosym.rigid import merge_config, random_rotation

        tree = load_robot(str(FIXTURES / f"{name}.json"))
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                qjs = ref.uniform(-tree._q_range, tree._q_range)
                if tree.floating:
                    qjs = merge_config(tree, random_rotation(ref), ref.uniform(-1.0, 1.0, 3), qjs)
                assert random_config(tree, rng).tobytes() == qjs.tobytes()
