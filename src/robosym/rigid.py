"""Minimal rigid-body trees for numerical symmetry certification.

Supports fixed and floating bases, revolute/prismatic/fixed joints, CoM
Jacobians, the generalized mass matrix and centroidal momentum.  The point
of the module is not simulation: it exists to test whether a candidate
symmetry (a spatial isometry plus a signed joint permutation plus a body
pairing) leaves the dynamics invariant on sampled configurations.

Conventions: configurations are plain vectors for fixed-base trees; a
floating base prepends a row-major 3x3 rotation block and a translation
(12 numbers) to the joint coordinates, while velocity space prepends the
6 world-frame base velocity coordinates (v, omega).  Symmetry isometries
fix the origin, so description files must place symmetry planes/axes
through the origin of the base frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadInertia, DimMismatch, ParseError, TreeCycle
from .groups import FiniteGroup, GenPermMatrix, Representation, act, group_closure

JOINT_TYPES = ("revolute", "prismatic", "fixed")


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    rx = rotation_about_axis(np.array([1.0, 0.0, 0.0]), roll)
    ry = rotation_about_axis(np.array([0.0, 1.0, 0.0]), pitch)
    rz = rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw)
    return rz @ ry @ rx


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    # uniform over SO(3) via a normalized random quaternion
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(eq=False)
class RigidBody:
    name: str
    mass: float
    com: np.ndarray
    inertia: np.ndarray  # about the CoM, body frame

    def validate(self) -> None:
        if self.mass < 0:
            raise BadInertia(f"body {self.name!r}: negative mass")
        if self.inertia.shape != (3, 3):
            raise BadInertia(f"body {self.name!r}: inertia must be 3x3")
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12:
            raise BadInertia(f"body {self.name!r}: inertia is not symmetric")
        if np.linalg.eigvalsh(self.inertia).min() < -1e-12:
            raise BadInertia(f"body {self.name!r}: inertia is not positive semidefinite")


@dataclass(eq=False)
class Joint:
    name: str
    parent: str
    child: str
    jtype: str
    origin_rot: np.ndarray
    origin_xyz: np.ndarray
    axis: np.ndarray

    @property
    def actuated(self) -> bool:
        return self.jtype in ("revolute", "prismatic")


class KinematicTree:
    """Validated tree of bodies and joints; actuated DoF follow joint
    declaration order."""

    def __init__(self, base: str, bodies: list[RigidBody], joints: list[Joint]):
        if base not in ("fixed", "floating"):
            raise ParseError(f"base must be 'fixed' or 'floating', got {base!r}")
        self.base = base
        self.bodies = bodies
        self.joints = joints
        self.body_index = {}
        for b in bodies:
            if b.name in self.body_index:
                raise ParseError(f"duplicate body name {b.name!r}")
            b.validate()
            self.body_index[b.name] = b
        seen_joints = set()
        children: dict[str, list[Joint]] = {b.name: [] for b in bodies}
        child_names = set()
        for j in joints:
            if j.name in seen_joints:
                raise ParseError(f"duplicate joint name {j.name!r}")
            seen_joints.add(j.name)
            if j.jtype not in JOINT_TYPES:
                raise ParseError(f"joint {j.name!r}: unknown type {j.jtype!r}")
            if j.parent not in self.body_index or j.child not in self.body_index:
                raise ParseError(f"joint {j.name!r}: unknown parent or child body")
            if j.child in child_names:
                raise TreeCycle(f"body {j.child!r} has more than one parent joint")
            if j.actuated and abs(np.linalg.norm(j.axis) - 1.0) > 1e-12:
                raise ParseError(f"joint {j.name!r}: axis must have unit norm")
            child_names.add(j.child)
            children[j.parent].append(j)
        roots = [b.name for b in bodies if b.name not in child_names]
        if len(roots) != 1:
            raise TreeCycle(f"expected exactly one root body, found {roots}")
        self.root = roots[0]
        self.children = children
        # reachability doubles as the acyclicity check
        reached = set()
        stack = [self.root]
        while stack:
            name = stack.pop()
            if name in reached:
                raise TreeCycle(f"body {name!r} reached twice")
            reached.add(name)
            stack.extend(j.child for j in children[name])
        if reached != set(self.body_index):
            raise TreeCycle(f"unreachable bodies: {sorted(set(self.body_index) - reached)}")
        self.actuated = [j for j in joints if j.actuated]
        self.dof_index = {j.name: i for i, j in enumerate(self.actuated)}

    @property
    def nj(self) -> int:
        return len(self.actuated)

    @property
    def floating(self) -> bool:
        return self.base == "floating"

    @property
    def nv(self) -> int:
        """Velocity-space dimension (rows/cols of the mass matrix)."""
        return self.nj + (6 if self.floating else 0)

    @property
    def nq(self) -> int:
        """Configuration vector length."""
        return self.nj + (12 if self.floating else 0)

    def body_names(self) -> list[str]:
        return [b.name for b in self.bodies]


def split_config(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q = np.asarray(q, dtype=float)
    if q.shape != (tree.nq,):
        raise DimMismatch(f"configuration has length {q.shape}, tree expects {tree.nq}")
    if tree.floating:
        return q[:9].reshape(3, 3), q[9:12], q[12:]
    return np.eye(3), np.zeros(3), q


def merge_config(tree: KinematicTree, rot: np.ndarray, pos: np.ndarray, qjs: np.ndarray) -> np.ndarray:
    if tree.floating:
        return np.concatenate([np.asarray(rot, float).ravel(), np.asarray(pos, float), qjs])
    return np.asarray(qjs, dtype=float)


def neutral_config(tree: KinematicTree) -> np.ndarray:
    return merge_config(tree, np.eye(3), np.zeros(3), np.zeros(tree.nj))


def random_config(tree: KinematicTree, rng: np.random.Generator) -> np.ndarray:
    qjs = np.empty(tree.nj)
    for i, j in enumerate(tree.actuated):
        qjs[i] = rng.uniform(-np.pi, np.pi) if j.jtype == "revolute" else rng.uniform(-0.5, 0.5)
    if not tree.floating:
        return qjs
    return merge_config(tree, random_rotation(rng), rng.uniform(-1.0, 1.0, 3), qjs)


def integrate_config(tree: KinematicTree, q: np.ndarray, dq: np.ndarray, h: float) -> np.ndarray:
    """First-order configuration step along a velocity-space direction.

    Base angular velocity is world-frame: R <- exp(h [w]x) R.
    """
    dq = np.asarray(dq, dtype=float)
    if dq.shape != (tree.nv,):
        raise DimMismatch(f"velocity has length {dq.shape}, tree expects {tree.nv}")
    rot, pos, qjs = split_config(tree, q)
    if not tree.floating:
        return qjs + h * dq
    w = dq[3:6]
    speed = np.linalg.norm(w)
    step = rotation_about_axis(w / speed, speed * h) if speed > 0 else np.eye(3)
    return merge_config(tree, step @ rot, pos + h * dq[:3], qjs + h * dq[6:])


@dataclass
class _Kinematics:
    body_rot: dict[str, np.ndarray]
    body_pos: dict[str, np.ndarray]
    com_world: dict[str, np.ndarray]
    joint_axis_world: list[np.ndarray]  # per actuated joint
    joint_point_world: list[np.ndarray]
    path_joints: dict[str, list[int]]  # actuated joint indices from root to body
    base_pos: np.ndarray


def _kinematics(tree: KinematicTree, q: np.ndarray) -> _Kinematics:
    rot0, pos0, qjs = split_config(tree, q)
    body_rot = {tree.root: rot0}
    body_pos = {tree.root: pos0}
    axes: list[np.ndarray] = [np.zeros(3)] * tree.nj
    points: list[np.ndarray] = [np.zeros(3)] * tree.nj
    paths: dict[str, list[int]] = {tree.root: []}
    stack = [tree.root]
    while stack:
        parent = stack.pop()
        rp, pp = body_rot[parent], body_pos[parent]
        for j in tree.children[parent]:
            r_pre = rp @ j.origin_rot
            p_pre = pp + rp @ j.origin_xyz
            path = list(paths[parent])
            if j.jtype == "revolute":
                k = tree.dof_index[j.name]
                axes[k] = r_pre @ j.axis
                points[k] = p_pre
                path.append(k)
                r_child = r_pre @ rotation_about_axis(j.axis, qjs[k])
                p_child = p_pre
            elif j.jtype == "prismatic":
                k = tree.dof_index[j.name]
                axes[k] = r_pre @ j.axis
                points[k] = p_pre
                path.append(k)
                r_child = r_pre
                p_child = p_pre + axes[k] * qjs[k]
            else:
                r_child = r_pre
                p_child = p_pre
            body_rot[j.child] = r_child
            body_pos[j.child] = p_child
            paths[j.child] = path
            stack.append(j.child)
    com = {
        name: body_pos[name] + body_rot[name] @ tree.body_index[name].com
        for name in tree.body_index
    }
    return _Kinematics(body_rot, body_pos, com, axes, points, paths, pos0)


def forward_kinematics(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """World pose (rotation, position) of every body frame."""
    kin = _kinematics(tree, q)
    return {name: (kin.body_rot[name], kin.body_pos[name]) for name in tree.body_index}


def jacobians(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Geometric CoM Jacobians (J_P, J_R), each 3 x nv, per body."""
    kin = _kinematics(tree, q)
    out = {}
    base_cols = 6 if tree.floating else 0
    for name in tree.body_index:
        jp = np.zeros((3, tree.nv))
        jr = np.zeros((3, tree.nv))
        c = kin.com_world[name]
        if tree.floating:
            jp[:, 0:3] = np.eye(3)
            jp[:, 3:6] = -skew(c - kin.base_pos)
            jr[:, 3:6] = np.eye(3)
        for k in kin.path_joints[name]:
            col = base_cols + k
            a = kin.joint_axis_world[k]
            if tree.actuated[k].jtype == "revolute":
                jp[:, col] = np.cross(a, c - kin.joint_point_world[k])
                jr[:, col] = a
            else:
                jp[:, col] = a
        out[name] = (jp, jr)
    return out


def mass_matrix(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """M(q) = sum_k J_P^T m J_P + J_R^T I_world J_R, symmetric PSD."""
    kin = _kinematics(tree, q)
    jac = jacobians(tree, q)
    m = np.zeros((tree.nv, tree.nv))
    for body in tree.bodies:
        jp, jr = jac[body.name]
        r = kin.body_rot[body.name]
        inertia_w = r @ body.inertia @ r.T
        m += body.mass * (jp.T @ jp) + jr.T @ inertia_w @ jr
    return m


def kinetic_energy(tree: KinematicTree, q: np.ndarray, dq: np.ndarray) -> float:
    dq = np.asarray(dq, dtype=float)
    return 0.5 * float(dq @ mass_matrix(tree, q) @ dq)


def com_momentum(tree: KinematicTree, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Aggregate (linear, angular) momentum about the total center of mass."""
    dq = np.asarray(dq, dtype=float)
    if dq.shape != (tree.nv,):
        raise DimMismatch(f"velocity has length {dq.shape}, tree expects {tree.nv}")
    kin = _kinematics(tree, q)
    jac = jacobians(tree, q)
    total_mass = sum(b.mass for b in tree.bodies)
    if total_mass <= 0:
        raise ValueError("total mass must be positive for CoM momentum")
    c = sum((b.mass * kin.com_world[b.name] for b in tree.bodies), np.zeros(3)) / total_mass
    h_lin = np.zeros(3)
    h_ang = np.zeros(3)
    for body in tree.bodies:
        jp, jr = jac[body.name]
        v = jp @ dq
        w = jr @ dq
        r = kin.body_rot[body.name]
        inertia_w = r @ body.inertia @ r.T
        h_lin += body.mass * v
        h_ang += np.cross(kin.com_world[body.name] - c, body.mass * v) + inertia_w @ w
    return np.concatenate([h_lin, h_ang])


@dataclass
class MassMatrixReport:
    passed: bool
    max_violation: float
    worst_element: int
    worst_sample: int
    samples: int
    tol: float

    def __str__(self) -> str:
        status = "verified" if self.passed else "REJECTED"
        return (
            f"{status} on {self.samples} samples: max violation "
            f"{self.max_violation:.3e} (tol {self.tol:.1e}) at element "
            f"{self.worst_element}, sample {self.worst_sample}"
        )


def check_mass_matrix_equivariance(
    tree: KinematicTree,
    rep_q: Representation,
    samples: int = 100,
    tol: float = 1e-8,
    rng_seed=0,
) -> MassMatrixReport:
    """Test M(rho(g) q) == rho(g) M(q) rho(g)^-1 on sampled configurations.

    Only meaningful for trees whose configuration is a plain vector (fixed
    base); floating-base trees go through ``identify_dms``, which knows how
    to act on the base pose.
    """
    if tree.floating:
        raise DimMismatch(
            "floating-base configurations are not plain vectors; "
            "use identify_dms with candidate isometries instead"
        )
    if rep_q.dim != tree.nv:
        raise DimMismatch(f"representation dim {rep_q.dim}, tree has {tree.nv} DoF")
    rng = np.random.default_rng(rng_seed) if not isinstance(rng_seed, np.random.Generator) else rng_seed
    group = rep_q.group
    worst, wg, ws = 0.0, group.identity, 0
    for s in range(samples):
        q = random_config(tree, rng)
        m = mass_matrix(tree, q)
        for g in group.elements():
            if g == group.identity:
                continue
            mg = mass_matrix(tree, act(rep_q, g, q))
            conj = rep_q.apply_matrix_left(g, rep_q.apply_matrix_right(m, group.inverse[g]))
            viol = float(np.abs(mg - conj).max())
            if viol > worst:
                worst, wg, ws = viol, g, s
    return MassMatrixReport(worst <= tol, worst, wg, ws, samples, tol)


@dataclass
class CandidateDMS:
    """Candidate symmetry: spatial isometry + joint permutation + body pairing.

    ``body_pairing[k] = i`` says body i, in the transformed configuration,
    plays the role of body k in the isometry-transformed world.
    """

    name: str
    isometry: np.ndarray
    joint_perm: GenPermMatrix
    body_pairing: dict[str, str]

    def __post_init__(self):
        self.isometry = np.asarray(self.isometry, dtype=float)
        if self.isometry.shape != (3, 3):
            raise ValueError(f"candidate {self.name!r}: isometry must be 3x3")
        if np.abs(self.isometry.T @ self.isometry - np.eye(3)).max() > 1e-9:
            raise ValueError(f"candidate {self.name!r}: isometry is not orthogonal")
        det = float(np.linalg.det(self.isometry))
        if abs(abs(det) - 1.0) > 1e-9:
            raise ValueError(f"candidate {self.name!r}: |det| must be 1")
        self.det = 1 if det > 0 else -1

    def validate_against(self, tree: KinematicTree) -> None:
        if self.joint_perm.dim != tree.nj:
            raise DimMismatch(
                f"candidate {self.name!r}: joint permutation dim {self.joint_perm.dim}, "
                f"tree has nj = {tree.nj}"
            )
        names = set(tree.body_index)
        if set(self.body_pairing) != names or set(self.body_pairing.values()) != names:
            raise ValueError(f"candidate {self.name!r}: body pairing is not a bijection on bodies")

    def config_action(self, tree: KinematicTree, q: np.ndarray) -> np.ndarray:
        rot, pos, qjs = split_config(tree, q)
        qjs_t = self.joint_perm.apply(qjs) if tree.nj else qjs
        if not tree.floating:
            return qjs_t
        r = self.isometry
        return merge_config(tree, r @ rot @ r.T, r @ pos, qjs_t)

    def velocity_matrix(self, tree: KinematicTree) -> np.ndarray:
        t = np.zeros((tree.nv, tree.nv))
        off = 0
        if tree.floating:
            t[0:3, 0:3] = self.isometry
            t[3:6, 3:6] = self.det * self.isometry
            off = 6
        if tree.nj:
            t[off:, off:] = self.joint_perm.as_dense()
        return t


@dataclass
class CandidateReport:
    name: str
    passed: bool
    dynamic_violation: float
    kinematic_violation: float
    mass_matrix_violation: float
    samples: int
    tol: float
    failed_check: str | None = None
    worst_sample: int = -1

    def __str__(self) -> str:
        if self.passed:
            return (
                f"{self.name}: verified on {self.samples} samples "
                f"(dyn {self.dynamic_violation:.1e}, kin {self.kinematic_violation:.1e}, "
                f"mass {self.mass_matrix_violation:.1e}, tol {self.tol:.1e})"
            )
        worst = max(
            self.dynamic_violation, self.kinematic_violation, self.mass_matrix_violation
        )
        return (
            f"{self.name}: rejected: {self.failed_check} violation {worst:.3e} "
            f"at sample {self.worst_sample} (tol {self.tol:.1e})"
        )


@dataclass
class IdentifyReport:
    candidates: list[CandidateReport]
    verified: list[str]
    group: FiniteGroup
    joint_rep: Representation

    def __str__(self) -> str:
        lines = [str(c) for c in self.candidates]
        lines.append(f"verified candidates generate a group of order {self.group.order}")
        return "\n".join(lines)


def _candidate_violations(
    tree: KinematicTree, cand: CandidateDMS, qs: list[np.ndarray]
) -> tuple[float, float, float, int, str | None]:
    r = cand.isometry
    det_r = cand.det
    t = cand.velocity_matrix(tree)
    worst = {"dynamic": (0.0, -1), "kinematic": (0.0, -1), "mass_matrix": (0.0, -1)}

    def bump(check: str, value: float, sample: int):
        if value > worst[check][0]:
            worst[check] = (value, sample)

    for s, q in enumerate(qs):
        gq = cand.config_action(tree, q)
        kin_q = _kinematics(tree, q)
        kin_gq = _kinematics(tree, gq)
        jac_q = jacobians(tree, q)
        jac_gq = jacobians(tree, gq)
        for k_name, i_name in cand.body_pairing.items():
            bk = tree.body_index[k_name]
            bi = tree.body_index[i_name]
            bump("dynamic", abs(bk.mass - bi.mass), s)
            bump("dynamic", float(np.abs(r @ kin_q.com_world[k_name] - kin_gq.com_world[i_name]).max()), s)
            ik = kin_q.body_rot[k_name] @ bk.inertia @ kin_q.body_rot[k_name].T
            ii = kin_gq.body_rot[i_name] @ bi.inertia @ kin_gq.body_rot[i_name].T
            bump("dynamic", float(np.abs(r @ ik @ r.T - ii).max()), s)
            jp_k, jr_k = jac_q[k_name]
            jp_i, jr_i = jac_gq[i_name]
            bump("kinematic", float(np.abs(jp_i @ t - r @ jp_k).max()), s)
            bump("kinematic", float(np.abs(jr_i @ t - det_r * (r @ jr_k)).max()), s)
        mv = float(np.abs(mass_matrix(tree, gq) - t @ mass_matrix(tree, q) @ t.T).max())
        bump("mass_matrix", mv, s)
    dyn, kin, mm = worst["dynamic"], worst["kinematic"], worst["mass_matrix"]
    failed = None
    sample = -1
    for check in ("dynamic", "kinematic", "mass_matrix"):
        if worst[check][0] > 0 and (failed is None or worst[check][0] > worst[failed][0]):
            failed, sample = check, worst[check][1]
    return dyn[0], kin[0], mm[0], sample, failed


def identify_dms(
    tree: KinematicTree,
    candidates: list[CandidateDMS],
    samples: int = 100,
    tol: float = 1e-8,
    rng_seed=0,
    order_cap: int = 1024,
) -> IdentifyReport:
    """Certify candidate symmetries numerically and close the verified set.

    Per candidate this checks, on sampled configurations: dynamic-parameter
    symmetry (paired masses, CoM positions and world inertias map under the
    isometry), the kinematic Jacobian constraints (position Jacobians map
    under the isometry, orientation Jacobians under its det-weighted form),
    and full mass-matrix equivariance.  Sampling rejects soundly but accepts
    only probabilistically: reports say "verified on N samples", not proven.
    """
    rng = np.random.default_rng(rng_seed) if not isinstance(rng_seed, np.random.Generator) else rng_seed
    qs = [random_config(tree, rng) for _ in range(samples)]
    reports = []
    verified = []
    for cand in candidates:
        cand.validate_against(tree)
        dyn, kin, mm, sample, failed = _candidate_violations(tree, cand, qs)
        passed = max(dyn, kin, mm) <= tol
        reports.append(
            CandidateReport(
                cand.name, passed, dyn, kin, mm, samples, tol,
                None if passed else failed, -1 if passed else sample,
            )
        )
        if passed:
            verified.append(cand)
    gens = [c.joint_perm for c in verified]
    if not gens:
        gens = [GenPermMatrix.identity(max(tree.nj, 1))]
    group, rep = group_closure(gens, order_cap=order_cap)
    return IdentifyReport(reports, [c.name for c in verified], group, rep)


def _parse_body(entry: dict) -> RigidBody:
    try:
        name = entry["name"]
        mass = float(entry["mass"])
        com = np.asarray(entry["com"], dtype=float)
        upper = [float(v) for v in entry["inertia"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"body entry {entry.get('name', '?')!r}: {exc}") from exc
    if com.shape != (3,):
        raise ParseError(f"body {name!r}: com must have 3 entries")
    if len(upper) != 6:
        raise ParseError(f"body {name!r}: inertia needs 6 upper-triangular entries")
    ixx, ixy, ixz, iyy, iyz, izz = upper
    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    return RigidBody(name, mass, com, inertia)


def _parse_joint(entry: dict) -> Joint:
    try:
        name = entry["name"]
        rpy = [float(v) for v in entry.get("origin_rpy", (0.0, 0.0, 0.0))]
        xyz = np.asarray(entry.get("origin_xyz", (0.0, 0.0, 0.0)), dtype=float)
        axis = np.asarray(entry.get("axis", (0.0, 0.0, 1.0)), dtype=float)
        return Joint(name, entry["parent"], entry["child"], entry["type"], rpy_matrix(*rpy), xyz, axis)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"joint entry {entry.get('name', '?')!r}: {exc}") from exc


def load_robot(path: str) -> KinematicTree:
    """Load the JSON robot description; see the README for the layout."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    try:
        base = data["base"]
        bodies = [_parse_body(b) for b in data["bodies"]]
        joints = [_parse_joint(j) for j in data.get("joints", [])]
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    return KinematicTree(base, bodies, joints)


def tree_from_dict(data: dict) -> KinematicTree:
    bodies = [_parse_body(b) for b in data["bodies"]]
    joints = [_parse_joint(j) for j in data.get("joints", [])]
    return KinematicTree(data["base"], bodies, joints)


def load_candidates(path: str, tree: KinematicTree) -> list[CandidateDMS]:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    out = []
    for entry in data.get("candidates", []):
        try:
            perm = entry["joint_perm"]
            cand = CandidateDMS(
                entry.get("name", f"candidate{len(out)}"),
                np.asarray(entry["isometry"], dtype=float),
                GenPermMatrix.from_permutation(perm["target"], perm.get("sign")),
                dict(entry["body_pairing"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: candidate {entry.get('name', '?')!r}: {exc}") from exc
        cand.validate_against(tree)
        out.append(cand)
    return out
