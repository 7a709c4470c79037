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
from typing import NamedTuple

import numpy as np

from .errors import BadInertia, DimMismatch, ParseError, TreeCycle
from .groups import FiniteGroup, Representation, _apply_signed, act, group_closure, signed_permutation

JOINT_TYPES = ("revolute", "prismatic", "fixed")

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcast: the products and differences
    np.cross forms, so bit-identical, without its per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    k = skew(axis)
    return _rodrigues(k, k @ k, angle)


def _rodrigues(k: np.ndarray, k2: np.ndarray, angle: float) -> np.ndarray:
    """I + sin(angle) K + (1 - cos(angle)) K^2 with K = skew(axis), K2 = K @ K."""
    return _EYE3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * k2


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
        self.actuated = [j for j in joints if j.actuated]
        self.dof_index = {j.name: i for i, j in enumerate(self.actuated)}
        # what _kinematics needs, computed once, per body in declaration order
        self._body_id = {b.name: i for i, b in enumerate(bodies)}
        self._mass = np.array([b.mass for b in bodies])
        self._com = np.array([b.com for b in bodies])
        self._inertia = np.array([b.inertia for b in bodies])
        self._revolute = np.array([j.jtype == "revolute" for j in self.actuated], dtype=bool)
        self._on_path = np.zeros((len(bodies), self.nj), dtype=bool)  # joint k is above body b
        # (joint, parent id, child id, DoF or -1, (K, K @ K) of a revolute axis
        # or None), parent before child
        self._walk = []
        # reachability doubles as the acyclicity check
        reached = set()
        stack = [self.root]
        while stack:
            name = stack.pop()
            if name in reached:
                raise TreeCycle(f"body {name!r} reached twice")
            reached.add(name)
            for j in children[name]:
                parent, child = self._body_id[name], self._body_id[j.child]
                k = self.dof_index.get(j.name, -1)
                skews = None
                if j.jtype == "revolute":
                    axis_skew = skew(j.axis)
                    skews = (axis_skew, axis_skew @ axis_skew)
                self._walk.append((j, parent, child, k, skews))
                self._on_path[child] = self._on_path[parent]
                if k >= 0:
                    self._on_path[child, k] = True
                stack.append(j.child)
        if reached != set(self.body_index):
            raise TreeCycle(f"unreachable bodies: {sorted(set(self.body_index) - reached)}")

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


def random_config(tree: KinematicTree, rng: np.random.Generator) -> np.ndarray:
    qjs = np.empty(tree.nj)
    for i, j in enumerate(tree.actuated):
        qjs[i] = rng.uniform(-np.pi, np.pi) if j.jtype == "revolute" else rng.uniform(-0.5, 0.5)
    if not tree.floating:
        return qjs
    return merge_config(tree, random_rotation(rng), rng.uniform(-1.0, 1.0, 3), qjs)


def _sample_configs(tree: KinematicTree, samples: int, rng_seed) -> list[np.ndarray]:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    return [random_config(tree, rng) for _ in range(samples)]


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


class _Kinematics(NamedTuple):
    """Per-body arrays of one kinematics pass, in body-declaration order."""

    rot: np.ndarray  # (B, 3, 3) world orientation of each body frame
    pos: np.ndarray  # (B, 3) world position of each body frame
    com: np.ndarray  # (B, 3) world CoM
    inertia: np.ndarray  # (B, 3, 3) world inertia about the CoM
    jp: np.ndarray  # (B, 3, nv) CoM position Jacobian J_P
    jr: np.ndarray  # (B, 3, nv) orientation Jacobian J_R


def _kinematics(tree: KinematicTree, q: np.ndarray) -> _Kinematics:
    """The one kinematics pass at ``q``: a walk, parent before child, places
    the bodies and joint axes; a Jacobian column (axis x lever arm if
    revolute, the axis if prismatic) is masked to the bodies below its joint.
    """
    rot0, pos0, qjs = split_config(tree, q)
    nb = len(tree.bodies)
    rot = np.empty((nb, 3, 3))
    pos = np.empty((nb, 3))
    root = tree._body_id[tree.root]
    rot[root], pos[root] = rot0, pos0
    axes, points = np.zeros((2, tree.nj, 3))
    for j, parent, child, k, skews in tree._walk:
        r_pre = rot[parent] @ j.origin_rot
        p_pre = pos[parent] + rot[parent] @ j.origin_xyz
        rot[child], pos[child] = r_pre, p_pre
        if k < 0:
            continue
        axes[k] = r_pre @ j.axis
        points[k] = p_pre
        if skews is not None:
            rot[child] = r_pre @ _rodrigues(*skews, qjs[k])
        else:
            pos[child] = p_pre + axes[k] * qjs[k]
    com = pos + (rot @ tree._com[:, :, None])[:, :, 0]
    inertia = rot @ tree._inertia @ rot.transpose(0, 2, 1)
    jp, jr = np.zeros((2, nb, 3, tree.nv))
    if tree.floating:
        # base twist (v, omega): J_P = [I, -[c - p0]x], J_R = [0, I]
        jp[:, :, 0:3] = np.eye(3)
        jp[:, :, 3:6] = _cross(np.eye(3), (com - pos0)[:, None, :]).transpose(0, 2, 1)
        jr[:, :, 3:6] = np.eye(3)
    off = tree.nv - tree.nj
    on_path = tree._on_path[:, :, None]
    revolute = tree._revolute[:, None]
    cols_p = np.where(revolute, _cross(axes, com[:, None, :] - points), axes)
    jp[:, :, off:] = (cols_p * on_path).transpose(0, 2, 1)
    jr[:, :, off:] = (axes * revolute * on_path).transpose(0, 2, 1)
    return _Kinematics(rot, pos, com, inertia, jp, jr)


def _mass_matrix(tree: KinematicTree, kin: _Kinematics) -> np.ndarray:
    """sum_k m J_P^T J_P + J_R^T I_world J_R, summed in body order: another order
    moves the last bits and can change which tied sample a report names."""
    jp_t, jr_t = kin.jp.transpose(0, 2, 1), kin.jr.transpose(0, 2, 1)
    return (tree._mass[:, None, None] * (jp_t @ kin.jp) + jr_t @ kin.inertia @ kin.jr).sum(axis=0)


def forward_kinematics(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """World pose (rotation, position) of every body frame."""
    kin = _kinematics(tree, q)
    return {b.name: (kin.rot[i], kin.pos[i]) for i, b in enumerate(tree.bodies)}


def jacobians(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Geometric CoM Jacobians (J_P, J_R), each 3 x nv, per body."""
    kin = _kinematics(tree, q)
    return {b.name: (kin.jp[i], kin.jr[i]) for i, b in enumerate(tree.bodies)}


def mass_matrix(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """M(q) = sum_k m J_P^T J_P + J_R^T I_world J_R, symmetric PSD, from one pass."""
    return _mass_matrix(tree, _kinematics(tree, q))


def kinetic_energy(tree: KinematicTree, q: np.ndarray, dq: np.ndarray) -> float:
    dq = np.asarray(dq, dtype=float)
    return 0.5 * float(dq @ mass_matrix(tree, q) @ dq)


def com_momentum(tree: KinematicTree, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Aggregate (linear, angular) momentum about the total center of mass."""
    dq = np.asarray(dq, dtype=float)
    if dq.shape != (tree.nv,):
        raise DimMismatch(f"velocity has length {dq.shape}, tree expects {tree.nv}")
    kin = _kinematics(tree, q)
    total_mass = tree._mass.sum()
    if total_mass <= 0:
        raise ValueError("total mass must be positive for CoM momentum")
    c = tree._mass @ kin.com / total_mass
    p = tree._mass[:, None] * (kin.jp @ dq)
    h_ang = _cross(kin.com - c, p) + (kin.inertia @ (kin.jr @ dq)[:, :, None])[:, :, 0]
    return np.concatenate([p.sum(axis=0), h_ang.sum(axis=0)])


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

    Samples are drawn as in ``identify_dms``; each M comes from one pass.
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
    group = rep_q.group
    worst, wg, ws = 0.0, group.identity, 0
    for s, q in enumerate(_sample_configs(tree, samples, rng_seed)):
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

    ``joint_perm`` is a signed permutation of the actuated DoF, stored as
    checked (target, sign) arrays.  ``body_pairing[k] = i`` says body i, in
    the transformed configuration, plays the role of body k in the
    isometry-transformed world.
    """

    name: str
    isometry: np.ndarray
    joint_perm: tuple[np.ndarray, np.ndarray]
    body_pairing: dict[str, str]

    def __post_init__(self):
        self.joint_perm = signed_permutation(*self.joint_perm)
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
        if len(self.joint_perm[0]) != tree.nj:
            raise DimMismatch(
                f"candidate {self.name!r}: joint permutation dim {len(self.joint_perm[0])}, "
                f"tree has nj = {tree.nj}"
            )
        names = set(tree.body_index)
        if set(self.body_pairing) != names or set(self.body_pairing.values()) != names:
            raise ValueError(f"candidate {self.name!r}: body pairing is not a bijection on bodies")

    def config_action(self, tree: KinematicTree, q: np.ndarray) -> np.ndarray:
        rot, pos, qjs = split_config(tree, q)
        qjs_t = _apply_signed(*self.joint_perm, qjs)
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
        t[off:, off:] = _apply_signed(*self.joint_perm, np.eye(tree.nj, dtype=np.int64)).T
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
    failed_where: str | None = None

    def __str__(self) -> str:
        if self.passed:
            return (
                f"{self.name}: verified on {self.samples} samples "
                f"(dyn {self.dynamic_violation:.1e}, kin {self.kinematic_violation:.1e}, "
                f"mass {self.mass_matrix_violation:.1e}, tol {self.tol:.1e})"
            )
        worst = max(self.dynamic_violation, self.kinematic_violation, self.mass_matrix_violation)
        return (
            f"{self.name}: rejected: {self.failed_check} violation {worst:.3e} "
            f"at sample {self.worst_sample} ({self.failed_where}, tol {self.tol:.1e})"
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


# the terms a failure location names, and the terms of each check
_TERMS = ("mass", "CoM", "inertia", "J_P", "J_R", "M")
_CHECKS = {"dynamic": slice(0, 3), "kinematic": slice(3, 5), "mass_matrix": slice(5, 6)}


def _violations(tree: KinematicTree, cand: CandidateDMS, pair: np.ndarray, t: np.ndarray,
                q: np.ndarray, at_q: _Kinematics, m_q: np.ndarray) -> np.ndarray:
    """Per-body violations of the terms after "mass" at one sample: body k at
    q against body ``pair[k]`` at g.q, with ``t`` the velocity matrix of g."""
    r = cand.isometry
    at_gq = _kinematics(tree, cand.config_action(tree, q))

    def gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # max |a - b| per body
        return np.abs(a - b).reshape(len(a), -1).max(axis=1)

    return np.stack([
        gap(at_q.com @ r.T, at_gq.com[pair]),
        gap(r @ at_q.inertia @ r.T, at_gq.inertia[pair]),
        gap(at_gq.jp[pair] @ t, r @ at_q.jp),
        gap(at_gq.jr[pair] @ t, cand.det * (r @ at_q.jr)),
        np.full(len(pair), np.abs(_mass_matrix(tree, at_gq) - t @ m_q @ t.T).max()),
    ])


def _candidate_report(
    tree: KinematicTree, cand: CandidateDMS, pair: np.ndarray, viol: np.ndarray, tol: float
) -> CandidateReport:
    """Report from a candidate's (samples, terms, bodies) violations."""
    viol[:, 0] = np.abs(tree._mass - tree._mass[pair])  # does not depend on the sample
    worst = {check: float(viol[:, terms].max()) for check, terms in _CHECKS.items()}
    report = CandidateReport(cand.name, max(worst.values()) <= tol, *worst.values(), len(viol), tol)
    if not report.passed:
        # the largest check, then the first sample, term and body at its maximum
        check = max(worst, key=worst.get)
        v = viol[:, _CHECKS[check]]
        s, term, k = np.unravel_index(np.argmax(v), v.shape)
        name = tree.bodies[k].name
        term_name = _TERMS[_CHECKS[check].start + term]
        where = f"{term_name} of body {name} vs {cand.body_pairing[name]}"
        report.failed_check, report.worst_sample = check, int(s)
        report.failed_where = term_name if check == "mass_matrix" else where
    return report


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
    Each sample's kinematics pass is shared by all candidates; a candidate
    adds one pass per transformed sample.
    """
    for cand in candidates:
        cand.validate_against(tree)
    pairs = [np.array([tree._body_id[c.body_pairing[b.name]] for b in tree.bodies]) for c in candidates]
    ts = [c.velocity_matrix(tree) for c in candidates]
    viol = np.zeros((len(candidates), samples, len(_TERMS), len(tree.bodies)))
    for s, q in enumerate(_sample_configs(tree, samples, rng_seed)):
        at_q = _kinematics(tree, q)
        m_q = _mass_matrix(tree, at_q)
        for c, (cand, pair, t) in enumerate(zip(candidates, pairs, ts)):
            viol[c, s, 1:] = _violations(tree, cand, pair, t, q, at_q, m_q)
    reports = [_candidate_report(tree, *args, tol) for args in zip(candidates, pairs, viol)]
    verified = [c for c, report in zip(candidates, reports) if report.passed]
    gens = [c.joint_perm for c in verified] or [signed_permutation(range(tree.nj))]
    group, rep = group_closure([t for t, _ in gens], [s for _, s in gens], order_cap=order_cap)
    return IdentifyReport(reports, [c.name for c in verified], group, rep)


def _name_of(entry) -> str:
    return entry.get("name", "?") if isinstance(entry, dict) else "?"


def _parse_body(entry: dict) -> RigidBody:
    try:
        name = entry["name"]
        mass = float(entry["mass"])
        com = np.asarray(entry["com"], dtype=float)
        upper = [float(v) for v in entry["inertia"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"body entry {_name_of(entry)!r}: {exc}") from exc
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
        raise ParseError(f"joint entry {_name_of(entry)!r}: {exc}") from exc


def tree_from_dict(data: dict) -> KinematicTree:
    """Build a tree from a parsed robot description; see the README for the layout."""
    try:
        base = data["base"]
        bodies = [_parse_body(b) for b in data["bodies"]]
        joints = [_parse_joint(j) for j in data.get("joints", [])]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed 'base', 'bodies' or 'joints': {exc}") from exc
    return KinematicTree(base, bodies, joints)


def load_robot(path: str) -> KinematicTree:
    """Load the JSON robot description; see the README for the layout."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return tree_from_dict(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_candidates(path: str, tree: KinematicTree) -> list[CandidateDMS]:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    entries = data.get("candidates", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ParseError(f"{path}: expected an object with a 'candidates' list")
    out = []
    for entry in entries:
        try:
            perm = entry["joint_perm"]
            cand = CandidateDMS(
                entry.get("name", f"candidate{len(out)}"),
                np.asarray(entry["isometry"], dtype=float),
                (perm["target"], perm.get("sign")),
                dict(entry["body_pairing"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: candidate {_name_of(entry)!r}: {exc}") from exc
        cand.validate_against(tree)
        out.append(cand)
    return out
