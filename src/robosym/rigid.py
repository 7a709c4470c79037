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

from typing import NamedTuple

import numpy as np

from .errors import BadInertia, DimMismatch, ParseError, TreeCycle, check_finite, check_isometry, parse_int_list
from .fileio import errors_named, json_input
from .groups import FiniteGroup, Representation, _apply_signed, group_closure, signed_permutation

JOINT_TYPES = ("revolute", "prismatic", "fixed")

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

KIN_BLOCK = 128  # configurations per kinematics pass of the sampled check: bounds its memory
CANDIDATE_TOL = 1e-9  # entrywise |R^T R - I| allowed in a candidate's isometry


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcast: the products and differences
    np.cross forms, so bit-identical, without its per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _rodrigues(k: np.ndarray, k2: np.ndarray, angle: float) -> np.ndarray:
    """I + sin(angle) K + (1 - cos(angle)) K^2 with K = skew(axis), K2 = K @ K."""
    return _EYE3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * k2


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    rx, ry, rz = (_rodrigues(k, k @ k, angle) for k, angle in zip(map(skew, _EYE3), (roll, pitch, yaw)))
    return rz @ ry @ rx


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    # uniform over SO(3) via a normalized random quaternion
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


class RigidBody:
    def __init__(self, name: str, mass: float, com: np.ndarray, inertia: np.ndarray):
        self.name, self.mass, self.com = name, mass, com
        self.inertia = inertia  # about the CoM, body frame

    def validate(self) -> None:
        if self.mass < 0:
            raise BadInertia(f"body {self.name!r}: negative mass")
        if self.inertia.shape != (3, 3):
            raise BadInertia(f"body {self.name!r}: inertia must be 3x3")
        if np.abs(self.inertia - self.inertia.T).max() > 1e-12:
            raise BadInertia(f"body {self.name!r}: inertia is not symmetric")
        if np.linalg.eigvalsh(self.inertia).min() < -1e-12:
            raise BadInertia(f"body {self.name!r}: inertia is not positive semidefinite")


class Joint:
    def __init__(self, name: str, parent: str, child: str, jtype: str, origin_rot: np.ndarray,
                 origin_xyz: np.ndarray, axis: np.ndarray):
        self.name, self.parent, self.child, self.jtype = name, parent, child, jtype
        self.origin_rot, self.origin_xyz, self.axis = origin_rot, origin_xyz, axis

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
        # (joint, parent id, child id, DoF or -1, (K, K @ K) if revolute else None), parents first
        self._walk = []
        # reachability doubles as the acyclicity check
        reached = set()
        stack = [self.root]
        while stack:
            name = stack.pop()
            reached.add(name)
            for j in children[name]:
                parent, child = self._body_id[name], self._body_id[j.child]
                k = self.dof_index.get(j.name, -1)
                axis_skew = skew(j.axis)
                skews = (axis_skew, axis_skew @ axis_skew) if j.jtype == "revolute" else None
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


def split_config(tree: KinematicTree, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base rotation, base position, joint coordinates) of q, or of a stack (..., nq)."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (tree.nq,):
        raise DimMismatch(f"configuration has length {q.shape[-1:]}, tree expects {tree.nq}")
    if tree.floating:
        return q[..., :9].reshape(*q.shape[:-1], 3, 3), q[..., 9:12], q[..., 12:]
    return np.broadcast_to(_EYE3, (*q.shape[:-1], 3, 3)), np.zeros((*q.shape[:-1], 3)), q


def merge_config(tree: KinematicTree, rot: np.ndarray, pos: np.ndarray, qjs: np.ndarray) -> np.ndarray:
    """The inverse of ``split_config``, for one configuration or a stack."""
    qjs = np.asarray(qjs, dtype=float)
    if tree.floating:
        rot = np.asarray(rot, float)
        return np.concatenate([rot.reshape(*rot.shape[:-2], 9), np.asarray(pos, float), qjs], axis=-1)
    return qjs


def random_config(tree: KinematicTree, rng: np.random.Generator) -> np.ndarray:
    qjs = np.empty(tree.nj)
    for i, j in enumerate(tree.actuated):
        qjs[i] = rng.uniform(-np.pi, np.pi) if j.jtype == "revolute" else rng.uniform(-0.5, 0.5)
    if not tree.floating:
        return qjs
    return merge_config(tree, random_rotation(rng), rng.uniform(-1.0, 1.0, 3), qjs)


def _sample_configs(tree: KinematicTree, samples: int, rng_seed) -> np.ndarray:
    """(samples, nq) configurations drawn in order from one rng stream."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    return np.array([random_config(tree, rng) for _ in range(samples)])


class _Kinematics(NamedTuple):
    """Per-body arrays of a pass over S configurations, bodies in declaration order."""

    rot: np.ndarray  # (S, B, 3, 3) world orientation of each body frame
    pos: np.ndarray  # (S, B, 3) world position of each body frame
    com: np.ndarray  # (S, B, 3) world CoM
    inertia: np.ndarray  # (S, B, 3, 3) world inertia about the CoM
    jp: np.ndarray  # (S, B, 3, nv) CoM position Jacobian J_P
    jr: np.ndarray  # (S, B, 3, nv) orientation Jacobian J_R


def _kinematics(tree: KinematicTree, q: np.ndarray) -> _Kinematics:
    """The one kinematics pass, over a stack ``q`` (S, nq): a walk, parent
    before child, places the bodies and joint axes of all S configurations at
    once; a Jacobian column (axis x lever arm if revolute, the axis if
    prismatic) is masked to the bodies below its joint.  A configuration's
    arrays are bit for bit those of a pass of its own."""
    rot0, pos0, qjs = split_config(tree, q)
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
            rot[:, child] = r_pre @ _rodrigues(*skews, qjs[:, k, None, None])
        else:
            pos[:, child] = p_pre + axes[:, k] * qjs[:, k, None]
    com = pos + (rot @ tree._com[:, :, None])[..., 0]
    inertia = rot @ tree._inertia @ rot.swapaxes(-1, -2)
    # the joint columns (S, B, nj, 3), built in place: they are a pass's largest temporaries
    on_path, revolute, axes = tree._on_path[:, :, None], tree._revolute[:, None], axes[:, None]
    cols = _cross(axes, com[:, :, None] - points[:, None])
    np.copyto(cols, axes, where=~revolute)
    cols *= on_path
    jp, jr = np.zeros((2, ns, nb, 3, tree.nv))
    if tree.floating:
        # base twist (v, omega): J_P = [I, -[c - p0]x], J_R = [0, I]
        jp[..., 0:3] = _EYE3
        jp[..., 3:6] = _cross(_EYE3, (com - pos0[:, None])[..., None, :]).swapaxes(-1, -2)
        jr[..., 3:6] = _EYE3
    off = tree.nv - tree.nj
    jp[..., off:] = cols.swapaxes(-1, -2)
    jr[..., off:] = np.multiply(axes * revolute, on_path, out=cols).swapaxes(-1, -2)
    return _Kinematics(rot, pos, com, inertia, jp, jr)


def _kinematics_at(tree: KinematicTree, q: np.ndarray) -> _Kinematics:
    """The pass at one configuration ``q``: a stack of one, unstacked."""
    return _Kinematics(*(a[0] for a in _kinematics(tree, np.reshape(q, (1, -1)))))


def _mass_matrix(tree: KinematicTree, kin: _Kinematics) -> np.ndarray:
    """sum_k m J_P^T J_P + J_R^T I_world J_R for each configuration of a pass
    (stacked or not), added one body at a time in body order: another order
    moves the last bits and can change which tied sample a report names, and
    a stack of every body's term would hold S B nv^2 floats at once."""
    m = None
    for b, mass in enumerate(tree._mass):
        jp, jr = kin.jp[..., b, :, :], kin.jr[..., b, :, :]
        term = jp.swapaxes(-1, -2) @ jp
        term *= mass
        term += jr.swapaxes(-1, -2) @ kin.inertia[..., b, :, :] @ jr
        m = term if m is None else np.add(m, term, out=m)
    return m


def forward_kinematics(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """World pose (rotation, position) of every body frame."""
    kin = _kinematics_at(tree, q)
    return {b.name: (kin.rot[i], kin.pos[i]) for i, b in enumerate(tree.bodies)}


def jacobians(tree: KinematicTree, q: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Geometric CoM Jacobians (J_P, J_R), each 3 x nv, per body."""
    kin = _kinematics_at(tree, q)
    return {b.name: (kin.jp[i], kin.jr[i]) for i, b in enumerate(tree.bodies)}


def mass_matrix(tree: KinematicTree, q: np.ndarray) -> np.ndarray:
    """M(q) = sum_k m J_P^T J_P + J_R^T I_world J_R, symmetric PSD, from one pass."""
    return _mass_matrix(tree, _kinematics_at(tree, q))


def com_momentum(tree: KinematicTree, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Aggregate (linear, angular) momentum about the total center of mass."""
    dq = np.asarray(dq, dtype=float)
    if dq.shape != (tree.nv,):
        raise DimMismatch(f"velocity has length {dq.shape}, tree expects {tree.nv}")
    kin = _kinematics_at(tree, q)
    total_mass = tree._mass.sum()
    if total_mass <= 0:
        raise ValueError("total mass must be positive for CoM momentum")
    c = tree._mass @ kin.com / total_mass
    p = tree._mass[:, None] * (kin.jp @ dq)
    h_ang = _cross(kin.com - c, p) + (kin.inertia @ (kin.jr @ dq)[:, :, None])[:, :, 0]
    return np.concatenate([p.sum(axis=0), h_ang.sum(axis=0)])


class MassMatrixReport(NamedTuple):
    passed: bool
    max_violation: float
    worst_element: int
    worst_sample: int
    samples: int
    tol: float

    def __str__(self) -> str:
        status = "verified" if self.passed else "REJECTED"
        return (f"{status} on {self.samples} samples: max violation {self.max_violation:.3e} "
                f"(tol {self.tol:.1e}) at element {self.worst_element}, sample {self.worst_sample}")


def check_mass_matrix_equivariance(tree: KinematicTree, rep_q: Representation, samples: int = 100,
                                   tol: float = 1e-8, rng_seed=0) -> MassMatrixReport:
    """Test M(rho(g) q) == rho(g) M(q) rho(g)^-1 on sampled configurations.

    This is the "M" term of ``identify_dms``'s sampled check, with every
    group element as a candidate: the identity isometry and body pairing,
    and the element's signed permutation of the joints.  Only meaningful
    for trees whose configuration is a plain vector (fixed base);
    floating-base trees go through ``identify_dms``, which knows how to act
    on the base pose.  The report names the first worst (sample, element).
    """
    if tree.floating:
        raise DimMismatch("floating-base configurations are not plain vectors; "
                          "use identify_dms with candidate isometries instead")
    if rep_q.dim != tree.nv:
        raise DimMismatch(f"representation dim {rep_q.dim}, tree has {tree.nv} DoF")
    same = {b.name: b.name for b in tree.bodies}
    elements = [CandidateDMS(f"element {g}", _EYE3, (rep_q.targets[g], rep_q.signs[g]), same)
                for g in rep_q.group.elements()]
    viol = _sampled_violations(tree, elements, samples, rng_seed)[:, :, _TERMS.index("M"), 0].T
    s, g = np.unravel_index(np.argmax(viol), viol.shape)
    worst = float(viol[s, g])
    return MassMatrixReport(worst <= tol, worst, int(g), int(s), samples, tol)


class CandidateDMS:
    """Candidate symmetry: spatial isometry + joint permutation + body pairing.

    ``joint_perm`` is a signed permutation of the actuated DoF, stored as
    checked (target, sign) arrays.  ``body_pairing[k] = i`` says body i, in
    the transformed configuration, plays the role of body k in the
    isometry-transformed world.
    """

    def __init__(self, name: str, isometry: np.ndarray, joint_perm: tuple[np.ndarray, np.ndarray],
                 body_pairing: dict[str, str]):
        self.name, self.body_pairing = name, body_pairing
        self.joint_perm = signed_permutation(*joint_perm)
        self.isometry = np.asarray(isometry, dtype=float)
        if self.isometry.shape != (3, 3):
            raise ValueError("isometry must be 3x3")
        self.det = check_isometry("'isometry'", self.isometry, CANDIDATE_TOL)

    def validate_against(self, tree: KinematicTree) -> None:
        if len(self.joint_perm[0]) != tree.nj:
            raise DimMismatch(f"candidate {self.name!r}: joint permutation dim "
                              f"{len(self.joint_perm[0])}, tree has nj = {tree.nj}")
        names = set(tree.body_index)
        if set(self.body_pairing) != names or set(self.body_pairing.values()) != names:
            raise ValueError(f"candidate {self.name!r}: body pairing is not a bijection on bodies")

    def config_action(self, tree: KinematicTree, q: np.ndarray) -> np.ndarray:
        """g.q for one configuration or a stack (..., nq) of them."""
        rot, pos, qjs = split_config(tree, q)
        qjs_t = _apply_signed(*self.joint_perm, qjs)
        if not tree.floating:
            return qjs_t
        r = self.isometry
        return merge_config(tree, r @ rot @ r.T, (r @ pos[..., None])[..., 0], qjs_t)


class CandidateReport(NamedTuple):
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
            return (f"{self.name}: verified on {self.samples} samples "
                    f"(dyn {self.dynamic_violation:.1e}, kin {self.kinematic_violation:.1e}, "
                    f"mass {self.mass_matrix_violation:.1e}, tol {self.tol:.1e})")
        worst = max(self.dynamic_violation, self.kinematic_violation, self.mass_matrix_violation)
        return (f"{self.name}: rejected: {self.failed_check} violation {worst:.3e} "
                f"at sample {self.worst_sample} ({self.failed_where}, tol {self.tol:.1e})")


class IdentifyReport(NamedTuple):
    candidates: list[CandidateReport]
    verified: list[str]
    group: FiniteGroup
    joint_rep: Representation
    sizes: dict[str, int]  # what the check's cost grows with

    def __str__(self) -> str:
        lines = [str(c) for c in self.candidates]
        lines.append(f"verified candidates generate a group of order {self.group.order}")
        return "\n".join(lines)


# the terms a failure location names, and the terms of each check
_TERMS = ("mass", "CoM", "inertia", "J_P", "J_R", "M")
_CHECKS = {"dynamic": slice(0, 3), "kinematic": slice(3, 5), "mass_matrix": slice(5, 6)}


def _block_samples(candidates: list[CandidateDMS]) -> int:
    """Samples per pass: each brings its q and every candidate's g.q."""
    return max(1, KIN_BLOCK // (1 + len(candidates)))


def _sampled_violations(tree: KinematicTree, candidates: list[CandidateDMS], samples: int,
                        rng_seed) -> np.ndarray:
    """(candidate, sample, term, body) violations of every term of ``_TERMS``:
    body k at q against body ``pair[k]`` at g.q, with T(g) g's action on velocities.
    The samples go in blocks of ``_block_samples``; one kinematics pass covers
    a block's configurations q and every candidate's g.q."""
    for cand in candidates:
        cand.validate_against(tree)
    nc, nb, nv = len(candidates), len(tree.bodies), tree.nv
    configs = _sample_configs(tree, samples, rng_seed)
    pairs = np.array([[tree._body_id[c.body_pairing[b.name]] for b in tree.bodies]
                      for c in candidates], dtype=np.intp).reshape(nc, nb)
    # per candidate, shaped to broadcast over (sample, body)
    r = np.array([c.isometry for c in candidates]).reshape(nc, 1, 1, 3, 3)
    det_r = np.array([c.det for c in candidates]).reshape(nc, 1, 1, 1, 1) * r  # J_R maps under det(R) R
    # T(g) on velocities: R on a floating base's v, det(R) R on its omega, then
    # the signed joint permutation, T[off + target[i], off + i] = sign[i]
    t, off = np.zeros((nc, nv, nv)), nv - tree.nj
    if tree.floating:
        t[:, 0:3, 0:3], t[:, 3:6, 3:6] = r[:, 0, 0], det_r[:, 0, 0]
    target, sign = np.array([c.joint_perm for c in candidates], np.intp).reshape(nc, 2, tree.nj).swapaxes(0, 1)
    t[np.arange(nc)[:, None], off + target, off + np.arange(tree.nj)] = sign
    t = t.reshape(nc, 1, nv, nv)
    viol = np.empty((nc, samples, len(_TERMS), nb))
    viol[:, :, 0] = np.abs(tree._mass - tree._mass[pairs])[:, None]  # does not depend on the sample

    def gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """max |a - b| per (candidate, sample, body), worked out in the temporary a"""
        return np.abs(np.subtract(a, b, out=a), out=a).max(axis=tuple(range(3, a.ndim)))

    step = _block_samples(candidates)
    for start in range(0, samples, step):
        q = configs[start:start + step]
        ns = len(q)
        kin = _kinematics(tree, np.concatenate([q, *(c.config_action(tree, q) for c in candidates)]))
        m = _mass_matrix(tree, kin).reshape(1 + nc, ns, nv, nv)
        block = viol[:, start:start + ns]
        block[:, :, 5] = np.abs(m[1:] - t @ m[0] @ t.swapaxes(-1, -2)).max(axis=(-1, -2))[..., None]
        del m  # freed before the larger temporaries of the Jacobian terms
        kin = _Kinematics(*(a.reshape(1 + nc, ns, *a.shape[1:]) for a in kin))
        # body pair[k] at g.q in place k: (candidate, sample, body, ...)
        paired = (np.arange(nc)[:, None, None] + 1, np.arange(ns)[:, None], pairs[:, None, :])
        at_q = _Kinematics(*(a[0] for a in kin))
        block[:, :, 1] = gap(at_q.com @ r[:, 0].swapaxes(-1, -2), kin.com[paired])
        block[:, :, 2] = gap(r @ at_q.inertia @ r.swapaxes(-1, -2), kin.inertia[paired])
        block[:, :, 3] = gap(kin.jp[paired] @ t[:, None], r @ at_q.jp)
        block[:, :, 4] = gap(kin.jr[paired] @ t[:, None], det_r @ at_q.jr)
    return viol


def _candidate_report(tree: KinematicTree, cand: CandidateDMS, viol: np.ndarray, tol: float) -> CandidateReport:
    """Report from a candidate's (samples, terms, bodies) violations."""
    worst = {check: float(viol[:, terms].max()) for check, terms in _CHECKS.items()}
    if max(worst.values()) <= tol:
        return CandidateReport(cand.name, True, *worst.values(), len(viol), tol)
    # the largest check, then the first sample, term and body at its maximum
    check = max(worst, key=worst.get)
    v = viol[:, _CHECKS[check]]
    s, term, k = np.unravel_index(np.argmax(v), v.shape)
    name = tree.bodies[k].name
    term_name = _TERMS[_CHECKS[check].start + term]
    where = term_name if check == "mass_matrix" else f"{term_name} of body {name} vs {cand.body_pairing[name]}"
    return CandidateReport(cand.name, False, *worst.values(), len(viol), tol, check, int(s), where)


def identify_dms(tree: KinematicTree, candidates: list[CandidateDMS], samples: int = 100,
                 tol: float = 1e-8, rng_seed=0, order_cap: int = 1024) -> IdentifyReport:
    """Certify candidate symmetries numerically and close the verified set.

    Per candidate this checks, on sampled configurations: dynamic-parameter
    symmetry (paired masses, CoM positions and world inertias map under the
    isometry), the kinematic Jacobian constraints (position Jacobians map
    under the isometry, orientation Jacobians under its det-weighted form),
    and full mass-matrix equivariance.  Sampling rejects soundly but accepts
    only probabilistically: reports say "verified on N samples", not proven.
    """
    viol = _sampled_violations(tree, candidates, samples, rng_seed)
    sizes = {"bodies": len(tree.bodies), "nv": tree.nv, "samples": samples, "candidates": len(candidates),
             "configurations": samples * (1 + len(candidates)),
             "kinematics_passes": (samples - 1) // _block_samples(candidates) + 1}
    reports = [_candidate_report(tree, *args, tol) for args in zip(candidates, viol)]
    verified = [c for c, report in zip(candidates, reports) if report.passed]
    gens = [c.joint_perm for c in verified] or [signed_permutation(range(tree.nj))]
    group, rep = group_closure([t for t, _ in gens], [s for _, s in gens], order_cap=order_cap)
    return IdentifyReport(reports, [c.name for c in verified], group, rep, sizes)


def _name_of(entry) -> str:
    return entry.get("name", "?") if isinstance(entry, dict) else "?"


def _parse_body(entry: dict) -> RigidBody:
    with errors_named(f"body entry {_name_of(entry)!r}"):
        name = entry["name"]
        mass = float(entry["mass"])
        com = np.asarray(entry["com"], dtype=float)
        upper = [float(v) for v in entry["inertia"]]
    if com.shape != (3,):
        raise ParseError(f"body {name!r}: com must have 3 entries")
    if len(upper) != 6:
        raise ParseError(f"body {name!r}: inertia needs 6 upper-triangular entries")
    check_finite(f"body {name!r}", mass=mass, com=com, inertia=upper)
    ixx, ixy, ixz, iyy, iyz, izz = upper
    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    return RigidBody(name, mass, com, inertia)


def _parse_joint(entry: dict) -> Joint:
    with errors_named(f"joint entry {_name_of(entry)!r}"):
        name = entry["name"]
        rpy = [float(v) for v in entry.get("origin_rpy", (0.0, 0.0, 0.0))]
        xyz = np.asarray(entry.get("origin_xyz", (0.0, 0.0, 0.0)), dtype=float)
        axis = np.asarray(entry.get("axis", (0.0, 0.0, 1.0)), dtype=float)
        parent, child, jtype = entry["parent"], entry["child"], entry["type"]
    for key, value in (("origin_rpy", rpy), ("origin_xyz", xyz), ("axis", axis)):
        if np.shape(value) != (3,):
            raise ParseError(f"joint {name!r}: {key!r} must have 3 entries")
    check_finite(f"joint {name!r}", origin_rpy=rpy, origin_xyz=xyz, axis=axis)
    return Joint(name, parent, child, jtype, rpy_matrix(*rpy), xyz, axis)


def tree_from_dict(data: dict) -> KinematicTree:
    """Build a tree from a parsed robot description; see the README for the layout."""
    with errors_named("missing or malformed 'base', 'bodies' or 'joints'"):
        base, bodies, joints = data["base"], list(data["bodies"]), list(data.get("joints", []))
    return KinematicTree(base, [_parse_body(b) for b in bodies], [_parse_joint(j) for j in joints])


def load_robot(path: str) -> KinematicTree:
    """Load the JSON robot description; see the README for the layout."""
    with json_input(path) as data:
        return tree_from_dict(data)


def load_candidates(path: str, tree: KinematicTree) -> list[CandidateDMS]:
    with json_input(path) as data:
        entries = data.get("candidates", []) if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ParseError("expected an object with a 'candidates' list")
        out = []
        for entry in entries:
            with errors_named(f"candidate {_name_of(entry)!r}"):
                perm = entry["joint_perm"]
                sign = perm.get("sign")
                cand = CandidateDMS(
                    entry.get("name", f"candidate{len(out)}"),
                    np.asarray(entry["isometry"], dtype=float),
                    (parse_int_list("target", perm["target"]),
                     None if sign is None else parse_int_list("sign", sign)),
                    dict(entry["body_pairing"]),
                )
            cand.validate_against(tree)
            out.append(cand)
        return out
