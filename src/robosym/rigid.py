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

import math
from typing import NamedTuple

import numpy as np

from .errors import (BadInertia, DimMismatch, ParseError, TreeCycle, check_finite, check_isometry, parse_float,
                     parse_int_list)
from .fileio import errors_named, json_input
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Representation, direct_sum, group_closure, signed_permutation

JOINT_TYPES = ("revolute", "prismatic", "fixed")

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

KIN_BLOCK = 128  # configurations per kinematics pass of the sampled check: bounds its memory
CANDIDATE_TOL = 1e-9  # entrywise |R^T R - I| allowed in a candidate's isometry
VALUE_CAP = 1e50  # |entry| of a body's mass, com and inertia and a joint's origin_xyz: M's products stay finite


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _rodrigues(k: np.ndarray, k2: np.ndarray, angle: float) -> np.ndarray:
    """I + sin(angle) K + (1 - cos(angle)) K^2 with K = skew(axis), K2 = K @ K."""
    return _EYE3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * k2


_AXIS_SKEWS = [(k, k @ k) for k in map(skew, _EYE3)]  # K and K @ K of the x, y and z axes


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    rx, ry, rz = (_rodrigues(*skews, angle) for skews, angle in zip(_AXIS_SKEWS, (roll, pitch, yaw)))
    return rz @ ry @ rx


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    # uniform over SO(3) via a normalized random quaternion
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q.tolist()  # float arithmetic, bit for bit that of numpy scalars but faster
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
        self.base, self.bodies, self.joints = base, bodies, joints
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
            if j.actuated and abs(math.hypot(*j.axis) - 1.0) > 1e-12:  # hypot: no overflow near the float max
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
        self._q_range = np.where(self._revolute, np.pi, 0.5)  # a joint is drawn from (-range, range)
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
        self._path_pairs = np.nonzero(self._on_path)  # (bodies, joints): the Jacobian columns not always 0

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
    # low + (high - low) * u, as Generator.uniform forms it, without its checks of the bounds
    qjs = -tree._q_range + 2 * tree._q_range * rng.random(tree._q_range.size)
    if not tree.floating:
        return qjs
    return merge_config(tree, random_rotation(rng), -1.0 + 2.0 * rng.random(3), qjs)


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
    once; a Jacobian column (axis x lever arm if revolute, the axis if prismatic)
    is built only for the bodies below its joint (the tree's path pairs), 0
    elsewhere.  A configuration's arrays are bit for bit those of a pass of its own."""
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
    jp, jr = np.zeros((2, ns, nb, 3, tree.nv))
    if tree.floating:
        # base twist (v, omega): J_P = [I, -[d]x] with d = c - p0, J_R = [0, I]
        d = com - pos0[:, None]
        jp[..., 0:3] = jr[..., 3:6] = _EYE3
        jp[..., 1, 3], jp[..., 2, 3], jp[..., 0, 4] = -d[..., 2], d[..., 1], d[..., 2]
        jp[..., 2, 4], jp[..., 0, 5], jp[..., 1, 5] = -d[..., 0], -d[..., 1], d[..., 0]
    # column off + k of body b, for each path pair (b, k), written as a row of J^T
    body, k = tree._path_pairs
    rev, col, axis = tree._revolute[k], tree.nv - tree.nj + k, axes[:, k]
    jr.swapaxes(-1, -2)[:, body[rev], col[rev]] = axis[:, rev]
    axis[:, rev] = np.cross(axis[:, rev], com[:, body[rev]] - points[:, k[rev]])
    jp.swapaxes(-1, -2)[:, body, col] = axis
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
    h_ang = np.cross(kin.com - c, p) + (kin.inertia @ (kin.jr @ dq)[:, :, None])[:, :, 0]
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
    same = np.broadcast_to(np.arange(len(tree.bodies)), (rep_q.group.order, len(tree.bodies)))
    r = np.broadcast_to(_EYE3, (rep_q.group.order, 3, 3))
    best = _sampled_violations(tree, r, rep_q, same, samples, rng_seed)[:, list(_CHECKS).index("mass_matrix")]
    # the first worst (sample, element) in sample-major order; lexsort puts a NaN, the worst, last
    g = np.lexsort((-np.arange(len(best)), -best["sample"], best["value"]))[-1]
    worst = float(best["value"][g])
    return MassMatrixReport(worst <= tol, worst, int(g), int(best["sample"][g]), samples, tol)


class Candidates(NamedTuple):
    """Candidate symmetries, stacked: isometry, signed permutation of the actuated DoF and body pairing;
    ``pairs[c, k] = i`` says body i, at candidate c's g.q, plays body k's role in the isometry-turned world."""

    names: tuple  # (C,)
    isometries: np.ndarray  # (C, 3, 3)
    joint: Representation  # (C, nj), of no group
    pairs: np.ndarray  # (C, B) body indices


def _check_joint_dim(tree: KinematicTree, name, dim: int) -> None:
    if dim != tree.nj:
        raise DimMismatch(f"candidate {name!r}: joint permutation dim {dim}, tree has nj = {tree.nj}")


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
        worst = getattr(self, f"{self.failed_check}_violation")
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
# a check's largest violation and where it is first reached; the column is a J_P or J_R gap's
_WORST = np.dtype([("value", float)] + [(f, np.intp) for f in ("sample", "term", "body", "column")])


def _block_samples(candidates: int) -> int:
    """Samples per pass: each brings its q and every candidate's g.q."""
    return max(1, KIN_BLOCK // (1 + candidates))


def _config_action(tree: KinematicTree, r: np.ndarray, joint: Representation, q: np.ndarray) -> np.ndarray:
    """g.q (C, S, nq) of each candidate g, isometry ``r[g]`` and joint permutation ``joint`` row g,
    at each configuration of the stack q (S, nq): the joints move as velocities do, and a
    floating base's pose turns by R."""
    rot, pos, qjs = split_config(tree, q)
    src = np.argsort(joint.targets, axis=1)  # out[j] = sign[src[j]] q[src[j]]
    out = np.take(qjs, src.ravel(), axis=-1).reshape(len(qjs), *src.shape)
    out = (out * np.take_along_axis(joint.signs, src, axis=1)).swapaxes(0, 1)
    if not tree.floating:
        return out
    r = r[:, None]
    return merge_config(tree, r @ rot @ r.swapaxes(-1, -2), (r @ pos[..., None])[..., 0], out)


def _velocity_action(tree: KinematicTree, r: np.ndarray, det_r: np.ndarray, joint: Representation) -> Representation:
    """T(g) on velocities of each candidate g, as one stack: R on a floating base's v, det(R) R
    on its omega, then the signed joint permutation."""
    if not tree.floating:
        return joint
    base = Representation(None, np.tile(np.arange(6), (len(r), 1)), None, [(slice(0, 3), r), (slice(3, 6), det_r)])
    return direct_sum([base, joint])


def _sampled_violations(tree: KinematicTree, r: np.ndarray, joint: Representation, pairs: np.ndarray,
                        samples: int, rng_seed) -> np.ndarray:
    """(candidate, check) records ``_WORST`` of a stack's ``isometries``, ``joint`` and ``pairs``: the
    largest violation of the check's terms (a NaN if any), body k at q against body ``pairs[c, k]`` at g.q
    with T(g) g's action on velocities, and the first (sample, term, body, column) reaching it.
    The samples are drawn from one rng stream in blocks of ``_block_samples``, so memory does not
    grow with ``samples``; one kinematics pass covers a block's q and every candidate's g.q."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nc, nb, nv = len(r), len(tree.bodies), tree.nv
    rng = np.random.default_rng(rng_seed)
    det_r = np.where(np.linalg.det(r) > 0, 1.0, -1.0)[:, None, None] * r  # J_R maps under det(R) R
    t = _velocity_action(tree, r, det_r, joint)
    # T(g) as flat gathers over (candidate, entry): T M T^T's entry (i, j) is sign[i] sign[j] M[src[i], src[j]]
    # before the base blocks, which turn only what the gather leaves in place; column j of J T(g) is J's
    # column target[j], turned by the blocks and times sign[target[j]]
    src = np.argsort(t.targets, axis=1)
    sign = np.take_along_axis(t.signs, src, axis=1)
    m_at, j_at = (src[:, :, None] * nv + src[:, None, :]).ravel(), (np.arange(nc)[:, None] * nv + t.targets).ravel()
    best = np.zeros((nc, len(_CHECKS)), _WORST)
    best["value"] = -np.inf

    def gap(a: np.ndarray, b: np.ndarray, axis, out=None) -> np.ndarray:
        """max |a - b| over ``axis``, worked out in the temporary a"""
        return np.abs(np.subtract(a, b, out=a), out=a).max(axis=axis, out=out)

    def jacobian_gap(j: np.ndarray, turn: np.ndarray, out: np.ndarray) -> None:
        """max over rows of |J T(g) - R J| into ``out`` (C, S, B, nv), R = ``turn``, for a pass's J: body pair[k]'s
        at g.q, in place k, a row at a time (small temporaries), as (sample, body, candidate, column)."""
        g, ns = j[1:], j.shape[1]
        for sl, blocks, _ in t.blocks:
            g[..., sl] = (g[..., sl].reshape(nc, -1, 3) @ blocks).reshape(g[..., sl].shape)
        g *= sign[:, None, None, None]
        rj = turn @ j[0][:, :, None]
        at = (np.arange(nc), np.arange(ns)[:, None, None], pairs.T)
        for row in range(3):
            d = np.take(g[(*at, row)].reshape(ns, nb, -1), j_at, axis=-1).reshape(ns, nb, nc, nv)
            d = np.abs(np.subtract(d, rj[..., row, :], out=d), out=d)
            most = np.maximum(most, d, out=most) if row else d
        out[...] = most.transpose(2, 0, 1, 3)

    def block(q: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each check's terms at the samples q, as (candidate, sample, term, body, column)."""
        ns = len(q)
        kin = _kinematics(tree, np.concatenate([q, _config_action(tree, r, joint, q).reshape(-1, tree.nq)]))
        m = _mass_matrix(tree, kin).reshape(1 + nc, ns, nv, nv)
        tmt = np.take(m[0].reshape(ns, -1), m_at, axis=-1).reshape(ns, nc, nv, nv)  # T M T^T: (sample, candidate)
        tmt *= sign[:, :, None]
        tmt *= sign[:, None, :]
        for sl, blocks, _ in t.blocks:
            tmt[..., sl, :] = blocks @ tmt[..., sl, :]
            tmt[..., sl] = tmt[..., sl] @ blocks.swapaxes(-1, -2)
        mm = gap(m[1:].swapaxes(0, 1), tmt, (-1, -2)).T.reshape(nc, ns, 1, 1, 1)
        del m, tmt  # freed before the larger temporaries of the Jacobian terms
        kin = _Kinematics(*(a.reshape(1 + nc, ns, *a.shape[1:]) for a in kin))
        # body pair[k] at g.q in place k: (candidate, sample, body, ...)
        paired = (np.arange(nc)[:, None, None] + 1, np.arange(ns)[:, None], pairs[:, None, :])
        at_q, iso = _Kinematics(*(a[0] for a in kin)), r.reshape(nc, 1, 1, 3, 3)  # iso over (sample, body)
        dyn, jac = np.empty((nc, ns, 3, nb, 1)), np.empty((nc, ns, 2, nb, nv))
        dyn[:, :, 0, :, 0] = np.abs(tree._mass - tree._mass[pairs])[:, None]  # does not depend on the sample
        gap(at_q.com @ iso[:, 0].swapaxes(-1, -2), kin.com[paired], -1, dyn[:, :, 1, :, 0])
        gap(iso @ at_q.inertia @ iso.swapaxes(-1, -2), kin.inertia[paired], (-1, -2), dyn[:, :, 2, :, 0])
        for i, (j, turn) in enumerate(((kin.jp, r), (kin.jr, det_r))):
            jacobian_gap(j, turn, jac[:, :, i])
        return dyn, jac, mm

    step = _block_samples(nc)
    for start in range(0, samples, step):
        q = np.array([random_config(tree, rng) for _ in range(min(step, samples - start))])
        for i, (v, first) in enumerate(zip(block(q), _CHECKS.values())):
            at = v.reshape(nc, -1).argmax(axis=1)
            value, old = v.reshape(nc, -1)[np.arange(nc), at], best["value"][:, i]
            new = ~(value <= old) & ~np.isnan(old)  # strictly larger, or the first NaN
            s, term, k, col = np.unravel_index(at[new], v.shape[1:])
            best[new, i] = list(zip(value[new], start + s, first.start + term, k, col))
    return best


def _candidate_report(tree: KinematicTree, candidates: Candidates, c: int, best: np.ndarray, samples: int,
                      tol: float) -> CandidateReport:
    """Report of candidate ``c`` from its records, one per check."""
    worst, name = best["value"].tolist(), candidates.names[c]
    if (best["value"] <= tol).all():  # a NaN fails
        return CandidateReport(name, True, *worst, samples, tol)
    # the largest check (the first NaN, if any), then the first sample, term and body at its maximum
    i = int(best["value"].argmax())
    check, (_, s, term, k, col) = list(_CHECKS)[i], best[i].tolist()
    pair = f" of body {tree.bodies[k].name} vs {tree.bodies[candidates.pairs[c, k]].name}"
    where = _TERMS[term] + ("" if check == "mass_matrix" else pair)
    if check == "kinematic":  # the column's velocity coordinate
        where += ", " + (["base"] * (tree.nv - tree.nj) + [f"joint {j.name}" for j in tree.actuated])[col]
    return CandidateReport(name, False, *worst, samples, tol, check, s, where)


def identify_dms(tree: KinematicTree, candidates: Candidates, samples: int = 100,
                 tol: float = 1e-8, rng_seed=0, order_cap: int = DEFAULT_ORDER_CAP) -> IdentifyReport:
    """Certify a non-empty stack of candidate symmetries numerically and close the verified set.

    Per candidate this checks, on sampled configurations: dynamic-parameter
    symmetry (paired masses, CoM positions and world inertias map under the
    isometry), the kinematic Jacobian constraints (position Jacobians map
    under the isometry, orientation Jacobians under its det-weighted form),
    and full mass-matrix equivariance.  Sampling rejects soundly but accepts
    only probabilistically: reports say "verified on N samples", not proven.
    """
    nc = len(candidates.names)
    _check_joint_dim(tree, candidates.names[0], candidates.joint.dim)  # every candidate of a stack has its dims
    if candidates.pairs.shape[1:] != (len(tree.bodies),):
        raise DimMismatch(f"body pairings of shape {candidates.pairs.shape}, tree has {len(tree.bodies)} bodies")
    best = _sampled_violations(tree, *candidates[1:], samples, rng_seed)
    sizes = {"bodies": len(tree.bodies), "nv": tree.nv, "samples": samples, "candidates": nc,
             "configurations": samples * (1 + nc), "kinematics_passes": (samples - 1) // _block_samples(nc) + 1}
    reports = [_candidate_report(tree, candidates, c, b, samples, tol) for c, b in enumerate(best)]
    ok = [report.passed for report in reports]
    gens = (candidates.joint.targets[ok], candidates.joint.signs[ok]) if any(ok) else ([range(tree.nj)], [None])
    group, rep = group_closure(*gens, order_cap=order_cap)
    return IdentifyReport(reports, [report.name for report in reports if report.passed], group, rep, sizes)


def _objects(what: str, entries: list) -> list[dict]:
    """``entries`` if each is a JSON object; else ParseError naming the first other one by its index."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{what} entry {i}: expected an object, got {type(entry).__name__}")
    return entries


def _parse_body(entry: dict) -> RigidBody:
    with errors_named(f"body entry {entry.get('name', '?')!r}"):
        name = entry["name"]
        mass = float(parse_float("mass", entry["mass"]))
        com = parse_float("com", entry["com"])
        upper = parse_float("inertia", entry["inertia"])
    if com.shape != (3,):
        raise ParseError(f"body {name!r}: com must have 3 entries")
    if upper.shape != (6,):
        raise ParseError(f"body {name!r}: inertia needs 6 upper-triangular entries")
    check_finite(f"body {name!r}", VALUE_CAP, mass=mass, com=com, inertia=upper)
    ixx, ixy, ixz, iyy, iyz, izz = upper.tolist()
    inertia = np.array([[ixx, ixy, ixz], [ixy, iyy, iyz], [ixz, iyz, izz]])
    return RigidBody(name, mass, com, inertia)


def _parse_joint(entry: dict) -> Joint:
    with errors_named(f"joint entry {entry.get('name', '?')!r}"):
        name = entry["name"]
        rpy = parse_float("origin_rpy", entry.get("origin_rpy", [0.0, 0.0, 0.0])).tolist()
        xyz = parse_float("origin_xyz", entry.get("origin_xyz", [0.0, 0.0, 0.0]))
        axis = parse_float("axis", entry.get("axis", [0.0, 0.0, 1.0]))
        parent, child, jtype = entry["parent"], entry["child"], entry["type"]
    for key, value in (("origin_rpy", rpy), ("origin_xyz", xyz), ("axis", axis)):
        if np.shape(value) != (3,):
            raise ParseError(f"joint {name!r}: {key!r} must have 3 entries")
    check_finite(f"joint {name!r}", VALUE_CAP, origin_xyz=xyz)
    check_finite(f"joint {name!r}", origin_rpy=rpy, axis=axis)
    return Joint(name, parent, child, jtype, rpy_matrix(*rpy), xyz, axis)


def tree_from_dict(data: dict) -> KinematicTree:
    """Build a tree from a parsed robot description; see the README for the layout."""
    with errors_named("missing or malformed 'base', 'bodies' or 'joints'"):
        base, bodies, joints = data["base"], list(data["bodies"]), list(data.get("joints", []))
    return KinematicTree(base, [_parse_body(b) for b in _objects("body", bodies)],
                         [_parse_joint(j) for j in _objects("joint", joints)])


def load_robot(path: str) -> KinematicTree:
    """Load the JSON robot description; see the README for the layout."""
    with json_input(path) as data:
        return tree_from_dict(data)


def candidates_from_dict(data, tree: KinematicTree) -> Candidates:
    """Check a parsed candidates file against the tree, entry by entry, then stack it; see the README."""
    entries = data.get("candidates", []) if isinstance(data, dict) else None
    if not isinstance(entries, list) or not entries:  # a missing list is an empty one
        raise ParseError("the 'candidates' list is empty" if entries == []
                         else "expected an object with a 'candidates' list")
    rows, bodies = [], set(tree.body_index)
    for entry in _objects("candidate", entries):
        name = entry.get("name", f"candidate{len(rows)}")
        with errors_named(f"candidate {entry.get('name', '?')!r}"):
            perm, pairing = entry["joint_perm"], entry["body_pairing"]
            if not isinstance(perm, dict):
                raise ParseError(f"'joint_perm' must be an object, got {type(perm).__name__}")
            sign = perm.get("sign")
            if not isinstance(pairing, dict) or not all(isinstance(v, str) for v in pairing.values()):
                raise ParseError("'body_pairing' must map body names to body names")
            isometry = parse_float("isometry", entry["isometry"])
            target, sign = signed_permutation(parse_int_list("target", perm["target"]),
                                              None if sign is None else parse_int_list("sign", sign))
            if isometry.shape != (3, 3):
                raise ValueError("isometry must be 3x3")
            check_isometry("'isometry'", isometry, CANDIDATE_TOL)
        _check_joint_dim(tree, name, len(target))
        if set(pairing) != bodies or set(pairing.values()) != bodies:
            raise ValueError(f"candidate {name!r}: body pairing is not a bijection on bodies")
        rows.append((name, isometry, target, sign, [tree._body_id[pairing[b.name]] for b in tree.bodies]))
    names, isometries, targets, signs, pairs = zip(*rows)
    return Candidates(names, np.array(isometries), Representation(None, np.array(targets), np.array(signs)),
                      np.array(pairs, dtype=np.intp))


def load_candidates(path: str, tree: KinematicTree) -> Candidates:
    """Load the JSON candidates file, checked against the tree; see the README for the layout."""
    with json_input(path) as data:
        return candidates_from_dict(data, tree)
