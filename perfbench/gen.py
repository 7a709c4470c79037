"""Seeded input generators for the benchmark.

Every generator takes the workload seed and writes plain input files (group
generator files, robot descriptions, candidate files, schemas, CSVs).  The
program under test only ever sees these files.  The same seed gives
byte-identical files: all randomness comes from ``numpy.random.default_rng``
seeded with the workload seed and a fixed per-input salt.

The group machinery here is a small independent reimplementation on numpy
arrays (closure by breadth-first search, regular representations), so the
inputs and the correctness gates do not depend on the code being measured.
"""

from __future__ import annotations

import json
import os

import numpy as np

# --- signed permutations as (target, sign) int arrays ---------------------
# Element x -> M x with M[target[i], i] = sign[i], the layout of the
# generator files.


def compose(a, b):
    """Matrix product a @ b of two signed permutations."""
    (ta, sa), (tb, sb) = a, b
    return ta[tb], sb * sa[tb]


def identity(dim):
    return np.arange(dim), np.ones(dim, dtype=np.int64)


def perm(target, sign=None):
    target = np.asarray(target, dtype=np.int64)
    sign = np.ones(len(target), dtype=np.int64) if sign is None else np.asarray(sign, dtype=np.int64)
    return target, sign


def _key(m):
    return m[0].tobytes() + m[1].tobytes()


def closure(gens):
    """All products of the generators, identity first, breadth-first."""
    elems = [identity(len(gens[0][0]))]
    index = {_key(elems[0]): 0}
    i = 0
    while i < len(elems):
        for g in gens:
            p = compose(elems[i], g)
            k = _key(p)
            if k not in index:
                index[k] = len(elems)
                elems.append(p)
        i += 1
    return elems


def tiled_regular(gens, width):
    """Generators of the regular representation tiled to ``width``.

    ``gens`` is any faithful generating set of the group; generator k of the
    result realizes the same abstract element as ``gens[k]``.
    """
    elems = closure(gens)
    order = len(elems)
    if width % order:
        raise ValueError(f"width {width} is not a multiple of the group order {order}")
    index = {_key(e): i for i, e in enumerate(elems)}
    out = []
    for g in gens:
        left = np.array([index[_key(compose(g, h))] for h in elems])
        target = np.concatenate([b * order + left for b in range(width // order)])
        out.append(perm(target))
    return out


def conjugate(gens, rng):
    """Relabel coordinates by a random signed permutation P: g -> P g P^-1.

    The result is an equivalent representation, so ranks and zero-forced
    counts are unchanged, while the coordinate layout depends on the seed.
    """
    dim = len(gens[0][0])
    p = perm(rng.permutation(dim), rng.choice([-1, 1], size=dim))
    p_inv = perm(np.argsort(p[0]), p[1][np.argsort(p[0])])
    return [compose(compose(p, g), p_inv) for g in gens]


# --- abstract groups, each given by a faithful generating set --------------

C2 = [perm([1, 0])]
K4 = [perm([1, 0, 3, 2]), perm([2, 3, 0, 1])]  # leg swaps left/right, front/hind
D8 = [perm([1, 2, 3, 0]), perm([0, 3, 2, 1])]  # symmetries of a square


def hyperoctahedral(n):
    """B_n = signed permutations of n coordinates (order 2^n n!)."""
    swap = perm([1, 0] + list(range(2, n)))
    cycle = perm(list(range(1, n)) + [0])
    flip = perm(range(n), [-1] + [1] * (n - 1))
    return [swap, cycle, flip]


B3 = hyperoctahedral(3)
B4 = hyperoctahedral(4)


def k4_leg12():
    """Joint-space representation of K4 on a 12-DoF quadruped.

    Legs are ordered LF, RF, LH, RH with joints (abduction, hip, knee).  The
    left/right swap negates abduction angles, the front/hind swap negates hip
    and knee angles; generator k realizes the same element as ``K4[k]``.
    """
    def leg_swap(leg_target, joint_signs):
        target = [3 * leg_target[leg] + j for leg in range(4) for j in range(3)]
        return perm(target, joint_signs * 4)

    return [leg_swap([1, 0, 3, 2], [-1, 1, 1]), leg_swap([2, 3, 0, 1], [1, -1, -1])]


def trivial(dim, count):
    return [identity(dim)] * count


def write_generator_file(path, gens, extras=None):
    entries = []
    for k, (t, s) in enumerate(gens):
        entry = {"target": t.tolist(), "sign": s.tolist()}
        if extras is not None:
            entry.update(extras[k])
        entries.append(entry)
    with open(path, "w") as f:
        json.dump({"dim": len(gens[0][0]), "generators": entries}, f)
        f.write("\n")


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


# --- basis_catalog ----------------------------------------------------------

# (name, group, input representation, output representation or None for
# "same as input").  Representations are ("tiled", width), ("leg12",),
# ("signed",) for the group's natural signed action, or ("trivial", 1).
CATALOG = [
    ("c2_reg512", C2, ("tiled", 512), None),
    ("k4_reg256", K4, ("tiled", 256), None),
    ("d8_reg256", D8, ("tiled", 256), None),
    ("k4_leg12_reg256", K4, ("leg12",), ("tiled", 256)),
    ("k4_reg256_leg12", K4, ("tiled", 256), ("leg12",)),
    ("b3_reg96", B3, ("tiled", 96), None),
    ("b4_signed4", B4, ("signed",), None),
    ("b4_signed4_trivial1", B4, ("signed",), ("trivial", 1)),
]


def _rep_gens(group, spec):
    kind = spec[0]
    if kind == "tiled":
        return tiled_regular(group, spec[1])
    if kind == "leg12":
        return k4_leg12()
    if kind == "signed":
        return group
    return trivial(spec[1], len(group))


def write_catalog(out_dir, seed, catalog=CATALOG):
    """Write one generator file per representation of the catalogue.

    Returns a list of entries ``{"name", "rep_in", "rep_out"}`` where
    ``rep_out`` is None when the map is square on one file.
    """
    rng = _rng(seed, 1)
    entries = []
    for name, group, spec_in, spec_out in catalog:
        paths = []
        for tag, spec in (("in", spec_in), ("out", spec_out)):
            if spec is None:
                paths.append(None)
                continue
            path = os.path.join(out_dir, f"{name}.{tag}.json")
            write_generator_file(path, conjugate(_rep_gens(group, spec), rng))
            paths.append(path)
        entries.append({"name": name, "rep_in": paths[0], "rep_out": paths[1]})
    return entries


# --- augment_csv ------------------------------------------------------------

REFLECT_X = np.diag([-1.0, 1.0, 1.0])
REFLECT_Y = np.diag([1.0, -1.0, 1.0])

AUG_SCHEMA = {
    "fields": [
        {"name": "q", "kind": "joint_space"},
        {"name": "dq", "kind": "joint_space"},
        {"name": "v", "kind": "e3_vector"},
        {"name": "w", "kind": "e3_pseudovector"},
        {"name": "feet", "kind": "kron_perm_vector"},
        {"name": "contact", "kind": "categorical_contact"},
        {"name": "pose", "kind": "pose_conjugation"},
        {"name": "terrain", "kind": "invariant_scalar", "dim": 2},
    ]
}


def aug_columns():
    """CSV column names of AUG_SCHEMA under the K4 leg12 group bundle."""
    cols = []
    for f in AUG_SCHEMA["fields"]:
        dim = {"joint_space": 12, "e3_vector": 3, "e3_pseudovector": 3,
               "kron_perm_vector": 12, "categorical_contact": 16,
               "pose_conjugation": 16}.get(f["kind"], f.get("dim"))
        cols += [f"{f['name']}_{i}" for i in range(dim)]
    return cols


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def aug_rows(rng, n):
    """Measurement rows: random dynamics values, a one-hot contact state
    and a flattened homogeneous base pose."""
    cols = aug_columns()
    contact = [i for i, c in enumerate(cols) if c.startswith("contact_")]
    pose_cols = [i for i, c in enumerate(cols) if c.startswith("pose_")]
    rows = rng.standard_normal((n, len(cols)))
    rows[:, contact] = np.eye(16)[rng.integers(0, 16, size=n)]
    pose = np.zeros((n, 4, 4))
    for i in range(n):
        pose[i, :3, :3] = _random_rotation(rng)
    pose[:, :3, 3] = rng.uniform(-1, 1, (n, 3))
    pose[:, 3, 3] = 1.0
    rows[:, pose_cols] = pose.reshape(n, 16)
    return rows


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write(",".join(aug_columns()) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def write_augment_inputs(out_dir, seed, rows):
    """K4 group bundle (joint space, isometries, leg permutations), a schema
    with every field kind, an N-row CSV and a 4N-row CSV of noisy targets."""
    rng = _rng(seed, 2)
    extras = [
        {"isometry": REFLECT_Y.tolist(), "leg_perm": [1, 0, 3, 2]},
        {"isometry": REFLECT_X.tolist(), "leg_perm": [2, 3, 0, 1]},
    ]
    paths = {k: os.path.join(out_dir, f"aug_{k}") for k in
             ("group.json", "schema.json", "rows.csv", "targets.csv")}
    write_generator_file(paths["group.json"], k4_leg12(), extras)
    with open(paths["schema.json"], "w") as f:
        json.dump(AUG_SCHEMA, f)
        f.write("\n")
    write_csv(paths["rows.csv"], aug_rows(rng, rows))
    targets = np.tile(aug_rows(rng, rows), (4, 1))
    targets += 0.01 * rng.standard_normal(targets.shape)
    write_csv(paths["targets.csv"], targets)
    return {k.split(".")[0]: v for k, v in paths.items()}


# --- certify_robot ----------------------------------------------------------

LEGS = ("LF", "RF", "LH", "RH")
LEG_SIGNS = {"LF": (1, 1), "RF": (1, -1), "LH": (-1, 1), "RH": (-1, -1)}  # (x, y)
LINKS = ("hip", "thigh", "shank")


def _upper(inertia):
    return [inertia[0, 0], inertia[0, 1], inertia[0, 2],
            inertia[1, 1], inertia[1, 2], inertia[2, 2]]


def quadruped(seed, heavy_leg=None):
    """Floating-base 12-DoF quadruped (13 bodies), mirror-symmetric in x and y.

    Dimensions, masses and inertias of the LF leg are drawn from the seed;
    the other legs are its reflections, so the sagittal (y -> -y) and
    transversal (x -> -x) reflections are exact symmetries.  ``heavy_leg``
    makes that leg's links 10% heavier, which breaks both.
    """
    rng = _rng(seed, 3)
    half_len, half_width = rng.uniform(0.15, 0.3), rng.uniform(0.08, 0.15)
    hip_off, thigh_len = rng.uniform(0.04, 0.08), rng.uniform(0.15, 0.25)
    torso_i = np.diag(rng.uniform(0.02, 0.2, 3))
    proto = {}
    for link in LINKS:
        a = rng.standard_normal((3, 3)) * 0.002
        proto[link] = (rng.uniform(0.3, 1.2), rng.uniform(-0.05, 0.05, 3), a @ a.T + np.diag(rng.uniform(1e-3, 5e-3, 3)))
    bodies = [{"name": "torso", "mass": float(rng.uniform(4, 10)), "com": [0.0, 0.0, 0.0],
               "inertia": _upper(torso_i)}]
    joints = []
    for leg in LEGS:
        sx, sy = LEG_SIGNS[leg]
        mirror = np.diag([sx, sy, 1.0])
        scale = 1.1 if leg == heavy_leg else 1.0
        for link in LINKS:
            mass, com, inertia = proto[link]
            bodies.append({"name": f"{leg}_{link}", "mass": mass * scale,
                           "com": (mirror @ com).tolist(),
                           "inertia": _upper(scale * mirror @ inertia @ mirror)})
        origins = {"hip": [sx * half_len, sy * half_width, 0.0],
                   "thigh": [0.0, sy * hip_off, 0.0],
                   "shank": [0.0, 0.0, -thigh_len]}
        axes = {"hip": [1.0, 0.0, 0.0], "thigh": [0.0, 1.0, 0.0], "shank": [0.0, 1.0, 0.0]}
        parents = {"hip": "torso", "thigh": f"{leg}_hip", "shank": f"{leg}_thigh"}
        for link in LINKS:
            joints.append({"name": f"{leg}_{link}_joint", "parent": parents[link],
                           "child": f"{leg}_{link}", "type": "revolute",
                           "origin_xyz": origins[link], "origin_rpy": [0.0, 0.0, 0.0],
                           "axis": axes[link]})
    return {"base": "floating", "bodies": bodies, "joints": joints}


def _candidate(name, isometry, leg_target, joint_signs):
    pairing = {"torso": "torso"}
    for leg, other in zip(LEGS, leg_target):
        for link in LINKS:
            pairing[f"{leg}_{link}"] = f"{LEGS[other]}_{link}"
    target = [3 * leg_target[leg] + j for leg in range(4) for j in range(3)]
    return {"name": name, "isometry": isometry.tolist(),
            "joint_perm": {"target": target, "sign": list(joint_signs) * 4},
            "body_pairing": pairing}


CANDIDATES = [
    _candidate("sagittal", REFLECT_Y, [1, 0, 3, 2], [-1, 1, 1]),
    _candidate("transversal", REFLECT_X, [2, 3, 0, 1], [1, -1, -1]),
    _candidate("sagittal_wrong_sign", REFLECT_Y, [1, 0, 3, 2], [1, 1, 1]),
]
# Expected verdicts per robot variant, in candidate order.
EXPECTED_VERDICTS = {"symmetric": [True, True, False], "heavy": [False, False, False]}


def write_robot_inputs(out_dir, seed):
    paths = {
        "symmetric": os.path.join(out_dir, "robot_symmetric.json"),
        "heavy": os.path.join(out_dir, "robot_heavy.json"),
        "candidates": os.path.join(out_dir, "robot_candidates.json"),
    }
    for variant, heavy in (("symmetric", None), ("heavy", "LF")):
        with open(paths[variant], "w") as f:
            json.dump(quadruped(seed, heavy), f)
            f.write("\n")
    with open(paths["candidates"], "w") as f:
        json.dump({"candidates": CANDIDATES}, f)
        f.write("\n")
    return paths


# --- train_loop -------------------------------------------------------------


def train_data(seed, batches, batch, infer_batch):
    """Input pool for SGD steps and one inference batch, leg12 coordinates."""
    rng = _rng(seed, 4)
    return rng.standard_normal((batches, batch, 12)), rng.standard_normal((infer_batch, 12))


def write_leg12(out_dir):
    path = os.path.join(out_dir, "leg12.json")
    write_generator_file(path, k4_leg12())
    return path
