"""Shared fixture matrix: groups, representations, and robot files."""

import json
from pathlib import Path

import numpy as np
import pytest

from robosym import rigid
from robosym.groups import (
    FiniteGroup,
    Representation,
    act,
    direct_sum,
    extend_by_words,
    group_closure,
    regular_representation,
    signed_permutation,
    tiled_regular_representation,
    trivial_representation,
)
from robosym.rigid import merge_config, skew, split_config

FIXTURES = Path(__file__).parent / "fixtures"


def integrate_config(tree, q, dq, h: float) -> np.ndarray:
    """First-order configuration step along a velocity-space direction ``dq``;
    the base angular velocity is world-frame: R <- exp(h [w]x) R."""
    rot, pos, qjs = split_config(tree, q)
    if not tree.floating:
        return qjs + h * dq
    w = dq[3:6]
    speed = np.linalg.norm(w)
    k = skew(w / speed) if speed > 0 else np.zeros((3, 3))
    step = np.eye(3) + np.sin(speed * h) * k + (1.0 - np.cos(speed * h)) * (k @ k)
    return merge_config(tree, step @ rot, pos + h * dq[:3], qjs + h * dq[6:])


def gpm(target, sign=None) -> tuple[np.ndarray, np.ndarray]:
    """A generalized permutation matrix as checked (target, sign) arrays."""
    return signed_permutation(target, sign)


def closure(*perms, **kwargs):
    """group_closure of generators given as gpm pairs."""
    return group_closure([t for t, _ in perms], [s for _, s in perms], **kwargs)


def compose(a, b):
    """The matrix product a @ b of two gpm pairs, written out from its
    definition: column j of b is sign_b[j] e_{target_b[j]}."""
    (ta, sa), (tb, sb) = a, b
    return ta[tb], sb * sa[tb]


def cyclic(k: int, block_dim: int = 1):
    """Cyclic group C_k acting by cycling k blocks of block_dim coordinates."""
    dim = k * block_dim
    return closure(gpm([((i // block_dim + 1) % k) * block_dim + i % block_dim for i in range(dim)]), order_cap=k)


def make_c2():
    """Reflection group from the 2-dim swap."""
    return closure(gpm([1, 0]))


def make_c3():
    return closure(gpm([1, 2, 0]))


def make_k4():
    """Klein four-group from two commuting 4-dim leg-pair swaps."""
    return closure(gpm([1, 0, 3, 2]), gpm([2, 3, 0, 1]))


def make_d8():
    """Dihedral group of order 8: square-vertex cycle and a reversal."""
    return closure(gpm([1, 2, 3, 0]), gpm([3, 2, 1, 0]))


def _extend(group, gen_perms):
    """Representation of `group` from gpm pairs for its generators."""
    values = {gi: m for gi, m in zip(group.generator_indices, gen_perms)}
    dim = len(gen_perms[0][0])
    mats = extend_by_words(group, values, compose, gpm(range(dim)))
    return Representation(group, [t for t, _ in mats], [s for _, s in mats])


def breaks_some_pair(group, mats, tol) -> bool:
    """Reference for the relation checks: whether |M(g) M(h) - M(g h)| > tol
    in some entry for some pair of elements, one element's row of products at
    a time, as the all-pairs loops of ``verify_homomorphism`` and of a group
    file's isometries did (for invertible M, M(e) M(e) = M(e) already forces M(e) = I)."""
    return any(not np.abs(mats[g] @ mats - mats[group.cayley[g]]).max(initial=0.0) <= tol
               for g in group.elements())


K4_SWAPS = ([1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0])


def write_z2_power_bundle(path, r: int, leg_perms=None) -> str:
    """Write a group file of (Z2)^r on dim 2r and return its path: generator i
    flips the signs of coordinates 2i and 2i+1, and carries the diagonal sign
    isometry flipping axis i mod 3 and the K4 leg swap ``K4_SWAPS[i % 3]``;
    ``leg_perms`` maps a generator to another leg permutation."""
    generators = []
    for i in range(r):
        sign = [1] * (2 * r)
        sign[2 * i] = sign[2 * i + 1] = -1
        iso = np.eye(3)
        iso[i % 3, i % 3] = -1.0
        legs = (leg_perms or {}).get(i, K4_SWAPS[i % 3])
        generators.append({"target": list(range(2 * r)), "sign": sign, "isometry": iso.tolist(), "leg_perm": legs})
    Path(path).write_text(json.dumps({"dim": 2 * r, "generators": generators}, indent=1))
    return str(path)


def c2_reps() -> tuple[FiniteGroup, dict[str, Representation]]:
    group, swap2 = make_c2()
    flip1 = _extend(group, [gpm([0], [-1])])
    signed_swap2 = _extend(group, [gpm([1, 0], [-1, -1])])
    reps = {
        "triv1": trivial_representation(group, 1),
        "flip1": flip1,
        "swap2": swap2,
        "signed_swap2": signed_swap2,
        "reg2": regular_representation(group),
        "tiled8": tiled_regular_representation(group, 8),
        "mixed3": direct_sum([flip1, swap2]),
    }
    return group, reps


def c3_reps() -> tuple[FiniteGroup, dict[str, Representation]]:
    group, cyc3 = make_c3()
    # signs along the 3-cycle must multiply to +1 for g^3 = e
    signed_cyc3 = _extend(group, [gpm([1, 2, 0], [-1, -1, 1])])
    block6 = direct_sum([cyc3, cyc3])
    reps = {
        "triv1": trivial_representation(group, 1),
        "cyc3": cyc3,
        "signed_cyc3": signed_cyc3,
        "block6": block6,
        "reg3": regular_representation(group),
    }
    return group, reps


def k4_reps() -> tuple[FiniteGroup, dict[str, Representation]]:
    group, perm4 = make_k4()
    # 12-dim joint-space style rep: leg permutation blocks with hip sign flips
    sgn = [-1, 1, 1] * 4
    leg12 = _extend(
        group,
        [
            gpm([3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8], sgn),
            gpm([6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5], sgn),
        ],
    )
    reps = {
        "perm4": perm4,
        "reg4": regular_representation(group),
        "leg12": leg12,
        "tiled16": tiled_regular_representation(group, 16),
    }
    return group, reps


def d8_reps() -> tuple[FiniteGroup, dict[str, Representation]]:
    group, vertex4 = make_d8()
    # planar rep: 90-degree rotation and the x-axis reflection as signed perms
    planar2 = _extend(group, [gpm([1, 0], [1, -1]), gpm([0, 1], [1, -1])])
    reps = {
        "vertex4": vertex4,
        "planar2": planar2,
        "reg8": regular_representation(group),
        "tiled16": tiled_regular_representation(group, 16),
    }
    return group, reps


def rep_matrix(max_mn: int = 256) -> list[tuple[str, Representation, Representation]]:
    """All same-group representation pairs with mn below the cap."""
    pairs = []
    for gname, builder in [("c2", c2_reps), ("c3", c3_reps), ("k4", k4_reps), ("d8", d8_reps)]:
        _, reps = builder()
        for name_in, rep_in in reps.items():
            for name_out, rep_out in reps.items():
                if rep_in.dim * rep_out.dim <= max_mn:
                    pairs.append((f"{gname}:{name_in}->{name_out}", rep_in, rep_out))
    return pairs


@pytest.fixture(scope="session")
def c2():
    return c2_reps()


@pytest.fixture(scope="session")
def c3():
    return c3_reps()


@pytest.fixture(scope="session")
def k4():
    return k4_reps()


@pytest.fixture(scope="session")
def d8():
    return d8_reps()


@pytest.fixture(scope="session")
def all_pairs():
    return rep_matrix()


def dense_perm(perm) -> np.ndarray:
    """Dense matrix of a gpm pair: M[target[i], i] = sign[i]."""
    target, sign = perm
    m = np.zeros((len(target), len(target)))
    m[target, np.arange(len(target))] = sign
    return m


def dense(rep: Representation, g: int) -> np.ndarray:
    return dense_perm((rep.targets[g], rep.signs[g]))


def orbit_vector(basis, k: int) -> np.ndarray:
    """Dense m x n matrix of basis vector k: its orbit's signs at its entries."""
    o, w = basis.orbits, np.zeros(basis.m * basis.n)
    at = o.orbit == k
    w[o.index[at]] = o.sign[at]
    return w.reshape(basis.m, basis.n)


def plan_matrices(plan) -> np.ndarray:
    """Dense T(g) of every group element, (|G|, dim, dim): the rows of
    act(plan, g, I) are the columns of T(g)."""
    return np.stack([act(plan, g, np.eye(plan.dim)).T for g in plan.group.elements()])


def isometries(group, rotations) -> Representation:
    """The action of one (|G|, d, d) stack of isometries on R^d, as ``load_group_bundle``
    builds it from a group file: the identity gather, then one block."""
    d = np.shape(rotations)[-1]
    return Representation(group, np.tile(np.arange(d), (group.order, 1)), np.ones((group.order, d)),
                          [(slice(0, d), rotations)])


def config_action(tree, cands, c, q) -> np.ndarray:
    """g.q of candidate ``c`` of the stack ``cands`` at one configuration or a stack, as ``identify_dms`` acts."""
    gq = rigid._config_action(tree, cands.isometries, cands.joint, np.reshape(q, (-1, tree.nq)))
    return gq[c].reshape(np.shape(q))


def basis_to_dict(basis) -> dict:
    """Reference basis-file layout, built as a dict from the orbit arrays:
    the basis file must be ``json.dumps`` of it, byte for byte."""

    def orbit_list(orbits):
        pairs = np.stack([orbits.index, orbits.sign], axis=1).tolist()
        bounds = np.searchsorted(orbits.orbit, np.arange(len(orbits) + 1)).tolist()
        return [{"entries": pairs[lo:hi]} for lo, hi in zip(bounds, bounds[1:])]

    return {"m": basis.m, "n": basis.n, "orbits": orbit_list(basis.orbits),
            "zero_forced": orbit_list(basis.zero_forced)}
