"""Each refusal of a malformed call raises its own type and message."""

import re
from operator import add

import numpy as np
import pytest

from conftest import FIXTURES, closure, gpm, make_k4
from robosym.augment import compile_schema, load_group_bundle, load_schema, resolve_schema
from robosym.errors import BadInertia, DimMismatch, GroupMismatch, SchemaError
from robosym.groups import FiniteGroup, Representation, extend_by_words, group_closure
from robosym.nets import EquivLayer, EquivNet, activation_variance_profile, get_nonlinearity
from robosym.rigid import (
    RigidBody,
    candidates_from_dict,
    check_mass_matrix_equivariance,
    com_momentum,
    identify_dms,
    load_robot,
    merge_config,
    split_config,
    tree_from_dict,
)

BIPED = str(FIXTURES / "minibiped.json")
SAGITTAL = {"candidates": [{"name": "sagittal", "isometry": np.diag([-1.0, 1.0, 1.0]).tolist(),
                            "joint_perm": {"target": [1, 0], "sign": [-1, -1]},
                            "body_pairing": {"torso": "torso", "leg_l": "leg_r", "leg_r": "leg_l"}}]}
MASSLESS = {"base": "fixed", "joints": [],
            "bodies": [{"name": "b", "mass": 0.0, "com": [0.0, 0.0, 0.0], "inertia": [0.0] * 6}]}


def _c2():
    return closure(gpm([1, 0]))


def _c2_without_generators():
    group = _c2()[0]
    return FiniteGroup(group.cayley, group.inverse)


def _layer(coeffs=0, bias_coeffs=0):
    """A swap layer given one coefficient or bias coefficient too many."""
    _, rep = _c2()
    relu = get_nonlinearity("relu")
    return EquivLayer(rep, rep, relu, coeffs=np.zeros(2 + coeffs), bias_coeffs=np.zeros(1 + bias_coeffs))


def _biped_and_candidates():
    tree = load_robot(BIPED)
    return tree, candidates_from_dict(SAGITTAL, tree)


def _schema_for_another_bundle():
    """A schema resolved against the 12-joint K4 bundle, compiled with a 2-joint C2 action."""
    bundle = load_group_bundle(str(FIXTURES / "k4_solo.json"))
    schema = resolve_schema(load_schema(str(FIXTURES / "com_schema.json")), bundle.joint_rep,
                            bundle.isometries, bundle.leg_perm)
    group, rep = _c2()
    return compile_schema(schema, group, rep)


REFUSALS = {
    "finite_group_shape": (lambda: FiniteGroup(np.zeros((2, 3)), np.zeros(2)),
                           ValueError, "need a square Cayley table and one inverse per element"),
    "representation_rows": (lambda: Representation(_c2()[0], [[0, 1]], None),
                            ValueError, "need one target row per group element"),
    "closure_of_nothing": (lambda: group_closure([], []), GroupMismatch, "need at least one generator"),
    "closure_order_cap": (lambda: group_closure([[1, 0]], [[1, 1]], order_cap=0),
                          ValueError, "order_cap must be >= 1"),
    "words_that_do_not_generate": (lambda: extend_by_words(_c2_without_generators(), {}, add, ()),
                                   GroupMismatch, "generator_indices do not generate the group"),
    "layer_coefficients": (lambda: _layer(coeffs=1), DimMismatch, "expected 2 coefficients, got (3,)"),
    "layer_bias_coefficients": (lambda: _layer(bias_coeffs=1), DimMismatch, "expected 1 bias coefficients, got (2,)"),
    "net_of_no_layers": (lambda: EquivNet([]), ValueError, "network needs at least one layer"),
    "profile_depth": (lambda: activation_variance_profile(0, 4, make_k4()[0], get_nonlinearity("relu")),
                      ValueError, "depth must be >= 1"),
    "inertia_shape": (lambda: RigidBody("b", 1.0, np.zeros(3), np.eye(2)).validate(),
                      BadInertia, "body 'b': inertia must be 3x3"),
    "inertia_symmetry": (lambda: RigidBody("b", 1.0, np.zeros(3), np.eye(3) + np.eye(3, k=1)).validate(),
                         BadInertia, "body 'b': inertia is not symmetric"),
    "config_length": (lambda: split_config(load_robot(BIPED), np.zeros(3)),
                      DimMismatch, "configuration has length (3,), tree expects 2"),
    "momentum_velocity_length": (lambda: com_momentum(load_robot(BIPED), np.zeros(2), np.zeros(3)),
                                 DimMismatch, "velocity has length (3,), tree expects 2"),
    "momentum_of_no_mass": (lambda: com_momentum(tree_from_dict(MASSLESS), np.zeros(0), np.zeros(0)),
                            ValueError, "total mass must be positive for CoM momentum"),
    "mass_matrix_dims": (lambda: check_mass_matrix_equivariance(load_robot(BIPED), make_k4()[1]),
                         DimMismatch, "representation dim 4, tree has 2 DoF"),
    "identify_no_samples": (lambda: identify_dms(*_biped_and_candidates(), samples=0),
                            ValueError, "samples must be >= 1"),
    "schema_of_another_bundle": (_schema_for_another_bundle,
                                 SchemaError, "field 'q': transform has dim 2, field dim is 12"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_merge_config_of_a_fixed_base_is_the_joint_coordinates():
    tree = load_robot(BIPED)
    rot, pos, qjs = split_config(tree, np.array([0.3, -0.2]))
    q = merge_config(tree, rot, pos, qjs)
    assert q is qjs and q.tolist() == [0.3, -0.2]
