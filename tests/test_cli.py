"""End-to-end CLI contract: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import robosym
from conftest import FIXTURES
from robosym.cli import main

C2 = str(FIXTURES / "c2_swap.json")
K4 = str(FIXTURES / "k4_regular.json")
FLIP = str(FIXTURES / "sign_flip.json")
TRIV = str(FIXTURES / "trivial_c2.json")
SOLO_GROUP = str(FIXTURES / "k4_solo.json")
COM_SCHEMA = str(FIXTURES / "com_schema.json")
NETSPEC = str(FIXTURES / "k4_netspec.json")
SWAP = {"target": [1, 0], "sign": [1, 1]}
STAY = {"target": [0, 1], "sign": [1, 1]}


def run(*argv):
    return main(list(argv))


class TestBasisCmd:
    def test_c2_swap_two_orbits(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert run("basis", "--rep-in", C2, "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["orbits"]) == 2
        assert "rank 2" in capsys.readouterr().out

    def test_oracle_agreement_k4(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert run("basis", "--rep-in", K4, "--out", str(out), "--oracle", "--json") == 0
        text = capsys.readouterr().out
        assert "oracle rank 4 = 4" in text
        report = json.loads((tmp_path / "basis.json.report.json").read_text())
        assert report["oracle_agrees"] and report["span_residual"] < 1e-10

    def test_corrupt_rep_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "generators": [\n {"target": [0, 0], "sign": [1, 1]}\n]}')
        assert run("basis", "--rep-in", str(bad), "--out", str(tmp_path / "o.json")) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run("basis", "--rep-in", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.json")) == 2

    def test_out_is_directory_exits_2_without_temp_file(self, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()
        assert run("basis", "--rep-in", C2, "--out", str(out)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_map_above_the_tracer_cap_exits_2(self, tmp_path, capsys):
        dim = 46342  # C2 tiled: mn = dim^2 > 2^31 - 1
        rep = tmp_path / "c2_wide.json"
        rep.write_text(json.dumps({"dim": dim, "generators": [
            {"target": (np.arange(dim) ^ 1).tolist(), "sign": [1] * dim}]}))
        assert run("basis", "--rep-in", str(rep), "--out", str(tmp_path / "b.json")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: mn = {dim**2} exceeds the orbit tracer's cap 2147483647"]
        assert not (tmp_path / "b.json").exists()


class TestCountCmd:
    def test_k4_regular(self, capsys):
        assert run("count", "--rep-in", K4) == 0
        assert capsys.readouterr().out.strip() == "r=4 mn=16 ratio=0.25"

    def test_trivial_group_full_rank(self, tmp_path, capsys):
        rep = tmp_path / "triv8.json"
        rep.write_text(json.dumps(
            {"dim": 8, "generators": [{"target": list(range(8)), "sign": [1] * 8}]}
        ))
        assert run("count", "--rep-in", str(rep)) == 0
        out = capsys.readouterr().out
        assert "r=64" in out and "ratio=1.0" in out

    def test_signed_flip_degenerate(self, capsys):
        assert run("count", "--rep-in", FLIP, "--rep-out", TRIV) == 0
        assert "r=0" in capsys.readouterr().out

    def test_mismatched_generator_counts_exit_2(self, capsys):
        assert run("count", "--rep-in", K4, "--rep-out", FLIP) == 2
        assert "generator" in capsys.readouterr().err


class TestAugmentCmd:
    def _write_dataset(self, tmp_path, n=100):
        from robosym.augment import load_group_bundle, load_schema, resolve_schema, write_csv

        bundle = load_group_bundle(SOLO_GROUP)
        schema = resolve_schema(
            load_schema(COM_SCHEMA), bundle.joint_rep, bundle.isometries, bundle.leg_perm
        )
        rows = np.random.default_rng(0).standard_normal((n, schema.width))
        path = tmp_path / "data.csv"
        write_csv(str(path), schema.column_names(), rows)
        return path, rows

    def test_hundred_rows_become_four_hundred(self, tmp_path):
        path, _ = self._write_dataset(tmp_path)
        out = tmp_path / "aug.csv"
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(path), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 401

    # one field of every kind
    ALL_KINDS = {"fields": [
        {"name": "q", "kind": "joint_space"},
        {"name": "v", "kind": "e3_vector"},
        {"name": "w", "kind": "e3_pseudovector"},
        {"name": "feet", "kind": "kron_perm_vector"},
        {"name": "c", "kind": "categorical_contact"},
        {"name": "pose", "kind": "pose_conjugation"},
        {"name": "s", "kind": "invariant_scalar", "dim": 2},
    ]}

    @pytest.mark.parametrize("flag", [[], ["--orbit-average"]], ids=["augment", "orbit_average"])
    def test_every_field_kind_matches_fstring_reference(self, tmp_path, flag):
        from robosym import augment as aug

        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(self.ALL_KINDS))
        bundle = aug.load_group_bundle(SOLO_GROUP)
        schema = aug.resolve_schema(self.ALL_KINDS["fields"], bundle.joint_rep,
                                    bundle.isometries, bundle.leg_perm)
        plan = aug.compile_schema(schema, bundle.group, bundle.joint_rep,
                                  bundle.isometries, bundle.leg_perm)
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((4 * 300 if flag else 300, schema.width))
        rows[rng.random(rows.shape) < 0.01] = -0.0
        rows[:3, 0], rows[3, :4] = [np.nan, np.inf, -np.inf], 0.0
        data, out = tmp_path / "data.csv", tmp_path / "out.csv"
        aug.write_csv(str(data), schema.column_names(), rows)
        assert run("augment", "--group", SOLO_GROUP, "--schema", str(schema_path),
                   "--in", str(data), "--out", str(out), *flag) == 0
        expected = aug.orbit_average(plan, rows) if flag else aug.augment_dataset(plan, rows)
        lines = [",".join(schema.column_names())] + [",".join(f"{v:.17g}" for v in r) for r in expected]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_json_report_sizes(self, tmp_path):
        path, rows = self._write_dataset(tmp_path, n=10)
        out = tmp_path / "aug.csv"
        reports = []
        for _ in range(2):
            assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                       "--in", str(path), "--out", str(out), "--json") == 0
            reports.append((tmp_path / "aug.csv.report.json").read_text())
        assert reports[0] == reports[1]  # deterministic
        report = json.loads(reports[0])
        assert report["bytes_out"] == out.stat().st_size
        # the K4 copies move and flip the same 10 x width magnitudes
        assert report["distinct_magnitudes"] == np.unique(np.abs(rows).view(np.uint64)).size
        assert report["rows_in"] == 10 and report["rows_out"] == 40 and report["mode"] == "augmented"

    def test_header_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(path), "--out", str(tmp_path / "o.csv")) == 2
        assert "header" in capsys.readouterr().err

    def test_roundtrip_values_exact(self, tmp_path):
        from robosym.augment import read_csv

        path, rows = self._write_dataset(tmp_path, n=10)
        out = tmp_path / "aug.csv"
        run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
            "--in", str(path), "--out", str(out))
        _, aug = read_csv(str(out))
        # identity block survives the CSV round trip bit for bit
        np.testing.assert_array_equal(aug[:10], rows)

    def test_orbit_average_mode(self, tmp_path):
        from robosym.augment import read_csv

        path, _ = self._write_dataset(tmp_path, n=8)
        aug = tmp_path / "aug.csv"
        run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
            "--in", str(path), "--out", str(aug))
        avg = tmp_path / "avg.csv"
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(aug), "--out", str(avg), "--orbit-average") == 0
        _, a = read_csv(str(aug))
        _, b = read_csv(str(avg))
        np.testing.assert_allclose(a, b, atol=1e-12)  # already equivariant

    def test_inf_in_rotation_mixed_field_warns_nothing(self, tmp_path, capsys):
        from robosym.augment import read_csv, write_csv

        path, rows = self._write_dataset(tmp_path, n=3)
        names, _ = read_csv(str(path))
        hlin = [i for i, name in enumerate(names) if name.startswith("hlin_")]
        rows[1, hlin[0]] = np.inf
        write_csv(str(path), names, rows)
        out = tmp_path / "aug.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                       "--in", str(path), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        _, aug = read_csv(str(out))
        # the identity copy is the input; in the others the inf spreads
        # across its field and nowhere else
        assert aug[:3].tobytes() == rows.tobytes()
        others = aug[3:].reshape(3, 3, -1)[:, 1]
        assert not np.isfinite(others[:, hlin]).any()
        assert np.isfinite(np.delete(others, hlin, axis=1)).all()
        assert np.isfinite(np.delete(aug, np.arange(1, len(aug), 3), axis=0)).all()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_isometry_exits_2(self, tmp_path, capsys, value):
        group = tmp_path / "group.json"
        group.write_text('{"dim": 2, "generators": [{"target": [1, 0], "sign": [1, 1], '
                         f'"isometry": [[{value},0,0],[0,1,0],[0,0,1]]}}]}}')
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n")
        assert run("augment", "--group", str(group), "--schema", COM_SCHEMA,
                   "--in", str(data), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {group}: generator 0: 'isometry' has non-finite entries"]

    def test_truncated_csv_exits_0_or_2(self, tmp_path, capsys):
        path, _ = self._write_dataset(tmp_path, n=20)
        data = path.read_bytes()
        offsets = np.random.default_rng(5).choice(len(data), size=20, replace=False)
        cut = tmp_path / "cut.csv"
        for offset in sorted(offsets):
            cut.write_bytes(data[:offset])
            code = run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                       "--in", str(cut), "--out", str(tmp_path / "o.csv"))
            err = capsys.readouterr().err
            assert code in (0, 2), offset
            assert "Traceback" not in err and len(err.splitlines()) == (code == 2)


class TestNetCmd:
    def test_init_stats_band(self, capsys):
        assert run("net", "init-stats", "--group", K4, "--depth", "20",
                   "--width", "256", "--nonlinearity", "relu", "--mode", "fan_in") == 0
        out = capsys.readouterr().out
        ratio = float(out.strip().splitlines()[-1].split("=")[1])
        assert 1 / 3 < ratio < 3

    def test_init_stats_const_var_control_decays(self, capsys):
        assert run("net", "init-stats", "--group", K4, "--depth", "20",
                   "--width", "256", "--nonlinearity", "relu",
                   "--const-var", "0.0025") == 0
        out = capsys.readouterr().out
        ratio = float(out.strip().splitlines()[-1].split("=")[1])
        assert ratio < 0.1

    def test_demo_train_reduces_loss_and_writes_weights(self, tmp_path, capsys):
        import re

        weights = tmp_path / "w.json"
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "80",
                   "--out", str(weights)) == 0
        assert weights.exists()
        line = capsys.readouterr().out.splitlines()[0]
        first, last = (float(v) for v in re.findall(r"\d+\.\d+", line)[:2])
        assert last < first

    def test_demo_train_overflow_exits_1_without_warnings(self, tmp_path, capsys):
        # the loss overflows at this rate; numpy's warnings would fail the suite
        weights = tmp_path / "w.json"
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "3", "--lr", "1e30",
                   "--out", str(weights)) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("loss 0.") and weights.exists()

    def test_demo_train_non_finite_weights_are_not_written(self, tmp_path, capsys):
        # at this rate the coefficients overflow to NaN, which JSON cannot hold
        weights = tmp_path / "w.json"
        weights.write_text("kept\n")
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "20", "--lr", "1e30",
                   "--out", str(weights)) == 1
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines() == [
            "loss 0.172314 -> nan after 20 gradient steps",
            f"no weights written to {weights}: layer 0: 'coeffs' has non-finite entries"]
        assert weights.read_text() == "kept\n" and [p.name for p in tmp_path.iterdir()] == ["w.json"]

    def test_demo_train_output_is_pinned(self, tmp_path, capsys):
        import hashlib

        weights = tmp_path / "w.json"
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--seed", "7", "--steps", "40",
                   "--out", str(weights)) == 0
        assert capsys.readouterr().out.splitlines()[0] == "loss 0.165004 -> 0.122943 after 40 gradient steps"
        assert hashlib.sha256(weights.read_bytes()).hexdigest() == (
            "04848903831d61ff0fcbf49561eeb43c138951572026157775805e70f9c09476")

    def test_verify_trained_weights_pass(self, tmp_path, capsys):
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "10", "--out", str(weights))
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(weights)) == 0
        assert "pass" in capsys.readouterr().out

    def test_verify_corrupted_weights_nonzero_exit(self, tmp_path, capsys):
        # coefficient-space weights are equivariant for any values, so a
        # corrupted file is caught by the basis integrity hash
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "5", "--out", str(weights))
        data = json.loads(weights.read_text())
        data["layers"][0]["basis_hash"] = "0" * 16
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(bad)) == 2
        assert "hash" in capsys.readouterr().err

    def test_verify_reports_offending_element_below_tol(self, tmp_path, capsys):
        # an unreachable tolerance exercises the failure report path
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "5", "--out", str(weights))
        capsys.readouterr()
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(weights),
                   "--tol", "1e-30") == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "element" in out

    @pytest.mark.parametrize("key", ["coeffs", "bias_coeffs"])
    def test_verify_non_finite_weights_exits_2(self, tmp_path, capsys, key):
        # a NaN coefficient used to pass: every violation compared false
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "5", "--out", str(weights))
        data = json.loads(weights.read_text())
        data["layers"][1][key][0] = np.nan
        weights.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(weights)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {weights}: layer 1: {key!r} has non-finite entries"]


class TestRobotCmd:
    def test_biped_verified_order_two(self, capsys):
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "minibiped.json"),
                   "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                   "--samples", "25") == 0
        out = capsys.readouterr().out
        assert "verified" in out and "order 2" in out

    def test_trifinger_verified_order_three(self, capsys):
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "trifinger.json"),
                   "--candidates", str(FIXTURES / "trifinger_candidates.json"),
                   "--samples", "25") == 0
        assert "order 3" in capsys.readouterr().out

    def test_solo_two_generators_order_four(self, capsys):
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "solo_like.json"),
                   "--candidates", str(FIXTURES / "solo_like_candidates.json"),
                   "--samples", "25") == 0
        assert "order 4" in capsys.readouterr().out

    def test_perturbed_robot_rejected_with_violation(self, capsys):
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "minibiped_perturbed.json"),
                   "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                   "--samples", "25") == 1
        out = capsys.readouterr().out
        assert "rejected" in out and "violation" in out and "sample" in out

    def test_json_report(self, capsys):
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "minibiped.json"),
                   "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                   "--samples", "10", "--json") == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["group_order"] == 2 and payload["verified"] == ["sagittal"]
        assert payload["sizes"] == {"bodies": 3, "nv": 2, "samples": 10, "candidates": 1,
                                    "configurations": 20, "kinematics_passes": 1}
        assert payload["candidates"][0]["worst_sample"] == -1
        assert run("robot", "verify",
                   "--robot", str(FIXTURES / "minibiped_perturbed.json"),
                   "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                   "--samples", "10", "--json") == 1
        out = capsys.readouterr().out
        rejected = json.loads(out[out.index("{"):])["candidates"][0]
        worst = rejected["worst_sample"]
        assert worst >= 0 and f"at sample {worst} " in out
        assert payload["candidates"][0]["failed_where"] is None
        assert rejected["failed_where"] == "mass of body leg_l vs leg_r"
        assert f"at sample {worst} (mass of body leg_l vs leg_r, tol " in out

    def test_json_report_sizes_count_the_passes(self, capsys):
        # 2 candidates: a pass holds 128 // 3 = 42 samples, so 100 samples take 3 passes
        assert run("robot", "verify", "--robot", str(FIXTURES / "solo_like.json"),
                   "--candidates", str(FIXTURES / "solo_like_candidates.json"),
                   "--samples", "100", "--json") == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["sizes"] == {
            "bodies": 5, "nv": 10, "samples": 100, "candidates": 2, "configurations": 300,
            "kinematics_passes": 3}

    def test_zero_dof_robot_verified(self, tmp_path, capsys):
        # one floating body and no joints: the joint permutation is empty
        robot = tmp_path / "box.json"
        robot.write_text(json.dumps({"base": "floating", "bodies": [
            {"name": "box", "mass": 2.0, "com": [0, 0, 0], "inertia": [0.1, 0, 0, 0.2, 0, 0.3]}]}))
        candidates = tmp_path / "box_candidates.json"
        candidates.write_text(json.dumps({"candidates": [
            {"name": "mirror", "isometry": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "joint_perm": {"target": [], "sign": []}, "body_pairing": {"box": "box"}}]}))
        assert run("robot", "verify", "--robot", str(robot), "--candidates", str(candidates),
                   "--samples", "5") == 0
        assert "mirror: verified on 5 samples" in capsys.readouterr().out


class TestParseBoundaries:
    """Malformed inputs exit 2 with a one-line error naming the file and key."""

    def test_net_spec_without_rep(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"hidden": [4]}))
        assert run("net", "verify", "--net-spec", str(spec), "--weights", str(spec)) == 2
        err = capsys.readouterr().err
        assert str(spec) in err and "'rep'" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["name", "kind"])
    def test_schema_field_without_key(self, tmp_path, capsys, key):
        schema = json.loads(Path(COM_SCHEMA).read_text())
        del schema["fields"][0][key]
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n")
        assert run("augment", "--group", SOLO_GROUP, "--schema", str(path),
                   "--in", str(data), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["coeffs", "bias_coeffs"])
    def test_weights_layer_without_coeffs(self, tmp_path, capsys, key):
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "1", "--out", str(weights))
        data = json.loads(weights.read_text())
        del data["layers"][1][key]
        weights.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(weights)) == 2
        err = capsys.readouterr().err
        assert str(weights) in err and repr(key) in err and len(err.splitlines()) == 1

    # (subcommand, the file-taking option, malformed file content)
    MALFORMED = {
        "robot_not_object": ("robot", "--robot", []),
        "robot_body_not_object": ("robot", "--robot", {"base": "fixed", "bodies": [1]}),
        "candidates_not_object": ("robot", "--candidates", []),
        "candidate_not_object": ("robot", "--candidates", {"candidates": [1]}),
        "weights_not_object": ("net", "--weights", [1]),
        "weights_layer_not_object": ("net", "--weights", {"layers": [1, 2, 3]}),
        "schema_fields_not_list": ("augment", "--schema", {"fields": 3}),
        "generators_not_list": ("count", "--rep-in", {"dim": 2, "generators": 3}),
        "hidden_not_list": ("net", "--net-spec", {"rep": K4, "hidden": "ab"}),
        "generator_dim_list": ("count", "--rep-in", {"dim": [2], "generators": []}),
        "net_seed_list": ("net", "--net-spec", {"rep": K4, "seed": [4]}),
        "net_output_list": ("net", "--net-spec", {"rep": K4, "output": [4]}),
        "schema_dim_list": ("augment", "--schema",
                            {"fields": [{"name": "s", "kind": "invariant_scalar", "dim": [2]}]}),
        "generator_dim_float": ("count", "--rep-in", {"dim": 2.5, "generators": [SWAP]}),
        "generator_dim_bool": ("count", "--rep-in", {"dim": True, "generators": [SWAP]}),
        "generator_target_float": ("count", "--rep-in",
                                   {"dim": 2, "generators": [{"target": [1.7, 0], "sign": [1, 1]}]}),
        "generator_sign_bool": ("count", "--rep-in",
                                {"dim": 2, "generators": [{"target": [1, 0], "sign": [1, True]}]}),
        "generator_target_string": ("count", "--rep-in",
                                    {"dim": 2, "generators": [{"target": [1, "0"], "sign": [1, 1]}]}),
        "schema_dim_float": ("augment", "--schema",
                             {"fields": [{"name": "s", "kind": "invariant_scalar", "dim": 2.9}]}),
        "net_seed_float": ("net", "--net-spec", {"rep": K4, "seed": 4.5}),
        "group_leg_perm_int": ("augment", "--group",
                               {"dim": 2, "generators": [{**SWAP, "leg_perm": 3}]}),
        "group_leg_perm_nested": ("augment", "--group",
                                  {"dim": 2, "generators": [{**SWAP, "leg_perm": [[1], [0]]}]}),
        "group_leg_perm_out_of_range": ("augment", "--group",
                                        {"dim": 2, "generators": [{**SWAP, "leg_perm": [1, 5]}]}),
        "group_isometry_null": ("augment", "--group",
                                {"dim": 2, "generators": [{**SWAP, "isometry": None}]}),
        "group_isometry_int": ("augment", "--group",
                               {"dim": 2, "generators": [{**SWAP, "isometry": 5}]}),
        "group_leg_perm_sizes": ("augment", "--group",
                                 {"dim": 2, "generators": [{**SWAP, "leg_perm": [1, 0]},
                                                           {**SWAP, "leg_perm": [1, 0, 2]}]}),
        "group_isometry_sizes": ("augment", "--group",
                                 {"dim": 2, "generators": [{**SWAP, "isometry": np.eye(3).tolist()},
                                                           {**STAY, "isometry": np.eye(2).tolist()}]}),
    }
    # the key a case's error must name, where the file has one at fault
    MALFORMED_KEY = {"generator_dim_list": "dim", "net_seed_list": "seed",
                     "net_output_list": "output", "schema_dim_list": "dim",
                     "generator_dim_float": "dim", "generator_dim_bool": "dim",
                     "generator_target_float": "target", "schema_dim_float": "dim",
                     "generator_sign_bool": "sign", "generator_target_string": "target",
                     "net_seed_float": "seed", "group_leg_perm_int": "leg_perm",
                     "group_leg_perm_nested": "leg_perm", "group_leg_perm_out_of_range": "leg_perm",
                     "group_isometry_null": "isometry", "group_isometry_int": "isometry",
                     "group_leg_perm_sizes": "leg_perm", "group_isometry_sizes": "isometry"}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_exits_2(self, tmp_path, capsys, case):
        command, option, content = self.MALFORMED[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n")
        argv = {
            "robot": {"--robot": str(FIXTURES / "minibiped.json"),
                      "--candidates": str(FIXTURES / "minibiped_candidates.json")},
            "net": {"--net-spec": NETSPEC, "--weights": str(bad)},
            "augment": {"--group": SOLO_GROUP, "--schema": COM_SCHEMA, "--in": str(data),
                        "--out": str(tmp_path / "o.csv")},
            "count": {"--rep-in": K4},
        }[command]
        argv[option] = str(bad)
        words = [command, "verify"] if command in ("robot", "net") else [command]
        assert run(*words, *(w for pair in argv.items() for w in pair)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err and len(err.splitlines()) == 1
        if case in self.MALFORMED_KEY:
            assert repr(self.MALFORMED_KEY[case]) in err

    # a net spec, schema or generator file, read by net demo-train, augment or
    # count: (command, the file's content, the error after "error: <file>: ");
    # the net and schema cases but the first are checks against the group,
    # made after the file is read
    EXACT_SPEC_SCHEMA = {
        "schema_dim_negative": ("augment",
                                {"fields": [{"name": "a", "kind": "invariant_scalar", "dim": -2}]},
                                "schema field 0: 'dim' must be >= 0, got -2"),
        "schema_unknown_kind": ("augment", {"fields": [{"name": "a", "kind": "bogus"}]},
                                "field 'a': unknown kind 'bogus'"),
        "net_hidden_not_multiple": ("net", {"rep": K4, "hidden": [6]},
                                    "width 6 is not a multiple of the group order 4"),
        "net_init_mode_bogus": ("net", {"rep": K4, "init_mode": "bogus"},
                                "mode must be fan_in or fan_out, got 'bogus'"),
        "net_hidden_zero": ("net", {"rep": K4, "hidden": [0]}, "width 0 must be positive"),
        "generator_target_short": ("count", {"dim": 2, "generators": [{"target": [1], "sign": [1, 1]}]},
                                   "generator 0 (line 1): target/sign length must equal dim"),
        "generators_empty": ("count", {"dim": 2, "generators": []}, "no generators"),
        "generator_dim_zero": ("count", {"dim": 0, "generators": [{"target": [], "sign": []}]},
                               "generator 0 (line 1): dim must be positive, got 0"),
        # the only "target" token is generator 1's, so generator 0 is named by its index
        "generator_without_target": ("count", {"dim": 2, "generators": [{"sign": [1, 1]}, SWAP]},
                                     "generator 0 (index 0): generator needs 'target' and 'sign' arrays"),
    }

    @pytest.mark.parametrize("case", sorted(EXACT_SPEC_SCHEMA))
    def test_net_spec_or_schema_error_line(self, tmp_path, capsys, case):
        command, content, message = self.EXACT_SPEC_SCHEMA[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n")
        argv = {"net": ["net", "demo-train", "--net-spec", str(bad), "--steps", "1"],
                "count": ["count", "--rep-in", str(bad)],
                "augment": ["augment", "--group", SOLO_GROUP, "--schema", str(bad), "--in", str(data),
                            "--out", str(tmp_path / "o.csv")]}[command]
        assert run(*argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    def test_error_in_the_rep_file_names_only_that_file(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"dim": 2, "generators": [{"target": [0, 0]}]}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rep": str(rep), "hidden": [6]}))
        assert run("net", "demo-train", "--net-spec", str(spec), "--steps", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rep}: ") and str(spec) not in err

    @pytest.mark.parametrize(
        "text, where",
        [("x,y\n1,2\n\n3,4\n", "line 3: "), ("x,y\n1,2\n3\n", "line 3: "),
         ("x,y\n1,2\n3,4,5\n", "line 3: "), ("x,y\n1,2\n1,x\n", "line 3: "),
         ("", "missing header line")],
        ids=["blank", "short", "long", "not_a_number", "empty_file"],
    )
    def test_malformed_csv_names_the_line(self, tmp_path, capsys, text, where):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(data), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: {where}") and len(err.splitlines()) == 1


    # (file, entry list, entry index, path to the number inside the entry)
    NON_FINITE = {
        "body_mass": ("robot", "bodies", 2, ("mass",)),
        "body_com": ("robot", "bodies", 0, ("com", 1)),
        "body_inertia": ("robot", "bodies", 1, ("inertia", 3)),
        "joint_origin_xyz": ("robot", "joints", 0, ("origin_xyz", 0)),
        "joint_origin_rpy": ("robot", "joints", 1, ("origin_rpy", 2)),
        "joint_axis": ("robot", "joints", 0, ("axis", 1)),
        "candidate_isometry": ("candidates", "candidates", 0, ("isometry", 1, 1)),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_robot_number_exits_2(self, tmp_path, capsys, case, value):
        which, entries, i, where = self.NON_FINITE[case]
        files = {"robot": FIXTURES / "minibiped.json",
                 "candidates": FIXTURES / "minibiped_candidates.json"}
        data = json.loads(files[which].read_text())
        entry = data[entries][i]
        target = entry
        for k in where[:-1]:
            target = target[k]
        target[where[-1]] = value
        bad = files[which] = tmp_path / f"{which}.json"
        bad.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("robot", "verify", "--robot", str(files["robot"]),
                       "--candidates", str(files["candidates"]), "--samples", "5") == 2
        owner = {"bodies": "body", "joints": "joint", "candidates": "candidate"}[entries]
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: {owner} {entry['name']!r}: {where[0]!r} has non-finite entries"]

    # (file, edit of its decoded content, the error after "error: <file>: ")
    EXACT = {
        "joint_origin_xyz_2": ("robot", lambda d: d["joints"][0].update(origin_xyz=[0.0, 0.1]),
                               "joint 'hip_l': 'origin_xyz' must have 3 entries"),
        "joint_origin_rpy_2": ("robot", lambda d: d["joints"][0].update(origin_rpy=[0.0, 0.1]),
                               "joint 'hip_l': 'origin_rpy' must have 3 entries"),
        "joint_axis_2": ("robot", lambda d: d["joints"][0].update(axis=[0.0, 1.0]),
                         "joint 'hip_l': 'axis' must have 3 entries"),
        "joint_axis_4": ("robot", lambda d: d["joints"][0].update(axis=[0.0, 1.0, 0.0, 0.0]),
                         "joint 'hip_l': 'axis' must have 3 entries"),
        "body_name_list": ("robot", lambda d: d["bodies"][0].update(name=[1]),
                           "unhashable type: 'list'"),
        "body_negative_mass": ("robot", lambda d: d["bodies"][1].update(mass=-1.0),
                               "body 'leg_l': negative mass"),
        "body_com_2": ("robot", lambda d: d["bodies"][0].update(com=[0.0, 0.0]),
                       "body 'torso': com must have 3 entries"),
        "body_inertia_5": ("robot", lambda d: d["bodies"][0].update(inertia=[0.1, 0.0, 0.0, 0.2, 0.0]),
                           "body 'torso': inertia needs 6 upper-triangular entries"),
        "base_wheeled": ("robot", lambda d: d.update(base="wheeled"),
                         "base must be 'fixed' or 'floating', got 'wheeled'"),
        "body_duplicate": ("robot", lambda d: d["bodies"].append(dict(d["bodies"][1])),
                           "duplicate body name 'leg_l'"),
        "joint_spherical": ("robot", lambda d: d["joints"][0].update(type="spherical"),
                            "joint 'hip_l': unknown type 'spherical'"),
        "joint_unknown_parent": ("robot", lambda d: d["joints"][0].update(parent="pelvis"),
                                 "joint 'hip_l': unknown parent or child body"),
        "body_two_parents": ("robot",
                             lambda d: d["joints"].append(dict(d["joints"][1], name="hip_x", child="leg_l")),
                             "body 'leg_l' has more than one parent joint"),
        "joint_axis_norm_2": ("robot", lambda d: d["joints"][0].update(axis=[0.0, 2.0, 0.0]),
                              "joint 'hip_l': axis must have unit norm"),
        # a body whose only parent joint is its own: a cycle cut off from the root
        "joint_self_loop": ("robot", lambda d: (d["bodies"].append(dict(d["bodies"][1], name="x")),
                                                d["joints"].append(dict(d["joints"][1], name="loop",
                                                                        parent="x", child="x"))),
                            "unreachable bodies: ['x']"),
        "pairing_not_bijection": ("candidates",
                                  lambda d: d["candidates"][0]["body_pairing"].update(torso="leg_l"),
                                  "candidate 'sagittal': body pairing is not a bijection on bodies"),
        "joint_perm_dim": ("candidates",
                           lambda d: d["candidates"][0].update(joint_perm={"target": [0], "sign": [1]}),
                           "candidate 'sagittal': joint permutation dim 1, tree has nj = 2"),
        "joint_perm_target_float": ("candidates",
                                    lambda d: d["candidates"][0]["joint_perm"].update(target=[1.5, 0]),
                                    "candidate 'sagittal': entry 0: 'target' must be an integer, got float"),
        "joint_perm_sign_float": ("candidates",
                                  lambda d: d["candidates"][0]["joint_perm"].update(sign=[-1, -1.0]),
                                  "candidate 'sagittal': entry 1: 'sign' must be an integer, got float"),
        "joint_perm_not_object": ("candidates",
                                  lambda d: d["candidates"][0].update(joint_perm=[1, 0]),
                                  "candidate 'sagittal': 'list' object has no attribute 'get'"),
    }

    @pytest.mark.parametrize("case", sorted(EXACT))
    def test_robot_file_error_line(self, tmp_path, capsys, case):
        which, edit, message = self.EXACT[case]
        files = {"robot": FIXTURES / "minibiped.json",
                 "candidates": FIXTURES / "minibiped_candidates.json"}
        data = json.loads(files[which].read_text())
        edit(data)
        bad = files[which] = tmp_path / f"{which}.json"
        bad.write_text(json.dumps(data))
        assert run("robot", "verify", "--robot", str(files["robot"]),
                   "--candidates", str(files["candidates"]), "--samples", "5") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    def test_candidate_error_names_the_candidate_once(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "minibiped_candidates.json").read_text())
        data["candidates"][0]["isometry"][0][1] = 0.1
        bad = tmp_path / "candidates.json"
        bad.write_text(json.dumps(data))
        assert run("robot", "verify", "--robot", str(FIXTURES / "minibiped.json"),
                   "--candidates", str(bad)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: candidate 'sagittal': 'isometry' is not orthogonal"]


@pytest.fixture(scope="module")
def k4_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "w.json"
    assert main(["net", "demo-train", "--net-spec", NETSPEC, "--steps", "1", "--out", str(path)]) == 0
    return path


# every JSON-taking option: (the command that reads it, the JSON options
# that command takes, each given its valid file unless it is the one broken)
FUZZ_COMMANDS = {
    "--rep-in": (["count"], ["--rep-in"]),
    "--rep-out": (["count"], ["--rep-in", "--rep-out"]),
    "--group": (["augment"], ["--group", "--schema"]),
    "--schema": (["augment"], ["--group", "--schema"]),
    "--net-spec": (["net", "demo-train", "--steps", "1"], ["--net-spec"]),
    "--weights": (["net", "verify"], ["--net-spec", "--weights"]),
    "--robot": (["robot", "verify", "--samples", "2"], ["--robot", "--candidates"]),
    "--candidates": (["robot", "verify", "--samples", "2"], ["--robot", "--candidates"]),
}
FUZZ_BREAKS = {
    "truncated": lambda text: text[: len(text) // 2],
    "non_utf8": lambda text: b"\xff" + text,
    "top_list": lambda text: b"[]",
    "top_number": lambda text: b"5",
    "top_string": lambda text: b'"text"',
    "top_null": lambda text: b"null",
}


def _edited(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data).encode()
    return edit


FUZZ_CASES = {
    **{f"{option[2:]}-{how}": (option, brk)
       for option in FUZZ_COMMANDS for how, brk in FUZZ_BREAKS.items()},
    # inputs that used to end in a traceback
    "body_name_list": ("--robot", _edited(lambda d: d["bodies"][0].update(name=[1]))),
    "net_spec_nonlinearity_int": ("--net-spec", _edited(lambda d: d.update(nonlinearity=5))),
    "net_spec_rep_int": ("--net-spec", _edited(lambda d: d.update(rep=5))),
    "weights_coeffs_object": ("--weights",
                              _edited(lambda d: d["layers"][0].update(coeffs={"a": 1}))),
    "weights_bias_hash": ("--weights", _edited(lambda d: d["layers"][0].update(bias_basis_hash="0" * 16))),
    "weights_coeff_missing": ("--weights", _edited(lambda d: d["layers"][0]["coeffs"].pop())),
}
# the error after "error: <file>: ", where a case pins it
FUZZ_MESSAGES = {"weights_bias_hash": "layer 0 bias basis hash mismatch",
                 "weights_coeff_missing": "layer 0 coefficient count mismatch"}


class TestJsonFuzz:
    """A malformed JSON file exits 2 with one stderr line that starts with
    its path, never a traceback."""

    @pytest.mark.parametrize("case", sorted(FUZZ_CASES))
    def test_malformed_json_exits_2_with_one_line(self, tmp_path, capsys, k4_weights, case):
        option, breaks = FUZZ_CASES[case]
        spec = tmp_path / "spec.json"  # the fixture spec with an absolute rep path
        spec.write_text(json.dumps({**json.loads(Path(NETSPEC).read_text()), "rep": K4}))
        files = {"--rep-in": K4, "--rep-out": K4, "--group": SOLO_GROUP, "--schema": COM_SCHEMA,
                 "--net-spec": spec, "--weights": k4_weights,
                 "--robot": FIXTURES / "minibiped.json",
                 "--candidates": FIXTURES / "minibiped_candidates.json"}
        bad = tmp_path / "bad.json"
        bad.write_bytes(breaks(Path(files[option]).read_bytes()))
        files[option] = bad
        words, options = FUZZ_COMMANDS[option]
        argv = words + [w for key in options for w in (key, files[key])]
        if words == ["augment"]:
            data = tmp_path / "data.csv"
            data.write_text("x\n1\n")
            argv += ["--in", data, "--out", tmp_path / "o.csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: {bad}: {FUZZ_MESSAGES.get(case, '')}")

    def test_non_utf8_csv_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x\n\xff\n")
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(data), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {data}: 'utf-8' codec can't decode byte 0xff in "
                                    "position 2: invalid start byte"]


class TestUsageErrors:
    def test_bad_tol(self, capsys):
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", NETSPEC,
                   "--tol", "-1") == 2
        assert "tol" in capsys.readouterr().err

    def test_bad_samples(self):
        assert run("robot", "verify", "--robot", str(FIXTURES / "minibiped.json"),
                   "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                   "--samples", "0") == 2

    @pytest.mark.parametrize("argv, option", [
        (["net", "demo-train", "--net-spec", NETSPEC, "--batch", "0"], "--batch"),
        (["net", "init-stats", "--group", K4, "--batch", "-1"], "--batch"),
        (["net", "init-stats", "--group", K4, "--width", "0"], "--width"),
        (["net", "demo-train", "--net-spec", NETSPEC, "--steps", "0"], "--steps"),
        (["net", "init-stats", "--group", K4, "--depth", "0"], "--depth"),
        (["net", "init-stats", "--group", K4, "--depth", "-3"], "--depth"),
    ], ids=["demo_train_batch", "init_stats_batch", "init_stats_width", "demo_train_steps",
            "init_stats_depth", "init_stats_depth_negative"])
    def test_size_below_one_exits_2(self, capsys, argv, option):
        assert run(*argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {option} must be >= 1"]

    ROBOT = ["robot", "verify", "--robot", str(FIXTURES / "minibiped.json"),
             "--candidates", str(FIXTURES / "minibiped_candidates.json"), "--samples", "2"]

    @pytest.mark.parametrize("argv", [
        ROBOT,
        ["net", "init-stats", "--group", K4, "--depth", "2", "--width", "8"],
        ["net", "verify", "--net-spec", NETSPEC, "--weights", NETSPEC],
        ["net", "demo-train", "--net-spec", NETSPEC, "--steps", "1"],
    ], ids=["robot_verify", "init_stats", "net_verify", "demo_train"])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exits_2(self, capsys, argv, seed):
        assert run(*argv, f"--seed={seed}") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: --seed must be >= 0"]

    # (command, the real-valued option) for every such option of every command
    REAL_OPTIONS = {
        "robot_tol": (ROBOT, "--tol"),
        "basis_tol": (["basis", "--rep-in", K4, "--out", "unwritten.json", "--oracle"], "--tol"),
        "net_verify_tol": (["net", "verify", "--net-spec", NETSPEC, "--weights", NETSPEC], "--tol"),
        "demo_train_lr": (["net", "demo-train", "--net-spec", NETSPEC, "--steps", "1"], "--lr"),
        "init_stats_const_var": (["net", "init-stats", "--group", K4, "--depth", "2"], "--const-var"),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("case", sorted(REAL_OPTIONS))
    def test_real_option_not_positive_finite_exits_2(self, tmp_path, capsys, monkeypatch, case, value):
        monkeypatch.chdir(tmp_path)
        argv, option = self.REAL_OPTIONS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, f"{option}={value}") == 2  # "=": argparse reads a bare -inf as an option
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {option} must be a positive finite number"]
        assert list(tmp_path.iterdir()) == []

    def test_unknown_nonlinearity_exits_2(self, capsys):
        assert run("net", "init-stats", "--group", K4, "--nonlinearity", "bogus") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: unknown nonlinearity 'bogus'"]

    @pytest.mark.parametrize("key, value, width", [
        ("hidden", [0], 0), ("hidden", [-4], -4), ("output", -4, -4)],
        ids=["hidden_0", "hidden_-4", "output_-4"])
    def test_net_spec_width_must_be_positive(self, tmp_path, capsys, key, value, width):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rep": K4, key: value}))
        assert run("net", "demo-train", "--net-spec", str(spec), "--steps", "1") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}: width {width} must be positive"]

    def test_seeded_determinism(self, tmp_path, capsys):
        args = ("robot", "verify", "--robot", str(FIXTURES / "minibiped.json"),
                "--candidates", str(FIXTURES / "minibiped_candidates.json"),
                "--samples", "10", "--seed", "7")
        run(*args)
        first = capsys.readouterr().out
        run(*args)
        assert capsys.readouterr().out == first


class TestImport:
    def test_cli_import_generates_no_dataclass_code(self):
        env = {**os.environ, "PYTHONPATH": str(Path(robosym.__file__).parents[1])}
        code = "import sys, robosym.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestOneProcess:
    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys):
        # the parser is built once per process; no call may see another's state
        calls = [
            ["basis", "--rep-in", C2, "--out", str(tmp_path / "b.json")],
            ["count", "--rep-in", C2, "--bogus"],  # an argparse usage error
            ["count", "--rep-in", K4],
            ["robot", "verify", "--robot", str(FIXTURES / "minibiped_perturbed.json"),
             "--candidates", str(FIXTURES / "minibiped_candidates.json"), "--samples", "5"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(robosym.__file__).parents[1])}
        alone = [subprocess.run([sys.executable, "-m", "robosym.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120) for argv in calls]
        assert [p.returncode for p in alone] == [0, 2, 0, 1]
        for argv, proc in zip(calls, alone):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv[0]
