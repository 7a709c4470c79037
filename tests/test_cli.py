"""End-to-end CLI contract: subcommands, exit codes, file outputs."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import robosym
from robosym import augment as aug
from conftest import FIXTURES
from robosym.cli import main
from robosym.errors import RoboSymError

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


def unwritable_outs(tmp_path):
    """An --out in a missing directory and an --out that is a directory, each
    with the one error line that names it."""
    missing, taken = tmp_path / "missing" / "out", tmp_path / "taken"
    taken.mkdir()
    return [(missing, f"error: [Errno 2] No such file or directory: '{missing}'"),
            (taken, f"error: [Errno 21] Is a directory: '{taken}'")]


class TestBasisCmd:
    def test_c2_swap_two_orbits(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert run("basis", "--rep-in", C2, "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["orbits"]) == 2
        assert "rank 2" in capsys.readouterr().out

    def test_tol_defaults_to_the_oracle_tolerance(self):
        from robosym.cli import build_parser
        from robosym.groups import ORACLE_TOL

        # the constant itself, not an equal literal
        assert build_parser().parse_args(["basis", "--rep-in", K4, "--out", "b.json"]).tol is ORACLE_TOL

    def test_oracle_agreement_k4(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert run("basis", "--rep-in", K4, "--out", str(out), "--oracle", "--json") == 0
        text = capsys.readouterr().out
        assert "oracle rank 4 = 4" in text
        report = json.loads((tmp_path / "basis.json.report.json").read_text())
        assert report["oracle_agrees"] and report["span_residual"] < 1e-10

    def test_oracle_on_1024_coefficients_stays_small(self, tmp_path):
        # identity on 32 coordinates: rank m n = 1024, the oracle's own stack is 8 MiB;
        # a dense copy of its columns would hold m n rank floats more, and their JSON text
        rep = tmp_path / "id32.json"
        rep.write_text(json.dumps({"dim": 32, "generators": [{"target": list(range(32)), "sign": [1] * 32}]}))
        tracemalloc.start()
        try:
            code = run("basis", "--rep-in", str(rep), "--out", str(tmp_path / "b.json"), "--oracle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 16 << 20

    def test_oracle_disagreement_exits_1(self, tmp_path, capsys, monkeypatch):
        oracle = robosym.basis.dense_nullspace_oracle
        monkeypatch.setattr(robosym.basis, "dense_nullspace_oracle", lambda *a, **k: oracle(*a, **k)[:, 1:])
        out = tmp_path / "basis.json"
        assert run("basis", "--rep-in", K4, "--out", str(out), "--oracle", "--json") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("oracle rank 3 = 4") and lines[2] == "oracle DISAGREES with orbit basis"
        report = json.loads((tmp_path / "basis.json.report.json").read_text())
        assert report["oracle_agrees"] is False and report["oracle_rank"] == 3 and report["rank"] == 4

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

    def test_unwritable_out_is_named_by_its_path(self, tmp_path, capsys):
        for out, message in unwritable_outs(tmp_path):
            assert run("basis", "--rep-in", C2, "--out", str(out)) == 2
            assert capsys.readouterr().err.splitlines() == [message]
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

    def test_escaped_target_key_exits_2_with_one_line(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rep.write_text(r'{"dim": 2, "generators": [{"\u0074arget": [0, 0], "sign": [1, 1]}]}')
        assert run("count", "--rep-in", str(rep)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {rep}: generator 0 (line 1): target is not a permutation of 0..dim-1"]

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

    def _every_field_kind_against_reference(self, tmp_path, group, flag):
        from robosym import augment as aug

        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(self.ALL_KINDS))
        bundle = aug.load_group_bundle(group)
        schema = aug.resolve_schema(self.ALL_KINDS["fields"], bundle.joint_rep,
                                    bundle.isometries, bundle.leg_perm)
        plan = aug.compile_schema(schema, bundle.group, bundle.joint_rep,
                                  bundle.isometries, bundle.leg_perm)
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((bundle.group.order * 300 if flag else 300, schema.width))
        rows[rng.random(rows.shape) < 0.01] = -0.0
        rows[:3, 0], rows[3, :4] = [np.nan, np.inf, -np.inf], 0.0
        columns = list(schema.column_names())
        for k, name in enumerate(("v_1", "w_0", "feet_1", "pose_5")):  # specials in the rotated fields
            rows[4 + 4 * k : 8 + 4 * k, columns.index(name)] = [np.nan, np.inf, -np.inf, -0.0]
        data, out = tmp_path / "data.csv", tmp_path / "out.csv"
        aug.write_csv(str(data), columns, rows)
        assert run("augment", "--group", group, "--schema", str(schema_path),
                   "--in", str(data), "--out", str(out), *flag) == 0
        expected = aug.orbit_average(plan, rows) if flag else aug.augment_dataset(plan, rows)
        lines = [",".join(columns)] + [",".join(f"{v:.17g}" for v in r) for r in expected]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("flag", [[], ["--orbit-average"]], ids=["augment", "orbit_average"])
    def test_every_field_kind_matches_fstring_reference(self, tmp_path, flag):
        self._every_field_kind_against_reference(tmp_path, SOLO_GROUP, flag)

    @pytest.mark.parametrize("flag", [[], ["--orbit-average"]], ids=["augment", "orbit_average"])
    def test_every_field_kind_matches_fstring_reference_under_c3(self, tmp_path, flag):
        # a turn by 120 degrees about z mixes x and y in every rotated field, so the
        # writer formats most of their copies afresh, and inf * 0 gives NaN there
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        group = tmp_path / "c3.json"
        group.write_text(json.dumps({"dim": 9, "generators": [
            {"target": [3, 4, 5, 6, 7, 8, 0, 1, 2], "sign": [1] * 9,
             "isometry": [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], "leg_perm": [1, 2, 0]}]}))
        self._every_field_kind_against_reference(tmp_path, str(group), flag)

    # (group file, schema file): the SHA-256 of what `augment` writes for a seeded 500-row CSV is pinned
    PINNED = {"k4_solo-com": ("k4_solo.json", "com_schema.json"),
              "c2_minicheetah-contact": ("c2_minicheetah.json", "contact_schema.json"),
              "c2_minicheetah-minicheetah": ("c2_minicheetah.json", "minicheetah_schema.json")}

    @pytest.mark.parametrize("flag", [[], ["--orbit-average"]], ids=["augment", "orbit_average"])
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_bytes_are_pinned(self, tmp_path, case, flag):
        group, schema = (str(FIXTURES / name) for name in self.PINNED[case])
        bundle = aug.load_group_bundle(group)
        names = list(aug.resolve_schema(aug.load_schema(schema), bundle.joint_rep, bundle.isometries,
                                        bundle.leg_perm).column_names())
        rows = np.random.default_rng(2023).standard_normal((500, len(names)))
        data, out = tmp_path / "data.csv", tmp_path / "out.csv"
        data.write_text("\n".join([",".join(names)] + [",".join(f"{v:.17g}" for v in r) for r in rows]) + "\n")
        assert run("augment", "--group", group, "--schema", schema, "--in", str(data), "--out", str(out), *flag) == 0
        digests = json.loads((FIXTURES / "augment_digests.json").read_text())
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[f"{case}-{'orbit_average' if flag else 'augment'}"]

    def test_unwritable_out_is_named_by_its_path(self, tmp_path, capsys):
        path, _ = self._write_dataset(tmp_path)
        for out, message in unwritable_outs(tmp_path):
            assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                       "--in", str(path), "--out", str(out)) == 2
            assert capsys.readouterr().err.splitlines() == [message]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "taken"]

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

    def test_header_width_is_checked_before_the_schema_sizes_anything(self, tmp_path, capsys):
        # a schema declaring 10^7 columns against a one-column file: no plan and
        # no list of 10^7 names is built before the header is refused
        schema = tmp_path / "wide.json"
        schema.write_text(json.dumps({"fields": [{"name": "s", "kind": "invariant_scalar", "dim": 10**7}]}))
        path = tmp_path / "one.csv"
        path.write_text("x\n1\n")
        tracemalloc.start()
        try:
            code = run("augment", "--group", SOLO_GROUP, "--schema", str(schema),
                       "--in", str(path), "--out", str(tmp_path / "o.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 20
        assert capsys.readouterr().err.splitlines() == [
            "error: CSV header does not match schema: got ['x']..., expected ['s_0', 's_1', 's_2', 's_3']..."]

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
        assert err.splitlines() == [f"error: {group}: generator 0 (line 1): 'isometry' has non-finite entries"]

    def test_huge_isometry_entry_exits_2_without_warning(self, tmp_path, capsys):
        # r^T r overflows on an entry near the float maximum; the check still names orthogonality
        data = json.loads(Path(SOLO_GROUP).read_text())
        data["generators"][1]["isometry"][0][0] = 1e308
        group = tmp_path / "group.json"
        group.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("augment", "--group", str(group), "--schema", COM_SCHEMA,
                       "--in", str(tmp_path / "unread.csv"), "--out", str(tmp_path / "o.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {group}: generator 1 (line 1): 'isometry' is not orthogonal"]

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
                   "--width", "256", "--nonlinearity", "relu") == 0
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

    @pytest.mark.parametrize("where", ["--width", "hidden", "output"])
    def test_width_above_the_tracer_cap_exits_2(self, tmp_path, capsys, where):
        width = 10**20  # a multiple of 4, too large for an index
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rep": K4, "hidden": [width] if where == "hidden" else [],
                                    "output": width}))
        argv = (["net", "init-stats", "--group", K4, "--width", str(width)] if where == "--width"
                else ["net", "demo-train", "--net-spec", str(spec), "--steps", "1"])
        tracemalloc.start()
        try:
            assert run(*argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        named = "" if where == "--width" else f"{spec}: "
        assert capsys.readouterr().err.splitlines() == [
            f"error: {named}width {width} exceeds the orbit tracer's cap 2147483647"]
        assert peak < 1 << 20

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

    @staticmethod
    def _strict_json(text):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        return json.loads(text, parse_constant=refuse)

    def test_init_stats_overflow_exits_2_naming_the_layer(self, capsys):
        assert run("net", "init-stats", "--group", K4, "--width", "8", "--depth", "3",
                   "--const-var", "1e300", "--json") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: layer 2: the pre-activation std overflows at --const-var 1e+300"]

    def test_init_stats_underflow_report_is_strict_json(self, capsys):
        assert run("net", "init-stats", "--group", K4, "--width", "8", "--depth", "3",
                   "--const-var", "5e-324", "--json") == 0
        text = capsys.readouterr().out
        report = self._strict_json(text[text.index("{"):])
        assert report["profile"][1:] == [0.0, 0.0] and report["ratio"] == 0.0

    def test_demo_train_non_finite_loss_is_null(self, capsys):
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "20", "--lr", "1e30", "--json") == 1
        out, err = capsys.readouterr()
        line, text = out.split("\n", 1)
        assert err == "" and line == "loss 0.172314 -> nan after 20 gradient steps"
        assert self._strict_json(text) == {"loss_final": None, "loss_initial": 0.17231432674913988, "steps": 20}

    def test_demo_train_output_is_pinned(self, tmp_path, capsys):
        import hashlib

        weights = tmp_path / "w.json"
        assert run("net", "demo-train", "--net-spec", NETSPEC, "--seed", "7", "--steps", "40",
                   "--out", str(weights)) == 0
        assert capsys.readouterr().out.splitlines()[0] == "loss 0.165004 -> 0.122943 after 40 gradient steps"
        assert hashlib.sha256(weights.read_bytes()).hexdigest() == (
            "04848903831d61ff0fcbf49561eeb43c138951572026157775805e70f9c09476")

    @pytest.mark.parametrize("nonlinearity", ["tanh", "selu"])
    def test_demo_train_other_nonlinearities_are_pinned(self, tmp_path, nonlinearity):
        spec = json.loads(Path(NETSPEC).read_text())
        spec.update(rep=K4, nonlinearity=nonlinearity)
        spec_path, weights = tmp_path / "spec.json", tmp_path / "w.json"
        spec_path.write_text(json.dumps(spec))
        assert run("net", "demo-train", "--net-spec", str(spec_path), "--seed", "7", "--steps", "40",
                   "--out", str(weights), "--json") == 0
        digests = json.loads((FIXTURES / "net_digests.json").read_text())
        for kind, path in (("weights", weights), ("report", tmp_path / "w.json.report.json")):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[f"demo_train-{nonlinearity}-{kind}"]

    @pytest.mark.parametrize("mode", ["fan_in", "const_var"])
    @pytest.mark.parametrize("nonlinearity", ["relu", "selu", "tanh"])
    def test_init_stats_report_is_pinned(self, capsys, nonlinearity, mode):
        init = ["--const-var", "0.0025"] if mode == "const_var" else []  # else the fan-in variance
        assert run("net", "init-stats", "--group", K4, "--depth", "8", "--width", "64", "--batch", "64",
                   "--nonlinearity", nonlinearity, *init, "--json") == 0
        digests = json.loads((FIXTURES / "net_digests.json").read_text())
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digests[f"init_stats-{nonlinearity}-{mode}"]

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


    def test_verify_huge_coefficient_exits_2(self, tmp_path, capsys):
        # a finite coefficient near the float maximum overflows the outputs: no warning and
        # no NaN violation reported as a failure, since the net is equivariant by construction
        weights = tmp_path / "w.json"
        run("net", "demo-train", "--net-spec", NETSPEC, "--steps", "2", "--out", str(weights))
        data = json.loads(weights.read_text())
        data["layers"][0]["coeffs"][0] = 1e308
        weights.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", str(weights)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {weights}: coefficients too large: the net's outputs overflow"]


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


class TestRobotDigests:
    """SHA-256 of what `robot verify` writes, pinned in robot_digests.json: the stdout of a --json run
    per robot fixture, and the stderr of malformed candidate files."""

    DIGESTS = json.loads((FIXTURES / "robot_digests.json").read_text())
    # robot fixture: (its candidates file, exit code)
    RUNS = {"minibiped": ("minibiped", 0), "minibiped_perturbed": ("minibiped", 1),
            "solo_like": ("solo_like", 0), "trifinger": ("trifinger", 0)}
    # edits of minibiped_candidates.json, each of which exits 2
    BAD = {"joint_perm_not_object": lambda d: d["candidates"][0].update(joint_perm=[1, 0]),
           "pairing_not_bijection": lambda d: d["candidates"][0]["body_pairing"].update(torso="leg_l"),
           "isometry_not_orthogonal": lambda d: d["candidates"][0]["isometry"][0].__setitem__(1, 0.1),
           "joint_perm_dim": lambda d: d["candidates"][0].update(joint_perm={"target": [0], "sign": [1]}),
           "entry_not_object": lambda d: d["candidates"].__setitem__(0, [1])}

    @staticmethod
    def _verify(robot, candidates, *flags):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run("robot", "verify", "--robot", str(FIXTURES / f"{robot}.json"), "--candidates", candidates,
                       *flags)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("robot", sorted(RUNS))
    def test_json_report_is_pinned(self, robot):
        cands, code = self.RUNS[robot]
        got = self._verify(robot, str(FIXTURES / f"{cands}_candidates.json"), "--samples", "50", "--seed", "3",
                           "--json")
        assert got[0] == code and got[2] == ""
        assert hashlib.sha256(got[1].encode()).hexdigest() == self.DIGESTS[f"verify-{robot}"]

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_error_line_is_pinned(self, tmp_path, monkeypatch, case):
        data = json.loads((FIXTURES / "minibiped_candidates.json").read_text())
        self.BAD[case](data)
        (tmp_path / "candidates.json").write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)  # the error line names the file as given: a relative name keeps it fixed
        code, out, err = self._verify("minibiped", "candidates.json", "--samples", "5")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert hashlib.sha256(err.encode()).hexdigest() == self.DIGESTS[f"error-{case}"]


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
        "hidden_bool": ("net", "--net-spec", {"rep": K4, "hidden": [4, True]}),
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
    MALFORMED_KEY = {"generator_dim_list": "dim", "net_seed_list": "seed", "hidden_bool": "hidden",
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
        # a JSON boolean is no width, also where it would be a valid one (true as 1)
        "net_hidden_bool": ("net", {"rep": K4, "hidden": [True]},
                            "entry 0: 'hidden' must be an integer, got bool"),
        "net_hidden_bool_trivial": ("net", {"rep": TRIV, "hidden": [True, 2]},
                                    "entry 0: 'hidden' must be an integer, got bool"),
        "generator_target_short": ("count", {"dim": 2, "generators": [{"target": [1], "sign": [1, 1]}]},
                                   "generator 0 (line 1): target/sign length must equal dim"),
        "generators_empty": ("count", {"dim": 2, "generators": []}, "no generators"),
        "generator_dim_zero": ("count", {"dim": 0, "generators": [{"target": [], "sign": []}]},
                               "generator 0 (line 1): dim must be positive, got 0"),
        # an entry without a "target" key is named by the line it starts on
        "generator_without_target": ("count", {"dim": 2, "generators": [{"sign": [1, 1]}, SWAP]},
                                     "generator 0 (line 1): generator needs 'target' and 'sign' arrays"),
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
        # finite entries whose products in M would overflow
        "body_com_huge": ("robot", lambda d: d["bodies"][1]["com"].__setitem__(0, 1e308),
                          "body 'leg_l': 'com' has entries above 1e+50 in magnitude"),
        "joint_origin_xyz_huge": ("robot", lambda d: d["joints"][0].update(origin_xyz=[0.0, -1e51, 0.0]),
                                  "joint 'hip_l': 'origin_xyz' has entries above 1e+50 in magnitude"),
        "joint_axis_norm_huge": ("robot", lambda d: d["joints"][0].update(axis=[0.0, 1e308, 0.0]),
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
                                  "candidate 'sagittal': 'joint_perm' must be an object, got list"),
        "joint_entry_not_object": ("robot", lambda d: d["joints"].__setitem__(0, 5),
                                   "joint entry 0: expected an object, got int"),
        "body_entry_not_object": ("robot", lambda d: d["bodies"].__setitem__(1, 5),
                                  "body entry 1: expected an object, got int"),
        "candidate_entry_not_object": ("candidates", lambda d: d["candidates"].__setitem__(0, [1]),
                                       "candidate entry 0: expected an object, got list"),
        "candidates_empty": ("candidates", lambda d: d["candidates"].clear(), "the 'candidates' list is empty"),
        "candidates_missing": ("candidates", lambda d: d.clear(), "the 'candidates' list is empty"),
        "body_com_ragged": ("robot", lambda d: d["bodies"][0].update(com=[0.0, [1.0, 2.0], 0.0]),
                            "body entry 'torso': 'com' is ragged: its lists differ in length or sit beside numbers"),
        "body_inertia_ragged": ("robot",
                                lambda d: d["bodies"][0].update(inertia=[[0.1, 0.0], [0.0], 0.2, 0.0, 0.0, 0.3]),
                                "body entry 'torso': 'inertia' is ragged: "
                                "its lists differ in length or sit beside numbers"),
        "joint_axis_huge_int": ("robot", lambda d: d["joints"][0].update(axis=[0.0, 10 ** 400, 0.0]),
                                "joint entry 'hip_l': 'axis' has an integer beyond the float range"),
        "candidate_isometry_ragged": ("candidates",
                                      lambda d: d["candidates"][0]["isometry"].__setitem__(1, [0.0, 1.0]),
                                      "candidate 'sagittal': 'isometry' is ragged: "
                                      "its lists differ in length or sit beside numbers"),
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

    # a group file's malformed extension keys: (the edit of k4_solo's generators, the error after
    # "generator 1 (line 3): "); each edit makes generator 1 the first entry that fails
    BAD_EXTENSIONS = {
        "isometry_not_orthogonal": (lambda g: g[1]["isometry"][0].__setitem__(0, 1.1),
                                    "'isometry' is not orthogonal"),
        "isometry_nan": (lambda g: g[1]["isometry"][0].__setitem__(0, float("nan")),
                         "'isometry' has non-finite entries"),
        "isometry_stack": (lambda g: g[1].update(isometry=[g[1]["isometry"]]),
                           "'isometry' must be a square matrix, got shape (1, 3, 3)"),
        "leg_perm_repeated_leg": (lambda g: g[1].update(leg_perm=[0, 0, 1, 2]),
                                  "'leg_perm' must list each leg 0..L-1 once, got [0, 0, 1, 2]"),
        "leg_perm_float": (lambda g: g[1]["leg_perm"].__setitem__(1, 3.0),
                           "entry 1: 'leg_perm' must be an integer, got float"),
        "leg_perm_other_leg_count": (lambda g: g[1].update(leg_perm=[1, 0]),
                                     "'leg_perm' lists 2 legs but an earlier generator's lists 4"),
        "isometry_on_some": (lambda g: g[1].pop("isometry"), "either all generators carry 'isometry' or none"),
        "leg_perm_on_some": (lambda g: g[0].pop("leg_perm"), "either all generators carry 'leg_perm' or none"),
    }

    @pytest.mark.parametrize("command", ["basis", "count", "net", "augment"])
    @pytest.mark.parametrize("case", sorted(BAD_EXTENSIONS))
    def test_every_reader_of_a_group_file_refuses_a_bad_extension(self, tmp_path, capsys, case, command):
        # one reader checks every key of a generator entry, so every command refuses the
        # file with one line that names the generator and the line its entry starts on
        edit, message = self.BAD_EXTENSIONS[case]
        generators = json.loads(Path(SOLO_GROUP).read_text())["generators"]
        edit(generators)
        group = tmp_path / "group.json"
        group.write_text('{"dim": 12, "generators": [\n' + ",\n".join(map(json.dumps, generators)) + "\n]}\n")
        out = tmp_path / "out"
        argv = {"basis": ["basis", "--rep-in", group, "--out", out], "count": ["count", "--rep-in", group],
                "net": ["net", "init-stats", "--group", group, "--depth", "1", "--width", "4", "--batch", "2"],
                "augment": ["augment", "--group", group, "--schema", COM_SCHEMA,
                            "--in", tmp_path / "unread.csv", "--out", out]}[command]
        assert run(*map(str, argv)) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {group}: generator 1 (line 3): {message}"]
        assert not out.exists()


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
    "net_spec_nonlinearity_null": ("--net-spec", _edited(lambda d: d.update(nonlinearity=None))),
    "net_spec_seed_negative": ("--net-spec", _edited(lambda d: d.update(seed=-1))),
    # numbers that are no JSON numbers, which used to be coerced and pass
    "weights_coeffs_string": ("--weights", _edited(lambda d: d["layers"][0]["coeffs"].__setitem__(0, "0.123"))),
    "weights_bias_coeffs_bool": ("--weights", _edited(lambda d: d["layers"][1]["bias_coeffs"].__setitem__(0, True))),
    "body_mass_string": ("--robot", _edited(lambda d: d["bodies"][0].update(mass="1.5"))),
    "body_mass_bool": ("--robot", _edited(lambda d: d["bodies"][0].update(mass=True))),
    "body_com_string": ("--robot", _edited(lambda d: d["bodies"][1]["com"].__setitem__(1, "0.0"))),
    "joint_origin_xyz_string": ("--robot", _edited(lambda d: d["joints"][0].update(origin_xyz=[0, "0.1", 0]))),
    "candidate_isometry_string": ("--candidates",
                                  _edited(lambda d: d["candidates"][0]["isometry"][0].__setitem__(0, "-1.0"))),
    "group_isometry_string": ("--group", _edited(lambda d: d["generators"][1]["isometry"][2].__setitem__(1, "0"))),
    # a JSON integer beyond the float range
    "body_mass_huge_integer": ("--robot", _edited(lambda d: d["bodies"][0].update(mass=10**400))),
    # a repeated key, whose last value used to win silently
    "body_mass_duplicated": ("--robot", lambda text: text.replace(b'"mass": ', b'"mass": 999.0, "mass": ', 1)),
    # values of the wrong type that used to end in a message naming no key
    "generator_sign_float": ("--rep-in", _edited(lambda d: d["generators"][0].update(sign=3.0))),
    "candidate_body_pairing_list": ("--candidates",
                                    _edited(lambda d: d["candidates"][0]["body_pairing"].update(torso=[]))),
    # a list entry that is no object, which each reader used to word its own way
    "generator_entry_string": ("--rep-in", _edited(lambda d: d["generators"].__setitem__(1, "target sign"))),
    "schema_field_int": ("--schema", _edited(lambda d: d["fields"].__setitem__(0, 5))),
    "weights_layer_int": ("--weights", _edited(lambda d: d["layers"].__setitem__(0, 5))),
}
# the whole error after "error: <file>: ", where a case pins it
FUZZ_MESSAGES = {"weights_bias_hash": "layer 0 bias basis hash mismatch: file has '0000000000000000', "
                                      "basis is '4c25fa45b033a452'",
                 "weights_coeff_missing": "layer 0 coefficient count mismatch",
                 "net_spec_rep_int": "'rep' must be a string, got int",
                 "net_spec_nonlinearity_int": "'nonlinearity' must be a string, got int",
                 "net_spec_nonlinearity_null": "'nonlinearity' must be a string, got NoneType",
                 "net_spec_seed_negative": "'seed' must be >= 0, got -1",
                 "weights_coeffs_string": "layer 0: entry 0: 'coeffs' must be a number, got str",
                 "weights_bias_coeffs_bool": "layer 1: entry 0: 'bias_coeffs' must be a number, got bool",
                 "body_mass_string": "body entry 'torso': 'mass' must be a number, got str",
                 "body_mass_bool": "body entry 'torso': 'mass' must be a number, got bool",
                 "body_com_string": "body entry 'leg_l': entry 1: 'com' must be a number, got str",
                 "joint_origin_xyz_string": "joint entry 'hip_l': entry 1: 'origin_xyz' must be a number, got str",
                 "candidate_isometry_string":
                     "candidate 'sagittal': entry (0, 0): 'isometry' must be a number, got str",
                 "group_isometry_string":
                     "generator 1 (line 1): entry (2, 1): 'isometry' must be a number, got str",
                 "body_mass_huge_integer": "body entry 'torso': 'mass' has an integer beyond the float range",
                 "body_mass_duplicated": "invalid JSON: duplicated key 'mass'",
                 "generator_sign_float": "generator 0 (line 1): 'sign' must be a list, got float",
                 "candidate_body_pairing_list":
                     "candidate 'sagittal': 'body_pairing' must map body names to body names",
                 "generator_entry_string": "generator 1 (line 1): expected an object, got str",
                 "schema_field_int": "schema field 0: expected an object, got int",
                 "weights_layer_int": "'layers' entry 0: expected an object, got int"}


# per kind of JSON input the CLI reads: the command that reads it and the option naming it
MUTATED_COMMANDS = {"rep": (["count"], "--rep-in"), "group": (["augment"], "--group"),
                    "schema": (["augment"], "--schema"), "net_spec": (["net", "demo-train", "--steps", "1"], "--net-spec"),
                    "weights": (["net", "verify", "--samples", "4"], "--weights"),
                    "robot": (["robot", "verify", "--samples", "2"], "--robot"),
                    "candidates": (["robot", "verify", "--samples", "2"], "--candidates")}
# every such input: (its kind, its fixture, the fixtures its command reads beside it); the net
# spec is read with an absolute rep path, and the weights file is a trained one
MUTATED_INPUTS = {
    **{f"rep-{name}": ("rep", f"{name}.json", {}) for name in ("k4_regular", "c2_swap", "sign_flip", "trivial_c2")},
    "group-k4_solo": ("group", "k4_solo.json", {"--schema": "com_schema.json"}),
    "group-c2_minicheetah": ("group", "c2_minicheetah.json", {"--schema": "minicheetah_schema.json"}),
    "schema-com": ("schema", "com_schema.json", {"--group": "k4_solo.json"}),
    "schema-minicheetah": ("schema", "minicheetah_schema.json", {"--group": "c2_minicheetah.json"}),
    "schema-contact": ("schema", "contact_schema.json", {"--group": "c2_minicheetah.json"}),
    "net_spec": ("net_spec", None, {}),
    "weights": ("weights", None, {}),
    **{f"robot-{name}": ("robot", f"{name}.json", {"--candidates": f"{cands}_candidates.json"})
       for name, cands in (("minibiped", "minibiped"), ("minibiped_perturbed", "minibiped"),
                           ("solo_like", "solo_like"), ("trifinger", "trifinger"))},
    **{f"candidates-{name}": ("candidates", f"{name}_candidates.json", {"--robot": f"{name}.json"})
       for name in ("minibiped", "solo_like", "trifinger")},
}
MUTANTS = (None, True, False, "", [], {}, 1e30, -1e30, float("nan"), 1e308, 1e-320, 10**400)
MUTATIONS_PER_INPUT = 48


def _value_paths(data, path=()):
    """The path of every value inside decoded JSON ``data``, its root excluded."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _value_paths(value, (*path, key))


def _mutated(data, path, how):
    """A copy of ``data`` whose value at ``path`` is swapped for ``how[1]`` ("set"), deleted
    ("delete") or, in a list, given a copy beside it ("duplicate")."""
    data = json.loads(json.dumps(data))
    *parents, key = path
    owner = data
    for k in parents:
        owner = owner[k]
    if how[0] == "set":
        owner[key] = how[1]
    elif how[0] == "delete":
        del owner[key]
    else:
        owner.insert(key, owner[key])
    return data


def _mutations(data, rng, count):
    """``count`` (path, how) pairs drawn from every value and every way to change it."""
    cases = [(path, how) for path in _value_paths(data)
             for how in [("set", v) for v in MUTANTS] + [("delete",)]
             + [("duplicate",)] * isinstance(path[-1], int)]
    return [cases[i] for i in rng.choice(len(cases), min(count, len(cases)), replace=False)]


class TestJsonFuzz:
    """A malformed JSON file exits 2 with one stderr line that starts with
    its path, never a traceback."""

    @pytest.mark.parametrize("name", sorted(MUTATED_INPUTS))
    def test_value_mutations_keep_the_exit_code_contract(self, tmp_path, k4_weights, name):
        # a finding: an exception or warning escaping main, a code outside {0, 1, 2}, exit 2
        # with other than one stderr line, or exit 1 with a NaN in a report when no input held one
        kind, fixture, others = MUTATED_INPUTS[name]
        words, option = MUTATED_COMMANDS[kind]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**json.loads(Path(NETSPEC).read_text()), "rep": K4}))
        files = {key: FIXTURES / f for key, f in others.items()}
        files[option] = {"net_spec": spec, "weights": k4_weights}.get(kind, FIXTURES / str(fixture))
        if kind == "weights":
            files["--net-spec"] = spec
        report = tmp_path / "o.csv.report.json"
        if words == ["augment"]:  # a one-row CSV under the schema's header
            bundle, schema_file = aug.load_group_bundle(str(files["--group"])), files["--schema"]
            files["--in"], files["--out"] = tmp_path / "data.csv", tmp_path / "o.csv"

            def write_data(schema_path):
                schema = aug.resolve_schema(aug.load_schema(str(schema_path)),
                                            bundle.joint_rep, bundle.isometries, bundle.leg_perm)
                files["--in"].write_text(",".join(schema.column_names()) + "\n" + ",".join(["0.5"] * schema.width) + "\n")

            write_data(schema_file)
        data = json.loads(Path(files[option]).read_text())
        bad = files[option] = tmp_path / "bad.json"
        argv = words + [str(w) for pair in files.items() for w in pair] + ["--json"]
        findings = []
        for path, how in _mutations(data, np.random.default_rng(sorted(MUTATED_INPUTS).index(name)),
                                    MUTATIONS_PER_INPUT):
            bad.write_text(json.dumps(_mutated(data, path, how)))
            if kind == "schema":  # the CSV under the mutant's own header, so a mutant that resolves is compiled
                try:
                    write_data(bad)
                except (RoboSymError, TypeError):  # rejected: the unmutated schema's CSV
                    write_data(schema_file)
            report.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
                    warnings.simplefilter("error")
                    code = main(argv)
            except Exception as exc:  # an escape, a warning made an error included
                findings.append((path, how, repr(exc)))
                continue
            text = stdout.getvalue() + (report.read_text() if report.exists() else "")
            if (code not in (0, 1, 2) or code == 2 and len(stderr.getvalue().splitlines()) != 1
                    or code == 1 and "NaN" in text and "NaN" not in json.dumps(how)):
                findings.append((path, how, code, stderr.getvalue()))
        assert findings == []

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
        assert err.startswith(f"error: {bad}: ")
        if case in FUZZ_MESSAGES:
            assert err == f"error: {bad}: {FUZZ_MESSAGES[case]}\n"

    def test_non_utf8_csv_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x\n\xff\n")
        assert run("augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA,
                   "--in", str(data), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {data}: 'utf-8' codec can't decode byte 0xff in "
                                    "position 2: invalid start byte"]


class TestMissingInput:
    """A missing input exits 2 with the reader's one line, which names the
    path, before any output is written."""

    AUGMENT = ["augment", "--out", "OUT"], ["--group", "--schema", "--in"]
    DEMO_TRAIN = ["net", "demo-train", "--steps", "1", "--out", "OUT"], ["--net-spec"]
    # the option whose file is missing ("rep": the net spec's): the command and its input options
    CASES = {"--rep-in": (["basis", "--out", "OUT"], ["--rep-in"]),
             "--rep-out": (["basis", "--out", "OUT"], ["--rep-in", "--rep-out"]),
             "init-stats --group": (["net", "init-stats"], ["--group"]),
             "--group": AUGMENT, "--schema": AUGMENT, "--in": AUGMENT,
             "--net-spec": DEMO_TRAIN, "rep": DEMO_TRAIN,
             "--weights": (["net", "verify"], ["--net-spec", "--weights"]),
             "--robot": (["robot", "verify"], ["--robot", "--candidates"]),
             "--candidates": (["robot", "verify"], ["--robot", "--candidates"])}

    @pytest.mark.parametrize("option", CASES)
    def test_missing_input_exits_2_with_one_line(self, tmp_path, capsys, k4_weights, option):
        missing = tmp_path / "missing.json"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rep": missing.name if option == "rep" else K4, "hidden": [8]}))
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n")
        files = {"--rep-in": K4, "--rep-out": TRIV, "--group": SOLO_GROUP, "--schema": COM_SCHEMA,
                 "--in": data, "--net-spec": spec, "--weights": k4_weights,
                 "--robot": FIXTURES / "minibiped.json",
                 "--candidates": FIXTURES / "minibiped_candidates.json"}
        files[option.split()[-1]] = missing
        words, options = self.CASES[option]
        argv = [tmp_path / "out" if w == "OUT" else w for w in words]
        argv += [w for key in options for w in (key, files[key])]
        before = sorted(tmp_path.iterdir())
        assert run(*map(str, argv)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno 2] No such file or directory: '{missing}'"]
        assert sorted(tmp_path.iterdir()) == before


class TestUsageErrors:
    def test_bad_tol(self, capsys):
        assert run("net", "verify", "--net-spec", NETSPEC, "--weights", NETSPEC,
                   "--tol", "-1") == 2
        assert "tol" in capsys.readouterr().err

    def test_init_stats_has_no_mode_option(self, capsys):
        # every init-stats layer is width -> width, so fan-in and fan-out gave the same variance
        with pytest.raises(SystemExit) as exit_:
            run("net", "init-stats", "--group", K4, "--mode", "fan_out")
        assert exit_.value.code == 2 and "unrecognized arguments: --mode fan_out" in capsys.readouterr().err

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
    # the package's public names, by the module that defines them
    PUBLIC = {
        "errors": ["BadInertia", "CapExceeded", "ClosureExceeded", "DegenerateBasis", "DimMismatch",
                   "GroupMismatch", "IncompatibleWidth", "NonIntegralRank", "ParseError", "RoboSymError",
                   "SchemaError", "TreeCycle"],
        "groups": ["FiniteGroup", "Representation", "act", "direct_sum", "group_closure", "load_representation",
                   "regular_representation", "tensor_on_linear_maps", "tiled_regular_representation",
                   "trivial_representation", "verify_homomorphism"],
        "basis": ["EquivBasis", "Orbits", "bias_basis", "burnside_rank", "dense_nullspace_oracle", "orbit_basis",
                  "span_residual"],
    }
    # what `import robosym` runs, and the modules it registers to load on first use
    PACKAGE = ["robosym", "robosym.errors", "robosym.fileio", "robosym.groups"]
    LAZY = ["robosym.augment", "robosym.basis", "robosym.nets", "robosym.rigid"]

    @staticmethod
    def fresh(code: str):
        """The JSON value printed last by ``code``, run in a new interpreter in which
        ``loaded()`` lists the robosym modules that have run and ``registered()`` those in
        sys.modules; a module registered to load on first use is not a plain ModuleType, and
        ``type`` does not load it."""
        prelude = ("import json, sys, types\n"
                   "def loaded(): return sorted(n for n, m in sys.modules.items()\n"
                   "                            if n.startswith('robosym') and type(m) is types.ModuleType)\n"
                   "def registered(): return sorted(n for n in sys.modules if n.startswith('robosym'))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(robosym.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_import_generates_no_dataclass_code(self):
        assert self.fresh("import robosym.cli; print(json.dumps('dataclasses' in sys.modules))") is False

    def test_cli_import_runs_only_the_modules_it_needs(self):
        loaded, registered = self.fresh("import robosym.cli; print(json.dumps([loaded(), registered()]))")
        assert loaded == sorted(self.PACKAGE + ["robosym.cli"])
        assert registered == sorted(loaded + self.LAZY)

    def test_the_package_registers_every_layer_module_at_once(self):
        # a tracer that wraps the layer modules finds each in sys.modules without importing it
        loaded, registered = self.fresh("import robosym; print(json.dumps([loaded(), registered()]))")
        assert loaded == self.PACKAGE
        assert registered == sorted(loaded + self.LAZY)

    @pytest.mark.parametrize("argv, layers", [
        (["robot", "verify", "--robot", str(FIXTURES / "minibiped.json"),
          "--candidates", str(FIXTURES / "minibiped_candidates.json"), "--samples", "5"], ["robosym.rigid"]),
        (["augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA], ["robosym.augment"]),
        (["basis", "--rep-in", K4], ["robosym.basis"]),
        (["count", "--rep-in", K4], ["robosym.basis"]),
        (["net", "demo-train", "--net-spec", NETSPEC, "--steps", "1"], ["robosym.basis", "robosym.nets"]),
    ], ids=["robot_verify", "augment", "basis", "count", "net_demo_train"])
    def test_a_command_loads_only_its_own_layer(self, tmp_path, argv, layers):
        if argv[0] == "augment":
            argv = argv + ["--in", str(TestAugmentCmd()._write_dataset(tmp_path)[0])]
        if argv[0] in ("augment", "basis"):
            argv = argv + ["--out", str(tmp_path / "out")]
        code, added = self.fresh(f"import robosym.cli\nbefore = loaded()\ncode = robosym.cli.main({argv!r})\n"
                                 "print(json.dumps([code, sorted(set(loaded()) - set(before))]))")
        assert (code, added) == (0, layers)

    @pytest.mark.parametrize("first, then", [("robosym.basis", "robosym.cli"), ("robosym.cli", "robosym.basis")])
    def test_basis_is_one_module_whatever_is_imported_first(self, first, then):
        assert self.fresh(f"import {first}, {then}\nimport robosym\nb = sys.modules['robosym.basis']\n"
                          "print(json.dumps([b is robosym.basis is robosym.cli.bas,"
                          " robosym.EquivBasis is b.EquivBasis, robosym.orbit_basis is b.orbit_basis]))"
                          ) == [True, True, True]

    def test_every_public_name_resolves_both_ways(self):
        pairs = [(module, name) for module, names in self.PUBLIC.items() for name in names]
        assert len(pairs) == 30
        checks = self.fresh(
            "import robosym\nout = []\n"
            f"for module, name in {pairs!r}:\n"
            "    exec(f'from robosym import {name} as imported')\n"
            "    out.append(imported is getattr(robosym, name) is getattr(sys.modules['robosym.' + module], name))\n"
            "print(json.dumps(out))")
        assert checks == [True] * 30

    def test_an_unknown_name_is_an_attribute_error(self):
        assert self.fresh("import robosym\nprint(json.dumps([hasattr(robosym, 'bogus'), loaded()]))") == [
            False, self.PACKAGE]

    def test_first_use_from_two_threads_sees_whole_modules(self):
        # in each of 20 rounds robosym is imported afresh, and two threads released at once read a
        # public name of each layer module, in opposite orders: neither may see a module half run
        errors = self.fresh(
            "import threading\n"
            "names = [('augment', 'load_group_bundle'), ('basis', 'orbit_basis'), ('nets', 'build_mlp'),\n"
            "         ('rigid', 'load_robot')]\n"
            "errors = []\n"
            "for _ in range(20):\n"
            "    for n in registered():\n"
            "        del sys.modules[n]\n"
            "    import robosym\n"
            "    barrier = threading.Barrier(2)\n"
            "    def read(order):\n"
            "        barrier.wait()\n"
            "        try:\n"
            "            for module, name in order:\n"
            "                getattr(getattr(robosym, module), name)\n"
            "        except Exception as exc:\n"
            "            errors.append(repr(exc))\n"
            "    threads = [threading.Thread(target=read, args=(o,)) for o in (names, names[::-1])]\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join()\n"
            "    assert loaded() == sorted(set(registered()) - {'robosym.cli'})\n"
            "print(json.dumps(errors))")
        assert errors == []


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


class TestOutputFiles:
    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        # under an ASCII locale with UTF-8 mode off, a non-ASCII field name must still be written
        schema, data, out = tmp_path / "schema.json", tmp_path / "data.csv", tmp_path / "o.csv"
        schema.write_text(json.dumps({"fields": [{"name": "é", "kind": "invariant_scalar"}]}))
        data.write_bytes("é_0\n1.5\n".encode())
        env = {**os.environ, "PYTHONPATH": str(Path(robosym.__file__).parents[1]), "LC_ALL": "POSIX",
               "PYTHONUTF8": "0"}
        argv = ["augment", "--group", SOLO_GROUP, "--schema", str(schema), "--in", str(data), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "robosym.cli", *argv, "--json"], env=env,
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.read_bytes() == "é_0\n".encode() + b"1.5\n" * 4
        assert json.loads((tmp_path / "o.csv.report.json").read_text())["rows_out"] == 4

    @pytest.mark.parametrize("command", ["basis", "augment", "demo-train"])
    def test_a_command_writes_only_its_output_and_report(self, tmp_path, command):
        # the README documents <out> and, with --json, <out>.report.json: no side file, no temp file
        (inputs := tmp_path / "in").mkdir()
        (outs := tmp_path / "out").mkdir()
        out = outs / "result"
        if command == "augment":
            data, _ = TestAugmentCmd()._write_dataset(inputs)
            argv = ["augment", "--group", SOLO_GROUP, "--schema", COM_SCHEMA, "--in", str(data)]
        else:
            argv = (["basis", "--rep-in", K4, "--oracle"] if command == "basis"
                    else ["net", "demo-train", "--net-spec", NETSPEC, "--steps", "2"])
        assert run(*argv, "--out", str(out), "--json") == 0
        assert sorted(p.name for p in outs.iterdir()) == ["result", "result.report.json"]
