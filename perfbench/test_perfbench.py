"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import filecmp
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY_CATALOG = [
    ("c2_reg4", gen.C2, ("tiled", 4), None),
    ("k4_leg12_reg8", gen.K4, ("leg12",), ("tiled", 8)),
    ("b3_signed3_trivial1", gen.B3, ("signed",), ("trivial", 1)),
    ("b3_signed3", gen.B3, ("signed",), None),
]
TINY = {
    "basis_catalog": {"catalog": TINY_CATALOG},
    "train_loop": {"hidden": (8,), "batch": 4, "infer_batch": 8, "steps_per_cycle": 2,
                   "checkpoint_every": 2, "pool": 2},
    "augment_csv": {"rows": 3},
    "certify_robot": {"samples": 2},
}


def make(name, tmp_path, seed=0):
    w = wl.WORKLOADS[name](str(tmp_path), seed, **TINY[name])
    w.write_inputs()
    w.setup()
    w.prepare_checks()
    return w


def run_cycle(w, c=0):
    """Run one cycle's ops and checks; returns [(op, result, error)]."""
    out = []
    for op in w.cycle(c):
        if op.prepare:
            op.prepare()
        res = op.run()
        out.append((op, res, op.check(res, len(out))))
    return out


def finish_errors(w):
    return [err for _, err in w.finish()]


# --- generators -------------------------------------------------------------


def write_all(directory, seed):
    gen.write_catalog(str(directory), seed, TINY_CATALOG)
    gen.write_augment_inputs(str(directory), seed, 4)
    gen.write_robot_inputs(str(directory), seed)
    gen.write_leg12(str(directory))
    np.savez(directory / "train.npz", *gen.train_data(seed, 2, 3, 5))


def test_generators_are_deterministic(tmp_path):
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / tag).mkdir()
        write_all(tmp_path / tag, seed)
    files = sorted(os.listdir(tmp_path / "a"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert mismatch == [] and errors == [] and len(match) == len(files)
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", files, shallow=False)
    assert "aug_rows.csv" in differ and "robot_symmetric.json" in differ


def test_regular_representation_generators_are_homomorphic():
    elems = gen.closure(gen.tiled_regular(gen.D8, 16))
    assert len(elems) == 8
    assert len(gen.closure(gen.B4)) == 384


# --- correctness gates ------------------------------------------------------


def test_basis_gate_passes_and_flags_corruption(tmp_path):
    w = make("basis_catalog", tmp_path)
    results = run_cycle(w)
    assert [err for _, _, err in results] == [None] * len(TINY_CATALOG)
    assert finish_errors(w) == []
    assert [e["rank"] for e in w.entries] == [8, 24, 0, 1]

    e = w.entries[1]
    with open(e["out"]) as f:
        data = json.load(f)
    data["orbits"][0]["entries"][0][1] *= -1  # flip one sign
    with open(e["out"], "w") as f:
        json.dump(data, f)
    assert wl.verify_basis_file(e["out"], e["n"], e["elements"], e["rank"]) is not None
    assert "differs" in w._check(e, (0, ""), 99)
    data["orbits"].pop()
    with open(e["out"], "w") as f:
        json.dump(data, f)
    assert "rank" in wl.verify_basis_file(e["out"], e["n"], e["elements"], e["rank"])
    assert w._check(e, (1, ""), 100) == f"{e['name']}: exit code 1"


def test_basis_gate_dense_oracle_agrees_on_tiny_maps(tmp_path):
    w = make("basis_catalog", tmp_path)
    run_cycle(w)
    e = w.entries[3]  # b3 signed -> signed, mn = 9, under the oracle cap
    with open(e["out"]) as f:
        orbits = json.load(f)["orbits"]
    assert wl._dense_oracle_check(orbits, 9, 3, e["elements"], e["rank"]) is None
    assert "oracle rank" in wl._dense_oracle_check(orbits, 9, 3, e["elements"], e["rank"] + 1)


def test_train_gate_passes_and_flags_bad_state(tmp_path):
    w = make("train_loop", tmp_path)
    results = run_cycle(w)
    assert [op.kind for op, _, _ in results] == ["step", "step", "infer", "checkpoint"]
    assert [err for _, _, err in results] == [None] * 4
    step, infer, ckpt = results[0][0], results[2][0], results[3][0]
    assert step.check(float("nan"), 0) is not None
    assert infer.check(np.full(w.x_infer.shape, np.inf), 0) is not None
    w.net.layers[0].coeffs[0] += 1.0  # as if load_weights had not restored it
    assert "bit for bit" in ckpt.check(None, 0)


def test_augment_gate_passes_and_flags_corruption(tmp_path):
    w = make("augment_csv", tmp_path)
    results = run_cycle(w)
    assert [err for _, _, err in results] == [None, None]
    assert finish_errors(w) == []
    out = w.kinds["orbit_average"]["out"]
    with open(out) as f:
        lines = f.read().splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 1e-3)
    lines[1] = ",".join(cells)
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert "differs" in w._check("orbit_average", (0, ""), 99)
    assert "library result" in w.verify_output("orbit_average", out)


def test_certify_gate_passes_and_flags_wrong_verdicts(tmp_path):
    w = make("certify_robot", tmp_path)
    results = run_cycle(w)
    assert [err for _, _, err in results] == [None, None]
    code, stdout = results[0][1]
    assert wl.check_verdicts("heavy", (code, stdout), 2) is not None  # symmetric robot's output
    assert "exit code" in wl.check_verdicts("symmetric", (0, stdout), 2)
    flipped = stdout.replace('"passed": true', '"passed": false', 1)
    assert "verdicts" in wl.check_verdicts("symmetric", (code, flipped), 2)


# --- tracing ----------------------------------------------------------------


def test_self_times_add_up_to_wall_time():
    tracer = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = tracer.wrap("groups.leaf", leaf)
    middle = tracer.wrap("basis.middle", lambda: [wrapped_leaf(2000) for _ in range(3)])
    for _ in range(2):
        root = tracer.begin("op.x")
        middle()
        wrapped_leaf(500)
        tracer.end(root)
    names, self_s, dur, roots = tracer.summary()
    for r in np.flatnonzero(roots == np.arange(len(names))):
        assert self_s[roots == r].sum() == pytest.approx(dur[r], rel=1e-12, abs=1e-12)
    assert list(names[:6]) == ["op.x", "basis.middle", "groups.leaf", "groups.leaf",
                               "groups.leaf", "groups.leaf"]


def test_install_wraps_every_binding_site_and_uninstalls(tmp_path):
    from robosym import augment, cli, groups, rigid

    originals = (cli.load_representation, groups.load_representation, rigid.jacobians,
                 augment.read_csv)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.load_representation is groups.load_representation
        assert cli.load_representation is not originals[0]
        w = make("certify_robot", tmp_path)
        op = w.cycle(0)[0]
        root = tracer.begin("op." + op.kind)
        code, _ = op.run()
        tracer.end(root)
        assert code == 1
    finally:
        uninstall()
    assert (cli.load_representation, groups.load_representation, rigid.jacobians,
            augment.read_csv) == originals
    names, self_s, dur, roots = tracer.summary()
    parents = np.array(tracer.parents)
    nested = [names[parents[i]] for i in np.flatnonzero(names == "rigid.jacobians")]
    assert "rigid.mass_matrix" in nested and "rigid.identify_dms" in nested
    assert names[parents[np.flatnonzero(names == "cli.main")[0]]] == "op.symmetric"
    assert self_s.sum() == pytest.approx(dur[0], rel=1e-12)


def test_layer_metrics_cover_the_spec(tmp_path):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        w = wl.WORKLOADS["train_loop"](str(tmp_path), 0, **{**TINY["train_loop"], "hidden": (12,)})
        w.write_inputs()
        root = tracer.begin("setup")
        w.setup()
        tracer.end(root)
        w.prepare_checks()
        ops, cycles = run.measure(w, 1, 1e9, lambda c: tracer)
    finally:
        uninstall()
    assert cycles == 1
    metrics = run.layer_metrics(tracer, ops)
    expected = {name for name, _ in run.per_layer_spec()} - {"trace.overhead_share"}
    assert set(metrics) == expected
    assert metrics["nets.weight_scatters_per_step"] == 3 * 2 - 1  # forward + grad_coeffs, L = 2
    assert metrics["basis.orbit_basis.calls"] == 2
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, rel=1e-9)


# --- reporting --------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101)))[0] == 90
    p, value, beyond = run.tail_percentile(list(range(1000)))
    assert (p, beyond) == (99, 10) and value == 989
    assert run.tail_percentile([1.0, 2.0, 3.0])[0] == 50


def test_benchmark_json_matches_the_code():
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()


def test_timed_setup_runs_in_a_fork(tmp_path):
    w = wl.WORKLOADS["train_loop"](str(tmp_path), 0, **TINY["train_loop"])
    w.write_inputs()
    assert run.timed_setup(w) > 0
    assert not hasattr(w, "net")  # set-up ran in the child, not here

    def broken():
        raise ValueError("set-up failed")

    w.setup = broken
    with pytest.raises(RuntimeError, match="set-up of train_loop failed"):
        run.timed_setup(w)
