"""The four benchmark workloads.

Each workload is driven by one closed-loop client: the next op starts when
the previous one has returned.  A workload has

* ``write_inputs()``: generate the seeded input files (not timed);
* ``setup()``: import robosym and prepare what the ops share (timed as the
  set-up);
* ``cycle(c)``: the ops of cycle ``c``; the loop runs whole cycles so every
  run holds the same mix of op kinds;
* per-op checks that are cheap and run right after each op, outside the
  timed region, and ``finish()``: the heavy checks, run once after the
  measured loop (so their memory does not count toward the peak RSS).

An op's ``units`` is the work it does in the workload's throughput unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import gen

ORACLE_MAX_MN = 256  # dense SVD oracle only for tiny maps
RESIDUAL_TOL = 1e-10
LR = 0.01  # SGD step size of train_loop


class Op:
    """One timed call.  ``check(result, index)`` returns an error or None;
    ``prepare`` runs untimed before the call; ``io`` returns byte counters
    for the traced run."""

    def __init__(self, kind, run, check, units, prepare=None, io=None):
        self.kind, self.run, self.check, self.units = kind, run, check, units
        self.prepare, self.io = prepare, io


def run_cli(argv):
    """One in-process ``robosym`` command; returns (exit code, stdout)."""
    from robosym import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    name = ""

    def __init__(self, work_dir, seed, **sizes):
        self.dir = work_dir
        self.seed = seed
        self.sizes = {**self.SIZES, **sizes}
        self.deferred = []  # (op indices, check) run by finish()

    def finish(self):
        """Heavy checks deferred until after the measured loop.

        Returns [(op indices, error)]: an error in a verified first output
        counts against every op whose output matched it byte for byte.
        """
        errors = []
        for indices, check in self.deferred:
            err = check()
            if err:
                errors.append((indices, err))
        return errors

    def check_digest(self, slot, path, index, verify):
        """Keep the first output of ``slot`` for ``verify`` after the loop and
        require every later output to equal it byte for byte."""
        digest = file_digest(path)
        if slot.get("digest") is None:
            kept = path + ".first"
            shutil.copyfile(path, kept)
            slot["digest"], slot["matched"] = digest, [index]
            self.deferred.append((slot["matched"], lambda: verify(kept)))
        elif digest != slot["digest"]:
            return "output differs from the verified first output"
        else:
            slot["matched"].append(index)
        return None


# --- basis_catalog ----------------------------------------------------------


def _load_gens(path):
    with open(path) as f:
        data = json.load(f)
    return [gen.perm(g["target"], g["sign"]) for g in data["generators"]]


def _joint_elements(path_in, path_out):
    """Elements of the jointly closed pair as (t_in, s_in, t_out, s_out)."""
    gin = _load_gens(path_in)
    gout = _load_gens(path_out) if path_out else gin
    n = len(gin[0][0])
    joint = [(np.concatenate([a[0], b[0] + n]), np.concatenate([a[1], b[1]])) for a, b in zip(gin, gout)]
    return n, [(t[:n], s[:n], t[n:] - n, s[n:]) for t, s in gen.closure(joint)]


def _trace(t, s):
    fixed = t == np.arange(len(t))
    return int(s[fixed].sum())


def expected_rank(elements):
    """Burnside count: average over g of tr rho_out(g) tr rho_in(g^-1)."""
    total = sum(_trace(t_out, s_out) * _trace(t_in, s_in) for t_in, s_in, t_out, s_out in elements)
    return total // len(elements)


def verify_basis_file(path, n, elements, rank):
    """Full check of a basis file written by ``robosym basis``.

    The orbits and zero-forced orbits must partition the m*n coordinates,
    every free orbit vector must be fixed by every group element, and the
    rank must equal the Burnside count (so the fixed orbits span the whole
    equivariant space).  Tiny maps are also checked against a dense SVD
    nullspace: same rank, span residual below 1e-10.
    """
    with open(path) as f:
        data = json.load(f)
    m = len(elements[0][2])
    if (data["m"], data["n"]) != (m, n):
        return f"shape {data['m']}x{data['n']}, expected {m}x{n}"
    if len(data["orbits"]) != rank:
        return f"rank {len(data['orbits'])}, Burnside rank {rank}"
    mn = m * n
    oid = np.full(mn, -2, dtype=np.int64)
    sgn = np.zeros(mn, dtype=np.int64)
    for k, orbit in enumerate(data["orbits"] + data["zero_forced"]):
        entries = np.asarray(orbit["entries"], dtype=np.int64).reshape(-1, 2)
        if np.any(oid[entries[:, 0]] != -2):
            return f"orbit {k} overlaps another orbit"
        oid[entries[:, 0]] = k if k < rank else -1
        sgn[entries[:, 0]] = entries[:, 1]
    if np.any(oid == -2):
        return "orbits do not cover every coordinate"
    rows, cols = np.divmod(np.arange(mn), n)
    for g, (t_in, s_in, t_out, s_out) in enumerate(elements):
        img = t_out[rows] * n + t_in[cols]
        sign = s_out[rows] * s_in[cols]
        free = oid >= 0
        if np.any(oid[img] != oid) or np.any(sgn[img][free] != (sign * sgn)[free]):
            return f"orbit vectors not fixed by group element {g}"
    if mn <= ORACLE_MAX_MN:
        return _dense_oracle_check(data["orbits"], mn, n, elements, rank)
    return None


def _dense_oracle_check(orbits, mn, n, elements, rank):
    rows, cols = np.divmod(np.arange(mn), n)
    blocks = []
    for t_in, s_in, t_out, s_out in elements:
        p = np.zeros((mn, mn))
        p[t_out[rows] * n + t_in[cols], np.arange(mn)] = s_out[rows] * s_in[cols]
        blocks.append(p - np.eye(mn))
    _, sv, vt = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    null = vt[np.sum(sv > 1e-9):].T
    if null.shape[1] != rank:
        return f"dense oracle rank {null.shape[1]}, orbit rank {rank}"
    for k, orbit in enumerate(orbits):
        v = np.zeros(mn)
        for i, s in orbit["entries"]:
            v[i] = s
        v /= np.linalg.norm(v)
        resid = float(np.linalg.norm(v - null @ (null.T @ v)))
        if resid > RESIDUAL_TOL:
            return f"orbit {k} leaves the oracle span by {resid:.3e}"
    return None


class BasisCatalog(Workload):
    """``robosym basis`` over a catalogue of generator files."""

    name = "basis_catalog"
    SIZES = {"catalog": gen.CATALOG}

    def write_inputs(self):
        self.entries = gen.write_catalog(self.dir, self.seed, self.sizes["catalog"])

    def setup(self):
        import robosym.cli  # noqa: F401

    def prepare_checks(self):
        for e in self.entries:
            e["n"], e["elements"] = _joint_elements(e["rep_in"], e["rep_out"])
            e["m"] = len(e["elements"][0][2])
            e["rank"] = expected_rank(e["elements"])
            e["out"] = os.path.join(self.dir, f"{e['name']}.basis.json")

    def cycle(self, c):
        return [self._op(e) for e in self.entries]

    def _op(self, e):
        argv = ["basis", "--rep-in", e["rep_in"]]
        if e["rep_out"]:
            argv += ["--rep-out", e["rep_out"]]
        argv += ["--out", e["out"], "--json"]
        return Op(e["name"], lambda: run_cli(argv), lambda res, index: self._check(e, res, index),
                  e["m"] * e["n"], io=lambda: {"basis.json_bytes": os.path.getsize(e["out"])})

    def _check(self, e, res, index):
        code, _ = res
        if code != 0:
            return f"{e['name']}: exit code {code}"
        with open(e["out"] + ".report.json") as f:
            report = json.load(f)
        if report["rank"] != e["rank"]:
            return f"{e['name']}: reported rank {report['rank']}, Burnside rank {e['rank']}"
        err = self.check_digest(e, e["out"], index, lambda kept: self._verify_first(e, kept))
        return f"{e['name']}: {err}" if err else None

    def _verify_first(self, e, path):
        err = verify_basis_file(path, e["n"], e["elements"], e["rank"])
        return f"{e['name']}: {err}" if err else None


# --- train_loop -------------------------------------------------------------


class TrainLoop(Workload):
    """SGD steps, inference and checkpoints of one equivariant MLP."""

    name = "train_loop"
    SIZES = {"hidden": (256, 256, 256), "batch": 256, "infer_batch": 1024,
             "steps_per_cycle": 8, "checkpoint_every": 128, "pool": 16}

    def write_inputs(self):
        sz = self.sizes
        self.rep_path = gen.write_leg12(self.dir)
        self.xs, self.x_infer = gen.train_data(self.seed, sz["pool"], sz["batch"], sz["infer_batch"])
        self.targets = np.tanh(self.xs)  # odd and elementwise, hence equivariant
        self.ckpt = os.path.join(self.dir, "weights.json")
        self.steps = 0

    def setup(self):
        from robosym import groups, nets

        self.nets = nets
        _, rep = groups.load_representation(self.rep_path)
        self.net = nets.build_mlp(rep, rep, list(self.sizes["hidden"]), nets.get_nonlinearity("relu"),
                                  "fan_in", rng_seed=self.seed)

    def prepare_checks(self):
        pass

    def cycle(self, c):
        sz = self.sizes
        ops = [self._step() for _ in range(sz["steps_per_cycle"])]
        ops.append(Op("infer", lambda: self.nets.forward(self.net, self.x_infer)[0],
                      lambda y, index: self._check_infer(y, c), sz["infer_batch"]))
        steps_after = (c + 1) * sz["steps_per_cycle"]
        if steps_after % sz["checkpoint_every"] == 0:
            ops.append(self._checkpoint())
        return ops

    def _step(self):
        def run():
            x = self.xs[self.steps % len(self.xs)]
            t = self.targets[self.steps % len(self.xs)]
            self.steps += 1
            y, _ = self.nets.forward(self.net, x)
            diff = y - t
            loss = float((diff ** 2).mean())
            grads = self.nets.grad_coeffs(self.net, x, 2.0 * diff / diff.size)
            for layer, g in zip(self.net.layers, grads):
                layer.coeffs = layer.coeffs - LR * g.coeffs
                layer.bias_coeffs = layer.bias_coeffs - LR * g.bias_coeffs
            return loss

        return Op("step", run, lambda loss, index: None if np.isfinite(loss) else f"loss {loss}",
                  self.sizes["batch"])

    def _check_infer(self, y, c):
        if y.shape != self.x_infer.shape or not np.all(np.isfinite(y)):
            return "inference output is not finite or has the wrong shape"
        rep = self.nets.check_equivariance(self.net, samples=16, tol=1e-10, rng_seed=c)
        return None if rep.passed else f"equivariance: {rep}"

    def _checkpoint(self):
        snapshot = []

        def prepare():
            snapshot[:] = [(l.coeffs.copy(), l.bias_coeffs.copy()) for l in self.net.layers]

        def run():
            self.nets.save_weights(self.net, self.ckpt)
            self.nets.load_weights(self.net, self.ckpt)

        def check(_, index):
            for li, (layer, (w, b)) in enumerate(zip(self.net.layers, snapshot)):
                if not (np.array_equal(layer.coeffs, w) and np.array_equal(layer.bias_coeffs, b)):
                    return f"checkpoint did not restore layer {li} bit for bit"
            return None

        return Op("checkpoint", run, check, 0, prepare)


# --- augment_csv ------------------------------------------------------------


def read_numeric_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class AugmentCsv(Workload):
    """``robosym augment`` and ``robosym augment --orbit-average`` on CSVs."""

    name = "augment_csv"
    SIZES = {"rows": 1000}

    def write_inputs(self):
        self.paths = gen.write_augment_inputs(self.dir, self.seed, self.sizes["rows"])

    def setup(self):
        import robosym.cli  # noqa: F401

    def prepare_checks(self):
        p = self.paths
        self.kinds = {
            "augment": {"input": p["rows"], "out": os.path.join(self.dir, "aug_out.csv"), "flag": []},
            "orbit_average": {"input": p["targets"], "out": os.path.join(self.dir, "avg_out.csv"),
                              "flag": ["--orbit-average"]},
        }
        for kind in self.kinds.values():
            kind["rows"] = read_numeric_csv(kind["input"])[1].shape[0]
            kind["bytes_in"] = os.path.getsize(kind["input"])

    def cycle(self, c):
        return [self._op(name) for name in self.kinds]

    def _op(self, name):
        k = self.kinds[name]
        argv = ["augment", "--group", self.paths["group"], "--schema", self.paths["schema"],
                "--in", k["input"], "--out", k["out"]] + k["flag"]
        return Op(name, lambda: run_cli(argv), lambda res, index: self._check(name, res, index), k["rows"],
                  io=lambda: {"augment.bytes_in": k["bytes_in"], "augment.bytes_out": os.path.getsize(k["out"])})

    def _check(self, name, res, index):
        code, _ = res
        k = self.kinds[name]
        if code != 0:
            return f"{name}: exit code {code}"
        err = self.check_digest(k, k["out"], index, lambda kept: self.verify_output(name, kept))
        return f"{name}: {err}" if err else None

    def verify_output(self, name, path):
        """Re-parse the output; it must equal the library result on the same
        input, and orbit averaging it again must change nothing."""
        from robosym import augment as aug

        bundle = aug.load_group_bundle(self.paths["group"])
        schema = aug.resolve_schema(aug.load_schema(self.paths["schema"]), bundle.joint_rep,
                                    bundle.isometries, bundle.leg_perm)
        plan = aug.compile_schema(schema, bundle.group, bundle.joint_rep, bundle.isometries,
                                  bundle.leg_perm)
        _, rows = read_numeric_csv(self.kinds[name]["input"])
        header, out = read_numeric_csv(path)
        if header != gen.aug_columns():
            return f"{name}: output header does not match the schema"
        expected = aug.augment_dataset(plan, rows) if name == "augment" else aug.orbit_average(plan, rows)
        if out.shape != expected.shape or not np.array_equal(out, expected):
            return f"{name}: output differs from the library result"
        if name == "orbit_average":
            drift = float(np.abs(aug.orbit_average(plan, out) - out).max())
            if drift > 1e-12:
                return f"orbit_average is not idempotent: {drift:.3e}"
        return None


# --- certify_robot ----------------------------------------------------------


class CertifyRobot(Workload):
    """``robosym robot verify`` on a symmetric and a perturbed quadruped."""

    name = "certify_robot"
    SIZES = {"samples": 20}  # not the CLI's 100: see README, "Op sizes"

    def write_inputs(self):
        self.paths = gen.write_robot_inputs(self.dir, self.seed)

    def setup(self):
        import robosym.cli  # noqa: F401

    def prepare_checks(self):
        self.count = 0

    def cycle(self, c):
        return [self._op(variant) for variant in ("symmetric", "heavy")]

    def _op(self, variant):
        self.count += 1
        samples = self.sizes["samples"]
        argv = ["robot", "verify", "--robot", self.paths[variant], "--candidates",
                self.paths["candidates"], "--samples", str(samples),
                "--seed", str(self.seed * 1_000_003 + self.count), "--json"]
        units = samples * len(gen.CANDIDATES)
        return Op(variant, lambda: run_cli(argv), lambda res, index: check_verdicts(variant, res, samples), units)


def check_verdicts(variant, res, samples):
    """Exit code 1 (the wrong-sign candidate is always rejected), verdicts as
    expected for the variant, and the verified candidates' group order."""
    code, stdout = res
    if code != 1:
        return f"{variant}: exit code {code}, expected 1"
    text, _, payload = stdout.partition("\n{")
    report = json.loads("{" + payload)
    verdicts = [c["passed"] for c in report["candidates"]]
    expected = gen.EXPECTED_VERDICTS[variant]
    if verdicts != expected:
        return f"{variant}: verdicts {verdicts}, expected {expected}"
    order = 4 if any(expected) else 1
    if report["group_order"] != order:
        return f"{variant}: group order {report['group_order']}, expected {order}"
    if text.count(f"verified on {samples} samples") != sum(expected):
        return f"{variant}: report does not say 'verified on {samples} samples'"
    return None


WORKLOADS = {w.name: w for w in (BasisCatalog, TrainLoop, AugmentCsv, CertifyRobot)}
