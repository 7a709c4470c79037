"""Command-line interface.

Subcommands: ``basis``, ``count``, ``augment``, ``net init-stats``,
``net verify``, ``net demo-train``, ``robot verify``.  Exit codes are a
stable contract: 0 success, 1 verification failure, 2 usage or I/O error.
Reports go to stdout as text; ``--json`` additionally writes a machine
report next to the output file (or to stdout when there is no output file).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from . import basis as bas
from . import nets, rigid
from .errors import ParseError, RoboSymError, parse_int, parse_int_list
from .fileio import atomic_write_text, errors_named, json_input
from .groups import (
    load_representation,
    load_representation_pair,
    tiled_regular_representation,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _emit(args, report: dict, out_path: str | None) -> None:
    if not getattr(args, "json", False):
        return
    payload = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if out_path:
        atomic_write_text(str(out_path) + ".report.json", payload)
    else:
        sys.stdout.write(payload)


def _load_rep_pair(args):
    if args.rep_out and args.rep_out != args.rep_in:
        return load_representation_pair(args.rep_in, args.rep_out)
    _, rep_in = load_representation(args.rep_in)
    return rep_in, rep_in


def cmd_basis(args) -> int:
    rep_in, rep_out = _load_rep_pair(args)
    basis = bas.orbit_basis(rep_in, rep_out)
    atomic_write_text(args.out, itertools.chain(bas.basis_json_chunks(basis), ["\n"]))
    report = {
        "m": basis.m,
        "n": basis.n,
        "rank": basis.rank,
        "zero_forced": len(basis.zero_forced),
        "out": args.out,
    }
    print(f"wrote basis of rank {basis.rank} ({basis.m}x{basis.n}, "
          f"{len(basis.zero_forced)} zero-forced orbit(s)) to {args.out}")
    code = EXIT_OK
    if args.oracle:
        oracle = bas.dense_nullspace_oracle(rep_in, rep_out, tol=args.tol)
        residual = bas.span_residual(basis, oracle)
        rank_b = bas.burnside_rank(rep_in, rep_out)
        agree = basis.rank == oracle.shape[1] == rank_b and residual < args.tol
        report.update(
            {
                "oracle_rank": oracle.shape[1],
                "burnside_rank": rank_b,
                "span_residual": residual,
                "oracle_agrees": agree,
            }
        )
        print(
            f"oracle rank {oracle.shape[1]} = {basis.rank} (burnside {rank_b}), "
            f"span residual {residual:.3e}"
        )
        if not agree:
            print("oracle DISAGREES with orbit basis")
            code = EXIT_VERIFY_FAIL
    _emit(args, report, args.out)
    return code


def cmd_count(args) -> int:
    rep_in, rep_out = _load_rep_pair(args)
    r = bas.burnside_rank(rep_in, rep_out)
    mn = rep_in.dim * rep_out.dim
    print(f"r={r} mn={mn} ratio={r / mn}")
    _emit(args, {"rank": r, "mn": mn, "ratio": r / mn}, None)
    return EXIT_OK


def cmd_augment(args) -> int:
    bundle = aug.load_group_bundle(args.group)
    raw_fields = aug.load_schema(args.schema)
    with errors_named(args.schema):  # the schema's fields against the group
        schema = aug.resolve_schema(raw_fields, bundle.joint_rep, bundle.isometries, bundle.leg_perm)
    names, rows = aug.read_csv(args.infile)
    rows_in = rows.shape[0]
    # the widths first: nothing is built to the schema's declared size before the file confirms it
    if len(names) != schema.width or names != list(schema.column_names()):
        raise RoboSymError(f"CSV header does not match schema: got {names[:4]}..., "
                           f"expected {list(itertools.islice(schema.column_names(), 4))}...")
    plan = aug.compile_schema(schema, bundle.group, bundle.joint_rep, bundle.isometries, bundle.leg_perm)
    if args.orbit_average:
        out_rows = aug.orbit_average(plan, rows)
        action = "orbit-averaged"
    else:
        out_rows = aug.augment_dataset(plan, rows)
        action = "augmented"
    del rows  # the input is freed before the output is formatted
    distinct = aug.write_csv(args.out, names, out_rows)
    print(f"{action} {rows_in} rows into {out_rows.shape[0]} (group order "
          f"{bundle.group.order}) -> {args.out}")
    _emit(
        args,
        {
            "rows_in": rows_in,
            "rows_out": int(out_rows.shape[0]),
            "bytes_out": os.path.getsize(args.out),
            "distinct_magnitudes": distinct,
            "group_order": bundle.group.order,
            "mode": action,
        },
        args.out,
    )
    return EXIT_OK


def _build_net_from_spec(path: str) -> nets.EquivNet:
    with json_input(path) as spec:
        if not isinstance(spec, dict) or "rep" not in spec:
            raise ParseError("net spec has no 'rep' key")
        for key in ("rep", "nonlinearity", "init_mode"):
            if not isinstance(spec.get(key, ""), str):
                raise ParseError(f"{key!r} must be a string, got {type(spec[key]).__name__}")
        hidden = parse_int_list("hidden", spec.get("hidden", []))
        rep_path = str(Path(path).parent / spec["rep"])
        out_spec = spec.get("output", "input")
        output = None if out_spec == "input" else parse_int("output", out_spec)
        nonlinearity = nets.get_nonlinearity(spec.get("nonlinearity", "relu"))
        init_mode = spec.get("init_mode", "fan_in")
        seed = parse_int("seed", spec.get("seed", 0))
        if seed < 0:
            raise ParseError(f"'seed' must be >= 0, got {seed}")
    _, rep_in = load_representation(rep_path)
    with errors_named(path):  # the spec's widths and init mode against the group
        rep_out = rep_in if output is None else tiled_regular_representation(rep_in.group, output)
        return nets.build_mlp(rep_in, rep_out, hidden, nonlinearity, init_mode, rng_seed=seed)


def cmd_net_init_stats(args) -> int:
    _, rep = load_representation(args.group)
    with np.errstate(over="ignore", invalid="ignore"):  # a --const-var whose activations overflow: exit 2
        profile = nets.activation_variance_profile(
            args.depth,
            args.width,
            rep.group,
            nets.get_nonlinearity(args.nonlinearity),
            "fan_in" if args.const_var is None else args.const_var,
            batch=args.batch,
            rng_seed=args.seed,
        )
    if not np.isfinite(profile).all():
        layer = np.flatnonzero(~np.isfinite(profile))[0] + 1
        raise RoboSymError(f"layer {layer}: the pre-activation std overflows at --const-var {args.const_var:g}")
    print("layer  std(pre-activation)")
    for i, s in enumerate(profile):
        print(f"{i + 1:5d}  {s:.6f}")
    ratio = float(profile[-1] / profile[0])
    print(f"std(last)/std(first) = {ratio:.4f}")
    _emit(args, {"profile": profile.tolist(), "ratio": ratio}, None)
    return EXIT_OK


def cmd_net_verify(args) -> int:
    net = _build_net_from_spec(args.net_spec)
    nets.load_weights(net, args.weights)
    with np.errstate(over="ignore", invalid="ignore"):  # finite coefficients whose outputs overflow: exit 2
        rep = nets.check_equivariance(net, samples=args.samples, tol=args.tol, rng_seed=args.seed)
    if not np.isfinite(rep.max_violation):
        raise ParseError(f"{args.weights}: coefficients too large: the net's outputs overflow")
    print(str(rep))
    _emit(
        args,
        {
            "passed": rep.passed,
            "max_violation": rep.max_violation,
            "element": rep.worst_element,
            "sample": rep.worst_sample,
        },
        None,
    )
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL


def cmd_net_demo_train(args) -> int:
    net = _build_net_from_spec(args.net_spec)
    rng = np.random.default_rng(args.seed)
    teacher = nets.EquivNet([nets.EquivLayer(layer.rep_in, layer.rep_out, layer.nonlinearity,
                                             rng.standard_normal(layer.coeffs.shape) * 0.7)
                             for layer in net.layers])
    x = rng.standard_normal((args.batch, net.input_dim))
    target, _ = nets.forward(teacher, x)

    def loss_and_grads():
        y, _ = nets.forward(net, x)
        diff = y - target
        loss = float((diff**2).mean())
        grads = nets.grad_coeffs(net, x, 2.0 * diff / diff.size)
        return loss, grads

    # a rate too large overflows to inf or NaN: the loss line shows it, exit code 1
    with np.errstate(over="ignore", invalid="ignore"):
        loss0, _ = loss_and_grads()
        for _ in range(args.steps):
            _, grads = loss_and_grads()
            for layer, g in zip(net.layers, grads):
                layer.coeffs = layer.coeffs - args.lr * g.coeffs
                layer.bias_coeffs = layer.bias_coeffs - args.lr * g.bias_coeffs
        loss1, _ = loss_and_grads()
    print(f"loss {loss0:.6f} -> {loss1:.6f} after {args.steps} gradient steps")
    out = args.out
    if out:
        try:
            nets.save_weights(net, out)
            print(f"wrote weights to {out}")
        except ParseError as exc:  # a non-finite coefficient, which the loss line shows
            print(f"no weights written to {out}: {exc}")
            out = None
    report = {"loss_initial": loss0, "loss_final": loss1, "steps": args.steps}
    _emit(args, {k: v if np.isfinite(v) else None for k, v in report.items()}, out)  # JSON has no NaN: null
    return EXIT_OK if loss1 < loss0 and out == args.out else EXIT_VERIFY_FAIL


def cmd_robot(args) -> int:
    tree = rigid.load_robot(args.robot)
    candidates = rigid.load_candidates(args.candidates, tree)
    report = rigid.identify_dms(
        tree, candidates, samples=args.samples, tol=args.tol, rng_seed=args.seed
    )
    print(str(report))
    _emit(
        args,
        {
            "candidates": [
                # every CandidateReport field; samples and tol are per run
                {k: v for k, v in c._asdict().items() if k not in ("samples", "tol")}
                for c in report.candidates
            ],
            "verified": report.verified,
            "group_order": report.group.order,
            "sizes": report.sizes,
        },
        None,
    )
    all_ok = all(c.passed for c in report.candidates)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


@functools.lru_cache(maxsize=1)  # built once per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="robosym", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="compute the equivariant linear-map basis")
    b.add_argument("--rep-in", required=True)
    b.add_argument("--rep-out", default=None)
    b.add_argument("--out", required=True)
    b.add_argument("--oracle", action="store_true", help="cross-check with the dense nullspace")
    b.add_argument("--tol", type=float, default=1e-10)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_basis)

    c = sub.add_parser("count", help="count trainable parameters of an equivariant layer")
    c.add_argument("--rep-in", required=True)
    c.add_argument("--rep-out", default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_count)

    a = sub.add_parser("augment", help="augment a CSV dataset with its symmetric copies")
    a.add_argument("--group", required=True)
    a.add_argument("--schema", required=True)
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--orbit-average", action="store_true",
                   help="symmetrize g-major target blocks instead of augmenting")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_augment)

    n = sub.add_parser("net", help="equivariant network tools")
    nsub = n.add_subparsers(dest="action", required=True)

    ns = nsub.add_parser("init-stats", help="activation variance profile per layer")
    ns.add_argument("--group", required=True)
    ns.add_argument("--depth", type=int, default=20)
    ns.add_argument("--width", type=int, default=256)
    ns.add_argument("--nonlinearity", default="relu")
    ns.add_argument("--const-var", type=float, default=None, help="a constant coefficient variance, not fan-in's")
    ns.add_argument("--batch", type=int, default=256)
    ns.add_argument("--seed", type=int, default=0)
    ns.add_argument("--json", action="store_true")
    ns.set_defaults(func=cmd_net_init_stats)

    nv = nsub.add_parser("verify", help="check equivariance of a weights file")
    nv.add_argument("--net-spec", required=True)
    nv.add_argument("--weights", required=True)
    nv.add_argument("--samples", type=int, default=64)
    nv.add_argument("--tol", type=float, default=1e-10)
    nv.add_argument("--seed", type=int, default=0)
    nv.add_argument("--json", action="store_true")
    nv.set_defaults(func=cmd_net_verify)

    nd = nsub.add_parser("demo-train", help="tiny gradient-descent regression demo")
    nd.add_argument("--net-spec", required=True)
    nd.add_argument("--steps", type=int, default=200)
    nd.add_argument("--lr", type=float, default=0.05)
    nd.add_argument("--batch", type=int, default=64)
    nd.add_argument("--seed", type=int, default=0)
    nd.add_argument("--out", default=None)
    nd.add_argument("--json", action="store_true")
    nd.set_defaults(func=cmd_net_demo_train)

    r = sub.add_parser("robot", help="robot symmetry certification")
    rsub = r.add_subparsers(dest="action", required=True)
    rv = rsub.add_parser("verify", help="verify candidate symmetries of a robot description")
    rv.add_argument("--robot", required=True)
    rv.add_argument("--candidates", required=True)
    rv.add_argument("--samples", type=int, default=100)
    rv.add_argument("--tol", type=float, default=1e-8)
    rv.add_argument("--seed", type=int, default=0)
    rv.add_argument("--json", action="store_true")
    rv.set_defaults(func=cmd_robot)

    return p


def _validate(args) -> None:
    for attr in ("tol", "lr", "const_var"):
        value = getattr(args, attr, None)
        if value is not None and not 0 < value < np.inf:  # NaN fails both
            raise RoboSymError(f"--{attr.replace('_', '-')} must be a positive finite number")
    for attr in ("samples", "batch", "width", "steps", "depth"):
        value = getattr(args, attr, None)
        if value is not None and value < 1:
            raise RoboSymError(f"--{attr} must be >= 1")
    if getattr(args, "seed", 0) < 0:
        raise RoboSymError("--seed must be >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (RoboSymError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
