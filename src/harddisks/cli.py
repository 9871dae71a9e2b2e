"""Command-line entry point for reproducible bound computations and experiments.

Subcommands: bound, table, metric, simulate, couple.  All lengths are in
units of the disk radius r; density is the only dimensionful knob.  Every
command that writes an output file also writes a run manifest next to it.

Exit codes: 0 success, 2 flag error, 3 infeasible or precondition violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, contraction, coupling, dynamics
from . import metric as metric_mod

EXIT_PRECONDITION = 3
EXIT_IO = 4


def _write_manifest(out_path: str, command: str, params: dict, seed, wall_clock: float) -> None:
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": wall_clock,
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _emit(text: str, out_path: str | None, command: str, params: dict, seed, t0: float) -> None:
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(out_path, command, params, seed, time.perf_counter() - t0)


def cmd_bound(args) -> int:
    t0 = time.perf_counter()
    result = contraction.max_density(
        L=args.L, tol=args.tol, variant=args.variant, hamming=args.hamming,
    )
    params = {"L": args.L, "tol": args.tol, "variant": args.variant, "hamming": args.hamming}
    _emit(result.to_json(), args.out, "bound", params, None, t0)
    return 0


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    lines = ["L,rho_star"]
    for L in args.Ls:
        result = contraction.max_density(L=L, tol=args.tol, variant=args.variant)
        lines.append(f"{L},{result.rho_star:.12g}")
    params = {"Ls": args.Ls, "tol": args.tol, "variant": args.variant}
    _emit("\n".join(lines), args.out, "table", params, None, t0)
    return 0


def cmd_metric(args) -> int:
    t0 = time.perf_counter()
    ok, metric = contraction.feasible(args.rho, args.L, variant=args.variant)
    if not ok:
        print(f"error: density {args.rho} is infeasible at L={args.L}", file=sys.stderr)
        return EXIT_PRECONDITION
    system = contraction.assemble(args.rho, args.L, args.variant)
    residuals, tight_lambda_max = contraction.slack_report(system, metric)
    axioms = metric_mod.check_axioms(metric)

    metric_mod.to_csv(metric, args.out)
    grid = metric.grid
    overlay_path = args.out + ".overlay.csv"
    with open(overlay_path, "w") as fh:
        fh.write("lambda_right,d,d_analytic\n")
        for lam, v in zip(grid, metric.values):
            if lam <= 1.0:
                fh.write(f"{lam:.12g},{v:.12g},{metric_mod.analytic_small_ell(lam, args.rho):.12g}\n")
    report = {
        "L": args.L,
        "rho": args.rho,
        "variant": args.variant,
        "axioms_pass": axioms.passed,
        "tight_lambda_max": tight_lambda_max,
        "min_residual": float(f"{residuals.min():.12g}"),
        "residuals": [float(f"{x:.12g}") for x in residuals],
    }
    report_text = json.dumps(report, indent=2)
    with open(args.out + ".report.json", "w") as fh:
        fh.write(report_text + "\n")
    print(report_text)
    params = {"L": args.L, "rho": args.rho, "variant": args.variant}
    _write_manifest(args.out, "metric", params, None, time.perf_counter() - t0)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    config = dynamics.random_config(args.n, args.rho, args.seed)
    final, stats = dynamics.run(config, args.steps, np.random.SeedSequence(args.seed).spawn(1)[0])
    payload = {
        "n": args.n,
        "rho": args.rho,
        "steps": stats.steps,
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "acceptance_rate": float(f"{stats.acceptance_rate:.12g}"),
        "seed": args.seed,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        dynamics.save_snapshot(final, args.out + ".snapshot.csv", seed=args.seed)
        params = {"n": args.n, "rho": args.rho, "steps": args.steps}
        _write_manifest(args.out, "simulate", params, args.seed, time.perf_counter() - t0)
    return 0


def cmd_couple(args) -> int:
    t0 = time.perf_counter()
    try:
        metric = metric_mod.from_csv(args.metric)
    except OSError as exc:
        print(f"error: cannot read metric file: {exc}", file=sys.stderr)
        return EXIT_IO
    estimate = coupling.estimate_contraction(
        n=args.n, rho=args.rho, ell_over_r=args.ell, metric=metric,
        trials=args.trials, seed=args.seed, threads=args.threads,
    )
    params = {"n": args.n, "rho": args.rho, "ell": args.ell,
              "trials": args.trials, "metric": args.metric, "threads": args.threads}
    _emit(estimate.to_json(), args.out, "couple", params, args.seed, t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harddisks",
        description="Lower bounds on the hard-disk critical density via an optimized coupling metric.",
    )
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker parallelism bound (results are thread-count independent)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="binary-search the largest contractive density")
    p.add_argument("--L", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--variant", choices=contraction.VARIANTS, default="clamped")
    p.add_argument("--hamming", action="store_true",
                   help="force the unit metric with savings disabled (1/8 baseline)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="bounds for a list of grid sizes, as CSV")
    p.add_argument("--Ls", type=lambda s: [int(x) for x in s.split(",")], required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--variant", choices=contraction.VARIANTS, default="clamped")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("metric", help="export the optimized metric with slack and axiom reports")
    p.add_argument("--L", type=int, default=256)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--variant", choices=contraction.VARIANTS, default="clamped")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("simulate", help="run the single-disk global-move chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("couple", help="Monte Carlo estimate of the one-step metric contraction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--ell", type=float, required=True, help="displacement in units of r, in (0, 4]")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--metric", required=True, help="metric CSV path (lambda_right,d)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_couple)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
