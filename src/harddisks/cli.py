"""Command-line entry point for reproducible bound computations and experiments.

Subcommands: bound, table, metric, simulate, couple.  All lengths are in
units of the disk radius r; density is the only dimensionful knob.  A
command that succeeds with --out also gets a run manifest next to that file:
its flags, seed, package version and wall-clock time.

Exit codes: 0 success, 2 flag error, 3 infeasible or precondition violation,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__  # each command imports the modules it runs, and numpy with them

EXIT_PRECONDITION = 3
EXIT_IO = 4
RIGOROUS_HELP = ("take each savings row at its cell's left end, so the bound holds for every "
                 "displacement in a cell, not only at the grid points")


# argparse names a flag type in its error when the type raises ValueError,
# as in "argument --Ls: invalid grid_sizes value: '8,,16'".
def grid_sizes(text: str) -> list[int]:
    return [positive(x) for x in text.split(",")]


def nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


def positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _write_manifest(args, wall_clock: float) -> None:
    # The subcommand's own flags; seed has its own field, and results never depend on threads.
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "command", "out", "seed", "threads")}
    manifest = {
        "command": args.command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_s": wall_clock,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _emit(text: str, out_path: str | None) -> None:
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def cmd_bound(args) -> int:
    from . import contraction

    result = contraction.max_density(L=args.L, hamming=args.hamming, rigorous=args.rigorous)
    _emit(result.to_json(), args.out)
    return 0


def cmd_table(args) -> int:
    from . import contraction

    lines = ["L,rho_star"]
    for L in args.Ls:
        result = contraction.max_density(L=L, rigorous=args.rigorous)
        lines.append(f"{L},{result.rho_star:.12g}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_metric(args) -> int:
    from . import contraction
    from . import metric as metric_mod

    system = contraction.assemble(args.rho, args.L, args.rigorous)
    if not contraction.decide(system):
        print(f"error: density {args.rho} is infeasible at L={args.L}", file=sys.stderr)
        return EXIT_PRECONDITION
    metric, residuals, tight_lambda_max = contraction.witness(system)

    metric_mod.to_csv(metric, args.out)
    with open(args.out + ".overlay.csv", "w") as fh:
        fh.write("lambda_right,d,d_analytic\n")
        for lam, v in zip(metric.grid, metric.values):
            if lam <= 1.0:
                fh.write(f"{lam:.12g},{v:.12g},{metric_mod.analytic_small_ell(lam, args.rho):.12g}\n")
    report = {
        "L": args.L,
        "rho": args.rho,
        "variant": "rigorous" if args.rigorous else "clamped",  # the savings rows of the constraints
        "axioms_pass": metric_mod.check_axioms(metric).passed,
        "tight_lambda_max": tight_lambda_max,
        "min_residual": float(f"{residuals.min():.12g}"),
        "residuals": [float(f"{x:.12g}") for x in residuals],
    }
    _emit(json.dumps(report, indent=2), args.out + ".report.json")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from . import dynamics

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
    _emit(json.dumps(payload, indent=2), args.out)
    if args.out:
        dynamics.save_snapshot(final, args.out + ".snapshot.csv", seed=args.seed)
    return 0


def cmd_couple(args) -> int:
    from . import coupling
    from . import metric as metric_mod

    metric = metric_mod.from_csv(args.metric)  # which checks the metric axioms
    estimate = coupling.estimate_contraction(
        n=args.n, rho=args.rho, ell_over_r=args.ell, metric=metric,
        trials=args.trials, seed=args.seed, threads=args.threads)
    _emit(estimate.to_json(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harddisks",
        description="Lower bounds on the hard-disk critical density via an optimized coupling metric.",
    )
    parser.add_argument("--threads", type=positive, default=os.cpu_count() or 1,
                        help="worker bound (>= 1), accepted by every command; "
                             "starts no workers, and results never depend on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="the largest contractive density: the last row's root, "
                                     "snapped onto the bisection path")
    p.add_argument("--L", type=positive, default=256)
    p.add_argument("--hamming", action="store_true",
                   help="force the unit metric with savings disabled (1/8 baseline)")
    p.add_argument("--rigorous", action="store_true", help=RIGOROUS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="bounds for a list of grid sizes, as CSV")
    p.add_argument("--Ls", type=grid_sizes, required=True)
    p.add_argument("--rigorous", action="store_true", help=RIGOROUS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("metric", help="export the optimized metric with slack and axiom reports")
    p.add_argument("--L", type=positive, default=256)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--rigorous", action="store_true", help=RIGOROUS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("simulate", help="run the single-disk global-move chain")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--steps", type=nonnegative, required=True)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("couple", help="Monte Carlo estimate of the one-step metric contraction")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--ell", type=float, required=True, help="displacement in units of r, in (0, 4]")
    p.add_argument("--trials", type=positive, required=True,
                   help="buys ceil(trials / 32) configurations")  # 32 = coupling.K0
    p.add_argument("--metric", required=True, help="metric CSV path (lambda_right,d)")
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_couple)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
        if code == 0 and args.out:
            _write_manifest(args, time.perf_counter() - t0)
        return code
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
