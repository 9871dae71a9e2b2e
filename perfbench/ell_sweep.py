"""The ell_sweep workload: one library process, five displacements.

Calls harddisks.estimate_contraction once per displacement on the criterion-9
settings (n = 32, rho = 0.14) and prints each estimate's JSON on one line.
The pool of equilibrated chains is built by the first call and reused by the
rest, which is what this workload measures.

    PYTHONPATH=src python3 perfbench/ell_sweep.py --metric metric.csv --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys

from harddisks import coupling, metric

ELLS = (0.5, 1.0, 2.0, 3.0, 4.0)
N, RHO, TRIALS, THREADS = 32, 0.14, 200_000, 2


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", required=True, help="metric CSV (lambda_right,d)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=THREADS)
    parser.add_argument("--ells", type=_floats, default=list(ELLS))
    args = parser.parse_args(argv)
    table = metric.from_csv(args.metric)
    for ell in args.ells:
        est = coupling.estimate_contraction(
            n=N, rho=RHO, ell_over_r=ell, metric=table,
            trials=TRIALS, seed=args.seed, threads=args.threads,
        )
        print(json.dumps(json.loads(est.to_json())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
