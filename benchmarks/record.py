"""Record the perfbench workloads on two git revisions into a BENCH_<n>.json file.

    python3 benchmarks/record.py --base eb245b6 --out BENCH_6.json \\
        --pairs couple_cold=10,ell_sweep=5,bound_table=3,simulate=3

Each revision is exported with `git archive` into a temporary directory,
removed once the record is written, and that checkout's own perfbench/run.py
runs every workload, one run per seed, alternating which revision goes
first.  The file holds, per workload and revision, every run's end-to-end
metrics and failure counts, the median and quartiles of each metric, how
many pairs the head revision won and the verdict on each metric
(`gain_shown`, `beyond_bound`; see `summarize`), together with nproc, the
CPU model, the Python and numpy versions and both revisions.  Each checkout
also runs its own layer benchmarks (`pytest benchmarks --benchmark-json`) in
LAYER_PROCESSES fresh processes per round, LAYER_ROUNDS rounds, the two
revisions' processes interleaved and the round's first revision alternating,
so that host drift and the placement of one process's buffers show up as
spread within each revision rather than as a difference between them.
`layers` holds, per revision, every benchmark's min time in seconds over all
processes, each process's min and the `extra_info` of the fastest process,
and null for a benchmark that only the other revision has.  Per benchmark
both revisions have, `layers["head_share"]` gives the share of (base
process, head process) pairs of minima that the head wins (see
`compare_layer`); it is 1 or 0 when their ranges of minima are disjoint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYER_ROUNDS = 3  # alternating rounds of the layer suite
LAYER_PROCESSES = 4  # fresh layer-suite processes per revision and round


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextmanager
def export(rev: str):
    """A fresh checkout of rev's committed files, named by its commit and
    removed with its temporary directory on exit."""
    sha = git("rev-parse", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="record-") as tmp:
        dest = Path(tmp) / sha
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        yield dest


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of perfbench/run.py; its environment line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout.name} {workload} seed {seed}: no result "
                         f"(exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "env": record["env"]}


def run_layers(checkout: Path) -> dict:
    """One run of the checkout's pytest-benchmark suite: name -> (min time, extra_info)."""
    out = checkout / "layers.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
         f"--benchmark-json={out}"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    if proc.returncode != 0 or not out.is_file():
        raise SystemExit(f"{checkout.name} layer benchmarks failed (exit {proc.returncode}): "
                         f"{proc.stdout.strip()[-400:]}")
    benchmarks = json.loads(out.read_text())["benchmarks"]
    return {b["fullname"]: (b["stats"]["min"], b["extra_info"]) for b in benchmarks}


def record_layers(checkouts: dict) -> dict:
    """LAYER_ROUNDS rounds of LAYER_PROCESSES processes of both layer suites,
    merged per benchmark.

    Round k interleaves the two revisions' processes, base first when k is
    even and head first otherwise.  Per revision and benchmark: the min over
    the processes, every process's min and the fastest process's extra_info;
    null where only the other revision has it.  Under "head_share", per
    benchmark of both revisions: `compare_layer` of their process minima.
    """
    rounds = {"base": [], "head": []}
    for k in range(LAYER_ROUNDS):
        for _ in range(LAYER_PROCESSES):
            for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                rounds[side].append(run_layers(checkouts[side]))
    names = sorted({name for runs in rounds.values() for found in runs for name in found})
    layers = {}
    for side, runs in rounds.items():
        layers[side] = {}
        for name in names:
            timings = [found[name] for found in runs if name in found]
            if not timings:
                layers[side][name] = None
                continue
            best, info = min(timings, key=lambda t: t[0])
            layers[side][name] = {"min_s": best, "process_min_s": [t for t, _ in timings],
                                  "extra_info": info}
    layers["head_share"] = {}
    for name in names:
        if layers["base"][name] and layers["head"][name]:
            base, head = (layers[side][name]["process_min_s"] for side in ("base", "head"))
            layers["head_share"][name] = compare_layer(base, head)
    return layers


def compare_layer(base: list[float], head: list[float]) -> float:
    """The share of the (base, head) pairs of per-process minima in which the
    head's is lower.  One slow process moves it by only one row of pairs, so
    a clear gain reads near 1 even when the two ranges of minima overlap.
    """
    wins = sum(h < b for b in base for h in head)
    return wins / (len(base) * len(head))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, better: dict, bound: dict) -> dict:
    """Medians, quartiles, pair wins and verdicts of the head revision, per metric.

    `gain_shown`: at least ten pairs ran, the head won at least 9 in 10 of
    them, and its median is better than the base median by more than the
    base IQR.  `beyond_bound`:
    the head median is worse than the base median by more than `bound` (a
    fraction of the base median, as in BENCHMARK.json).  "Better" and "worse"
    follow each metric's direction in `better`.
    """
    out = {}
    for side in ("base", "head"):
        out[side] = {m: quartiles([r["metrics"][m] for r in runs[side]]) for m in better}
        out[side]["failed_ops"] = sum(r["failed"] for r in runs[side])
        out[side]["attempted_ops"] = sum(r["attempted"] for r in runs[side])
    out["pairs"] = len(runs["head"])
    out["ratio_of_medians"] = {m: out["head"][m]["median"] / out["base"][m]["median"]
                               for m in better if out["base"][m]["median"]}
    out["head_wins"], out["gain_shown"], out["beyond_bound"] = {}, {}, {}
    for m, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b["metrics"][m] - h["metrics"][m]) > 0
                   for b, h in zip(runs["base"], runs["head"]))
        base = out["base"][m]
        gain = sign * (base["median"] - out["head"][m]["median"])
        out["head_wins"][m] = wins
        out["gain_shown"][m] = (out["pairs"] >= 10 and 10 * wins >= 9 * out["pairs"]
                                and gain > base["iqr"])
        out["beyond_bound"][m] = -gain > bound[m] * abs(base["median"])
    return out


def parse_pairs(text: str) -> dict:
    pairs = {}
    for item in text.split(","):
        name, count = item.split("=")
        pairs[name] = int(count)
    return pairs


def record(checkouts: dict, pairs: dict, first_seed: int, spec: dict) -> dict:
    """The report on the base and head checkouts: layer suites, then `pairs`
    alternating runs per workload from seed first_seed on."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bench_trees = {side: git("rev-parse", f"{path.name}:perfbench")
                   for side, path in checkouts.items()}
    report = {
        "revisions": {side: path.name for side, path in checkouts.items()},
        "perfbench_tree": bench_trees,
        "run_seconds": spec["run_seconds"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    report["layers"] = record_layers(checkouts)
    report["layer_rounds"] = LAYER_ROUNDS
    report["layer_processes"] = LAYER_PROCESSES
    envs = []
    for workload, count in pairs.items():
        runs = {"base": [], "head": []}
        for k in range(count):
            seed = first_seed + k
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for side in order:
                run = run_once(checkouts[side], workload, seed, spec["run_seconds"])
                envs.append(run.pop("env"))
                runs[side].append(run)
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
        report["workloads"][workload] = {"first_seed": first_seed, "order": "alternating",
                                         **summarize(runs, better, bound), "runs": runs}
    report["env"] = envs[0] if envs else {}
    report["env_varied"] = any(e != envs[0] for e in envs)
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--pairs", type=parse_pairs, required=True,
                        help="workload=pairs,...; pair k runs seed first_seed + k")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.pairs) - {w["name"] for w in spec["workloads"]}
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    with export(args.base) as base, export(args.head) as head:
        report = record({"base": base, "head": head}, args.pairs, args.first_seed, spec)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
