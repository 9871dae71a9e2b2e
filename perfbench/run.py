"""harddisks benchmark: four seeded workloads through the public CLI and library.

    python3 perfbench/run.py --workload bound_table --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):
  bound_table  harddisks table --Ls 8,...,1024                     (seed-free)
  couple_cold  harddisks couple, n=32 rho=0.14 ell=1, 1e5 trials, 2 threads
  ell_sweep    estimate_contraction for ell in {0.5,1,2,3,4}, one process
  simulate     harddisks simulate, n=64 rho=0.15, 2.5e5 steps

--trace 0 runs the operation in a fresh process again and again for about
--seconds and sets the inputs up SETUP_REPS times around it.  It reports the
fastest repetition's times and the median memory and set-up time.  --trace 1
runs the operation once untraced and once under perfbench/tracer.py and
reports the per-layer metrics; the full trace goes to
.bench_build/perfbench/trace-<workload>-seed<seed>.json.  Every
program output is checked.  The last stdout line is the result JSON; the line
before it records the seed, the environment and each operation.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the program source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
PY = sys.executable
CLI = [PY, "-m", "harddisks.cli"]

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPS = 15
IMPORT_REPS = 5
Z99 = 2.576
# A process's threads are the ones the program starts itself (--threads).
# OpenBLAS worker threads would otherwise spin on the second core and make
# cpu_s, and wall_s with it, depend on what else that core is doing.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

TABLE_LS = (8, 16, 32, 64, 128, 256, 512, 1024)
TOP = TABLE_LS[-1]  # the grid the per-layer search metrics are taken at
# Criterion-1 table for L <= 256; the larger grids as first reproduced.
RHO_REF = {8: 0.150024, 16: 0.152182, 32: 0.153373, 64: 0.153999, 128: 0.154320,
           256: 0.154483, 512: 0.1545645, 1024: 0.1546055}
RHO_TOL = 2e-4
TABLE_TOL = 1e-6  # the CLI's bisection tolerance; rho* is resolved to TABLE_TOL / 8

METRIC_ARGS = ["metric", "--L", "256", "--rho", "0.1544"]
COUPLE_N, COUPLE_RHO, COUPLE_ELL, COUPLE_TRIALS, THREADS = 32, 0.14, 1.0, 100_000, 2
SIM_N, SIM_RHO, SIM_STEPS = 64, 0.15, 250_000


@dataclass
class Proc:
    """One finished program process and what it cost."""

    tag: str
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    failures: list[str] = field(default_factory=list)


def spawn(argv: list[str], work: Path, tag: str, deadline: float) -> Proc:
    """Run argv to completion in work/, killing it at the run deadline."""
    env = dict(os.environ, **SINGLE_THREADED_BLAS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Proc(tag, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text())
    if result.code != 0:
        tail = err_path.read_text().strip().splitlines()[-1:]
        result.failures.append(f"exit code {result.code}: {' '.join(tail)}")
    return result


# ---- workloads: arguments, correctness gates, estimate half-widths ---------
# A gate returns the failure messages for one process's stdout.


def table_args(work: Path, seed: int, threads: int, first_only: bool = False) -> list[str]:
    return ["table", "--Ls", ",".join(map(str, TABLE_LS))]


def couple_args(work: Path, seed: int, threads: int, first_only: bool = False) -> list[str]:
    return ["--threads", str(threads), "couple", "--n", str(COUPLE_N), "--rho", str(COUPLE_RHO),
            "--ell", str(COUPLE_ELL), "--trials", str(COUPLE_TRIALS),
            "--metric", str(work / "metric.csv"), "--seed", str(seed)]


def sweep_args(work: Path, seed: int, threads: int, first_only: bool = False) -> list[str]:
    return (["--metric", str(work / "metric.csv"), "--seed", str(seed), "--threads", str(threads)]
            + (["--ells", "0.5"] if first_only else []))


def simulate_args(work: Path, seed: int, threads: int, first_only: bool = False) -> list[str]:
    return ["simulate", "--n", str(SIM_N), "--rho", str(SIM_RHO), "--steps", str(SIM_STEPS),
            "--seed", str(seed), "--out", str(work / "sim.json")]


def couple_estimates(stdout: str) -> list[dict]:
    return [json.loads(stdout)]


def sweep_estimates(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def estimate_failures(records: list[dict]) -> list[str]:
    fails = []
    for r in records:
        if not r["mean_delta_bound"] + r["ci99_bound"] < 0:
            fails.append(f"ell={r['ell_over_r']}: no contraction, mean_delta_bound + ci99_bound >= 0")
        if not r["mean_delta_exact"] <= r["mean_delta_bound"] + 1e-12:
            fails.append(f"ell={r['ell_over_r']}: mean_delta_exact exceeds mean_delta_bound")
    return fails


def check_table(stdout: str, work: Path) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "L,rho_star":
        return ["table output has no L,rho_star header"]
    rows = {int(a): float(b) for a, b in (line.split(",") for line in lines[1:])}
    if tuple(rows) != TABLE_LS:
        return [f"table rows {tuple(rows)} != {TABLE_LS}"]
    fails = [f"rho*(L={L}) = {rho} differs from {RHO_REF[L]} by more than {RHO_TOL}"
             for L, rho in rows.items() if abs(rho - RHO_REF[L]) > RHO_TOL]
    values = list(rows.values())
    if any(b < a for a, b in zip(values, values[1:])):
        fails.append("rho*(L) decreases with L")
    return fails


def check_couple(stdout: str, work: Path) -> list[str]:
    record = json.loads(stdout)
    if (record["n"], record["rho"], record["trials"]) != (COUPLE_N, COUPLE_RHO, COUPLE_TRIALS):
        return ["couple output echoes other parameters than requested"]
    return estimate_failures([record])


def check_sweep(stdout: str, work: Path) -> list[str]:
    records = sweep_estimates(stdout)
    ells = [r["ell_over_r"] for r in records]
    if not records or len(set(ells)) != len(ells):
        return [f"ell_sweep printed displacements {ells}"]
    return estimate_failures(records)


def check_simulate(stdout: str, work: Path) -> list[str]:
    record = json.loads(stdout)
    fails = []
    if (record["n"], record["rho"], record["steps"]) != (SIM_N, SIM_RHO, SIM_STEPS):
        fails.append("simulate output echoes other parameters than requested")
    if record["accepted"] + record["rejected"] != record["steps"]:
        fails.append("accepted + rejected != steps")
    p, sigma = record["acceptance_rate"], sim_halfwidth(record) / Z99
    if p < 1.0 - 4.0 * SIM_RHO - 3.0 * sigma:
        fails.append(f"acceptance rate {p} below 1 - 4 rho - 3 sigma")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from harddisks import dynamics

    try:
        config = dynamics.load_snapshot(work / "sim.json.snapshot.csv")
    except (OSError, ValueError) as exc:
        return fails + [f"snapshot does not reload: {exc}"]
    if config.n != SIM_N:
        fails.append(f"snapshot holds {config.n} disks, not {SIM_N}")
    return fails


def check_setup(stdout: str, work: Path) -> list[str]:
    report = json.loads(stdout)
    fails = [] if report["axioms_pass"] is True else ["setup metric fails the metric axioms"]
    if report["min_residual"] < -1e-12:
        fails.append(f"setup metric min_residual {report['min_residual']} < -1e-12")
    return fails


def check_import(stdout: str, work: Path) -> list[str]:
    return []


# Squared 99% half-width of each workload's reported estimate, for wnv_cpu_s.


def sim_halfwidth(record: dict) -> float:
    """Binomial 99% half-width of the acceptance rate (correlation ignored)."""
    p = record["acceptance_rate"]
    return Z99 * (p * (1.0 - p) / record["steps"]) ** 0.5


def table_variance(stdout: str) -> float:
    return (TABLE_TOL / 8.0) ** 2


def couple_variance(stdout: str) -> float:
    return couple_estimates(stdout)[0]["ci99_bound"] ** 2


def sweep_variance(stdout: str) -> float:
    return statistics.fmean(r["ci99_bound"] ** 2 for r in sweep_estimates(stdout))


def simulate_variance(stdout: str) -> float:
    return sim_halfwidth(json.loads(stdout)) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "cli" runs python -m harddisks.cli, "sweep" runs ell_sweep.py
    needs_metric: bool   # inputs include the L = 256 metric CSV
    args: Callable[..., list[str]]
    check: Callable[[str, Path], list[str]]
    variance: Callable[[str], float]
    estimates: Callable[[str], list[dict]] | None = None  # estimate_contraction results

    def argv(self, args: list[str]) -> list[str]:
        return CLI + args if self.kind == "cli" else [PY, str(BENCH / "ell_sweep.py")] + args


WORKLOADS = {wl.name: wl for wl in (
    Workload("bound_table", "cli", False, table_args, check_table, table_variance),
    Workload("couple_cold", "cli", True, couple_args, check_couple, couple_variance, couple_estimates),
    Workload("ell_sweep", "sweep", True, sweep_args, check_sweep, sweep_variance, sweep_estimates),
    Workload("simulate", "cli", False, simulate_args, check_simulate, simulate_variance),
)}


def gated(proc: Proc, check, work: Path) -> Proc:
    if proc.code == 0:
        try:
            proc.failures += check(proc.stdout, work)
        except (ValueError, KeyError, TypeError) as exc:
            proc.failures.append(f"unreadable output: {exc!r}")
    return proc


def set_up(wl: Workload, work: Path, deadline: float, reps: range) -> list[Proc]:
    """Interpreter start, import harddisks and generation of the inputs, once per rep."""
    argv = CLI + METRIC_ARGS + ["--out", str(work / "metric.csv")] if wl.needs_metric \
        else [PY, "-c", "import harddisks.cli"]
    check = check_setup if wl.needs_metric else check_import
    procs = []
    for k in reps:
        proc = gated(spawn(argv, work, f"setup{k}", deadline), check, work)
        if wl.needs_metric and proc.code == 0:
            csv, first = (work / "metric.csv").read_bytes(), work / "metric.first"
            if not first.exists():
                first.write_bytes(csv)
            elif first.read_bytes() != csv:
                proc.failures.append("setup metric CSV differs between repetitions")
        procs.append(proc)
    return procs


def same_output(procs: list[Proc], reference: str) -> None:
    for p in procs:
        if p.code == 0 and p.stdout != reference:
            p.failures.append("stdout differs from another run with the same seed")


# ---- the two kinds of run -------------------------------------------------


def timed_run(wl: Workload, work: Path, seed: int, seconds: int, deadline: float):
    # Half the set-ups run before the operations and half after, so that the
    # set-up median spans the run instead of one moment of it.
    half = SETUP_REPS // 2 + 1
    setups = set_up(wl, work, deadline, range(half))
    ops: list[Proc] = []
    start = time.monotonic()
    while True:
        proc = spawn(wl.argv(wl.args(work, seed, THREADS)), work, f"op{len(ops)}", deadline)
        ops.append(gated(proc, wl.check, work))
        elapsed = time.monotonic() - start
        typical = statistics.median(p.wall for p in ops)
        if elapsed + typical > seconds or time.monotonic() + 1.5 * typical > deadline:
            break
    setups += set_up(wl, work, deadline, range(half, SETUP_REPS))
    same_output(ops[1:], ops[0].stdout)
    good = [p for p in ops if not p.failures]
    timed = good or ops  # a crashed repetition must not pass for a fast one
    # Repetitions do identical work, so they differ only by host noise, which
    # only ever adds time: the fastest one is the steadiest estimate.
    wnv = min(wl.variance(p.stdout) * p.cpu for p in good) if good else 0.0
    metrics = {
        "wall_s": min(p.wall for p in timed),
        "cpu_s": min(p.cpu for p in timed),
        "peak_rss_mb": statistics.median(p.rss_mb for p in timed),
        "setup_s": statistics.median(p.wall for p in setups),
        "wnv_cpu_s": wnv,
    }
    return setups + ops, metrics, {}


def load_trace(path: Path, proc: Proc) -> dict:
    """The trace a traced process wrote, or an empty one marked as a failure."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        proc.failures.append(f"no trace: {exc}")
        return {"spans": [], "absent": [], "op_spans": 0, "extras_s": 0.0, "repeat_json": None}


def traced_run(wl: Workload, work: Path, seed: int, seconds: int, deadline: float):
    import tracer  # only traced runs load the tracer

    def traced(tag: str, argv: list[str]) -> tuple[Proc, dict]:
        path = work / f"{tag}.trace.json"
        proc = spawn([PY, str(BENCH / "traced_child.py"), str(path)] + argv, work, tag, deadline)
        return proc, load_trace(path, proc)

    imports = [gated(spawn([PY, "-c", "import harddisks.cli"], work, f"import{k}", deadline),
                     check_import, work) for k in range(IMPORT_REPS)]
    procs, traces = list(imports), {}
    if wl.needs_metric:
        setup_args = ["cli"] + METRIC_ARGS + ["--out", str(work / "metric.csv")]
        setup, traces["setup"] = traced("setup", setup_args)
        procs.append(gated(setup, check_setup, work))
    args = wl.args(work, seed, THREADS)
    plain = gated(spawn(wl.argv(args), work, "op", deadline), wl.check, work)
    coupled = wl.estimates is not None
    op, traces["op"] = traced("traced", (["--repeat"] if coupled else []) + [wl.kind] + args)
    procs += [plain, gated(op, wl.check, work)]
    same_output([op], plain.stdout)
    if coupled and not plain.failures:
        first = wl.estimates(plain.stdout)[0]
        if json.loads(traces["op"]["repeat_json"] or "null") != first:
            op.failures.append("repeated estimate_contraction call gave another result")
        # The single-thread baseline of the first estimate_contraction call.
        args1 = wl.args(work, seed, 1, first_only=True)
        single, traces["threads1"] = traced("threads1", [wl.kind] + args1)
        procs.append(gated(single, wl.check, work))
        if not single.failures and wl.estimates(single.stdout)[0] != first:
            single.failures.append("threads=1 gave another estimate than threads=2")
    metrics, share = layer_metrics(tracer, traces, [p.wall for p in imports])
    traced_wall = op.wall - traces["op"]["extras_s"]
    report = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": traced_wall - plain.wall,
        "repaired_share_of_feasible": share,
        "absent": sorted({a for t in traces.values() for a in t["absent"]}),
        "self_s_by_span": self_by_name(tracer, traces),
        "traces": traces,
    }
    return procs, metrics, report


def layer_metrics(tracer, traces: dict, import_walls: list[float]) -> tuple[dict, float]:
    """The per-layer metrics of BENCHMARK.json, 0 where this workload never calls the
    layer, and the share of repaired_metric in the feasible time at L = TOP."""
    d, named = tracer.duration, tracer.named
    op = traces["op"]["spans"][: traces["op"]["op_spans"]]
    repeat = traces["op"]["spans"][traces["op"]["op_spans"]:]
    spans = traces.get("setup", {}).get("spans", []) + op
    m = {"cli.import_s": statistics.median(import_walls)}

    def first(pool, name, **info):
        hits = named(pool, name, **info)
        return hits[0] if hits else None

    for L in sorted({256, TOP}):
        s = first(spans, "contraction.assemble", L=L)
        m[f"contraction.kernel_s.L{L}"] = d(s) if s else 0.0
        s = first(spans, "contraction.max_density", L=L)
        m[f"contraction.max_density_s.L{L}"] = d(s) if s else 0.0
    top = first(op, "contraction.max_density", L=TOP)
    m[f"contraction.max_density_self_s.L{TOP}"] = tracer.self_times(op)[top["id"]] if top else 0.0
    m[f"contraction.search_iterations.L{TOP}"] = top["info"].get("iterations", 0) if top else 0
    feas = named(op, "contraction.feasible", L=TOP)
    mins = named(op, "contraction.minimal_metric", L=TOP)
    m[f"contraction.feasible_calls.L{TOP}"] = len(feas)
    # The first call also builds the kernel, which kernel_s reports.
    m[f"contraction.feasible_ms.L{TOP}"] = tracer.mean_ms(feas[1:])
    m[f"contraction.minimal_metric_ms.L{TOP}"] = tracer.mean_ms(mins)
    m[f"contraction.minimal_metric_calls.L{TOP}"] = len(mins)
    repaired = named(op, "contraction.repaired_metric", L=TOP)
    m[f"contraction.repaired_metric_ms.L{TOP}"] = tracer.mean_ms(repaired)
    searched = {s["id"] for s in feas[1:]}
    inside = [s for s in repaired if s["parent"] in searched]
    share = sum(map(d, inside)) / sum(map(d, feas[1:])) if feas[1:] else 0.0

    angle = named(spans, "geometry.crescent_angle_array")
    m["geometry.crescent_angle_calls"] = len(angle)
    m["geometry.crescent_angle_s"] = sum(map(d, angle))
    lookups = named(op, "metric.eval_array")
    m["metric.eval_array_calls"] = len(lookups)
    m["metric.eval_array_s"] = sum(map(d, lookups))

    est = named(op, "coupling.estimate_contraction")
    again = first(repeat, "coupling.estimate_contraction")
    single = first(traces.get("threads1", {}).get("spans", []), "coupling.estimate_contraction")
    ell1 = first(est, "coupling.estimate_contraction", ell_over_r=1.0)
    trials = sum(s["info"].get("trials", 0) for s in est)
    informative = sum(s["info"].get("outcome_counts", {}).get(k, 0) for s in est
                      for k in ("coalesced", "far-move", "near-move"))
    m["coupling.estimate_s.first"] = d(est[0]) if est else 0.0
    m["coupling.estimate_s.repeat"] = d(again) if again else 0.0
    m["coupling.cold_share"] = 1.0 - d(again) / d(est[0]) if est and again else 0.0
    again_trials = again["info"].get("trials", 0) if again else 0
    m["coupling.ns_per_trial"] = 1e9 * d(again) / again_trials if again_trials else 0.0
    m["coupling.informative_frac"] = informative / trials if trials else 0.0
    m["coupling.ci99_bound.ell1"] = ell1["info"].get("ci99_bound", 0.0) if ell1 else 0.0
    m["coupling.thread_speedup"] = d(single) / d(est[0]) if est and single else 0.0

    run = first(op, "dynamics.run")
    steps = run["info"].get("steps", 0) if run else 0
    m["dynamics.run_ns_per_step"] = 1e9 * d(run) / steps if steps else 0.0
    m["dynamics.acceptance_rate"] = run["info"].get("accepted", 0) / steps if steps else 0.0
    rc = first(op, "dynamics.random_config")
    m["dynamics.random_config_ms"] = 1e3 * d(rc) if rc else 0.0
    return m, share


def self_by_name(tracer, traces: dict) -> dict:
    """Total self time per span name and trace, largest first."""
    out = {}
    for key, trace in traces.items():
        own = tracer.self_times(trace["spans"])
        totals: dict = {}
        for s in trace["spans"]:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
        out[key] = dict(sorted(totals.items(), key=lambda kv: -kv[1]))
    return out


# ---- entry point ------------------------------------------------------------


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def program_seed(workload: str, seed: int) -> int:
    """The seed handed to the program, derived from the benchmark seed."""
    return int.from_bytes(hashlib.sha256(f"{workload}/{seed}".encode()).digest()[:4], "big")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "harddisks" / "cli.py").is_file():
        print(f"error: no harddisks source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_BUDGET_S
    seed = program_seed(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = traced_run if args.trace else timed_run
    try:
        procs, metrics, report = run(WORKLOADS[args.workload], work, seed, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    failed = [p for p in procs if p.failures]
    record = {
        "workload": args.workload, "seed": args.seed, "program_seed": seed, "trace": args.trace,
        "env": environment(),
        "operations": [{"tag": p.tag, "wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
                        "failures": p.failures} for p in procs],
    }
    if args.trace:
        path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**record, "per_layer": metrics, **report}, indent=1))
        record["trace_file"] = str(path.relative_to(ROOT))
        record.update({k: report[k] for k in ("untraced_wall_s", "traced_wall_s",
                                               "tracing_overhead_s", "repaired_share_of_feasible",
                                               "absent")})
        summarize(args.workload, metrics, report)
    for p in failed:
        print(f"FAILED {p.tag}: {'; '.join(p.failures)}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(procs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failed else 1


def summarize(workload: str, metrics: dict, report: dict) -> None:
    """Human-readable trace summary on stderr."""
    err = sys.stderr
    print(f"trace of {workload}: untraced {report['untraced_wall_s']:.3f} s, "
          f"traced {report['traced_wall_s']:.3f} s, overhead {report['tracing_overhead_s']:+.3f} s",
          file=err)
    if report["absent"]:
        print(f"absent (not found in the package): {', '.join(report['absent'])}", file=err)
    if report["repaired_share_of_feasible"]:
        print(f"repaired_metric share of feasible time at L={TOP} (kernel build excluded): "
              f"{report['repaired_share_of_feasible']:.3f}", file=err)
    for key, totals in report["self_s_by_span"].items():
        top = ", ".join(f"{name} {t:.3f}" for name, t in list(totals.items())[:6])
        print(f"self time [{key}]: {top}", file=err)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}", file=err)


if __name__ == "__main__":
    sys.exit(main())
