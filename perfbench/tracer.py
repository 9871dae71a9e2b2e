"""In-memory span and count recorder for traced benchmark runs.

The tracer wraps public harddisks functions by attribute on their modules, so
the package itself is never edited.  Each call becomes a span (name, start,
end, parent, thread) annotated with its scalar arguments and a few result
fields; spans are kept in memory and written out once, at the end.  A target
that a later version of the package removes or renames is recorded as absent
instead of failing the run.

Timed runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time

# (module, attribute path on that module, span name).  Functions another
# module imported by name are wrapped where they are called from: contraction
# calls geometry.crescent_angle_array through its own binding.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("contraction", "max_density", "contraction.max_density"),
    ("contraction", "feasible", "contraction.feasible"),
    ("contraction", "assemble", "contraction.assemble"),
    ("contraction", "minimal_metric", "contraction.minimal_metric"),
    ("contraction", "saturated_metric", "contraction.saturated_metric"),
    ("contraction", "repaired_metric", "contraction.repaired_metric"),
    ("contraction", "slack_report", "contraction.slack_report"),
    ("contraction", "lp_feasible", "contraction.lp_feasible"),
    ("contraction", "crescent_area", "geometry.crescent_area"),
    ("contraction", "crescent_angle_array", "geometry.crescent_angle_array"),
    ("lp", "feasible_box", "lp.feasible_box"),
    ("metric", "PiecewiseMetric.eval_array", "metric.eval_array"),
    ("metric", "check_axioms", "metric.check_axioms"),
    ("metric", "from_csv", "metric.from_csv"),
    ("metric", "to_csv", "metric.to_csv"),
    ("dynamics", "random_config", "dynamics.random_config"),
    ("dynamics", "run", "dynamics.run"),
    ("dynamics", "save_snapshot", "dynamics.save_snapshot"),
    ("dynamics", "load_snapshot", "dynamics.load_snapshot"),
    ("coupling", "estimate_contraction", "coupling.estimate_contraction"),
)

RESULT_FIELDS = ("iterations", "ci99_bound", "trials", "outcome_counts")


def _scalar(value) -> bool:
    return isinstance(value, (bool, int, float, str))


def _annotate(bound: dict, result) -> dict:
    info = {k: v for k, v in bound.items() if _scalar(v)}
    system = bound.get("system")
    if system is not None and hasattr(system, "L"):
        info["L"] = system.L
    for field in RESULT_FIELDS:
        if hasattr(result, field):
            info[field] = getattr(result, field)
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "accepted"):
        info["accepted"] = result[1].accepted  # dynamics.run -> (config, ChainStats)
    return info


class Tracer:
    """Records spans and the first call's arguments of every wrapped target."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.first_call: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(f"harddisks.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            self.first_call.setdefault(name, (args, kwargs))
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            try:
                bound = signature.bind(*args, **kwargs).arguments if signature else {}
            except TypeError:
                bound = {}
            self.spans.append({
                "id": span_id, "name": name, "parent": parent,
                "thread": threading.get_ident(),
                "start": start - self.t0, "end": end - self.t0,
                "info": _annotate(bound, result),
            })
            return result

        return wrapper

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent, **extra}, fh)


# ---- reading traces back -------------------------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the durations of its direct child spans.

    Children share their parent's thread and nest inside it, so they never
    overlap one another and their durations can simply be subtracted.
    """
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= duration(s)
    return out


def named(spans: list[dict], name: str, **info) -> list[dict]:
    """Spans called `name` whose info matches every given key.

    Spans are stored as they end, so calls of one function that do not nest
    one another come back in call order.
    """
    return [s for s in spans if s["name"] == name
            and all(s["info"].get(k) == v for k, v in info.items())]


def mean_ms(spans: list[dict]) -> float:
    return 1e3 * statistics.fmean(map(duration, spans)) if spans else 0.0
