"""Run one benchmark operation in this process with the tracer installed.

    python3 perfbench/traced_child.py TRACE.json [--repeat] cli ARGS...
    python3 perfbench/traced_child.py TRACE.json [--repeat] sweep ARGS...

`cli` runs `harddisks.cli.main(ARGS)`, `sweep` runs the ell_sweep workload.
With --repeat, the first estimate_contraction call is made once more with
identical arguments after the operation, in the same process.  The spans go
to TRACE.json together with the repeat's JSON output and the time it took, so
the caller can subtract it from the process wall time.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer

ESTIMATE = "coupling.estimate_contraction"


def main(argv: list[str]) -> int:
    out, *argv = argv
    repeat = argv[0] == "--repeat"
    kind, *args = argv[1:] if repeat else argv
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        from harddisks import cli
        status = cli.main(args)
    elif kind == "sweep":
        import ell_sweep
        status = ell_sweep.main(args)
    else:
        raise SystemExit(f"unknown operation kind {kind!r}")
    op_spans = len(tracer.spans)
    extras_s, repeat_json = 0.0, None
    if repeat and ESTIMATE in tracer.first_call:
        from harddisks import coupling
        call_args, call_kwargs = tracer.first_call[ESTIMATE]
        t0 = time.perf_counter()
        repeat_json = coupling.estimate_contraction(*call_args, **call_kwargs).to_json()
        extras_s = time.perf_counter() - t0
    tracer.dump(out, op_spans=op_spans, extras_s=extras_s, repeat_json=repeat_json)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
