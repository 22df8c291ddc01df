"""One timed pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS_INDEX TRACE SPAWN_T OUT_DIR

SPAWN_T is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time runs
from a fresh interpreter until qpb is imported and the ops are generated.
Prints one JSON object: set-up and pass time, per-op latency and
observable output, the reference-loop time, peak RSS and, when traced,
the per-layer metrics.

Before each op the worker times a fixed reference loop of small-integer
bytecode work and big-integer gcds, the two kinds of work qpb does.  On a
host whose cores other tenants share, CPU speed can drift by a fifth or
more over tens of seconds, which moves every wall time by the same
factor; dividing by the reference loop, timed in the same pass, cancels
most of that drift.  Those pauses are outside every op's time.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
_BIG_A, _BIG_B = 3 ** 600, 5 ** 400


def reference_loop() -> float:
    """Wall time of a fixed loop (about 3 ms): the unit of the *_ref metrics."""
    t = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += (i * 2654435761) % 1000003
    for i in range(1, 150):
        x += math.gcd(_BIG_A * i + 1, _BIG_B + 7 * i)
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace, spawn_t, out_dir = argv
    sys.path.insert(0, str(SRC))
    import qpb
    import qpb.cli  # noqa: F401  (the CLI ops run through it)

    if not Path(qpb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qpb imported from {qpb.__file__}, not from {SRC}")
    from workloads import cli_observable, lib_observable, make_ops, run_cli, run_lib, verify_joined

    ops = make_ops(workload, int(seed), int(pass_index))
    setup_s = time.monotonic() - float(spawn_t)

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    raw, ref = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        ref.append(reference_loop())
        t_op = time.perf_counter()
        try:
            value = run_cli(op.argv) if op.kind == "cli" else run_lib(op.argv)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            value, error = None, f"{type(exc).__name__}: {exc}"
        raw.append(((time.perf_counter() - t_op) * 1000.0, value, error))
    if tracer is not None:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Outside the timed region: reduce outputs to what the parent checks.
    records, outputs, stdout_bytes = [], {}, 0
    for op, (ms, value, error) in zip(ops, raw):
        rec = {"ms": ms, "exit": 0, "out": None, "error": error}
        if error is None and op.kind == "cli":
            rec["exit"], text = value
            rec["out"] = cli_observable(text)
            stdout_bytes += rec["out"]["bytes"]
            if workload == "verify-all":
                outputs[op.cell[1]] = text
        elif error is None:
            rec["out"] = lib_observable(op.argv, value)
        records.append(rec)
    # Ops run back to back, so the pass time is the sum of op latencies.
    pass_s = sum(ms for ms, _value, _error in raw) / 1000.0
    result = {"setup_s": setup_s, "pass_s": pass_s, "ref_s": statistics.median(ref),
              "peak_rss_mb": peak_rss_mb, "ops": records}
    if workload == "verify-all" and len(outputs) == len(ops):
        result["joined"] = verify_joined(outputs)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(stdout_bytes)
        result["spans"] = len(tracer.start)
        tracer.write_spans(Path(out_dir) / f"spans-{workload}-seed{seed}-pass{pass_index}.tsv")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
