"""The qpb benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

Each timed pass runs the workload's fixed op list once, in a fresh
single-threaded worker process (perfbench/worker.py); one worker runs at a
time, and each op is issued when the previous one returns.  A fresh
process per pass means every pass pays qkernels' memo growth, as a CLI
user does, and no cache carried between passes can pass for a speed-up.
Passes repeat until --seconds have gone by and, untraced, until there are
enough op samples for a 90th percentile with ten samples beyond it.

Every op's output is checked outside the timed region: CLI stdout against
the digests in perfbench/reference.json, oracle results against the
formula route.  With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 passes alternate untraced and traced, and the
last line reports the per-layer metrics of the traced passes
(perfbench/spans.py).  Run details go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_METRICS, LAYER_METRICS
from workloads import WORKLOADS, check_pass, input_sizes, load_reference, make_ops, op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# 90th percentile with at least ten samples beyond it.
MIN_OP_SAMPLES = 100
# Stop starting passes after this long even with fewer than MIN_OP_SAMPLES
# samples (a slow host then gets fewer than ten beyond the 90th
# percentile; the result records the count), so that a run stays short.
MAX_PASS_WALL_S = 40.0
WORKER_TIMEOUT_S = 150.0

# The *_ref metrics are times in units of the worker's reference loop
# (see worker.py); the raw times are printed and recorded beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
RAW_TIMES = (("pass_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.

    A workload's op latencies cluster by op (ten verify suites give ten
    clusters), so a plain percentile sits on one sample at a cluster edge
    and jumps with it; the weighted mean moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # integration steps per order statistic

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    total = weight_sum = 0.0
    for i, x_i in enumerate(xs):
        # Midpoint rule for the Beta mass on [i/n, (i+1)/n].
        w = sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) / (steps * n)
        total += w * x_i
        weight_sum += w
    return total / weight_sum


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(workload: str, seed: int, pass_index: int, traced: bool,
               timeout: float) -> tuple[dict | None, str]:
    """One pass in a fresh interpreter: (its result, or None, and stderr)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index),
           "1" if traced else "0", repr(time.monotonic()), str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes, check them, and aggregate; returns the full result."""
    reference = load_reference(workload)
    untraced, traced, failures = [], [], []
    attempted = failed = 0
    t_start = time.monotonic()
    pass_index = 0
    while True:
        is_traced = trace and pass_index % 2 == 1
        ops = make_ops(workload, seed, pass_index)
        remaining = WORKER_TIMEOUT_S - (time.monotonic() - t_start)
        result, err = run_worker(workload, seed, pass_index, is_traced, max(remaining, 10.0))
        attempted += len(ops)
        if result is None:
            # A worker that crashed would crash again; the run ends here.
            failed += len(ops)
            failures.append(f"pass {pass_index}: worker failed: {err.strip()}")
            break
        bad = check_pass(workload, ops, result, reference)
        failed += len(bad)
        failures += [f"pass {pass_index}: {msg}" for msg in bad]
        if is_traced:
            want = sum(reference[op_key(op)]["bytes"] for op in ops if op.kind == "cli")
            if result["layers"]["cli.stdout_bytes"] != want:
                failures.append(f"pass {pass_index}: cli.stdout_bytes "
                                f"{result['layers']['cli.stdout_bytes']} != reference {want}")
        (traced if is_traced else untraced).append(result)
        pass_index += 1
        elapsed = time.monotonic() - t_start
        samples = sum(len(r["ops"]) for r in untraced)
        enough = (traced and untraced) if trace else samples >= MIN_OP_SAMPLES
        if (elapsed >= seconds and enough) or elapsed >= MAX_PASS_WALL_S:
            break

    ops_per_pass = len(make_ops(workload, seed))
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ops_per_pass": ops_per_pass,
        "input_sizes": input_sizes(workload),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "op_samples": sum(len(r["ops"]) for r in untraced),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "wall_s": time.monotonic() - t_start,
        "pass_s_each": [r["pass_s"] for r in untraced + traced],

    }
    metrics, raw_times = {}, {}
    if untraced and not trace:
        latencies = [op["ms"] for r in untraced for op in r["ops"]]
        relative = [op["ms"] / 1000.0 / r["ref_s"] for r in untraced for op in r["ops"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "pass_ref": statistics.median(r["pass_s"] / r["ref_s"] for r in untraced),
            "op_p50_ref": hd_quantile(relative, 0.5),
            "op_p90_ref": hd_quantile(relative, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "pass_s": statistics.median(r["pass_s"] for r in untraced),
            "op_p50_ms": hd_quantile(latencies, 0.5),
            "op_p90_ms": hd_quantile(latencies, 0.9),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw_times = {name: {"value": values[name], "unit": unit} for name, unit in RAW_TIMES}
        meta["ref_s_each"] = [r["ref_s"] for r in untraced]
    elif traced and untraced:
        first = traced[0]["layers"]  # the counts of pass 1, the same for any run of this seed
        values = {}
        for name, unit, _better in LAYER_METRICS[:-1]:
            values[name] = first[name] if name in EXACT_METRICS else statistics.median(
                r["layers"][name] for r in traced)
        values["trace.overhead_ratio"] = (statistics.median(r["pass_s"] for r in traced)
                                          / statistics.median(r["pass_s"] for r in untraced))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        meta["spans_per_traced_pass"] = [r["spans"] for r in traced]
    return {"meta": meta, "failures": failures, "metrics": metrics, "raw_times": raw_times}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qpb benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpb" / "__init__.py").is_file():
        sys.stderr.write(f"no qpb sources under {SRC}; run from a full checkout\n")
        return 2
    # Import once here, so the first worker does not pay for byte-compiling.
    sys.path.insert(0, str(SRC))
    import qpb  # noqa: F401

    OUT_DIR.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    meta, metrics = result["meta"], result["metrics"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n",
                                                encoding="utf-8")
    for msg in result["failures"]:
        sys.stderr.write(f"FAIL {msg}\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"fail_ratio {meta['fail_ratio']} ratio ({meta['failed']}/{meta['attempted']} ops)")
    for name, m in {**metrics, **result["raw_times"]}.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not metrics:
        sys.stderr.write("no pass completed; no metrics\n")
        return 1
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
