"""Benchmark entry point.

    python3 tsbench/run.py --workload compose --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every workload runs in fresh
single-threaded worker processes (tsbench/worker.py), one after another;
this process only starts them, times set-up and prints the results.

--trace 0: five set-up-only workers and one measuring worker.  Prints the
end-to-end metrics: ops_per_s, latency_p50_ms, latency_p90_ms,
error_rate, setup_s (median of the six set-ups) and peak_rss_mb.  Op
times are at reference speed (worker.py); set-up is wall time.
--trace 1: one traced measuring worker, then one untraced worker that runs
the first third of the same ops, for trace.overhead_ratio.  Prints the per-layer
metrics and writes the spans to .tsbench_out/spans-<workload>.csv.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every op completed and every output matched the oracle; the workloads are
drawn so that no op fails, so a failed op is an error of the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from gen import CYCLES  # noqa: E402
SETUP_PROBES = 5
# Wall-clock limit for one worker beyond its measuring time.
WORKER_SLACK_S = 120


class WorkerFailed(Exception):
    pass


def run_worker(args: list, timeout: float):
    """Start a worker; return (seconds until READY, last JSON line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0 if first.strip() == "READY" else None
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker {args} ran past {timeout:.0f}s")
    lines = [line for line in rest.splitlines() if line.strip()]
    last = lines[-1] if lines else None
    if proc.returncode != 0 or ready is None:
        raise WorkerFailed(f"worker {args} exited with {proc.returncode}")
    return ready, (json.loads(last) if last else None)


def end_to_end(ns) -> tuple[dict, dict]:
    base = ["--workload", ns.workload, "--seed", str(ns.seed)]
    setups = [run_worker(base + ["--setup-only"], WORKER_SLACK_S)[0]
              for _ in range(SETUP_PROBES)]
    ready, res = run_worker(base + ["--seconds", str(ns.seconds)],
                            ns.seconds + WORKER_SLACK_S)
    setups.append(ready)
    metrics = {
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_p90_ms": (res["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def per_layer(ns) -> tuple[dict, dict]:
    base = ["--workload", ns.workload, "--seed", str(ns.seed)]
    _, res = run_worker(base + ["--seconds", str(ns.seconds), "--trace"],
                        ns.seconds + WORKER_SLACK_S)
    # the overhead replay covers the first third of the traced ops
    k = max(1, res["measured"] // 3)
    _, plain = run_worker(base + ["--ops", str(k)], ns.seconds + WORKER_SLACK_S)
    metrics = {name: tuple(v) for name, v in res["layers"].items()}
    metrics["trace.overhead_ratio"] = (sum(res["op_scaled_s"][:k]) / sum(plain["op_scaled_s"]),
                                       "ratio")
    res["correct"] = res["correct"] and plain["correct"]
    res["mismatches"] += plain["mismatches"]
    res["failures"] += plain["failures"]
    return res, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        res, metrics = (per_layer if ns.trace else end_to_end)(ns)
    except (WorkerFailed, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {ns.workload} seed {ns.seed}: {attempted} ops, {res['measured']} "
          f"measured ({res['above_p90']} above p90), {failed} failed, "
          f"error_rate {failed / attempted:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "spans" in res:
        print(f"  spans: {res['spans']}")
    for m in res["mismatches"]:
        print(f"  MISMATCH {m}")
    for m in res["failures"]:
        print(f"  FAILED {m}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
