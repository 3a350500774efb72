"""One benchmark process: set up, run one workload as a closed-loop caller,
check every output against the oracle, print one JSON line.

    python3 tsbench/worker.py --workload compose --seed 1 --seconds 15
        [--trace] [--ops N] [--setup-only]

The process prints `READY` once transserial and sympy are imported and the
first op's inputs are built (run.py times set-up up to that line).  It
then runs ops from the seeded list one after another, each one starting
when the previous returns: first WARMUP ops untimed, then measured ops
until `--seconds` of wall time have passed or `--ops` measured ops ran.
Inputs are built and outputs read back outside the timed region.

Reference speed.  The host runs this process faster or slower by phases
that last seconds to minutes (README.md, "Run-to-run noise").  So before
every op, and once after the last, the worker times `reference()`, a fixed
piece of pure-Python work that never calls the program.  Each op's latency
is reported at reference speed, the speed at which that loop takes REF_MS:
its wall time times REF_MS over the median of the three reference timings
around it (before the previous op, before it, after it).  The raw wall
times are kept in `op_times_s`.

An op fails when it raises a TransserialError or RecursionError, or
misses its deadline; the result lists the first failures and is not
`correct` when any op failed or any output disagreed with the oracle.

Deadlines.  Each op runs under an ITIMER_REAL alarm whose handler raises
`DeadlineMissed`, a BaseException, so no `except Exception` in the program
swallows it.  A missed op counts as failed with latency equal to its
deadline.  The program then holds streams whose generators died mid-step
and cache entries made by the stopped op, so the harness clears every
module-level cache of transserial back to its boot state and starts a new
cli session; since each op builds its inputs from its spec, no later op
can reach an object the stopped op touched.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import signal
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Seconds an op may take before it counts as failed.
DEADLINE_S = 20
# Ops run before measuring starts, so caches fill and the first imports and
# interning are paid; they are checked and counted in attempted/failed, but
# not timed.
WARMUP = 100
# peak_rss_mb is read after this many ops (a fixed amount of work, reached
# well within a run), so it does not depend on how fast the machine ran.
# The tracer reads the intern-table and cache sizes at the same point.
RSS_OPS = 400
# Reported latencies are scaled to the speed at which reference() takes
# this many milliseconds.
REF_MS = 1.0
# Failures and mismatches the result lists in full.
SHOWN = 5


class DeadlineMissed(BaseException):
    pass


def _on_alarm(signum, frame):
    raise DeadlineMissed()


def import_program():
    """transserial from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import transserial
    from transserial import (calculus, cli, compose, config, errors, grid, monomial,
                             series, witness)

    if not Path(transserial.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"transserial imported from {transserial.__file__}, not {src}")
    return types.SimpleNamespace(calculus=calculus, cli=cli, compose=compose,
                                 config=config, errors=errors, grid=grid,
                                 monomial=monomial, series=series, witness=witness)


def reset_caches(T):
    """Clear transserial's module-level caches back to their boot state."""
    mono = T.monomial
    keep = {k: v for k, v in mono._intern.items() if v is mono.ONE or v is mono.X}
    mono._intern.clear()
    mono._intern.update(keep)
    for cache in (mono._mul_cache, mono._cmp_cache, mono._lazy_keys,
                  T.grid._vec_cache, T.grid._member_cache, T.calculus._mono_deriv_cache):
        cache.clear()
    for m in (mono.ONE, mono.X):
        m._inv = None
    T.series._EMPTY = None
    T.witness._XINV_GRID = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference():
    """Fixed Fraction and dict work, the kind the program's inner loops do."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        f = Fraction(i, i + 1)
        acc += f * f
        seen[(i, i % 7)] = acc
        seen.get((i - 1, 3))
    return acc


def time_reference() -> float:
    """Wall time of one reference() call, with the collector off so that
    it never pays for the program's garbage."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(latencies, refs, first):
    """Scale latencies[j], the op run after refs[first + j], to reference
    speed by the median of refs[first + j - 1 : first + j + 2]."""
    return [dt * REF_MS / 1000 / statistics.median(refs[first + j - 1:first + j + 2])
            for j, dt in enumerate(latencies)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0,
                    help="measure exactly this many ops instead of --seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    T = import_program()
    import gen
    import workloads

    workloads.bind(T)
    W = workloads.WORKLOADS[ns.workload]
    specs = gen.op_specs(ns.workload, ns.seed)
    state = W.new_state()
    spec = next(specs)
    args = W.build(spec)
    print("READY", flush=True)
    if ns.setup_only:
        return 0

    tracer = None
    if ns.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    errors = (T.errors.TransserialError, RecursionError)
    failures: list = []

    def fail(spec, why):
        failures.append(f"op {spec['id']} ({spec['kind']}) {why}"[:300])
        print(failures[-1], file=sys.stderr)

    def run_op(spec, args, state, traced):
        """(ok, missed deadline, latency, output) of one op."""
        if traced:
            tracer.op = spec["id"]
            tracer.active = True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                out = W.run(spec, args, state)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            return True, False, time.perf_counter() - t0, out
        except DeadlineMissed:
            fail(spec, f"missed its {DEADLINE_S}s deadline")
            reset_caches(T)
            return False, True, DEADLINE_S, None
        except errors as exc:
            fail(spec, f"failed: {exc!r}")
            return False, False, time.perf_counter() - t0, None
        finally:
            if traced:
                tracer.active = False

    records, latencies, oks, refs = [], [], [], []
    mismatches = []
    peak_rss_mb = None
    sizes = None
    t_end = None
    for done in itertools.count(1):
        measured = done > WARMUP
        refs.append(time_reference())
        ok, missed, dt, out = run_op(spec, args, state, tracer is not None and measured)
        if missed:
            state = W.new_state()
        if done == RSS_OPS:
            peak_rss_mb = _peak_rss_mb()
            sizes = tracer.sizes() if tracer else None
        if ok:
            try:
                records.append((spec, W.extract(spec, out)))
            except errors as exc:
                ok = False
                fail(spec, f"failed while its output was read back: {exc!r}")
            except workloads.Unsupported as exc:
                mismatches.append(f"op {spec['id']} ({spec['kind']}): {exc}"[:400])
        if measured:
            latencies.append(dt)
            oks.append(ok)
        else:
            t_end = time.perf_counter() + ns.seconds
        if measured and (len(latencies) >= ns.ops if ns.ops else time.perf_counter() >= t_end):
            break
        spec = next(specs)
        args = W.build(spec)
    refs.append(time_reference())
    if peak_rss_mb is None:
        if not ns.ops:
            print(f"run ended before {RSS_OPS} ops; peak_rss_mb read at the end",
                  file=sys.stderr)
        peak_rss_mb = _peak_rss_mb()
        sizes = tracer.sizes() if tracer else None
    if tracer:
        tracer.uninstall()

    for spec, data in records:
        try:
            W.check(spec, data)
        except (workloads.Mismatch, workloads.Unsupported) as exc:
            mismatches.append(f"op {spec['id']} ({spec['kind']}): {exc}"[:400])

    scaled = at_reference_speed(latencies, refs, WARMUP)
    lat_sorted = sorted(scaled)
    deciles = statistics.quantiles(lat_sorted, n=10) if len(lat_sorted) > 1 else lat_sorted * 9
    result = {
        "workload": ns.workload,
        "seed": ns.seed,
        "attempted": done,
        "failed": len(failures),
        "measured": len(latencies),
        "correct": not mismatches and not failures,
        "mismatches": mismatches[:SHOWN],
        "failures": failures[:SHOWN],
        "op_times_s": latencies,
        "op_scaled_s": scaled,
        "ops_per_s": sum(oks) / sum(scaled),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
        "above_p90": sum(1 for v in scaled if v > deciles[8]),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        metrics = tracer.metrics(len(latencies), sizes)
        result["layers"] = {k: list(v) for k, v in metrics.items()}
        out_dir = ROOT / ".tsbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{ns.workload}.csv"
        tracer.write_spans(path)
        result["spans"] = {"file": str(path.relative_to(ROOT)), "written": len(tracer.sp_id),
                           "dropped": tracer.dropped}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
