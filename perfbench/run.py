"""Host-cost benchmark of the repro GEMM stack.

    python3 perfbench/run.py --workload serve_chaos --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``serve_chaos`` (requests through the
async scheduler under the serve-chaos fault plan), ``tune_catalog``
(budgeted ``tune()`` calls over the device catalog) and ``lint_files``
(the host lint on each file of a frozen source tree).  Each runs in this
one process, driven from one thread.

``--trace 0`` prints the end-to-end metrics: set-up time over several
cold starts, then ops/s, CPU per op, peak RSS and unit-call percentiles
over whole rounds that fill ``--seconds``.  ``--trace 1`` times rounds
untraced for half of ``--seconds``, then wraps each layer's public
functions (``layers.py``) and runs one more round for the per-layer
split.  Every op is checked against ``expected.json`` in both modes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

#: One BLAS/OpenMP thread, set before numpy loads.  A two-thread pool on
#: tile-sized matmuls measures the machine's scheduler more than the
#: program; this pins, for the benchmark only, what the CLI would pin.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads as W  # noqa: E402

#: Cold starts timed per run; ``setup_s`` is their median.
COLD_STARTS = 7
COLD_START_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
)


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: a probe of host speed, gating nothing."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) & 0xFFFF
    return (time.perf_counter() - start) * 1e3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def time_cold_starts(workload: str, seed: int, count: int):
    """Seconds from spawning a fresh interpreter to the workload being
    built (imports plus objects), for ``count`` sequential processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--cold-start"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=COLD_START_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"cold start failed ({proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


def run_rounds(workload, until_s: float, result):
    """Whole rounds until their timed wall reaches ``until_s``; returns
    one (ops, clock) pair per round."""
    rounds, elapsed = [], 0.0
    while not rounds or elapsed < until_s:
        clock, ops = W.Clock(), result.ops
        workload.run_ops(workload.round_items(), clock, result)
        rounds.append((result.ops - ops, clock))
        elapsed += clock.wall
    return rounds


def untraced(workload, args, result, info):
    setup = time_cold_starts(args.workload, args.seed, COLD_STARTS)
    rounds = run_rounds(workload, args.seconds, result)
    calls = result.calls
    rank90 = max(1, math.ceil(0.9 * len(calls)))
    info.append(f"timed window: {len(rounds)} round(s), {result.ops} ops; round walls (s): "
                + " ".join(f"{c.wall:.3f}" for _, c in rounds))
    info.append(f"unit calls: {len(calls)} samples, {len(calls) - rank90} beyond p90")
    info.append("cold starts (s): " + " ".join(f"{s:.4f}" for s in setup))
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(ops / c.wall for ops, c in rounds),
        "cpu_ms_per_op": statistics.median(c.cpu * 1e3 / ops for ops, c in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p90_ms": percentile(calls, 90) * 1e3,
    }


def traced(workload, args, result, info):
    rounds = run_rounds(workload, args.seconds / 2.0, result)
    baseline_outputs = result.outputs[:len(workload.round_items())]
    inst = layers.Instrumentation()
    replaced = inst.install()
    info.append(f"wrapped {replaced} bindings")
    traced_result = W.RoundResult()
    clock = W.Clock()
    try:
        workload.run_ops(workload.round_items(), clock, traced_result)
        left = inst.unwrapped()
    finally:
        inst.uninstall()
    for binding in left:
        result.problems.append(f"unwrapped binding: {binding}")
    if traced_result.outputs != baseline_outputs:
        result.problems.append("traced outputs differ from the untraced run's")
    result.ops += traced_result.ops
    result.failed += traced_result.failed
    result.problems.extend(traced_result.problems)
    untraced_wall = statistics.median(c.wall for _, c in rounds)
    metrics = inst.report(traced_result.ops)
    metrics["trace.overhead_share"] = (clock.wall - untraced_wall) / untraced_wall
    info.append(f"traced round: {clock.wall:.3f} s wall vs {untraced_wall:.3f} s untraced, "
                f"{traced_result.ops} ops")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true",
                        help="build the workload, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload](args.seed)
    if args.cold_start:
        print("ready", flush=True)
        return 0

    ref_start = ref_loop_ms()
    info = ["pinned: " + " ".join(f"{k}={v}" for k, v in sorted(PINNED_ENV.items()))]
    warmup = W.RoundResult()
    workload.run_ops(workload.warmup_items(), W.Clock(), warmup)
    result = W.RoundResult()
    if args.trace:
        metrics = traced(workload, args, result, info)
        units = dict(layers.per_layer_metrics())
    else:
        metrics = untraced(workload, args, result, info)
        units = dict(END_TO_END)
    result.ops += warmup.ops
    result.failed += warmup.failed
    result.problems[:0] = warmup.problems
    ref_end = ref_loop_ms()
    host_ref = (ref_start + ref_end) / 2.0
    if args.trace:
        metrics["host.ref_loop_ms"] = host_ref
    info.append(f"host.ref_loop_ms: {host_ref:.3f} ms "
                f"(start {ref_start:.3f}, end {ref_end:.3f})")
    info.append(f"ops: {result.ops} attempted, {result.failed} failed "
                f"({result.failed / max(result.ops, 1):.2%} failed share)")
    for line in info:
        print(f"# {line}")
    for problem in result.problems[:50]:
        print(f"FAILED: {problem}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    correct = result.failed == 0 and not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.ops,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
