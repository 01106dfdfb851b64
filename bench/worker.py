"""One workload in one fresh process: set up, measure, check, report.

Started by run.py, never imported by it.  The last line of stdout is a
JSON object with the measured metrics; diagnostics go to stderr.

    setup   time from process start (the spawn time run.py passes in
            RSPLAB_BENCH_SPAWN) to the return of the warm-up op, counting
            ``import rsplab`` but not the benchmark's input generation
            (the inputs and references of the warm-up op included)
    run     the closed loop: one client, next op after the previous one
            completes, for --seconds and at least the workload's rounds;
            with --trace 1 the first half runs untraced and the second
            half replays the same op stream with spans (each half at
            least half the rounds), followed by the checked probe calls
"""

import argparse
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback

import stats
import tracing
from workloads import WORKLOADS, probe_ops

WARMUP_SEED_SALT = 0x5EED
SETUP_SEED_SALT = 0xF11E
MAX_REPORTED_FAILURES = 5


def import_rsplab(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rsplab
    import rsplab.cli
    where = os.path.dirname(os.path.abspath(rsplab.__file__))
    if where != os.path.join(os.path.abspath(src), "rsplab"):
        raise RuntimeError(f"imported rsplab from {where}, not from {src}")
    return rsplab


def run_op(op, lab, tracer=None, op_id=None):
    """(latency in seconds, failure message or None, result)."""
    if tracer is not None:
        tracer.begin_op(op_id, op.kind)
    t0 = time.perf_counter()
    try:
        result = op.run(lab)
    except Exception as exc:
        return time.perf_counter() - t0, f"{op.kind}: {type(exc).__name__}: {exc}", None
    latency = time.perf_counter() - t0
    if op.check is not None:
        try:
            op.check(result)
        except Exception as exc:
            return latency, f"{op.kind}: {type(exc).__name__}: {exc}", result
    return latency, None, result


class Loop:
    """Latencies, items and failures of one timed closed loop.

    Every execution is timed; each slot keeps its best time over its first
    ``rounds`` executions.  Other tenants of a shared machine only ever
    add time to an execution, so the best of a slot's repetitions is the
    steadiest estimate of what the op costs (the rule timeit follows).
    The count is fixed so that a faster program, which fits more
    executions into the run, does not also get a lower minimum from more
    draws.
    """

    def __init__(self, rounds):
        self.rounds = rounds
        self.best = {}         # slot -> best latency of its first rounds executions
        self.items = {}        # slot -> items one passing execution completes
        self.runs = {}         # slot -> executions
        self.attempted = 0
        self.failures = []
        self.busy_s = 0.0      # summed latency of every execution
        self.passed_items = 0

    def record(self, op, latency, failure):
        self.attempted += 1
        self.busy_s += latency
        runs = self.runs[op.slot] = self.runs.get(op.slot, 0) + 1
        if runs <= self.rounds and latency < self.best.get(op.slot, float("inf")):
            self.best[op.slot] = latency
        if failure is None:
            self.items[op.slot] = op.items
            self.passed_items += op.items
        else:
            self.failures.append(failure)

    def items_per_s(self):
        """Items of one pass over the slots per second of their best times."""
        secs = sum(self.best.values())
        return sum(self.items.values()) / secs if secs > 0.0 else 0.0

    def mean_items_per_s(self):
        """Passing items over the summed latency of every execution: the
        closed-loop rate, with every pause the best times leave out."""
        return self.passed_items / self.busy_s if self.busy_s > 0.0 else 0.0


def closed_loop(workload, lab, ctx, seed, seconds, rounds, tracer=None):
    """Run ops for ``seconds`` and until every slot has run ``rounds`` times."""
    ops = workload.ops(ctx, random.Random(seed))
    loop = Loop(rounds)
    deadline = time.perf_counter() + seconds
    while loop.attempted < rounds * workload.slots or time.perf_counter() < deadline:
        op = next(ops)
        op_id = loop.attempted
        latency, failure, result = run_op(op, lab, tracer, op_id)
        loop.record(op, latency, failure)
        if tracer is not None:
            tracer.op_latency[op_id] = latency
            if hasattr(result, "out_bytes"):
                tracer.out_bytes[op_id] = result.out_bytes
    return loop


def end_to_end(workload, loop):
    if not loop.best:
        raise RuntimeError("no operation completed in the timed phase")
    best = list(loop.best.values())
    tail_value, tail_pct, beyond = stats.tail(best)
    metrics = {
        "items_per_s": (loop.items_per_s(), "1/s"),
        "op_p50_ms": (stats.nearest_rank(sorted(best), 50.0)[0] * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((loop.attempted - len(loop.failures)) / loop.attempted, "ratio"),
    }
    runs = list(loop.runs.values())
    detail = {"tail_percentile": tail_pct, "tail_beyond": beyond,
              "samples": len(best), "slots": workload.slots,
              "rounds": loop.rounds, "runs_per_slot": [min(runs), max(runs)],
              "mean_items_per_s": loop.mean_items_per_s(),
              "failed_ratio": len(loop.failures) / loop.attempted}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def environment(np):
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                             "RSPLAB_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the layout of show_config differs across numpy versions
        info["blas"] = f"unavailable: {type(exc).__name__}"
    return info


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", default=None, help="file for the spans of a traced run")
    args = parser.parse_args(argv)
    spawn = float(os.environ["RSPLAB_BENCH_SPAWN"])
    # Let an interrupted run still remove its temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    tmpdir = os.path.join(args.root, ".bench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        return _run(args, workload, spawn, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, workload, spawn, tmpdir):
    g0 = time.monotonic()
    ctx = workload.prepare(random.Random(args.seed ^ SETUP_SEED_SALT), tmpdir)
    warm = workload.warmup(ctx, random.Random(args.seed ^ WARMUP_SEED_SALT))
    generation = time.monotonic() - g0
    lab = import_rsplab(args.root)
    t_warm = time.monotonic()
    warm_latency, warm_failure, _ = run_op(warm, lab)
    # The warm-up op's check runs after its return and is not set-up.
    setup_s = t_warm + warm_latency - spawn - generation
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "failure": warm_failure}))
        return 0

    import numpy as np
    if not args.trace:
        loop = closed_loop(workload, lab, ctx, args.seed, args.seconds, workload.rounds)
        metrics, detail = end_to_end(workload, loop)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        loops = [loop]
    else:
        half, rounds = args.seconds / 2.0, max(1, workload.rounds // 2)
        base = closed_loop(workload, lab, ctx, args.seed, half, rounds)
        tracer = tracing.Tracer()
        tracer.install(lab)
        traced = closed_loop(workload, lab, ctx, args.seed, half, rounds, tracer)
        probes = Loop(1)
        for k, op in enumerate(probe_ops(ctx, random.Random(args.seed)), start=1):
            latency, failure, result = run_op(op, lab, tracer, -k)
            probes.record(op, latency, failure)
            if hasattr(result, "out_bytes"):
                tracer.out_bytes[-k] = result.out_bytes
        metrics, from_probe, empty = tracing.per_layer_metrics(tracer)
        untraced_rate = base.items_per_s()
        traced_rate = traced.items_per_s()
        metrics["trace.overhead_ratio"] = {
            "value": untraced_rate / traced_rate if traced_rate else 0.0, "unit": "ratio"}
        detail = {"untraced_items_per_s": untraced_rate, "traced_items_per_s": traced_rate,
                  "from_probe": from_probe, "no_data": empty + tracer.missing,
                  "spans": len(tracer.spans), "breakdown": tracing.breakdown(tracer)}
        if args.spans:
            with open(args.spans, "w") as fh:
                tracing.dump(tracer, fh)
            detail["spans_file"] = args.spans
        loops = [base, traced, probes]

    failures = [f for loop in loops for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops)
    if warm_failure is not None:
        failures.insert(0, "warm-up " + warm_failure)
        attempted += 1
    detail["setup_s_this_process"] = setup_s
    detail["failures"] = failures[:MAX_REPORTED_FAILURES]
    detail["env"] = environment(np)
    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
