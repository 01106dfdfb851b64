"""rsplab benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1

--seconds defaults to run_seconds in BENCHMARK.json.

Run from anywhere; the package is imported from ``src/`` next to this
directory, so the checkout needs no install.  Each workload runs in a
fresh single-threaded process (OMP/OPENBLAS/MKL_NUM_THREADS=1,
RSPLAB_THREADS unset).  setup_s is the median over SETUP_SAMPLES fresh
processes.  Every metric prints by name with its unit; the last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics.  Results, environment and (with --trace 1) spans are written
under .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7      # processes timed for setup_s, the measuring one included
TIME_BUDGET_S = 170.0  # one workload, all its processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("RSPLAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, deadline):
    """Run worker.py to completion; return its last stdout line as JSON."""
    env = worker_env()
    env["RSPLAB_BENCH_SPAWN"] = repr(time.monotonic())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT] + args
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
              "--trace", str(trace)]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    extra = ["--spans", os.path.join(out_dir, f"spans-{tag}.json")] if trace else []
    # Setup-only processes before and after the measuring one, so that the
    # samples of setup_s span the whole run.
    n_probes = 0 if trace else SETUP_SAMPLES - 1
    probes = [spawn_worker(common + ["--mode", "setup"], deadline)
              for _ in range(n_probes // 2)]
    result = spawn_worker(common + ["--mode", "run"] + extra, deadline)
    probes += [spawn_worker(common + ["--mode", "setup"], deadline)
               for _ in range(n_probes - n_probes // 2)]
    setups = [result["detail"]["setup_s_this_process"]] + [p["setup_s"] for p in probes]
    probe_failures = ["setup warm-up " + p["failure"] for p in probes if p["failure"]]
    failures = result["detail"]["failures"] + probe_failures
    attempted = result["attempted"] + len(probes)
    failed = result["failed"] + len(probe_failures)
    if not trace:
        result["metrics"]["setup_s"]["value"] = stats.median(setups)
    detail = result["detail"]
    detail["setup_samples_s"] = setups
    detail["env"].update({"cpu_model": cpu_model(), "git_commit": git_commit(),
                          "platform": platform.platform()})
    detail["failures"] = failures
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result["metrics"], "detail": detail}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def describe(record):
    d = record["detail"]
    lines = [f"== {record['workload']}  seed={record['seed']}  "
             f"attempted={record['attempted']}  failed={record['failed']}"]
    for name, m in record["metrics"].items():
        note = ""
        if name == "items_per_s":
            note = f"  (closed-loop mean {d['mean_items_per_s']:.6g})"
        elif name == "op_tail_ms":
            note = (f"  (p{d['tail_percentile']:g} of {d['samples']} slot bests, "
                    f"{d['tail_beyond']} beyond; best of the first {d['rounds']} of "
                    f"{d['runs_per_slot'][0]}-{d['runs_per_slot'][1]} runs per slot)")
        elif name == "ok_ratio":
            note = f"  (failed_ratio {d['failed_ratio']:g})"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.4f}" for s in d["setup_samples_s"]) + ")"
        lines.append(f"  {name:38s} {m['value']:14.6g} {m['unit']}{note}")
    if "breakdown" in d:
        lines.append(f"  tracing: untraced {d['untraced_items_per_s']:.6g} items/s, "
                     f"traced {d['traced_items_per_s']:.6g} items/s, {d['spans']} spans")
        if d["from_probe"]:
            lines.append("  from probe calls: " + ", ".join(d["from_probe"]))
        if d["no_data"]:
            lines.append("  NO DATA: " + ", ".join(d["no_data"]))
        for kind, row in d["breakdown"].items():
            inc = ", ".join(f"{k} {v:.0%}" for k, v in row["inclusive"].items())
            lay = ", ".join(f"{k} {v:.0%}" for k, v in row["layer_self"].items())
            lines.append(f"  [{kind}] {row['ops']} ops, mean {row['mean_ms']:.3f} ms")
            lines.append(f"      spans: {inc}")
            lines.append(f"      self by layer: {lay}")
    for failure in d["failures"]:
        lines.append(f"  FAILED: {failure}")
    env = d["env"]
    lines.append("  env: " + json.dumps(env, sort_keys=True))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rsplab", "__init__.py")):
        print(f"error: no rsplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    expected = expected_metrics(spec, args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        got = {k: m["unit"] for k, m in record["metrics"].items()}
        if got != expected:
            raise RuntimeError(f"metrics {got} do not match BENCHMARK.json {expected}")
        print(describe(record), flush=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in records),
               "attempted": sum(r["attempted"] for r in records),
               "failed": sum(r["failed"] for r in records),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
