"""Run one workload on several seeds and report the spread of each metric.

    python3 bench/steadiness.py --workload cli_small --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed, one after another, at BENCHMARK.json's
run_seconds.  For each end-to-end metric it prints the median and the
quartile spread (Q3 - Q1) / median, as statistics.quantiles gives the
quartiles, next to the metric's bound.  A spread at or above the bound
(setup_s excepted) makes the exit code 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", repr(seconds), "--trace", "0"],
                             capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, file=sys.stderr)
            return 1
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = stats.quartile_spread(xs) if len(xs) > 1 else 0.0
        flag = ""
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
            flag = "  OVER BOUND" if spread >= m["bound"] else (
                "  over a third of the bound" if spread >= m["bound"] / 3 else "")
        print(f"{m['name']:14s} median {stats.median(xs):12.6g} {m['unit']:6s} "
              f"spread {spread:7.2%}  bound {m['bound']:.0%}{flag}")
    print(f"worst spread / bound: {worst:.2f}")
    return 1 if worst >= 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
