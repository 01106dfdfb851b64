"""Checks of the benchmark's own code, kept out of the tier-1 test suite.

    python3 bench/selfcheck.py

Covers the tail-percentile rule, the plain-Python references, and the
output checks behind failed ops: every check must pass on the program's
real output and fail once that output is corrupted.
"""

import itertools
import json
import os
import random
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

_NUMBER = re.compile(r"(?<![A-Za-z_\d.])-?\d+\.?\d*(?:e[-+]?\d+)?")


def corrupt_numbers(text):
    """Every number scaled by 1.01 and shifted by 0.01."""
    return _NUMBER.sub(lambda m: repr(float(m.group()) * 1.01 + 0.01), text)


class TailRule(unittest.TestCase):
    def test_at_least_ten_beyond(self):
        for n in range(20, 3000, 7):
            xs = list(range(n))
            random.Random(n).shuffle(xs)
            value, pct, beyond = stats.tail(xs)
            self.assertGreaterEqual(beyond, 10)
            self.assertEqual(beyond, sum(1 for x in xs if x > value))
            higher = [p for p in stats.TAIL_LADDER if p > pct]
            for p in higher:
                self.assertLess(stats.nearest_rank(sorted(xs), p)[1], 10)

    def test_boundaries(self):
        self.assertEqual(stats.tail(range(1, 1001)), (990, 99.0, 10))
        self.assertEqual(stats.tail(range(1, 1000))[1], 95.0)
        self.assertEqual(stats.tail(range(1, 10001))[1:], (99.9, 10))

    def test_too_few_samples_falls_back_to_median(self):
        value, pct, beyond = stats.tail(range(1, 16))
        self.assertEqual((value, pct), (8, 50.0))
        self.assertLess(beyond, 10)

    def test_median_and_spread(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 9 + [11.0]), 0.0)


class References(unittest.TestCase):
    def test_member_count_matches_brute_force(self):
        for n in range(2, 16):
            axis = ref.scan_axis(n)
            brute = sum(1 for c in itertools.product(axis, repeat=3)
                        if min(ref.bell_weights(c)) >= -1e-12)
            self.assertEqual(ref.scan_member_count(n), brute, n)

    def test_eigenvalues(self):
        m = [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]
        for got, want in zip(ref.sym_eigvals(m), [5.0, 3.0, 1.0]):
            self.assertAlmostEqual(got, want, places=12)

    def test_decomposition_round_trip(self):
        rho = ref.ginibre(random.Random(3))
        cmat = ref.correlation_matrix(rho)
        self.assertAlmostEqual(cmat[0][0], 1.0, places=12)
        self.assertTrue(ref.all_close(ref.density_matrix(cmat), rho, 1e-12))

    def test_enhancible_share(self):
        rng = random.Random(7)
        n = 4000
        hits = sum(ref.damping_gain(ref.tetra_point(rng)) > 1e-6 for _ in range(n))
        self.assertAlmostEqual(hits / n, workloads.ENHANCIBLE_SHARE, delta=0.02)

    def test_bell_measures(self):
        f, d = ref.measures(ref.bell_correlation([0.5, 0.0, -0.5]))
        self.assertAlmostEqual(f, 0.125, places=12)
        self.assertAlmostEqual(d, 0.125, places=12)


class MetricNames(unittest.TestCase):
    def test_names_agree(self):
        import tracing
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(HERE, "layers.json")) as fh:
            layers = json.load(fh)["per_layer"]
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        computed = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        computed["trace.overhead_ratio"] = "ratio"
        self.assertEqual(declared, computed)
        self.assertEqual(set(layers), set(declared))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


class OutputChecks(unittest.TestCase):
    """Each check passes on real output and fails on a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.lab = worker.import_rsplab(ROOT)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=out_dir, prefix="selfcheck-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def assert_detects(self, op, corrupt):
        result = op.run(self.lab)
        op.check(result)
        with self.assertRaises((workloads.Mismatch, ValueError, KeyError, IndexError)):
            op.check(corrupt(result))

    def test_cli_small_checks(self):
        w = workloads.WORKLOADS["cli_small"]
        ctx = w.prepare(random.Random(1), self.tmp)
        rng = random.Random(2)
        kinds = set()
        # Every slot of the first block, and the non-enhancible enhance slot of the last.
        last_enhance = w.slots - len(workloads.CLI_BLOCK) + workloads.CLI_BLOCK.index(
            workloads._enhance)
        slots = list(range(len(workloads.CLI_BLOCK))) + [last_enhance]
        for op in (w.make_op(ctx, rng, slot) for slot in slots):
            kinds.add(op.kind)
            self.assert_detects(op, lambda r: workloads.CliResult(
                r.rc, corrupt_numbers(r.out), r.err))
            self.assert_detects(op, lambda r: workloads.CliResult(1, r.out, r.err))
        self.assertEqual(kinds, {"measure", "decompose", "decompose_channel", "apply",
                                 "enhance", "evolve", "profile", "verify"})

    def test_unital_check(self):
        op = workloads.WORKLOADS["unital_suite"].make_op({}, random.Random(1), 0)

        def fewer_trials(r):
            out = json.loads(r.out)
            out["monotonicity"]["trials"] = 99
            return workloads.CliResult(r.rc, json.dumps(out), r.err)
        self.assert_detects(op, fewer_trials)

    def test_oracle_check(self):
        op = workloads.oracle_op(random.Random(1))

        class Shifted:
            def __init__(self, rep, delta):
                self.estimate = rep.estimate + delta

        self.assert_detects(op, lambda r: (Shifted(r[0], 6e-3), r[1]))
        self.assert_detects(op, lambda r: (r[0], Shifted(r[1], -2e-3)))
        self.assert_detects(op, lambda r: (r[0], Shifted(r[1], 2e-3)))

    def test_scan_check(self):
        path = os.path.join(self.tmp, "scan.csv")
        op = workloads.cli_op("scan", 0, ["scan", "--resolution", "21", "--out", path],
                              workloads.check_scan(21, path))

        def rewrite(r, edit):
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(edit(text))
            return r

        def drop_first_row(text):
            header, _, rest = text.split("\n", 2)
            return header + "\n" + rest

        self.assert_detects(op, lambda r: rewrite(r, drop_first_row))
        self.assert_detects(op, lambda r: rewrite(
            r, lambda t: t.replace("map=neg_c1_c3 holds=false", "map=neg_c1_c3 holds=true")))

    def test_failed_ratio(self):
        loop = worker.Loop(2)
        ok = workloads.Op("x", 0, 1, None, None)
        loop.record(ok, 0.001, None)
        loop.record(ok, 0.002, "x: Mismatch: corrupted")
        metrics, detail = worker.end_to_end(workloads.WORKLOADS["unital_suite"], loop)
        self.assertEqual(detail["failed_ratio"], 0.5)
        self.assertEqual(metrics["ok_ratio"]["value"], 0.5)

    def test_best_counts_only_the_first_rounds(self):
        loop = worker.Loop(2)
        op = workloads.Op("x", 0, 1, None, None)
        for latency in (0.003, 0.002, 0.001):
            loop.record(op, latency, None)
        self.assertEqual(loop.best, {0: 0.002})
        self.assertEqual(loop.runs, {0: 3})
        self.assertAlmostEqual(loop.mean_items_per_s(), 3 / 0.006)

    def test_failing_op_is_counted(self):
        op = workloads.Op("boom", 0, 1, lambda lab: 1 / 0, None)
        _, failure, _ = worker.run_op(op, None)
        self.assertIn("ZeroDivisionError", failure)


if __name__ == "__main__":
    unittest.main()
