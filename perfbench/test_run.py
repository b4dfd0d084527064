"""Self-tests of run.py's statistics and comparison rule.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import run


class NearestRank(unittest.TestCase):
    def test_small_samples_by_hand(self):
        xs = [15, 20, 35, 40, 50]
        self.assertEqual(run.nearest_rank(xs, 0.05), 15)
        self.assertEqual(run.nearest_rank(xs, 0.30), 20)
        self.assertEqual(run.nearest_rank(xs, 0.40), 20)
        self.assertEqual(run.nearest_rank(xs, 0.50), 35)
        self.assertEqual(run.nearest_rank(xs, 1.00), 50)
        self.assertEqual(run.nearest_rank([3], 0.99), 3)

    def test_unsorted_input_and_p99_of_a_thousand(self):
        xs = list(range(1000, 0, -1))
        self.assertEqual(run.nearest_rank(xs, 0.99), 990)
        # Ten samples lie beyond the p99 of 1000.
        self.assertEqual(sum(1 for x in xs if x > run.nearest_rank(xs, 0.99)), 10)
        self.assertEqual(run.nearest_rank(xs, 0.5), 500)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.nearest_rank([], 0.5)


class Verdict(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_clear_gain_and_loss(self):
        faster = [x * 0.9 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, faster, "lower", 0.1), "gain")
        self.assertEqual(run.verdict(self.parent, faster, "higher", 0.1), "loss")

    def test_within_noise_is_same(self):
        shuffled = self.parent[5:] + self.parent[:5]
        self.assertEqual(run.verdict(self.parent, shuffled, "lower", 0.1), "same")

    def test_nine_of_ten_pairs_needed(self):
        change = [x * 0.9 for x in self.parent]
        change[0] = change[1] = 11.0  # two pairs lost: 8 of 10 won
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1), "same")
        change[1] = self.parent[1] * 0.9  # 9 of 10 won
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1), "gain")

    def test_medians_must_clear_the_parent_spread(self):
        # Every pair is won, but by less than the parent's IQR.
        change = [x - 0.01 for x in self.parent]
        self.assertEqual(run.verdict(self.parent, change, "lower", 0.1), "same")

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(run.verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.1), "unresolved")
        # Per-layer metrics carry no bound: the rule alone decides.
        self.assertEqual(run.verdict(noisy, [x * 0.4 for x in noisy], "lower", None), "gain")


class CompareFiles(unittest.TestCase):
    def test_result_sets_group_by_workload_and_trace(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "set.jsonl")
            with open(path, "w") as f:
                for trace in (0, 1, 0):
                    rec = {"workload": "regen-cold", "trace": trace,
                           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
                    f.write(json.dumps(rec) + "\n")
            runs = run.load_set(path)
            self.assertEqual(len(runs["regen-cold"]), 2)
            self.assertEqual(len(runs["regen-cold (traced)"]), 1)


if __name__ == "__main__":
    unittest.main()
