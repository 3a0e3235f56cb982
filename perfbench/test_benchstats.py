#!/usr/bin/env python3
"""Self-test of the benchmark's percentile, tail and verdict math.

Run: python3 perfbench/test_benchstats.py
"""

import math
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True  # keep perfbench/ free of caches
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 50.0), 50)
        self.assertEqual(benchstats.percentile(values, 90.0), 90)
        self.assertEqual(benchstats.percentile(values, 99.0), 99)
        self.assertEqual(benchstats.percentile(values, 100.0), 100)
        self.assertEqual(benchstats.percentile([7.0], 99.9), 7.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50.0)


class TailTest(unittest.TestCase):
    def test_rung_needs_ten_samples_beyond(self):
        self.assertEqual(benchstats.tail_percentile(99), 50.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(999), 90.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(9999), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_failures_count_as_infinite(self):
        values = [1.0] * 980 + [math.inf] * 20
        pct, value, n = benchstats.tail(values)
        self.assertEqual((pct, n), (99.0, 1000))
        self.assertEqual(value, math.inf)
        self.assertEqual(benchstats.tail([1.0] * 995 + [math.inf] * 5)[1],
                         1.0)

    def test_windowed_tail_is_the_median_window(self):
        windows = [[float(i) for i in range(1, 101)] for _ in range(4)]
        windows[1] = [x + 1000.0 for x in windows[1]]  # a stalled window
        pct, value, smallest, count = benchstats.windowed_tail(windows)
        self.assertEqual((pct, smallest, count), (90.0, 100, 4))
        self.assertEqual(value, 90.0)

    def test_short_last_window_is_merged(self):
        windows = [[1.0] * 200, [2.0] * 200, [3.0] * 30]
        merged = benchstats.merge_short_windows(windows)
        self.assertEqual([len(w) for w in merged], [200, 230])
        self.assertEqual(benchstats.windowed_tail(windows)[0], 90.0)

    def test_all_windows_share_one_percentile(self):
        windows = [[1.0] * 1000, [1.0] * 600]
        self.assertEqual(benchstats.windowed_tail(windows)[0], 90.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_quartiles_match_statistics(self):
        q1, q2, q3 = benchstats.quartiles(self.parent)
        self.assertEqual([q1, q2, q3],
                         statistics.quantiles(self.parent, n=4))
        self.assertAlmostEqual(benchstats.spread(self.parent),
                               (q3 - q1) / q2)

    def test_improved_needs_wins_and_a_shift(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(benchstats.verdict(self.parent, change, "lower",
                                            0.1), ("improved", 1.0))
        # Higher-is-better reads the same runs as a loss.
        self.assertEqual(benchstats.verdict(self.parent, change, "higher",
                                            0.1)[0], "worse")

    def test_small_shift_is_unchanged(self):
        change = [v * 0.999 for v in self.parent]
        verdict, wins = benchstats.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(verdict, "unchanged")
        self.assertEqual(wins, 1.0)

    def test_worse_beyond_bound(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(benchstats.verdict(self.parent, change, "lower",
                                            0.1), ("worse", 0.0))

    def test_ties_count_for_neither_side(self):
        self.assertEqual(benchstats.verdict(self.parent, list(self.parent),
                                            "lower", 0.1), ("unchanged", 0.0))

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v * 1.05 for v in parent]
        self.assertEqual(benchstats.verdict(parent, change, "lower", 0.1)[0],
                         "unresolved")

    def test_unpaired_runs_are_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.verdict([1.0, 2.0], [1.0], "lower", 0.1)


if __name__ == "__main__":
    unittest.main()
