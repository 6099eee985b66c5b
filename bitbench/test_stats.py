#!/usr/bin/env python3
"""Tests of the benchmark's own statistics.

    python3 bitbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_returns_a_sample(self):
        # Nearest rank never interpolates: p50 of two samples is the lower.
        self.assertEqual(stats.percentile([10, 20], 50), 10)
        self.assertEqual(stats.percentile([10, 20], 51), 20)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7], 1), 7)
        self.assertEqual(stats.percentile([7], 100), 7)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class ReportablePercentileTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)

    def test_ten_beyond_rule(self):
        # p90 needs n - ceil(0.9 n) >= 10, i.e. n >= 100.
        self.assertIsNone(stats.highest_reportable_percentile(19))
        self.assertEqual(stats.highest_reportable_percentile(20), 50.0)
        self.assertEqual(stats.highest_reportable_percentile(99), 50.0)
        self.assertEqual(stats.highest_reportable_percentile(100), 90.0)
        self.assertEqual(stats.highest_reportable_percentile(999), 90.0)
        self.assertEqual(stats.highest_reportable_percentile(1000), 99.0)
        self.assertEqual(stats.highest_reportable_percentile(10_000), 99.9)
        self.assertEqual(stats.highest_reportable_percentile(100_000), 99.99)

    def test_rule_matches_definition(self):
        for n in range(1, 3000, 7):
            best = stats.highest_reportable_percentile(n)
            for p in stats.CANDIDATE_PERCENTILES:
                beyond = stats.samples_beyond(n, p)
                if best is not None and p <= best:
                    self.assertGreaterEqual(beyond, stats.MIN_TAIL)
                else:
                    self.assertLess(beyond, stats.MIN_TAIL)


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.median([])


class FailureFractionTest(unittest.TestCase):
    def test_fraction_and_base(self):
        self.assertEqual(stats.failure_fraction(0, 1234), (0.0, "0/1234"))
        self.assertEqual(stats.failure_fraction(3, 12), (0.25, "3/12"))
        self.assertEqual(stats.failure_fraction(5, 5), (1.0, "5/5"))

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failure_fraction(0, 0)
        with self.assertRaises(ValueError):
            stats.failure_fraction(-1, 10)
        with self.assertRaises(ValueError):
            stats.failure_fraction(11, 10)


class WindowTest(unittest.TestCase):
    def test_windows_cover_every_index_once(self):
        for n in (1, 9, 10, 11, 1000, 1003):
            slices = stats.windows(n, 10)
            covered = [i for s in slices for i in range(n)[s]]
            self.assertEqual(covered, list(range(n)))
            self.assertEqual(len(slices), min(10, n))
            sizes = [len(range(n)[s]) for s in slices]
            self.assertLessEqual(max(sizes) - min(sizes), 1)

    def test_window_median_ignores_a_short_burst(self):
        # A slow burst in 2 of 10 windows does not move the median window.
        values = [10.0] * 80 + [100.0] * 20
        got = stats.window_median(
            len(values), 10, lambda w: sum(values[w]) / len(values[w]))
        self.assertEqual(got, 10.0)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
