"""Unit tests for the benchmark's sample summaries.

    python3 -m unittest discover -s bench_e2e -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402


class TailTest(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        # Ten or fewer samples beyond any percentile: no tail, never the max.
        for n in (1, 5, 10, 11, 19):
            s = summary.summarize([float(i) for i in range(n)])
            self.assertIsNone(s["tail"], n)
            self.assertIsNone(s["tail_pct"], n)
            self.assertEqual(s["n"], n)

    def test_twenty_samples_reach_only_the_median(self):
        s = summary.summarize([float(i) for i in range(1, 21)])
        self.assertEqual(s["tail_pct"], 50.0)
        self.assertEqual(s["tail"], 10.0)  # ten samples (11..20) beyond

    def test_highest_percentile_with_ten_beyond(self):
        # n=1000: p99 has 10 samples beyond it, p99.9 only 1.
        s = summary.summarize([float(i) for i in range(1, 1001)])
        self.assertEqual(s["tail_pct"], 99.0)
        self.assertEqual(s["tail"], 990.0)
        # n=10000: p99.9 has exactly 10 beyond.
        s = summary.summarize([float(i) for i in range(1, 10001)])
        self.assertEqual(s["tail_pct"], 99.9)
        self.assertEqual(s["tail"], 9990.0)

    def test_order_does_not_matter(self):
        values = [float((i * 7919) % 1000) for i in range(1000)]
        self.assertEqual(summary.summarize(values),
                         summary.summarize(sorted(values)))

    def test_median(self):
        self.assertEqual(summary.summarize([3.0, 1.0, 2.0])["median"], 2.0)
        self.assertEqual(summary.summarize([4.0, 1.0, 2.0, 3.0])["median"],
                         2.5)

    def test_empty(self):
        s = summary.summarize([])
        self.assertEqual(s["n"], 0)
        self.assertIsNone(s["median"])
        self.assertEqual(summary.describe(s), "no samples")

    def test_describe_states_the_count(self):
        text = summary.describe(summary.summarize([0.001] * 5), 1e3, "ms")
        self.assertIn("no tail percentile", text)
        self.assertIn("n=5", text)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        median, q1, q3, spread = summary.quartile_spread(
            [10.0, 10.0, 10.0, 10.0, 10.0])
        self.assertEqual((median, q1, q3, spread), (10.0, 10.0, 10.0, 0.0))
        median, q1, q3, spread = summary.quartile_spread(
            [1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(median, 3.0)
        self.assertAlmostEqual(spread, (q3 - q1) / 3.0)


if __name__ == "__main__":
    unittest.main()
