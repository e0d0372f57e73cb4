"""Unit tests of run.py's statistics and span arithmetic.

Run with `python3 bench/e2e/run.py --self-test` (no build needed).
"""

import statistics
import unittest

import run


def span(sid, name, start, end, parent=-1, episode=0, reps=1):
    return {"id": sid, "name": name, "parent": parent, "episode": episode,
            "reps": reps, "start_ns": start, "end_ns": end}


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # Nearest rank of p90 among 128 samples is 116: 12 lie beyond it,
        # while p95 (rank 122) leaves only 6.
        self.assertEqual(run.tail_percentile(range(1, 129)), (90.0, 116))

    def test_large_sample_reaches_p99(self):
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99.0, 990))

    def test_too_few_samples(self):
        # p75 of 20 samples has only 5 beyond it.
        self.assertIsNone(run.tail_percentile(range(20)))
        self.assertIsNone(run.tail_percentile([]))

    def test_order_does_not_matter(self):
        xs = list(range(1, 129))
        self.assertEqual(run.tail_percentile(reversed(xs)),
                         run.tail_percentile(xs))


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertFalse(run.regressed(1.0, 1.09, 0.1, "lower"))
        self.assertTrue(run.regressed(1.0, 1.11, 0.1, "lower"))
        self.assertFalse(run.regressed(1.0, 0.5, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertFalse(run.regressed(1.0, 0.91, 0.1, "higher"))
        self.assertTrue(run.regressed(1.0, 0.89, 0.1, "higher"))
        self.assertFalse(run.regressed(1.0, 2.0, 0.1, "higher"))

    def test_spread(self):
        values = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.05, 0.95, 1.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), q3 - q1)
        self.assertAlmostEqual(run.spread([1.0, 1.1]), 0.1 / 1.05)


class SpanTest(unittest.TestCase):
    def test_self_time_with_overlapping_children(self):
        spans = run.annotate_spans([
            span(0, "outer", 0, 100),
            span(1, "a", 10, 40, parent=0),
            span(2, "b", 30, 60, parent=0),   # overlaps a
            span(3, "c", 90, 120, parent=0),  # runs past outer: clipped
        ])
        # Covered: [10, 60) and [90, 100) = 60 ns.
        self.assertEqual(spans[0]["self_ns"], 40)
        self.assertEqual(spans[1]["self_ns"], 30)
        self.assertFalse(run.composites_consistent(
            [dict(s, name="conv_iter") if s["id"] == 0 else s for s in spans]))

    def test_unattributed_remainder(self):
        spans = run.annotate_spans([
            span(0, "conv_iter", 0, 100),
            span(1, "linalg.cg", 5, 70, parent=0),
            span(2, "planner.update", 70, 90, parent=0),
            span(3, "nested", 10, 20, parent=1),
        ])
        comp = spans[0]
        self.assertEqual(comp["self_ns"], 15)
        self.assertEqual(comp["children_ns"] + comp["self_ns"], comp["dur_ns"])
        self.assertTrue(run.composites_consistent(spans))
        # A grandchild does not count against the composite, only its parent.
        self.assertEqual(spans[1]["self_ns"], 55)

    def test_samples_group_by_parent_or_episode(self):
        spans = run.annotate_spans([
            span(0, "setup", 0, 100, episode=-1),
            span(1, "core.fit", 0, 50, parent=0, episode=-1),
            span(2, "setup", 100, 300, episode=-1),
            span(3, "core.fit", 100, 250, parent=2, episode=-1),
            span(4, "nn.forward", 300, 310, episode=0),
            span(5, "nn.forward", 310, 330, episode=0),
            span(6, "nn.forward", 330, 370, episode=1),
        ])
        self.assertEqual(sorted(run.span_samples(spans, "core.fit", "setup")),
                         [50e-9, 150e-9])
        self.assertEqual(sorted(run.span_samples(spans, "nn.forward", None)),
                         [30e-9, 40e-9])


if __name__ == "__main__":
    unittest.main()
