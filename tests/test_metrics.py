"""Tests for layout-compliance metrics."""

import random

import pytest

from scotkit.geometry import BBox, iou
from scotkit.metrics import (
    EvalSample,
    evaluate,
    greedy_match,
    match_instances,
)


def box(x1, y1, x2, y2):
    return BBox(x1, y1, x2, y2)


def sample(sid, refs, preds):
    return EvalSample(id=sid, references=tuple(refs), predictions=tuple(preds))


# boxes engineered to hit exact IoU values against [0,0,100,100]
FULL = box(0, 0, 100, 100)


def frac_box(f: float) -> BBox:
    # iou(FULL, [0,0,100,h]) = h*100 / 10000 = h/100
    return box(0, 0, 100, int(100 * f))


class TestGreedyMatch:
    def test_stated_matrix(self):
        # cross IoUs: (r1,p1)=0.9 (r1,p2)=0.6 (r2,p1)=0.7 (r2,p2)=0.2
        pairs = [(0, 0, 0.9), (0, 1, 0.6), (1, 0, 0.7), (1, 1, 0.2)]
        assert greedy_match(pairs, n_refs=2) == [0.9, 0.2]

    def test_agrees_with_exhaustive_greedy_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            n_r, n_p = rng.randint(0, 4), rng.randint(0, 4)
            pairs = [
                (r, p, round(rng.random(), 3))
                for r in range(n_r)
                for p in range(n_p)
            ]
            got = greedy_match(pairs, n_r)
            # independent re-statement: repeatedly take the best remaining pair
            remaining = [p for p in pairs if p[2] > 0]
            expect = [0.0] * n_r
            while remaining:
                best = min(remaining, key=lambda p: (-p[2], p[0], p[1]))
                expect[best[0]] = best[2]
                remaining = [
                    p for p in remaining if p[0] != best[0] and p[1] != best[1]
                ]
            assert got == expect


class TestMatchInstances:
    def test_identical_lists(self):
        refs = [("cat", box(0, 0, 100, 100)), ("dog", box(200, 0, 300, 100))]
        s = sample("s", refs, refs)
        assert match_instances(s) == [1.0, 1.0]

    def test_unmatched_reference(self):
        s = sample("s", [("cat", FULL)], [])
        assert match_instances(s) == [0.0]

    def test_category_isolation(self):
        s = sample("s", [("cat", FULL)], [("dog", FULL)])
        assert match_instances(s) == [0.0]

    def test_one_prediction_matches_one_reference(self):
        s = sample("s", [("cat", FULL), ("cat", FULL)], [("cat", FULL)])
        assert match_instances(s) == [1.0, 0.0]


class TestEvaluate:
    def test_perfect_corpus(self):
        refs = [("cat", FULL)]
        report = evaluate([sample("a", refs, refs), sample("b", refs, refs)])
        assert (report.sr, report.isr, report.miou) == (100.0, 100.0, 100.0)

    def test_hand_derived_corpus(self):
        s1 = sample(
            "s1",
            [("cat", FULL), ("dog", FULL)],
            [("cat", FULL), ("dog", frac_box(0.6))],
        )
        s2 = sample("s2", [("cat", FULL)], [("cat", frac_box(0.3))])
        assert iou(FULL, frac_box(0.6)) == 0.6
        assert iou(FULL, frac_box(0.3)) == 0.3
        report = evaluate([s1, s2], iou_threshold=0.5)
        assert report.sr == 50.00
        assert report.isr == 66.67
        assert report.miou == 63.33

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="^evaluate needs at least one sample$"):
            evaluate([])

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), 1.5, float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at 0 an unmatched reference (IoU 0) would count as a success
        refs = [("cat", FULL)]
        with pytest.raises(ValueError, match=r"^iou_threshold must be in \(0, 1\], got "):
            evaluate([sample("a", refs, [])], iou_threshold=threshold)

    def test_threshold_one_needs_exact_boxes(self):
        refs = [("cat", FULL)]
        report = evaluate([sample("a", refs, refs), sample("b", refs, [("cat", frac_box(0.6))])],
                          iou_threshold=1.0)
        assert (report.sr, report.isr) == (50.0, 50.0)

    def test_invariants_on_random_corpora(self):
        # SR <= I-SR is guaranteed when every sample in a corpus carries
        # the same number of reference instances, so each corpus fixes
        # its per-sample reference count (it is NOT a theorem for mixed
        # counts under instance-level averaging).
        rng = random.Random(31)
        cats = ["a", "b", "c"]

        def rand_box():
            x1, y1 = rng.randint(0, 900), rng.randint(0, 900)
            return box(x1, y1, rng.randint(x1 + 1, 1000), rng.randint(y1 + 1, 1000))

        for _ in range(100):
            n_refs = rng.randint(1, 4)
            samples = []
            for i in range(rng.randint(1, 5)):
                refs = [(rng.choice(cats), rand_box()) for _ in range(n_refs)]
                preds = [(rng.choice(cats), rand_box()) for _ in range(rng.randint(0, 4))]
                samples.append(sample(f"s{i}", refs, preds))
            r_lo = evaluate(samples, iou_threshold=0.3)
            r_hi = evaluate(samples, iou_threshold=0.7)
            for r in (r_lo, r_hi):
                assert 0.0 <= r.sr <= r.isr <= 100.0
            assert r_hi.sr <= r_lo.sr
            assert r_hi.isr <= r_lo.isr
            assert r_hi.miou == r_lo.miou  # threshold-independent
