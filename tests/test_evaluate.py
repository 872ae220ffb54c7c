from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flowlang.errors import DataError
from flowlang.evaluate import (
    EvalReport,
    Histogram,
    RocPoint,
    ScoredExample,
    auc,
    evaluate,
    histogram,
    make_scored,
    precision_at_n,
    roc_curve,
)
from flowlang.flows import Label
from flowlang.pst import Score


def ok_score(loss, likelihood=None, length=4):
    if likelihood is None:
        likelihood = 2.0 ** (-loss * length)
    return Score(likelihood, math.log2(likelihood) if likelihood else -math.inf,
                 loss, False, length)


ZERO = Score(0.0, -math.inf, math.inf, True, 3)


def ex(i, value, label=Label.NORMAL):
    return ScoredExample(id=f"e{i:03d}", anomaly_score=value, label=label)


class TestMakeScored:
    def test_exclude_zero_drops_zero_rows(self):
        triples = [("s1", ok_score(2.0), Label.NORMAL),
                   ("s2", ZERO, Label.ATTACK)]
        examples = make_scored(triples, policy="exclude_zero")
        assert [e.id for e in examples] == ["s1"]

    def test_zero_most_anomalous_ranks_zero_on_top(self):
        triples = [("s1", ok_score(2.0), Label.NORMAL),
                   ("s2", ZERO, Label.ATTACK)]
        examples = make_scored(triples, policy="zero_most_anomalous")
        by_id = {e.id: e for e in examples}
        assert by_id["s2"].anomaly_score == math.inf
        assert by_id["s2"].anomaly_score > by_id["s1"].anomaly_score
        assert by_id["s2"].zero_likelihood

    def test_unlabeled_always_dropped(self):
        triples = [("s1", ok_score(1.0), Label.UNLABELED),
                   ("s2", ok_score(1.0), Label.NORMAL)]
        for policy in ("exclude_zero", "zero_most_anomalous"):
            examples = make_scored(triples, policy=policy)
            assert [e.id for e in examples] == ["s2"]

    def test_rank_by_likelihood(self):
        examples = make_scored(
            [("s1", ok_score(2.0, likelihood=0.25), Label.NORMAL)],
            rank="likelihood")
        assert examples[0].anomaly_score == -0.25

    def test_rank_by_logloss_is_default(self):
        examples = make_scored([("s1", ok_score(2.0), Label.NORMAL)])
        assert examples[0].anomaly_score == 2.0

    def test_unknown_policy_or_rank(self):
        with pytest.raises(ValueError):
            make_scored([], policy="coin-flip")
        with pytest.raises(ValueError):
            make_scored([], rank="vibes")


class TestRocCurve:
    def test_perfect_separation(self):
        examples = [ex(0, 10.0, Label.ATTACK), ex(1, 1.0, Label.NORMAL)]
        points = roc_curve(examples)
        assert [(p.fpr, p.tpr, p.threshold) for p in points] == [
            (0.0, 0.0, math.inf), (0.0, 1.0, 10.0), (1.0, 1.0, 1.0)]
        assert auc(points) == 1.0

    def test_perfect_inversion(self):
        examples = [ex(0, 1.0, Label.ATTACK), ex(1, 10.0, Label.NORMAL)]
        assert auc(roc_curve(examples)) == 0.0

    def test_tied_pair_matches_brute_force(self):
        examples = [
            ex(0, 10.0, Label.ATTACK), ex(1, 5.0, Label.ATTACK),
            ex(2, 5.0, Label.NORMAL), ex(3, 1.0, Label.NORMAL),
            ex(4, 0.0, Label.NORMAL), ex(5, 0.0, Label.NORMAL),
        ]
        points = [(p.fpr, p.tpr, p.threshold) for p in roc_curve(examples)]
        assert points == helpers.brute_roc_points(examples)
        assert auc(roc_curve(examples)) == pytest.approx(0.9375)
        assert helpers.pairwise_rank_statistic(examples) == pytest.approx(0.9375)

    def test_single_class_is_data_error(self):
        with pytest.raises(DataError):
            roc_curve([ex(0, 1.0, Label.ATTACK)])
        with pytest.raises(DataError):
            roc_curve([ex(0, 1.0, Label.NORMAL), ex(1, 2.0, Label.NORMAL)])

    def test_input_order_invariance(self):
        examples = [ex(i, v, l) for i, (v, l) in enumerate([
            (3.0, Label.ATTACK), (2.0, Label.NORMAL), (2.0, Label.ATTACK),
            (0.5, Label.NORMAL)])]
        forward = roc_curve(examples)
        backward = roc_curve(list(reversed(examples)))
        assert forward == backward


class TestAuc:
    def test_validates_endpoints(self):
        with pytest.raises(ValueError):
            auc([RocPoint(0.0, 0.0, math.inf)])
        with pytest.raises(ValueError):
            auc([RocPoint(0.1, 0.0, 1.0), RocPoint(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            auc([RocPoint(0.0, 0.0, 1.0), RocPoint(0.5, 0.5, 0.5)])

    def test_rejects_non_monotone(self):
        points = [RocPoint(0.0, 0.0, math.inf), RocPoint(0.5, 0.8, 2.0),
                  RocPoint(0.4, 0.9, 1.0), RocPoint(1.0, 1.0, 0.0)]
        with pytest.raises(ValueError):
            auc(points)

    def test_random_scores_hover_at_half(self):
        rng = random.Random(1234)
        examples = [
            ex(i, rng.random(),
               Label.ATTACK if rng.random() < 0.5 else Label.NORMAL)
            for i in range(4000)
        ]
        value = auc(roc_curve(examples))
        assert abs(value - 0.5) < 0.05


class TestPrecisionAtN:
    EXAMPLES = [
        ex(0, 9.0, Label.ATTACK), ex(1, 8.0, Label.ATTACK),
        ex(2, 7.0, Label.NORMAL), ex(3, 6.0, Label.NORMAL),
        ex(4, 5.0, Label.ATTACK),
    ]

    def test_top_three(self):
        assert precision_at_n(self.EXAMPLES, 3) == pytest.approx(2 / 3)

    def test_full_depth_is_base_rate(self):
        assert precision_at_n(self.EXAMPLES, 5) == pytest.approx(3 / 5)

    def test_all_attack_top_block(self):
        assert precision_at_n(self.EXAMPLES, 2) == 1.0

    def test_ties_break_by_id(self):
        examples = [ex(1, 5.0, Label.NORMAL), ex(0, 5.0, Label.ATTACK)]
        assert precision_at_n(examples, 1) == 1.0

    @pytest.mark.parametrize("n", [0, -1, 6])
    def test_out_of_range(self, n):
        with pytest.raises(DataError):
            precision_at_n(self.EXAMPLES, n)


class TestHistogram:
    def test_single_example_single_bin(self):
        h = histogram([ex(0, 2.0, Label.ATTACK)], n_bins=4)
        assert sum(h.attack_counts) == 1
        assert sum(h.normal_counts) == 0
        assert len(h.edges) == 5

    def test_conservation_and_monotone_edges(self):
        examples = [ex(i, float(i % 7), Label.ATTACK if i % 3 else Label.NORMAL)
                    for i in range(50)]
        h = histogram(examples, n_bins=6)
        assert sum(h.attack_counts) + h.overflow_attack == \
            sum(1 for e in examples if e.label is Label.ATTACK)
        assert sum(h.normal_counts) + h.overflow_normal == \
            sum(1 for e in examples if e.label is Label.NORMAL)
        assert all(a < b for a, b in zip(h.edges, h.edges[1:]))

    def test_infinite_scores_fall_in_overflow(self):
        examples = [ex(0, 1.0, Label.NORMAL), ex(1, math.inf, Label.ATTACK),
                    ex(2, math.inf, Label.NORMAL)]
        h = histogram(examples, n_bins=3)
        assert h.overflow_attack == 1
        assert h.overflow_normal == 1
        assert sum(h.normal_counts) == 1

    def test_degenerate_range(self):
        h = histogram([ex(0, 2.5, Label.NORMAL), ex(1, 2.5, Label.ATTACK)],
                      n_bins=2)
        assert h.edges[0] == 2.5
        assert h.edges[-1] == 3.5
        assert sum(h.normal_counts) == 1
        assert sum(h.attack_counts) == 1

    def test_max_value_lands_in_last_bin(self):
        h = histogram([ex(0, 0.0, Label.NORMAL), ex(1, 10.0, Label.NORMAL)],
                      n_bins=5)
        assert h.normal_counts == (1, 0, 0, 0, 1)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            histogram([], n_bins=0)

    @pytest.mark.parametrize("scores, counts", [
        ((5e-324, 1e-323), (1, 0, 0, 1)),
        ((-1.7e308, 1.7e308), (1, 0, 0, 1)),
        ((2.0 ** 53, 2.0 ** 53), (2, 0, 0, 0)),
    ], ids=["subnormal-span", "overflowing-span", "unwidenable-value"])
    def test_extreme_spans(self, scores, counts):
        h = histogram([ex(i, s, Label.NORMAL) for i, s in enumerate(scores)], n_bins=4)
        assert h.normal_counts == counts
        assert h.edges[0] == min(scores)
        assert all(a <= b for a, b in zip(h.edges, h.edges[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
           st.integers(1, 30))
    def test_any_finite_scores_are_all_binned(self, scores, n_bins):
        h = histogram([ex(i, s, Label.ATTACK) for i, s in enumerate(scores)], n_bins)
        assert sum(h.attack_counts) == len(scores)
        assert len(h.edges) == n_bins + 1


@st.composite
def labeled_sets(draw, max_size=60):
    n = draw(st.integers(min_value=2, max_value=max_size))
    tie_pool = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    values = draw(st.lists(
        tie_pool | st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([Label.ATTACK, Label.NORMAL]),
                           min_size=n, max_size=n))
    labels[0] = Label.ATTACK
    labels[1] = Label.NORMAL
    return [ex(i, v, l) for i, (v, l) in enumerate(zip(values, labels))]


class TestAucProperties:
    @settings(max_examples=150)
    @given(labeled_sets())
    def test_matches_pairwise_statistic(self, examples):
        value = auc(roc_curve(examples))
        assert 0.0 <= value <= 1.0
        assert math.isclose(value, helpers.pairwise_rank_statistic(examples),
                            rel_tol=0, abs_tol=1e-9)

    @settings(max_examples=100)
    @given(labeled_sets())
    def test_matches_brute_force_curve(self, examples):
        points = [(p.fpr, p.tpr, p.threshold) for p in roc_curve(examples)]
        assert points == helpers.brute_roc_points(examples)

    @settings(max_examples=100)
    @given(labeled_sets())
    def test_label_swap_complements(self, examples):
        swap = {Label.ATTACK: Label.NORMAL, Label.NORMAL: Label.ATTACK}
        swapped = [ScoredExample(e.id, e.anomaly_score, swap[e.label])
                   for e in examples]
        total = auc(roc_curve(examples)) + auc(roc_curve(swapped))
        assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9)

    @settings(max_examples=100)
    @given(labeled_sets())
    def test_monotone_transform_invariance(self, examples):
        # Map scores to their ranks: strictly monotone and, unlike an
        # affine map in floats, guaranteed injective on distinct values.
        base = auc(roc_curve(examples))
        rank = {v: float(i * 2 + 5)
                for i, v in enumerate(sorted({e.anomaly_score for e in examples}))}
        stretched = [ScoredExample(e.id, rank[e.anomaly_score], e.label)
                     for e in examples]
        assert math.isclose(auc(roc_curve(stretched)), base,
                            rel_tol=0, abs_tol=1e-12)


class TestEvaluate:
    def triples(self):
        rng = random.Random(99)
        out = []
        for i in range(120):
            attack = i % 5 == 0
            loss = rng.uniform(3.0, 6.0) if attack else rng.uniform(0.0, 3.5)
            out.append((f"s{i:03d}", ok_score(loss),
                        Label.ATTACK if attack else Label.NORMAL))
        out.append(("zz1", ZERO, Label.ATTACK))
        out.append(("uu1", ok_score(9.9), Label.UNLABELED))
        return out

    def test_report_counts(self):
        report = evaluate(self.triples(), policy="exclude_zero", n_bins=10,
                          precision_ns=(5, 10, 500))
        assert report.n_attack == 24
        assert report.n_normal == 96
        assert report.n_zero_likelihood == 1
        assert set(report.precision_at) == {5, 10}
        assert len(report.histogram.normal_counts) == 10
        assert report.roc[0] == RocPoint(0.0, 0.0, math.inf)
        assert 0.0 <= report.auc <= 1.0

    def test_zero_policy_changes_example_count(self):
        kept = evaluate(self.triples(), policy="zero_most_anomalous")
        dropped = evaluate(self.triples(), policy="exclude_zero")
        assert kept.n_attack == dropped.n_attack + 1
        assert kept.n_zero_likelihood == dropped.n_zero_likelihood == 1
        assert kept.histogram.overflow_attack == 1

    def test_nan_score_refused(self):
        # Perfectly separated, so the AUC is 1.0; a NaN loss on one attack
        # would sort anywhere and make it a plausible but wrong 0.5.
        nan_loss = Score(0.5, -1.0, math.nan, False, 1)
        triples = [("n1", ok_score(1.0), Label.NORMAL),
                   ("n2", ok_score(1.5), Label.NORMAL),
                   ("a1", ok_score(5.0), Label.ATTACK),
                   ("a2", nan_loss, Label.ATTACK)]
        assert evaluate(triples[:3]).auc == 1.0
        with pytest.raises(ValueError, match="NaN"):
            evaluate(triples)
        with pytest.raises(ValueError, match="NaN"):
            ex(0, math.nan)

    def test_single_class_raises(self):
        triples = [("a", ok_score(1.0), Label.NORMAL),
                   ("b", ok_score(2.0), Label.NORMAL)]
        with pytest.raises(DataError):
            evaluate(triples)
