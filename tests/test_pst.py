from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flowlang.errors import CorruptModelError, FormatError, ModelVersionError
from flowlang.language import Vocabulary
from flowlang.pst import (
    ContextCounts,
    PstParams,
    Score,
    _min_count,
    build_tree,
    count_contexts,
    flag_anomalies,
    load_model,
    lookup_context,
    make_tree,
    merge_counts,
    save_model,
    score_sequence,
)
from flowlang.synth import (
    GenConfig, corpus_to_sequences, demo_spec_pair, generate_corpus)

A, B = 0, 1


def train(id_sequences, params, vocab_size):
    vocab = helpers.small_vocab(vocab_size)
    counts = count_contexts(id_sequences, params.depth, params.p_min)
    return build_tree(counts, params, vocab)


def texts(ids):
    return [f"s{i}" for i in ids]


class TestParams:
    def test_defaults(self):
        p = PstParams()
        assert (p.depth, p.p_min, p.threshold, p.tau, p.epsilon) == \
            (14, 0.0001, 0.0005, 10.0, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"depth": -1},
        {"p_min": -0.1},
        {"p_min": 1.5},
        {"threshold": 2.0},
        {"tau": 0.5},
        {"tau": math.inf},
        {"epsilon": 1.0},
        {"epsilon": -0.01},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PstParams(**kwargs)


class TestCountContexts:
    def test_hand_table(self):
        counts = count_contexts([[A, A, B]], max_len=1)
        assert counts.total_positions == 3
        assert counts.n_sequences == 1
        assert counts.starts == {A: 1}
        assert counts.occurrences == {(A,): 2, (B,): 1, (A, A): 1, (A, B): 1}

    def test_empty_corpus(self):
        counts = count_contexts([], max_len=3)
        assert counts.total_positions == 0
        assert counts.n_sequences == 0
        assert counts.starts == {}
        assert counts.occurrences == {}

    def test_single_symbol_sequences_have_no_follows(self):
        counts = count_contexts([[A], [A]], max_len=1)
        assert counts.occurrences == {(A,): 2}
        assert counts.starts == {A: 2}
        assert counts.total_positions == 2

    def test_max_len_zero_counts_only_marginals(self):
        counts = count_contexts([[A, B, A]], max_len=0)
        assert counts.occurrences == {(A,): 2, (B,): 1}
        assert counts.starts == {A: 1}

    def test_rejects_negative_max_len(self):
        with pytest.raises(ValueError):
            count_contexts([], max_len=-1)

    @pytest.mark.parametrize("seqs", [[[A, -1]], [[-1]], [[B], [A, -7, B]]])
    def test_rejects_negative_id(self, seqs):
        # -1 would index the last slot of a log2 row: another symbol's
        # probability, a plausible but wrong score.
        with pytest.raises(ValueError, match="must be >= 0"):
            count_contexts(seqs, max_len=2)

    @pytest.mark.parametrize("p_min", [-0.1, 1.5, math.nan])
    def test_rejects_p_min_outside_unit_interval(self, p_min):
        with pytest.raises(ValueError):
            count_contexts([[A, B]], max_len=1, p_min=p_min)

    @settings(max_examples=300)
    @given(st.floats(0.0, 1.0) | st.sampled_from([0.0001, 0.1, 1 / 3, 5e-324, 1e-310]),
           st.integers(1, 10**9))
    def test_min_count_is_least_frequent_count(self, p_min, total):
        need = _min_count(p_min, total)
        assert Fraction(need, total) >= Fraction(p_min)
        assert need == 0 or Fraction(need - 1, total) < Fraction(p_min)
        # With no positions at all, every context passes the gate.
        assert _min_count(p_min, 0) == 0

    def test_gate_drops_extensions_of_rare_contexts(self):
        # 8 positions; at p_min 0.25 a context needs 2 occurrences. (B,)
        # occurs once, so none of its extensions is counted.
        counts = count_contexts([[A, A, A, B], [A, A, A, A]], max_len=2, p_min=0.25)
        assert counts.p_min == 0.25
        assert counts.occurrences == {
            (A,): 7, (B,): 1,
            (A, A): 5, (A, B): 1,
            (A, A, A): 3, (A, A, B): 1,
        }

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=0, max_size=14),
                 min_size=0, max_size=8),
        st.integers(0, 5),
        st.sampled_from([0.0, 0.0001, 0.05, 0.1, 0.2, 0.5, 1.0]),
    )
    def test_gated_table_matches_oracle(self, seqs, max_len, p_min):
        counts = count_contexts(seqs, max_len, p_min)
        total, n_seq, _, occurrences, _, starts = \
            helpers.brute_context_stats(seqs, max_len + 1)
        assert (counts.total_positions, counts.n_sequences, counts.starts) == \
            (total, n_seq, starts)
        for ctx, occ in counts.occurrences.items():
            assert occurrences[ctx] == occ
        frequent = {ctx for ctx, occ in occurrences.items()
                    if len(ctx) <= max_len and Fraction(occ, total) >= Fraction(p_min)}
        # Every unigram, and every one-symbol extension of a frequent
        # context; nothing else.
        expected = {ctx for ctx in occurrences
                    if len(ctx) == 1 or ctx[:-1] in frequent}
        assert set(counts.occurrences) == expected

    def test_gated_quickstart_table_is_small(self):
        corpus = generate_corpus(*demo_spec_pair(8), GenConfig(2000, 30, 70, 0.05, 7))
        id_seqs = [s.token_ids for s in corpus_to_sequences(corpus, 8)[0]]
        params = PstParams()
        gated = count_contexts(id_seqs, params.depth, params.p_min)
        exhaustive = count_contexts(id_seqs, params.depth)
        assert gated.total_positions == exhaustive.total_positions == 100720
        assert 4 * len(gated.occurrences) <= len(exhaustive.occurrences)

    @settings(max_examples=100)
    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=12),
                 min_size=0, max_size=8),
        st.integers(0, 4),
    )
    def test_matches_brute_enumeration(self, seqs, max_len):
        counts = count_contexts(seqs, max_len)
        total, n_seq, unigrams, occurrences, follows, starts = \
            helpers.brute_context_stats(seqs, max_len + 1)
        assert counts.total_positions == total
        assert counts.n_sequences == n_seq
        assert counts.starts == starts
        assert counts.occurrences == occurrences
        # The one table carries every successor count the oracle finds.
        for ctx, row in follows.items():
            if len(ctx) > max_len:
                continue
            for sym, c in row.items():
                if ctx:
                    assert counts.occurrences[ctx + (sym,)] == c
                else:
                    assert unigrams[sym] - starts.get(sym, 0) == c


class TestMergeCounts:
    def test_identity(self):
        counts = count_contexts([[A, B, A]], max_len=2)
        merged = merge_counts(counts, ContextCounts(max_len=2))
        assert merged == counts

    def test_max_len_mismatch(self):
        with pytest.raises(ValueError):
            merge_counts(ContextCounts(max_len=1), ContextCounts(max_len=2))

    def test_refuses_gated_tables(self):
        # A gate applied to one shard is not the gate of the whole corpus.
        exhaustive = count_contexts([[A, B, A]], max_len=2)
        gated = count_contexts([[A, A, B]], max_len=2, p_min=0.5)
        for pair in ((exhaustive, gated), (gated, exhaustive), (gated, gated)):
            with pytest.raises(ValueError, match="p_min"):
                merge_counts(*pair)

    @settings(max_examples=100)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=10),
                 min_size=0, max_size=10),
        st.integers(0, 3),
        st.integers(0, 10),
    )
    def test_fold_equals_single_pass(self, seqs, max_len, cut):
        cut = min(cut, len(seqs))
        left = count_contexts(seqs[:cut], max_len)
        right = count_contexts(seqs[cut:], max_len)
        merged = merge_counts(left, right)
        swapped = merge_counts(right, left)
        total, n_seq, _, occurrences, _, starts = \
            helpers.brute_context_stats(seqs, max_len + 1)
        for got in (merged, swapped):
            assert got.max_len == max_len
            assert got.total_positions == total
            assert got.n_sequences == n_seq
            assert got.starts == starts
            assert got.occurrences == occurrences


corpus_strategy = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=12),
                 min_size=1, max_size=10),
    )
)

params_strategy = st.builds(
    PstParams,
    depth=st.integers(0, 4),
    p_min=st.sampled_from([0.0, 0.0001, 0.01, 0.2]),
    threshold=st.sampled_from([0.0, 0.0005, 0.05, 0.3]),
    tau=st.sampled_from([1.0, 1.5, 10.0]),
    epsilon=st.sampled_from([0.0, 0.0001, 0.01]),
)


class TestBuildTree:
    def test_single_symbol_corpus_is_root_only(self):
        pst = train([[A, A, A, A]], PstParams(), vocab_size=1)
        assert pst.node_count == 1
        assert pst.root.dist == {A: 1.0}
        score = score_sequence(pst, texts([A, A]))
        assert score.likelihood == 1.0

    def test_alternating_corpus_keeps_order_one_contexts(self):
        params = PstParams(depth=2, p_min=0.0, threshold=0.0, tau=1.0)
        pst = train([[A, B, A, B, A, B]], params, vocab_size=2)
        nodes = {node.context: node for node in pst.iter_nodes()}
        assert nodes[(A,)].dist == {B: 1.0}
        assert nodes[(B,)].dist == {A: 1.0}

    def test_alternating_corpus_with_ratio_gate(self):
        # Successor pairs of the empty context are b,a,b,a,b: each symbol's
        # order-1 conditional (exactly 1.0) sits against 0.6 / 0.4, inside
        # the tau=10 band; the zero conditionals (a after a, b after b)
        # fall below 1/tau, so both length-1 contexts stay in.
        params = PstParams(depth=2, p_min=0.0, threshold=0.0, tau=10.0)
        seqs = [[A, B, A, B, A, B]]
        counts = count_contexts(seqs, 2)
        assert counts.occurrences[(A,)] - counts.starts[A] == 2
        assert counts.occurrences[(B,)] - counts.starts.get(B, 0) == 3
        pst = build_tree(counts, params, helpers.small_vocab(2))
        contexts = {node.context for node in pst.iter_nodes()}
        total, _, _, occurrences, follows, _ = helpers.brute_context_stats(seqs, 2)
        assert follows[()] == {B: 3, A: 2}
        brute = helpers.brute_retained_contexts(total, occurrences, follows, params)
        expected = set(brute) | {()}
        for ctx in brute:
            for k in range(1, len(ctx)):
                expected.add(ctx[k:])
        assert contexts == expected
        assert (A,) in contexts and (B,) in contexts
        assert (A, B) not in contexts and (B, A) not in contexts

    def test_paper_default_gate_prunes_alternating_corpus(self):
        # With threshold=0.0005 the zero conditionals are gated out before
        # the ratio test, and the 1.0-vs-0.6 ratio is inside the band.
        pst = train([[A, B, A, B, A, B]], PstParams(depth=2), vocab_size=2)
        assert pst.node_count == 1

    def test_threshold_monotonicity_for_example_pair(self):
        import random
        rng = random.Random(11)
        seqs = [[rng.randrange(4) for _ in range(30)] for _ in range(40)]
        base = dict(depth=3, p_min=0.0001, tau=1.2)
        low = train(seqs, PstParams(threshold=0.0005, **base), 4)
        high = train(seqs, PstParams(threshold=0.05, **base), 4)
        assert high.node_count <= low.node_count

    def test_empty_corpus_with_vocab_scores_uniformly(self):
        pst = train([], PstParams(depth=2), vocab_size=4)
        assert pst.node_count == 1
        assert pst.root.dist == {i: 0.25 for i in range(4)}
        score = score_sequence(pst, texts([0, 3]))
        assert score.likelihood == pytest.approx(0.0625)

    def test_epsilon_must_leave_mass(self):
        counts = count_contexts([[A, B]], 1)
        with pytest.raises(ValueError):
            build_tree(counts, PstParams(depth=1, epsilon=0.5),
                       helpers.small_vocab(2))

    def test_counts_must_cover_depth(self):
        counts = count_contexts([[A, B]], 1)
        with pytest.raises(ValueError):
            build_tree(counts, PstParams(depth=3), helpers.small_vocab(2))

    def test_counts_must_not_be_gated_above_p_min(self):
        # The table lacks the candidates between the two gates.
        counts = count_contexts([[A, B, A, A]], 2, p_min=0.25)
        with pytest.raises(ValueError, match="frequency"):
            build_tree(counts, PstParams(depth=2, p_min=0.1), helpers.small_vocab(2))
        build_tree(counts, PstParams(depth=2, p_min=0.25), helpers.small_vocab(2))
        build_tree(counts, PstParams(depth=1, p_min=0.5), helpers.small_vocab(2))

    def test_symbol_outside_vocabulary_rejected(self):
        # Such a tree saved, then failed to load, and crashed scoring.
        counts = count_contexts([[0, 5, 0, 5]], 1)
        with pytest.raises(ValueError, match="vocabulary"):
            build_tree(counts, PstParams(depth=1), Vocabulary(["a", "b"]))

    def test_negative_symbol_in_hand_made_counts_rejected(self):
        counts = ContextCounts(max_len=0, total_positions=2, n_sequences=1,
                               starts={0: 1}, occurrences={(0,): 1, (-1,): 1})
        with pytest.raises(ValueError, match="vocabulary"):
            build_tree(counts, PstParams(depth=0), Vocabulary(["a", "b"]))

    @settings(max_examples=150, deadline=None)
    @given(corpus_strategy, params_strategy, st.data())
    def test_gated_and_exhaustive_counts_build_same_model(self, corpus, params, data):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=0.0)
        gate = data.draw(st.sampled_from(
            [p for p in (0.0, 0.0001, 0.01, 0.1, 0.2) if p <= params.p_min]))
        vocab = helpers.small_vocab(m)
        written = []
        for counts in (count_contexts(seqs, params.depth),
                       count_contexts(seqs, params.depth, gate)):
            sink = io.StringIO()
            save_model(build_tree(counts, params, vocab), sink)
            written.append(sink.getvalue())
        assert written[0] == written[1]

    @settings(max_examples=100, deadline=None)
    @given(corpus_strategy, params_strategy)
    def test_retention_matches_brute_force(self, corpus, params):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=0.0)
        counts = count_contexts(seqs, params.depth, params.p_min)
        pst = build_tree(counts, params, helpers.small_vocab(m))
        total, _, unigrams, occurrences, follows, _ = \
            helpers.brute_context_stats(seqs, params.depth)
        brute = helpers.brute_retained_contexts(total, occurrences, follows, params)
        expected = {()}
        for ctx in brute:
            for k in range(len(ctx)):
                expected.add(ctx[k:])
        assert {node.context for node in pst.iter_nodes()} == expected
        for node in pst.iter_nodes():
            if node.context:
                exact = helpers.brute_conditional(follows, node.context)
            else:
                exact = {sym: Fraction(c, total) for sym, c in unigrams.items()}
            assert node.dist == {sym: float(p) for sym, p in exact.items()}

    @settings(max_examples=100, deadline=None)
    @given(corpus_strategy, params_strategy)
    def test_structural_invariants(self, corpus, params):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=1.0 / m / 2)
        pst = train(seqs, params, m)
        contexts = set()
        for node in pst.iter_nodes():
            contexts.add(node.context)
            assert len(node.context) <= params.depth
            for p in node.dist.values():
                assert 0.0 <= p <= 1.0
            if node.dist:
                assert math.isclose(sum(node.dist.values()), 1.0,
                                    rel_tol=0, abs_tol=1e-9)
            if params.epsilon > 0.0:
                smoothed = pst.smoothed_dist(node)
                assert math.isclose(sum(smoothed.values()), 1.0,
                                    rel_tol=0, abs_tol=1e-9)
        assert helpers.suffix_closed(contexts)
        assert pst.node_count == len(contexts)


# A hand-made table: the root, (b,) and its extension (a, b).
HAND_TABLE = {(): {A: 0.5, B: 0.5}, (B,): {A: 1.0}, (A, B): {B: 1.0}}


class TestMakeTree:
    def test_table_is_context_ordered(self):
        pst = make_tree(HAND_TABLE, PstParams(depth=2), helpers.small_vocab(2))
        assert [node.context for node in pst.iter_nodes()] == [(), (B,), (A, B)]
        assert pst.root.children[B].children[A] is pst.nodes[2]
        assert pst.nodes[1].log2_row == [0.0, -math.inf]

    @pytest.mark.parametrize("drop", [(), (B,)], ids=["root", "suffix"])
    def test_missing_root_or_suffix_rejected(self, drop):
        table = {ctx: dist for ctx, dist in HAND_TABLE.items() if ctx != drop}
        with pytest.raises(ValueError, match="root" if drop == () else "suffix"):
            make_tree(table, PstParams(depth=2), helpers.small_vocab(2))

    @pytest.mark.parametrize("table, params, match", [
        ({(): {A: 1.0}, (A,): {A: 1.0}}, PstParams(depth=0), "depth"),
        ({(): {A: 0.5, 2: 0.5}}, PstParams(depth=0), "vocabulary"),
        ({(): {A: 0.5, B: 0.25}}, PstParams(depth=0), "not a distribution"),
        ({(): {A: 1.5, B: -0.5}}, PstParams(depth=0), "not a distribution"),
        ({(): {A: math.inf, B: -math.inf}}, PstParams(depth=0), "not a distribution"),
        ({(): {A: 0.5, B: 0.5}}, PstParams(depth=0, epsilon=0.5), "epsilon"),
    ], ids=["deeper-than-depth", "symbol-outside-vocabulary", "row-sum",
            "probability-range", "infinite-probabilities", "epsilon"])
    def test_bad_table_rejected(self, table, params, match):
        with pytest.raises(ValueError, match=match):
            make_tree(table, params, helpers.small_vocab(2))


class TestLookup:
    def hand_tree(self):
        return make_tree(HAND_TABLE, PstParams(depth=2), helpers.small_vocab(2))

    def test_empty_history_is_root(self):
        pst = self.hand_tree()
        assert lookup_context(pst, []) is pst.root

    def test_longest_present_suffix(self):
        pst = self.hand_tree()
        assert lookup_context(pst, [A, B]).context == (A, B)
        assert lookup_context(pst, [B, B]).context == (B,)
        assert lookup_context(pst, [B, A]) is pst.root

    def test_unknown_symbol_falls_back_to_root(self):
        pst = self.hand_tree()
        assert lookup_context(pst, [7]) is pst.root


class TestScore:
    def test_empty_sequence(self):
        pst = train([[A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        score = score_sequence(pst, [])
        assert score == Score(1.0, 0.0, 0.0, False, 0)

    def test_out_of_vocabulary_token(self):
        pst = train([[A, B, A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        score = score_sequence(pst, ["s0", "zz"])
        assert score.zero_likelihood
        assert score.likelihood == 0.0
        assert score.per_symbol_log_loss == math.inf
        assert score.log2_likelihood == -math.inf
        assert score.length == 2

    def test_unseen_transition_without_smoothing(self):
        pst = train([[A, B, A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        score = score_sequence(pst, texts([A, A]))
        assert score.zero_likelihood

    def test_smoothing_rescues_unseen_transition(self):
        pst = train([[A, B, A, B]],
                    PstParams(depth=1, p_min=0, threshold=0, tau=1, epsilon=0.01), 2)
        score = score_sequence(pst, texts([A, A]))
        assert not score.zero_likelihood
        # P(a at root) = 0.5, then P(a|a) = (1 - 2*0.01)*0 + 0.01
        assert score.likelihood == pytest.approx(0.5 * 0.01)

    def test_underflow_clamps_to_smallest_float(self):
        pst = train([[A, B] * 25], PstParams(depth=0), 2)
        score = score_sequence(pst, texts([A, B] * 3000))
        assert not score.zero_likelihood
        assert score.likelihood == 5e-324
        assert score.per_symbol_log_loss == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(corpus_strategy, params_strategy,
           st.lists(st.integers(0, 3), min_size=0, max_size=64))
    def test_matches_full_scan_oracle(self, corpus, params, probe):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=1.0 / m / 2)
        pst = train(seqs, params, m)
        probe = [sym % m for sym in probe]
        score = score_sequence(pst, texts(probe))
        brute_lik, brute_log2 = helpers.brute_score(pst, probe)
        if brute_log2 is None:
            assert score.zero_likelihood
            assert score.likelihood == 0.0
        else:
            assert not score.zero_likelihood
            assert math.isclose(score.log2_likelihood, brute_log2,
                                rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(score.likelihood, brute_lik,
                                rel_tol=1e-9, abs_tol=0.0)

    def test_bit_identical_to_full_history_lookup(self):
        # Reference: the whole-history lookup at every position, summed in
        # the same order; the bounded walk must reproduce it exactly.
        background, anomaly = demo_spec_pair(4)
        corpus = generate_corpus(background, anomaly, GenConfig(
            n_sequences=300, length_min=30, length_max=70,
            anomaly_fraction=0.05, seed=5))
        pst = train([s for s, _ in corpus], PstParams(depth=14, epsilon=0.001), 4)
        assert max(len(node.context) for node in pst.iter_nodes()) == 14
        (ids, _), = generate_corpus(background, anomaly, GenConfig(
            n_sequences=1, length_min=5000, length_max=5000,
            anomaly_fraction=0.0, seed=9))
        log2_ref = 0.0
        for i in range(len(ids)):
            log2_ref += math.log2(pst.smoothed(lookup_context(pst, ids[:i]), ids[i]))
        score = score_sequence(pst, texts(ids))
        assert score.log2_likelihood == log2_ref
        assert score.per_symbol_log_loss == -log2_ref / len(ids)
        assert score.likelihood == max(2.0 ** log2_ref, 5e-324)

    @settings(max_examples=100, deadline=None)
    @given(corpus_strategy, params_strategy, st.integers(0, 9))
    def test_zero_flag_iff_zero_likelihood(self, corpus, params, pick):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=1.0 / m / 2)
        pst = train(seqs, params, m)
        probe = seqs[pick % len(seqs)]
        score = score_sequence(pst, texts(probe))
        assert 0.0 <= score.likelihood <= 1.0
        assert score.zero_likelihood == (score.likelihood == 0.0)
        assert score.zero_likelihood == (score.per_symbol_log_loss == math.inf)
        if params.epsilon > 0.0:
            # every training sequence survives under smoothing
            assert not score.zero_likelihood


class TestFlagAnomalies:
    @staticmethod
    def fake(likelihood, length=1):
        if likelihood == 0.0:
            return Score(0.0, -math.inf, math.inf, True, length)
        log2 = math.log2(likelihood)
        return Score(likelihood, log2, -log2 / length, False, length)

    def test_hand_example(self):
        scores = [("s1", self.fake(0.5)), ("s2", self.fake(1e-9)),
                  ("s3", self.fake(0.0))]
        flagged, zeros = flag_anomalies(scores, limit=1e-6)
        assert flagged == ["s2"]
        assert zeros == ["s3"]

    def test_limit_one_flags_everything_nonzero(self):
        scores = [("a", self.fake(0.25)), ("b", self.fake(0.5)),
                  ("c", self.fake(0.0))]
        flagged, zeros = flag_anomalies(scores, limit=1.0)
        assert flagged == ["a", "b"]
        assert zeros == ["c"]

    def test_empty_input(self):
        assert flag_anomalies([], limit=0.5) == ([], [])

    def test_orders_by_likelihood_then_id(self):
        scores = [("z", self.fake(1e-9)), ("y", self.fake(1e-9)),
                  ("x", self.fake(1e-12))]
        flagged, _ = flag_anomalies(scores, limit=1e-6)
        assert flagged == ["x", "y", "z"]

    @pytest.mark.parametrize("limit", [0.0, -0.1, 1.5, math.inf])
    def test_invalid_limit(self, limit):
        with pytest.raises(ValueError):
            flag_anomalies([], limit)


class TestModelIO:
    def roundtrip(self, pst):
        buf = io.StringIO()
        save_model(pst, buf)
        return load_model(io.StringIO(buf.getvalue())), buf.getvalue()

    def test_error_taxonomy(self):
        assert issubclass(CorruptModelError, FormatError)
        assert issubclass(ModelVersionError, FormatError)

    @settings(max_examples=60, deadline=None)
    @given(corpus_strategy, params_strategy,
           st.lists(st.integers(0, 3), min_size=0, max_size=12))
    def test_round_trip_scores_bit_equal(self, corpus, params, probe):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=1.0 / m / 2)
        pst = train(seqs, params, m)
        loaded, _ = self.roundtrip(pst)
        assert {n.context for n in loaded.iter_nodes()} == \
            {n.context for n in pst.iter_nodes()}
        probe = [sym % m for sym in probe]
        before = score_sequence(pst, texts(probe))
        after = score_sequence(loaded, texts(probe))
        assert before == after

    def test_round_trip_preserves_metadata(self):
        pst = train([[A, B, A]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        loaded, _ = self.roundtrip(pst)
        assert loaded.params == pst.params
        assert loaded.vocab == pst.vocab
        assert loaded.n_train_sequences == 1
        assert loaded.n_train_tokens == 3

    def test_created_stamp_is_optional(self):
        pst = train([[A, B, A]], PstParams(depth=1), 2)
        buf = io.StringIO()
        save_model(pst, buf, created="2024-01-01T00:00:00Z")
        assert json.loads(buf.getvalue())["created"] == "2024-01-01T00:00:00Z"
        buf2 = io.StringIO()
        save_model(pst, buf2)
        assert "created" not in json.loads(buf2.getvalue())

    def test_truncated_file(self):
        pst = train([[A, B, A]], PstParams(depth=1), 2)
        buf = io.StringIO()
        save_model(pst, buf)
        clipped = buf.getvalue()[: len(buf.getvalue()) // 2]
        with pytest.raises(CorruptModelError):
            load_model(io.StringIO(clipped))

    def doc_for(self, mutate):
        pst = train([[A, B, A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        buf = io.StringIO()
        save_model(pst, buf)
        doc = json.loads(buf.getvalue())
        mutate(doc)
        return io.StringIO(json.dumps(doc))

    def test_version_mismatch(self):
        with pytest.raises(ModelVersionError):
            load_model(self.doc_for(lambda d: d.update(version=99)))

    def test_non_integer_version(self):
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(lambda d: d.update(version="1")))

    def test_bad_params(self):
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(lambda d: d["params"].update(tau=0.1)))

    def test_duplicate_vocab(self):
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(lambda d: d.update(vocab=["s0", "s0"])))

    def test_context_symbol_out_of_range(self):
        def mutate(doc):
            doc["nodes"][1]["context"] = [7]
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    def test_probability_out_of_range(self):
        def mutate(doc):
            doc["nodes"][0]["dist"][0][1] = 1.5
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    def test_broken_suffix_closure(self):
        def mutate(doc):
            doc["nodes"] = [n for n in doc["nodes"] if n["context"] != [A]]
            doc["nodes"].append({"context": [B, A], "dist": [[B, 1.0]]})
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    def test_missing_root(self):
        def mutate(doc):
            doc["nodes"] = [n for n in doc["nodes"] if n["context"]]
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    def test_duplicate_context(self):
        def mutate(doc):
            doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    def test_shuffled_nodes_load_and_save_to_same_bytes(self):
        import random
        pst = train([[A, B, B, A, B, A, A, B]],
                    PstParams(depth=3, p_min=0.0, threshold=0.0, tau=1.0), 2)
        _, text = self.roundtrip(pst)
        doc = json.loads(text)
        assert len(doc["nodes"]) > 2
        random.Random(3).shuffle(doc["nodes"])
        _, again = self.roundtrip(load_model(io.StringIO(json.dumps(doc))))
        assert again == text

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(jobs=1),
        lambda p: p.pop("threshold"),
        lambda p: p.update(thresh=p.pop("threshold")),
    ], ids=["extra", "missing", "misspelled"])
    def test_params_keys_must_be_exact(self, mutate):
        with pytest.raises(CorruptModelError, match="params"):
            load_model(self.doc_for(lambda d: mutate(d["params"])))

    def test_empty_vocabulary_model_loads(self):
        # An empty corpus trains a root-only model with an empty row.
        pst = train([], PstParams(depth=2), vocab_size=0)
        loaded, _ = self.roundtrip(pst)
        assert loaded.root.dist == {}

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(version=True),
        lambda d: d["params"].update(depth=1.9),
        lambda d: d["params"].update(depth="1"),
        lambda d: d["params"].update(depth=True),
        lambda d: d["params"].update(tau=True),
        lambda d: d["params"].pop("p_min"),
        lambda d: d["params"].update(epsilon=0.9),
        lambda d: d["params"].update(epsilon=0.5),
        lambda d: d["training"].update(n_tokens=True),
        lambda d: d["nodes"][1].update(context=[False]),
        lambda d: d["nodes"][0].update(dist=[[0, True]]),
        lambda d: d["nodes"][0].update(dist=[[True, 1.0]]),
        lambda d: d["nodes"][0].update(dist=[[0, 0.5]]),
        lambda d: d["nodes"][0].update(dist=[]),
        lambda d: [n.update(dist=[[0, 1.0], [1, 1.0]]) for n in d["nodes"]],
    ], ids=["bool-version", "fractional-depth", "string-depth", "bool-depth",
            "bool-tau", "missing-p-min", "epsilon-above-1/m", "epsilon-equals-1/m",
            "bool-count", "bool-context-symbol", "bool-probability",
            "bool-dist-symbol", "row-sums-below-one", "empty-root-row",
            "rows-sum-to-two"])
    def test_corrupt_document_rejected(self, mutate):
        with pytest.raises(CorruptModelError):
            load_model(self.doc_for(mutate))

    @settings(max_examples=60, deadline=None)
    @given(corpus_strategy, params_strategy, st.data())
    def test_perturbed_probability_rejected(self, corpus, params, data):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=0.0)
        buf = io.StringIO()
        save_model(train(seqs, params, m), buf)
        doc = json.loads(buf.getvalue())
        node = data.draw(st.sampled_from(doc["nodes"]))
        entry = data.draw(st.sampled_from(node["dist"]))
        entry[1] += data.draw(st.floats(1e-6, 1.0))
        with pytest.raises(CorruptModelError):
            load_model(io.StringIO(json.dumps(doc)))
