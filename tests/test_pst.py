from __future__ import annotations

import copy
import io
import json
import math
import random
import tracemalloc
from dataclasses import asdict, replace
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
    _document,
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


class IntSubclass(int):
    """An int that is not of type int, refused as a bool is."""


class FloatSubclass(float):
    """A float that is not of type float, refused as a bool is."""


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
        {"depth": 1.5},
        {"depth": 2.0},
        {"depth": True},
        {"depth": "1"},
        {"tau": True},
        {"p_min": "0.1"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PstParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"p_min": 1.0}, {"threshold": 1.0}],
                             ids=["p-min-one", "threshold-one"])
    def test_closed_ends_are_accepted(self, kwargs):
        PstParams(**kwargs)

    def test_numbers_are_stored_as_floats(self):
        # Equal params must save as equal bytes.
        p = PstParams(depth=2, p_min=0, threshold=0, tau=10, epsilon=0)
        assert p == PstParams(depth=2, p_min=0.0, threshold=0.0, tau=10.0, epsilon=0.0)
        assert [type(v) for v in asdict(p).values()] == [int, float, float, float, float]


@st.composite
def repetitive_corpora(draw):
    """(sequences, max_len) whose windows of max_len + 1 symbols repeat:
    duplicated sequences, periodic ones longer than a window, ones shorter
    than a window, over ids with gaps (so the largest id + 1 is not the
    number of ids)."""
    max_len = draw(st.integers(0, 5))
    sym = st.sampled_from(draw(st.sampled_from([[0], [0, 9], [3, 7, 8], [0, 1, 2, 3]])))
    seqs = []
    for kind in draw(st.lists(st.sampled_from(["periodic", "short", "any"]), max_size=6)):
        if kind == "periodic":
            period = draw(st.lists(sym, min_size=1, max_size=3))
            n = draw(st.integers(max_len + 2, max_len + 12))
            seq = (period * n)[:n]
        elif kind == "short":
            seq = draw(st.lists(sym, max_size=max_len))
        else:
            seq = draw(st.lists(sym, max_size=12))
        seqs += [seq] * draw(st.integers(1, 3))
    return draw(st.permutations(seqs)), max_len


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

    @settings(max_examples=250, deadline=None)
    @given(
        st.tuples(st.lists(st.lists(st.integers(0, 3), min_size=0, max_size=14),
                           min_size=0, max_size=8),
                  st.integers(0, 20))
        | repetitive_corpora(),
        st.sampled_from([0.0001, 0.05, 0.1, 0.2, 0.5, 1.0]),
    )
    def test_gated_table_matches_oracle(self, corpus, p_min):
        # Every unigram, and every one-symbol extension of a frequent
        # context; nothing else. Equal windows are counted once with their
        # multiplicity, so half the corpora repeat windows on purpose.
        seqs, max_len = corpus
        for gate in (0.0, p_min):
            expected = helpers.brute_gated_counts(seqs, max_len, gate)
            assert count_contexts(seqs, max_len, gate) == expected
            one_shot = (tuple(seq) for seq in seqs)
            assert count_contexts(one_shot, max_len, gate) == expected

    def test_depth_beyond_longest_sequence_costs_nothing(self):
        # No context reaches past a sequence's end, so depth 2000 counts
        # the depth-3 table of 3-token sequences, without building
        # 2001-symbol windows for them.
        seqs = [[A, B, A], [B, B, A], [A, A, A]]
        tracemalloc.start()
        try:
            deep = count_contexts(seqs, max_len=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shallow = count_contexts(seqs, max_len=3)
        assert replace(deep, max_len=3) == shallow
        assert peak < 1_000_000

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

    def test_ratio_of_exactly_one_over_tau_is_kept(self):
        # After b come a, a, b, a: P(b | b) = 1/4 against the root's 3/6 is a
        # ratio of exactly 1/tau (P(a | b) = 3/4 is 3/2, inside the band), so
        # only the closed "smaller" end of the retention test keeps (B,).
        params = PstParams(depth=1, p_min=0.0, threshold=0.0, tau=2.0)
        pst = train([[B, A, B, A, B], [B, B, A]], params, vocab_size=2)
        assert {node.context for node in pst.iter_nodes()} == {(), (A,), (B,)}

    def test_symbol_that_only_starts_sequences_is_no_successor(self):
        # 2 only begins sequences, so the root is never followed by it and
        # (2,)'s conditionals, 1/2 each, equal the root's. A zero count for
        # 2 in the root's row would keep (2,): with threshold 0 every
        # symbol of the suffix's row takes the ratio test, and 0 against 0
        # passes it.
        params = PstParams(depth=2, threshold=0.0)
        pst = train([[2, A, B, A, B], [2, B, A, B, A]], params, vocab_size=3)
        assert {node.context for node in pst.iter_nodes()} == {(), (A,), (B,)}

    @pytest.mark.parametrize("occurrences", [
        # (0, 1) is followed by 2, but (1,) only by 0.
        {(0,): 2, (1,): 1, (2,): 1, (0, 1): 1, (1, 0): 1, (0, 1, 2): 1},
        # (0, 1) is followed by 2 but never counted itself.
        {(0,): 2, (1,): 1, (2,): 1, (1, 0): 1, (1, 2): 1, (0, 1, 2): 1},
    ], ids=["suffix-never-followed", "context-not-counted"])
    def test_table_breaking_the_suffix_rule_rejected(self, occurrences):
        # No counted table holds either; each used to build a tree.
        table = ContextCounts(max_len=2, total_positions=4, n_sequences=1,
                              starts={0: 1}, occurrences=occurrences)
        with pytest.raises(ValueError, match="suffix rule"):
            build_tree(table, PstParams(depth=2, p_min=0.0, threshold=0.0),
                       helpers.small_vocab(3))

    @pytest.mark.parametrize("key, occ", [
        ((0, 0), -1), ((0, 0), 0), ((0, 0), 2.5), ((0, 0), True), ((), 2)],
        ids=["negative", "zero", "float", "bool", "empty-key"])
    def test_bad_table_entry_rejected(self, key, occ):
        # count_contexts never writes such an entry; unchecked, each builds
        # a tree or escapes as ZeroDivisionError or IndexError.
        table = ContextCounts(max_len=1, total_positions=2, n_sequences=1,
                              starts={0: 1}, occurrences={(0,): 2, key: occ})
        with pytest.raises(ValueError, match="bad count table entry"):
            build_tree(table, PstParams(depth=1, p_min=0.0, threshold=0.0),
                       helpers.small_vocab(1))

    def test_paper_default_gate_prunes_alternating_corpus(self):
        # With threshold=0.0005 the zero conditionals are gated out before
        # the ratio test, and the 1.0-vs-0.6 ratio is inside the band.
        pst = train([[A, B, A, B, A, B]], PstParams(depth=2), vocab_size=2)
        assert pst.node_count == 1

    def test_threshold_monotonicity_for_example_pair(self):
        rng = random.Random(11)
        seqs = [[rng.randrange(4) for _ in range(30)] for _ in range(40)]
        base = dict(depth=3, p_min=0.0001, tau=1.2)
        low = train(seqs, PstParams(threshold=0.0005, **base), 4)
        high = train(seqs, PstParams(threshold=0.05, **base), 4)
        assert high.node_count <= low.node_count

    @pytest.mark.parametrize("params", [
        PstParams(depth=5), PstParams(depth=5, p_min=0.0),
        PstParams(depth=3, p_min=0.0, threshold=0.0, tau=1.2, epsilon=0.01)])
    @pytest.mark.parametrize("seed, m", [(1, 4), (2, 6), (3, 8)])
    def test_table_order_does_not_change_the_model(self, params, seed, m):
        # count_contexts promises the entries, not their order.
        rng = random.Random(seed)
        corpus = generate_corpus(*demo_spec_pair(m), GenConfig(60, 5, 40, 0.1, seed))
        seqs = [s.token_ids for s in corpus_to_sequences(corpus, m)[0]]
        counts = count_contexts(seqs, params.depth, params.p_min)
        entries = list(counts.occurrences.items())
        shuffled = rng.sample(entries, len(entries))
        written = set()
        for order in (entries, entries[::-1], shuffled):
            table = replace(counts, occurrences=dict(order))
            sink = io.StringIO()
            save_model(build_tree(table, params, helpers.small_vocab(m)), sink)
            written.add(sink.getvalue())
        assert len(written) == 1

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
        ({(): {False: 0.5, B: 0.5}}, PstParams(depth=0), "vocabulary"),
        ({(): {A: 0.5, 1.0: 0.5}}, PstParams(depth=0), "vocabulary"),
        ({(): {A: True, B: False}}, PstParams(depth=0), "not a distribution"),
        ({(): {A: "1.0"}}, PstParams(depth=0), "not a distribution"),
        ({(): {A: 0.5, B: 0.5}, (True,): {A: 1.0}}, PstParams(depth=1), "vocabulary"),
        ({(): {IntSubclass(A): 0.5, B: 0.5}}, PstParams(depth=0), "vocabulary"),
        ({(): {A: 0.5, B: 0.5}, (IntSubclass(B),): {A: 1.0}}, PstParams(depth=1),
         "vocabulary"),
        ({(): {A: FloatSubclass(0.5), B: 0.5}}, PstParams(depth=0), "not a distribution"),
    ], ids=["deeper-than-depth", "symbol-outside-vocabulary", "row-sum",
            "probability-range", "infinite-probabilities", "epsilon",
            "bool-dist-symbol", "float-dist-symbol", "bool-probability",
            "string-probability", "bool-context-symbol", "int-subclass-dist-symbol",
            "int-subclass-context-symbol", "float-subclass-probability"])
    def test_bad_table_rejected(self, table, params, match):
        with pytest.raises(ValueError, match=match):
            make_tree(table, params, helpers.small_vocab(2))

    @pytest.mark.parametrize("n_sequences, n_tokens", [
        (-1, 0), (0, -1), (1, 2.5), (1.0, 2), (True, 2), (1, None),
        (IntSubclass(1), 2), (1, IntSubclass(2)),
    ], ids=["negative-sequences", "negative-tokens", "fractional-tokens",
            "float-sequences", "bool-sequences", "missing-tokens",
            "int-subclass-sequences", "int-subclass-tokens"])
    def test_bad_training_counts_rejected(self, n_sequences, n_tokens):
        with pytest.raises(ValueError, match="training count"):
            make_tree(HAND_TABLE, PstParams(depth=2), helpers.small_vocab(2),
                      n_sequences, n_tokens)

    def test_probabilities_are_stored_as_floats(self):
        as_ints = make_tree({(): {A: 1, B: 0}}, PstParams(depth=0), helpers.small_vocab(2))
        as_floats = make_tree({(): {A: 1.0, B: 0.0}}, PstParams(depth=0),
                              helpers.small_vocab(2))
        assert [type(p) for p in as_ints.root.dist.values()] == [float, float]
        saved = []
        for pst in (as_ints, as_floats):
            buf = io.StringIO()
            save_model(pst, buf)
            saved.append(buf.getvalue())
        assert saved[0] == saved[1]


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


class TestScoreRules:
    @pytest.mark.parametrize("args", [
        (0.5, math.nan),
        (0.0, 1.0),
    ])
    def test_invalid_score_refused(self, args):
        with pytest.raises(ValueError, match="not a valid score"):
            Score(*args)

    @settings(max_examples=300, deadline=None)
    @given(
        likelihood=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                             st.sampled_from([0.0, 1.0, 0.5, 5e-324])),
        loss=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, math.inf, 1.25])),
    )
    def test_constructs_iff_valid(self, likelihood, loss):
        # The draws and the predicate of the CLI's
        # test_exit_code_iff_row_valid, without its written flag.
        valid = (
            0.0 <= likelihood <= 1.0
            and loss >= 0.0
            and (likelihood == 0.0) == (loss == math.inf)
        )
        try:
            score = Score(likelihood, loss)
        except ValueError:
            assert not valid
        else:
            assert valid
            assert score.zero_likelihood == (likelihood == 0.0)


class TestScore:
    def test_empty_sequence(self):
        pst = train([[A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        score = score_sequence(pst, [])
        assert score == Score(1.0, 0.0)

    def test_out_of_vocabulary_token(self):
        pst = train([[A, B, A, B]], PstParams(depth=1, p_min=0, threshold=0, tau=1), 2)
        score = score_sequence(pst, ["s0", "zz"])
        assert score.zero_likelihood
        assert score.likelihood == 0.0
        assert score.per_symbol_log_loss == math.inf

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
            assert math.isclose(-score.per_symbol_log_loss * len(probe), brute_log2,
                                rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(score.likelihood, brute_lik,
                                rel_tol=1e-9, abs_tol=0.0)

    def test_bit_identical_to_full_history_lookup(self):
        # Reference: the whole-history lookup at every position, summed in
        # the same order; the automaton must reproduce it exactly.
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
            if i == 4096:
                log2_ref_4096 = log2_ref
            log2_ref += math.log2(pst.smoothed(lookup_context(pst, ids[:i]), ids[i]))
        score = score_sequence(pst, texts(ids))
        assert score.per_symbol_log_loss == -log2_ref / len(ids)
        assert score.likelihood == max(2.0 ** log2_ref, 5e-324)
        # Dividing by a power of two is exact, so the loss of the 4096-token
        # prefix gives back its log2 sum bit for bit.
        prefix = score_sequence(pst, texts(ids[:4096]))
        assert -prefix.per_symbol_log_loss * 4096 == log2_ref_4096

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


@st.composite
def made_trees(draw):
    """A tree made directly by make_tree from a random suffix-closed table.

    Closing random contexts under suffixes leaves most of their
    oldest-first prefixes unstored, the case the automaton's fail states
    serve. Rows give some symbols probability 0, which epsilon 0 keeps.
    """
    m = draw(st.integers(1, 4))
    depth = draw(st.integers(0, 4))
    drawn = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=depth),
                          max_size=10)) if depth else []
    closed = {tuple(ctx[k:]) for ctx in drawn for k in range(len(ctx) + 1)} | {()}
    dists = {}
    for ctx in sorted(closed):
        weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
        dists[ctx] = {sym: w / sum(weights) for sym, w in enumerate(weights) if w}
    epsilon = draw(st.sampled_from([0.0, 1.0 / m / 4]))
    return make_tree(dists, PstParams(depth=depth, epsilon=epsilon), helpers.small_vocab(m))


@st.composite
def trained_trees(draw):
    m, seqs = draw(corpus_strategy)
    params = draw(params_strategy)
    if params.epsilon >= 1.0 / m:
        params = PstParams(depth=params.depth, p_min=params.p_min,
                           threshold=params.threshold, tau=params.tau,
                           epsilon=1.0 / m / 2)
    return train(seqs, params, m)


def histories(pst, oov=False):
    """Histories built from the tree's own contexts and single symbols, so
    they reach deep states; with oov, the out-of-vocabulary id len(vocab)
    may occur too."""
    m = len(pst.vocab)
    pieces = st.sampled_from([node.context for node in pst.iter_nodes()]) \
        | st.integers(0, m if oov else m - 1).map(lambda sym: (sym,))
    return st.lists(pieces, max_size=12).map(lambda parts: [s for p in parts for s in p])


def automaton_states(pst, ids):
    """The automaton's state before each symbol of ids and after the last."""
    state = pst.automaton
    yield state
    for sym in ids:
        nxt = state[1].get(sym)
        while nxt is None:
            state = state[2]
            nxt = state[1].get(sym)
        state = nxt
        yield state


def lookup_score(pst, ids):
    """score_sequence's result from lookup_context at every position, the
    log2 terms added in position order."""
    if not ids:
        return Score(1.0, 0.0)
    log2_lik = 0.0
    for i, sym in enumerate(ids):
        if sym >= len(pst.vocab):
            return Score(0.0, math.inf)
        lp = lookup_context(pst, ids[:i]).log2_row[sym]
        if lp == -math.inf:
            return Score(0.0, math.inf)
        log2_lik += lp
    return Score(max(2.0 ** log2_lik, 5e-324), -log2_lik / len(ids) + 0.0)


trees = made_trees() | trained_trees()


class TestAutomaton:
    @settings(max_examples=200, deadline=None)
    @given(pst=trees, data=st.data())
    def test_state_row_is_lookup_row(self, pst, data):
        # Every state is a prefix of a stored context, so the contexts
        # themselves visit them all; a drawn history takes fail steps too.
        for ids in [data.draw(histories(pst))] + [node.context for node in pst.nodes]:
            for i, state in enumerate(automaton_states(pst, ids)):
                assert state[0] is lookup_context(pst, ids[:i]).log2_row

    @settings(max_examples=200, deadline=None)
    @given(pst=trees)
    def test_fail_state_is_prefix_less_oldest_symbol(self, pst):
        # The states, found along trie edges (the start state's other edges
        # lead back to it), are exactly the prefixes of the stored contexts,
        # and the fail state of the one reached by P is the one reached by P[1:].
        root = pst.automaton
        states = {(): root}
        todo = [()]
        while todo:
            prefix = todo.pop()
            for sym, state in states[prefix][1].items():
                if state is not root:
                    states[prefix + (sym,)] = state
                    todo.append(prefix + (sym,))
        assert states.keys() == {node.context[:k] for node in pst.nodes
                                 for k in range(len(node.context) + 1)}
        assert root[2] is None
        for prefix, state in states.items():
            if prefix:
                assert state[2] is states[prefix[1:]]
                *_, reached = automaton_states(pst, prefix)
                assert reached is state

    @settings(max_examples=200, deadline=None)
    @given(pst=trees, data=st.data())
    def test_score_bit_equal_to_lookup_reference(self, pst, data):
        ids = data.draw(histories(pst, oov=True))
        assert score_sequence(pst, texts(ids)) == lookup_score(pst, ids)
        assert score_sequence(pst, []) == Score(1.0, 0.0)
        cut = data.draw(st.integers(0, len(ids)))
        oov = ids[:cut] + [len(pst.vocab)] + ids[cut:]
        assert score_sequence(pst, texts(oov)) == Score(0.0, math.inf)

    def test_hand_tree_fail_states(self):
        # (B, A, A) is stored; its prefixes (B,) and (B, A) are states that
        # are not stored, so they carry the rows of their longest stored
        # suffixes, () and (A,). From (B, A, A), B has no edge along the
        # fail chain (A, A), (A,) until the start state; A leads to (A, A).
        table = {(): {A: 0.5, B: 0.5}, (A,): {A: 1.0}, (A, A): {B: 1.0},
                 (B, A, A): {A: 1.0}}
        pst = make_tree(table, PstParams(depth=3), helpers.small_vocab(2))
        rows = [state[0] for state in automaton_states(pst, [B, A, A, B, A, A, A])]
        by_ctx = {node.context: node.log2_row for node in pst.iter_nodes()}
        expected = [by_ctx[ctx] for ctx in
                    [(), (), (A,), (B, A, A), (), (A,), (B, A, A), (A, A)]]
        assert list(map(id, rows)) == list(map(id, expected))


class TestFlagAnomalies:
    @staticmethod
    def fake(likelihood):
        return Score(likelihood, -math.log2(likelihood) if likelihood else math.inf)

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

    def test_likelihood_at_the_limit_is_not_flagged(self):
        scores = [("a", self.fake(0.25)), ("b", self.fake(0.5))]
        assert flag_anomalies(scores, limit=0.5) == (["a"], [])

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

    @settings(max_examples=100, deadline=None)
    @given(pst=trees, data=st.data())
    def test_round_trip_scores_bit_equal(self, pst, data):
        loaded, _ = self.roundtrip(pst)
        assert {n.context for n in loaded.iter_nodes()} == \
            {n.context for n in pst.iter_nodes()}
        for _ in range(3):
            probe = texts(data.draw(histories(pst, oov=True)))
            assert score_sequence(loaded, probe) == score_sequence(pst, probe)

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

    def test_deeply_nested_file(self):
        with pytest.raises(CorruptModelError, match="not valid JSON"):
            load_model(io.StringIO("[" * 100_000 + "]" * 100_000))

    def test_integer_over_digit_limit(self):
        # json.load raises a plain ValueError for an integer literal of more
        # digits than Python converts; it is a corrupt model like any other.
        with pytest.raises(CorruptModelError, match="not valid JSON"):
            load_model(io.StringIO('{"version": ' + "1" * 5000 + "}"))

    def test_undecodable_bytes_are_no_corrupt_model(self):
        # The CLI reports these as input that is not UTF-8 text.
        with pytest.raises(UnicodeDecodeError):
            load_model(io.TextIOWrapper(io.BytesIO(b'{"version": "\xff"}'), encoding="utf-8"))

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

    # Documents save_model never writes, though the tree they describe is
    # valid: the error names the top-level field that differs.
    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.update(created=None), "created"),
        (lambda d: d.update(created={"a": [1, 2]}), "created"),
        (lambda d: d.update(created=5), "created"),
        (lambda d: d.update(created=True), "created"),
        (lambda d: d["training"].update(extra=1), "training"),
        (lambda d: d["nodes"][0].update(extra=1), "nodes"),
        (lambda d: d["nodes"][0]["dist"].reverse(), "nodes"),
        (lambda d: d["nodes"][0]["dist"].append(list(d["nodes"][0]["dist"][0])), "nodes"),
        (lambda d: d["params"].update(tau=2**60 + 1), "params"),
    ], ids=["extra-key", "null-created", "object-created", "int-created",
            "bool-created", "extra-training-key", "extra-node-key",
            "dist-rows-out-of-order", "duplicate-dist-row", "int-not-its-float"])
    def test_not_as_written_rejected(self, mutate, field):
        with pytest.raises(CorruptModelError, match=f"differs .*: {field}$"):
            load_model(self.doc_for(mutate))

    @settings(max_examples=150, deadline=None)
    @given(corpus_strategy, params_strategy, st.data())
    def test_edited_document_loads_as_written_or_is_corrupt(self, corpus, params, data):
        m, seqs = corpus
        if params.epsilon >= 1.0 / m:
            params = PstParams(depth=params.depth, p_min=params.p_min,
                               threshold=params.threshold, tau=params.tau,
                               epsilon=0.0)
        buf = io.StringIO()
        save_model(train(seqs, params, m), buf,
                   created=data.draw(st.sampled_from([None, "2024-01-01T00:00:00Z"])))
        doc = json.loads(buf.getvalue())
        edit_document(doc, data.draw)
        text = json.dumps(doc)
        try:
            pst = load_model(io.StringIO(text))
        except (CorruptModelError, ModelVersionError):
            return
        edited = json.loads(text)
        edited["nodes"].sort(key=lambda node: (len(node["context"]), node["context"]))
        assert _document(pst, edited.get("created")) == edited

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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([0, 1, -1, 0.0, 0.5, 1.0, 2**60 + 1]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
key_names = st.sampled_from(["version", "params", "vocab", "training", "nodes",
                             "created", "n_tokens", "depth", "context", "dist"])


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, (*path, key))


def edit_document(doc, draw):
    """One edit at any place of a decoded JSON document: replace a value,
    delete it, add a key or element, or swap two elements."""
    path = draw(st.sampled_from(list(_paths(doc))))
    container = doc
    for key in path[:-1]:
        container = container[key]
    target = container[path[-1]] if path else doc
    ops = ["replace", "delete"] if path else []
    if isinstance(target, (dict, list)):
        ops.append("add")
    if isinstance(target, list) and len(target) > 1:
        ops.append("swap")
    op = draw(st.sampled_from(ops))
    if op == "replace":
        container[path[-1]] = draw(json_values)
    elif op == "delete":
        del container[path[-1]]
    elif op == "add" and isinstance(target, dict):
        target[draw(key_names | st.text(max_size=3))] = draw(json_values)
    elif op == "add":
        sibling = st.sampled_from(target).map(copy.deepcopy) if target else json_values
        target.insert(draw(st.integers(0, len(target))), draw(sibling | json_values))
    else:
        i, j = draw(st.lists(st.integers(0, len(target) - 1), min_size=2, max_size=2,
                             unique=True))
        target[i], target[j] = target[j], target[i]
