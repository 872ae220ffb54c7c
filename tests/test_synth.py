from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flowlang.language import Label
from flowlang.synth import (
    MAX_DEMO_ALPHABET,
    GenConfig,
    MarkovSpec,
    SplitMix64,
    _draw,
    _table,
    corpus_to_sequences,
    demo_spec_pair,
    exact_likelihood,
    generate_corpus,
    symbol_token,
)


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        # Published outputs of the splitmix64 mixer for state 0.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_float_range(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            x = rng.next_float()
            assert 0.0 <= x < 1.0

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=1, max_value=10**9))
    def test_next_below_in_range(self, seed, n):
        assert 0 <= SplitMix64(seed).next_below(n) < n

    def test_next_below_one_is_zero(self):
        rng = SplitMix64(3)
        assert all(rng.next_below(1) == 0 for _ in range(20))

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)


def uniform_spec(order, m):
    contexts = [()]
    for _ in range(order):
        contexts = [c + (s,) for c in contexts for s in range(m)]
    return MarkovSpec(
        order=order,
        alphabet_size=m,
        transitions={c: tuple([1.0 / m] * m) for c in contexts},
        initial={c: 1.0 / len(contexts) for c in contexts},
    )


def cycle_spec(m):
    rows = {}
    for i in range(m):
        row = [0.0] * m
        row[(i + 1) % m] = 1.0
        rows[(i,)] = tuple(row)
    return MarkovSpec(order=1, alphabet_size=m, transitions=rows,
                      initial={(i,): 1.0 / m for i in range(m)})


class TestMarkovSpec:
    def test_accepts_valid_order1(self):
        spec = cycle_spec(4)
        assert spec.order == 1
        assert spec.transitions[(2,)][3] == 1.0

    def test_rejects_row_not_summing_to_one(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=0, alphabet_size=2,
                       transitions={(): (0.6, 0.6)}, initial={(): 1.0})

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=0, alphabet_size=2,
                       transitions={(): (1.5, -0.5)}, initial={(): 1.0})

    def test_rejects_wrong_context_length(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=1, alphabet_size=2,
                       transitions={(): (0.5, 0.5)},
                       initial={(0,): 1.0})

    def test_rejects_context_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=1, alphabet_size=2,
                       transitions={(5,): (0.5, 0.5)},
                       initial={(0,): 1.0})

    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=0, alphabet_size=3,
                       transitions={(): (0.5, 0.5)}, initial={(): 1.0})

    def test_rejects_initial_not_summing(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=1, alphabet_size=2,
                       transitions={(0,): (0.5, 0.5), (1,): (0.5, 0.5)},
                       initial={(0,): 0.3, (1,): 0.3})

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            MarkovSpec(order=-1, alphabet_size=2, transitions={}, initial={})

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError, match="alphabet_size"):
            MarkovSpec(order=0, alphabet_size=0, transitions={}, initial={})

    # NaN passes both a `p < 0` test and the fsum test (a NaN sum is not
    # more than 1e-12 away from 1), and a draw would skip it.
    @pytest.mark.parametrize("transitions, initial, what", [
        ({(): (math.nan, 1.0)}, {(): 1.0}, r"transition row for \(\)"),
        ({(): (0.5, 0.5)}, {(): math.nan}, "initial distribution"),
    ], ids=["row", "initial"])
    def test_rejects_nan(self, transitions, initial, what):
        with pytest.raises(ValueError, match=f"{what} has a probability outside"):
            MarkovSpec(order=0, alphabet_size=2, transitions=transitions, initial=initial)


class TestSample:
    class Top:
        """A generator whose every draw is the largest next_float returns."""

        def next_float(self):
            return 1 - 2 ** -53

    @pytest.mark.parametrize("row", [(0.1,) * 10, (0.1,) * 10 + (0.0,)])
    def test_draw_past_the_rounded_sum_takes_the_last_positive_value(self, row):
        # MarkovSpec accepts the row, since its fsum is exactly 1, yet the
        # running sum of ten 0.1s, added in order as _table adds them,
        # ends at 0.9999999999999999, the draw itself, so no value's
        # cumulative sum exceeds the draw. (sum() is compensated from
        # Python 3.12 on and gives 1.0, so it cannot state this.)
        MarkovSpec(order=0, alphabet_size=len(row), transitions={(): row},
                   initial={(): 1.0})
        assert list(itertools.accumulate(row))[-1] == self.Top().next_float()
        assert _draw(_table(enumerate(row)), self.Top().next_float()) == 9

    # Zeros, subnormals (the smallest among them), ten 0.1s (whose running
    # sum stops one ulp short of 1) and any other probability.
    PROBABILITIES = st.one_of(
        st.just(0.0), st.just(0.1), st.just(5e-324),
        st.floats(0.0, 2.2250738585072014e-308), st.floats(0.0, 1.0))

    @settings(max_examples=500)
    @given(st.one_of(st.lists(PROBABILITIES, max_size=12), st.just([0.1] * 10)), st.data())
    def test_table_draw_picks_what_the_scan_picks(self, row, data):
        items = list(enumerate(row))
        sums = list(itertools.accumulate(p for p in row if p > 0.0))
        edges = [x for s in sums
                 for x in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0))
                 if 0.0 <= x < 1.0]
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True)
                      | (st.sampled_from(edges) if edges else st.nothing()))
        if not sums:
            with pytest.raises(ValueError, match="all-zero"):
                helpers.scan_draw(items, u)
            with pytest.raises(ValueError, match="all-zero"):
                _draw(_table(items), u)
        else:
            assert _draw(_table(items), u) == helpers.scan_draw(items, u)


class TestGenConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_sequences=-1),
        dict(length_min=0),
        dict(length_min=9, length_max=8),
        dict(anomaly_fraction=-0.1),
        dict(anomaly_fraction=1.5),
        # Counts and the seed are ints and the fraction a number; a bool
        # is neither.
        dict(n_sequences=2.5),
        dict(n_sequences=True),
        dict(length_min=3.0),
        dict(length_max=8.0),
        dict(seed=1.5),
        dict(seed=False),
        dict(seed="7"),
        dict(anomaly_fraction=True),
        dict(anomaly_fraction="0.1"),
    ])
    def test_rejects_bad_values(self, kwargs):
        base = dict(n_sequences=5, length_min=3, length_max=8,
                    anomaly_fraction=0.1, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GenConfig(**base)


class TestGenerateCorpus:
    def pair(self):
        return demo_spec_pair(4)

    def test_zero_fraction_is_all_normal(self):
        bg, anom = self.pair()
        corpus = generate_corpus(bg, anom, GenConfig(50, 5, 9, 0.0, seed=11))
        assert len(corpus) == 50
        assert all(label is Label.NORMAL for _, label in corpus)

    def test_same_seed_identical(self):
        bg, anom = self.pair()
        cfg = GenConfig(30, 4, 10, 0.2, seed=77)
        assert generate_corpus(bg, anom, cfg) == generate_corpus(bg, anom, cfg)

    def test_lengths_within_bounds(self):
        bg, anom = self.pair()
        corpus = generate_corpus(bg, anom, GenConfig(200, 4, 10, 0.1, seed=5))
        assert all(4 <= len(seq) <= 10 for seq, _ in corpus)
        assert {len(seq) for seq, _ in corpus} == set(range(4, 11))

    def test_fixed_length(self):
        bg, anom = self.pair()
        corpus = generate_corpus(bg, anom, GenConfig(20, 6, 6, 0.0, seed=5))
        assert all(len(seq) == 6 for seq, _ in corpus)

    def test_attack_count_in_binomial_99_interval(self):
        bg, anom = self.pair()
        corpus = generate_corpus(bg, anom, GenConfig(2000, 30, 70, 0.05, seed=424242))
        attacks = sum(1 for _, label in corpus if label is Label.ATTACK)
        lo, hi = binomial_central_interval(2000, 0.05, tail=0.005)
        assert lo <= attacks <= hi

    def test_prefix_stability(self):
        # Each sequence's sub-seed is the master stream's next value, so a
        # shorter run is a prefix.
        bg, anom = self.pair()
        long = generate_corpus(bg, anom, GenConfig(20, 4, 8, 0.3, seed=9))
        short = generate_corpus(bg, anom, GenConfig(8, 4, 8, 0.3, seed=9))
        assert long[:8] == short

    # Corpora from two random order-k sources over 3 symbols: four
    # sequences in full, and a digest of 300. Orders 0 and 2 take context
    # slices that the demo pair's order 1 never does.
    PINNED = {
        0: ([([2, 0, 0, 2], Label.ATTACK), ([1, 0, 2, 2], Label.NORMAL),
             ([1, 2, 1], Label.ATTACK), ([0, 2, 1], Label.ATTACK)],
            "54a4e283b3931793d434239326b4d66fb50707b534a08f50cae0077a68a4a891"),
        2: ([([0, 2, 2, 0], Label.ATTACK), ([1, 1, 1, 0], Label.NORMAL),
             ([2, 2, 1], Label.ATTACK), ([2, 0, 0, 2], Label.ATTACK)],
            "c884b657b0936e3a183e49f3164ebb610f65a5335df207d97cdb2018f68e5ee0"),
    }

    @pytest.mark.parametrize("order", sorted(PINNED))
    def test_pinned_corpus_at_order(self, order):
        bg = helpers.random_markov_spec(random.Random(10 + order), order, 3)
        anom = helpers.random_markov_spec(random.Random(20 + order), order, 3)
        small, digest = self.PINNED[order]
        cfg = GenConfig(4, max(order, 1) + 1, 6, 0.5, seed=31)
        assert generate_corpus(bg, anom, cfg) == small
        big = generate_corpus(bg, anom, GenConfig(300, max(order, 1), 40, 0.3, seed=2025))
        text = repr([(seq, label.value) for seq, label in big])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_alphabet_mismatch(self):
        bg, _ = demo_spec_pair(4)
        _, anom = demo_spec_pair(8)
        with pytest.raises(ValueError):
            generate_corpus(bg, anom, GenConfig(1, 3, 3, 0.0, seed=0))

    def test_length_min_below_order(self):
        spec = uniform_spec(2, 2)
        with pytest.raises(ValueError):
            generate_corpus(spec, spec, GenConfig(1, 1, 5, 0.0, seed=0))

    def test_missing_transition_row(self):
        lopsided = MarkovSpec(
            order=1, alphabet_size=2,
            transitions={(0,): (0.0, 1.0)},
            initial={(0,): 1.0})
        with pytest.raises(ValueError):
            generate_corpus(lopsided, lopsided, GenConfig(1, 3, 3, 0.0, seed=0))

    def test_empty_corpus(self):
        bg, anom = self.pair()
        assert generate_corpus(bg, anom, GenConfig(0, 3, 5, 0.5, seed=1)) == []

    def test_generated_sequences_have_positive_likelihood(self):
        bg, anom = self.pair()
        corpus = generate_corpus(bg, anom, GenConfig(100, 4, 9, 0.0, seed=21))
        assert all(exact_likelihood(bg, seq) > 0.0 for seq, _ in corpus)


def binomial_central_interval(n, p, tail):
    def pmf(k):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))

    acc = 0.0
    lo = 0
    for k in range(n + 1):
        if acc + pmf(k) > tail:
            lo = k
            break
        acc += pmf(k)
    acc = 0.0
    hi = n
    for k in range(n, -1, -1):
        if acc + pmf(k) > tail:
            hi = k
            break
        acc += pmf(k)
    return lo, hi


class TestExactLikelihood:
    def test_order0_uniform_pair(self):
        spec = uniform_spec(0, 2)
        assert exact_likelihood(spec, [0, 1, 0]) == 0.125

    def test_order0_empty_sequence(self):
        spec = uniform_spec(0, 2)
        assert exact_likelihood(spec, []) == 1.0

    def test_deterministic_cycle(self):
        spec = cycle_spec(4)
        assert exact_likelihood(spec, [0, 1, 2, 3, 0]) == 0.25
        assert exact_likelihood(spec, [0, 2]) == 0.0

    def test_missing_initial_prefix_is_zero(self):
        spec = MarkovSpec(order=1, alphabet_size=2,
                          transitions={(0,): (0.5, 0.5), (1,): (0.5, 0.5)},
                          initial={(0,): 1.0})
        assert exact_likelihood(spec, [1, 0]) == 0.0

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(ValueError):
            exact_likelihood(uniform_spec(0, 2), [0, 2])

    def test_sequence_shorter_than_order(self):
        with pytest.raises(ValueError):
            exact_likelihood(uniform_spec(2, 2), [0])

    @pytest.mark.parametrize("order,m,length", [(0, 3, 3), (1, 3, 3), (2, 2, 4)])
    def test_total_mass_telescopes_to_one(self, order, m, length):
        spec = helpers.random_markov_spec(random.Random(order * 17 + m), order, m)
        total = math.fsum(
            exact_likelihood(spec, seq)
            for seq in all_sequences(m, length))
        assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12)

    def test_matches_stepwise_product(self):
        spec = helpers.random_markov_spec(random.Random(5), 1, 3)
        seq = [0, 2, 1, 1, 0]
        expected = spec.initial[(0,)]
        for prev, cur in zip(seq, seq[1:]):
            expected *= spec.transitions[(prev,)][cur]
        assert exact_likelihood(spec, seq) == expected


def all_sequences(m, length):
    seqs = [[]]
    for _ in range(length):
        seqs = [s + [sym] for s in seqs for sym in range(m)]
    return seqs


class TestDemoSpecPair:
    def test_rows_are_valid_distributions(self):
        # Construction itself validates; spot-check the designed masses.
        bg, anom = demo_spec_pair(8)
        assert bg.transitions[(0,)][1] == 0.93
        assert bg.transitions[(0,)][2] == 0.05
        assert bg.transitions[(7,)][0] == 0.93
        assert anom.transitions[(3,)] == tuple([1.0 / 8] * 8)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError):
            demo_spec_pair(3)

    def test_rejects_alphabet_past_bound(self):
        # Dense rows hold about 2 * m * m probabilities; past the bound the
        # pair is refused before any row is built.
        with pytest.raises(ValueError, match=f"4 to {MAX_DEMO_ALPHABET}, got"):
            demo_spec_pair(MAX_DEMO_ALPHABET + 1)


class TestCorpusToSequences:
    def test_tokens_match_symbols(self):
        corpus = [([0, 2, 1], Label.NORMAL), ([1, 1], Label.ATTACK)]
        sequences, vocab = corpus_to_sequences(corpus, alphabet_size=3)
        assert len(vocab) == 3
        assert vocab.token_of(0) == symbol_token(0) == "s0"
        assert sequences[0].token_ids == (0, 2, 1)
        assert sequences[0].label is Label.NORMAL
        assert sequences[1].label is Label.ATTACK
        assert [s.window_start for s in sequences] == [0.0, 1.0]

    @pytest.mark.parametrize("symbol", [-1, 3])
    def test_symbol_outside_alphabet_is_refused(self, symbol):
        # Token ids equal symbols, so -1 would name no token, or s2 if it
        # indexed a table from the end.
        corpus = [([0, 1], Label.NORMAL), ([0, symbol, 2], Label.ATTACK)]
        with pytest.raises(ValueError, match="sequence 1 has symbols outside"):
            corpus_to_sequences(corpus, alphabet_size=3)
