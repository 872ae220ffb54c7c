"""The acceptance checklist, one test per criterion.

Each test wraps its body in the criterion() context manager so the
terminal summary (see conftest) prints one PASS/FAIL line per criterion
whatever happens inside. Criterion 10 needs an external labeled capture
and is documented in the README instead of running here.
"""

from __future__ import annotations

import io
import math
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

import _acceptance
import helpers
from flowlang.evaluate import ScoredExample, auc, evaluate, roc_curve
from flowlang.flows import FlowRecord
from flowlang.language import (
    Label,
    SessionPolicy,
    TokenScheme,
    Vocabulary,
    density_bucket,
    log2_bin,
    sessionize,
)
from flowlang.pst import (
    PstParams,
    build_tree,
    count_contexts,
    merge_counts,
    save_model,
    score_sequence,
)
from flowlang.synth import (
    GenConfig,
    corpus_to_sequences,
    demo_spec_pair,
    exact_likelihood,
    generate_corpus,
)


class criterion:
    """Record PASS for the numbered criterion only if the block finishes."""

    def __init__(self, number: int):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _acceptance.record(self.number, exc_type is None)
        return False


def test_criterion_01_exact_recovery():
    started = time.perf_counter()
    with criterion(1):
        for s in range(50):
            order = s % 3
            m = 2 + s % 4
            source = helpers.random_markov_spec(random.Random(s), order, m)
            cfg = GenConfig(n_sequences=30, length_min=order + 4,
                            length_max=order + 10, anomaly_fraction=0.0,
                            seed=777_000 + s)
            corpus = generate_corpus(source, source, cfg)
            id_seqs = [tuple(seq) for seq, _ in corpus]
            counts = count_contexts(id_seqs, order)
            tree = build_tree(counts, helpers.exact_params(order),
                              helpers.small_vocab(m))

            total, _, unigrams, _, follows, _ = helpers.brute_context_stats(
                id_seqs, order)
            for node in tree.iter_nodes():
                if node.context:
                    expected = helpers.brute_conditional(follows, node.context)
                else:
                    expected = {sym: Fraction(c, total)
                                for sym, c in unigrams.items()}
                assert expected is not None
                assert set(node.dist) == set(expected)
                for sym, p in node.dist.items():
                    assert abs(p - float(expected[sym])) <= 1e-12

            fitted = helpers.empirical_spec(corpus, order, m)
            for seq, _ in corpus:
                want = exact_likelihood(fitted, seq)
                got = score_sequence(tree, [f"s{sym}" for sym in seq])
                assert want > 0.0
                assert not got.zero_likelihood
                assert math.isclose(got.likelihood, want,
                                    rel_tol=1e-9, abs_tol=0.0)
        assert time.perf_counter() - started < 60.0


def test_criterion_02_detection_power():
    started = time.perf_counter()
    with criterion(2):
        background, anomaly = demo_spec_pair(8)
        cfg = GenConfig(n_sequences=2000, length_min=30, length_max=70,
                        anomaly_fraction=0.05, seed=20_260_819)
        corpus = generate_corpus(background, anomaly, cfg)
        sequences, vocab = corpus_to_sequences(corpus, 8)
        params = PstParams(epsilon=1e-4)
        counts = count_contexts((s.token_ids for s in sequences), params.depth)
        tree = build_tree(counts, params, vocab)
        triples = []
        for i, s in enumerate(sequences):
            texts = [vocab.token_of(t) for t in s.token_ids]
            triples.append((f"{i:08d}", score_sequence(tree, texts), s.label))
        report = evaluate(triples)
        assert report.n_zero_likelihood == 0
        assert report.n_attack + report.n_normal == 2000
        assert report.auc >= 0.90
        assert time.perf_counter() - started < 60.0


def test_criterion_03_auc_is_rank_statistic():
    with criterion(3):
        rng = random.Random(303)
        for _ in range(100):
            n = rng.randint(2, 200)
            examples = []
            for i in range(n):
                if rng.random() < 0.5:
                    value = rng.choice([0.0, 0.5, 1.0, 1.5, 2.5])
                else:
                    value = rng.uniform(0.0, 5.0)
                label = Label.ATTACK if rng.random() < 0.3 else Label.NORMAL
                examples.append(ScoredExample(f"e{i:04d}", value, label))
            examples[0] = ScoredExample(
                examples[0].id, examples[0].anomaly_score, Label.ATTACK)
            examples[1] = ScoredExample(
                examples[1].id, examples[1].anomaly_score, Label.NORMAL)
            value = auc(roc_curve(examples))
            want = helpers.pairwise_rank_statistic(examples)
            assert abs(value - want) <= 1e-9


def test_criterion_04_threshold_monotonicity():
    with criterion(4):
        background, anomaly = demo_spec_pair(8)
        corpus = generate_corpus(
            background, anomaly, GenConfig(400, 10, 30, 0.1, seed=44))
        sequences, vocab = corpus_to_sequences(corpus, 8)
        counts = count_contexts((s.token_ids for s in sequences), 8)
        node_counts = []
        for threshold in (0.0, 1e-4, 5e-4, 5e-3, 5e-2):
            tree = build_tree(
                counts, PstParams(depth=8, threshold=threshold), vocab)
            node_counts.append(tree.node_count)
        assert node_counts == sorted(node_counts, reverse=True)
        assert node_counts[0] > 1


def serialized(tree) -> str:
    sink = io.StringIO()
    save_model(tree, sink, created=None)
    return sink.getvalue()


def test_criterion_05_shard_invariance():
    with criterion(5):
        background, anomaly = demo_spec_pair(8)
        corpus = generate_corpus(
            background, anomaly, GenConfig(160, 8, 20, 0.1, seed=55))
        sequences, vocab = corpus_to_sequences(corpus, 8)
        id_seqs = [s.token_ids for s in sequences]
        params = PstParams(depth=6, epsilon=1e-4)
        whole = count_contexts(id_seqs, params.depth)
        reference = serialized(build_tree(whole, params, vocab))
        for n_shards in (1, 2, 7, 16):
            parts = [count_contexts(id_seqs[i::n_shards], params.depth)
                     for i in range(n_shards)]
            merged = parts[0]
            for part in parts[1:]:
                merged = merge_counts(merged, part)
            assert merged.max_len == whole.max_len
            assert merged.total_positions == whole.total_positions
            assert merged.n_sequences == whole.n_sequences
            assert merged.starts == whole.starts
            assert merged.occurrences == whole.occurrences
            assert serialized(build_tree(merged, params, vocab)) == reference


def test_criterion_06_structural_invariants():
    with criterion(6):
        background, anomaly = demo_spec_pair(8)
        corpora = [
            generate_corpus(background, anomaly, GenConfig(*shape))
            for shape in ((120, 5, 15, 0.0, 6), (200, 10, 30, 0.2, 7))
        ]
        grid = [
            PstParams(),
            PstParams(depth=3, epsilon=1e-3),
            PstParams(depth=0),
            helpers.exact_params(5),
            PstParams(depth=6, p_min=0.01, threshold=0.005, tau=4.0,
                      epsilon=0.01),
        ]
        for corpus in corpora:
            sequences, vocab = corpus_to_sequences(corpus, 8)
            id_seqs = [s.token_ids for s in sequences]
            for params in grid:
                counts = count_contexts(id_seqs, params.depth)
                tree = build_tree(counts, params, vocab)
                contexts = [node.context for node in tree.iter_nodes()]
                assert len(contexts) == len(set(contexts)) == tree.node_count
                assert helpers.suffix_closed(contexts)
                for node in tree.iter_nodes():
                    assert len(node.context) <= params.depth
                    assert all(0.0 <= p <= 1.0 for p in node.dist.values())
                    assert math.isclose(math.fsum(node.dist.values()), 1.0,
                                        rel_tol=0, abs_tol=1e-9)
                    for sym, child in node.children.items():
                        assert child.context == (sym,) + node.context
                    if params.epsilon > 0.0:
                        smoothed = tree.smoothed_dist(node)
                        assert math.isclose(math.fsum(smoothed.values()), 1.0,
                                            rel_tol=0, abs_tol=1e-9)
                        assert all(p >= params.epsilon
                                   for p in smoothed.values())


def test_criterion_07_bucketing_tables():
    with criterion(7):
        expected_log2 = {
            0: "z", 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 7: 2, 8: 3, 9: 3,
            255: 7, 256: 8, 1023: 9, 1024: 10, 1500: 10, 2047: 10,
            2048: 11, 65535: 15, 65536: 16, 10**9: 29,
        }
        assert {v: log2_bin(v) for v in expected_log2} == expected_log2
        for exp in range(40):
            assert log2_bin(2 ** exp) == exp
            assert log2_bin(2 ** (exp + 1) - 1) == exp
        expected_density = {
            (0, 0, 10): "z", (500, 0, 10): "z", (1000, 10, 10): 10,
            (55, 2, 10): 2, (999, 1, 10): 99, (5, 2, 10): 0,
            (1000, 10, 25): 4, (7, 7, 1): 1,
        }
        assert {k: density_bucket(*k) for k in expected_density} \
            == expected_density
        with pytest.raises(ValueError):
            log2_bin(-1)


def test_criterion_08_sessionization_partition():
    with criterion(8):
        rng = random.Random(88)
        ips = [f"10.0.0.{i}" for i in range(8)]
        flows = []
        for _ in range(1000):
            src, dst = rng.sample(ips, 2)
            flows.append(FlowRecord(
                ts=rng.uniform(0.0, 50_000.0),
                src_ip=src, src_port=rng.randint(1, 65535),
                dst_ip=dst, dst_port=rng.randint(1, 65535),
                protocol=rng.choice(["tcp", "udp", "icmp"]),
                orig_bytes=rng.randint(0, 10_000),
                resp_bytes=rng.randint(0, 10_000),
                orig_pkts=rng.randint(0, 50), resp_pkts=rng.randint(0, 50),
                duration=rng.uniform(0.0, 30.0),
                label=rng.choice([Label.ATTACK, Label.NORMAL, Label.UNLABELED]),
            ))
        sequences, _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert sum(len(s.token_ids) for s in sequences) == 1000

        want: dict[tuple[str, str, float], int] = {}
        for f in flows:
            lo, hi = sorted((f.src_ip, f.dst_ip))
            window = math.floor(f.ts / 3600.0) * 3600.0
            key = (lo, hi, window)
            want[key] = want.get(key, 0) + 1
        got: dict[tuple[str, str, float], int] = {}
        for s in sequences:
            key = (s.ip_low, s.ip_high, s.window_start)
            assert key not in got
            got[key] = len(s.token_ids)
        assert got == want
        assert all(s.window_start % 3600.0 == 0.0 for s in sequences)


def test_criterion_09_wordlist_demo():
    with criterion(9):
        text = resources.files("flowlang").joinpath(
            "data/words.txt").read_text("utf-8")
        words = [w.strip() for w in text.splitlines() if w.strip()]
        probes = ("actions", "stations", "chutzpah", "syzygy")
        for probe in probes:
            assert probe in words
        vocab = Vocabulary()
        id_seqs = [tuple(vocab.add(ch) for ch in word) for word in words]
        params = PstParams()
        counts = count_contexts(id_seqs, params.depth)
        tree = build_tree(counts, params, vocab)
        loss = {w: score_sequence(tree, list(w)).per_symbol_log_loss
                for w in probes}
        for rare in ("chutzpah", "syzygy"):
            for common in ("actions", "stations"):
                assert loss[rare] > loss[common]


@pytest.mark.skip(reason="needs the external labeled capture; the recipe "
                         "and expected range live in the README")
def test_criterion_10_manual_recipe():
    pass
