"""Output checks that do not trust the code under test.

Everything here reads the files the CLI wrote, with its own parsers: a
reference scorer that walks the model JSON directly, an AUC computed as
the Mann-Whitney statistic, and sha256 digests for byte-identity.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REL_TOL = 1e-9
AUC_TOL = 1e-9
SAMPLE_SIZE = 16


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_sequences(path: Path) -> list[tuple[str, list[str]]]:
    """(label, token texts) per sequence of a sequences file."""
    vocab: list[str] = []
    sequences = []
    n_vocab = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if n_vocab is None:
                if line.startswith("#vocab"):
                    n_vocab = int(line.split()[1])
                continue
            if len(vocab) < n_vocab:
                vocab.append(line.split("\t")[1])
                continue
            if not line or line.startswith("#"):
                continue
            label, _, _, _, ids = line.split("\t")
            sequences.append((label, [vocab[int(i)] for i in ids.split()]))
    return sequences


def read_scores(path: Path) -> list[tuple[float, bool]]:
    """(per_symbol_log_loss, zero_likelihood) per row of a scores CSV."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for i, line in enumerate(fh):
            seq_id, _, loss, zero = line.rstrip("\n").split(",")
            if int(seq_id) != i:
                raise ValueError(f"scores row {i} has id {seq_id}")
            rows.append((float(loss), zero == "true"))
    return rows


class ReferenceModel:
    """The model JSON scored the slow, obvious way: at each position the
    longest stored suffix of the history, then the epsilon floor."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.depth = doc["params"]["depth"]
        self.epsilon = doc["params"]["epsilon"]
        self.vocab = {token: i for i, token in enumerate(doc["vocab"])}
        self.nodes = {
            tuple(node["context"]): {sym: p for sym, p in node["dist"]}
            for node in doc["nodes"]
        }

    def log_loss(self, tokens: list[str]) -> float:
        if not tokens:
            return 0.0
        if any(t not in self.vocab for t in tokens):
            return math.inf
        ids = [self.vocab[t] for t in tokens]
        m, eps = len(self.vocab), self.epsilon
        log2_lik = 0.0
        for i, sym in enumerate(ids):
            for k in range(min(i, self.depth), -1, -1):
                dist = self.nodes.get(tuple(ids[i - k:i]))
                if dist is not None:
                    break
            p = dist.get(sym, 0.0)
            if eps:
                p = (1.0 - m * eps) * p + eps
            if p <= 0.0:
                return math.inf
            log2_lik += math.log2(p)
        return -log2_lik / len(ids)


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_scores(model: Path, sequences, scores, seed: int) -> list[str]:
    """Re-score a seeded sample of sequences; return disagreements."""
    if len(scores) != len(sequences):
        return [f"{len(scores)} score rows for {len(sequences)} sequences"]
    ref = ReferenceModel(model)
    sample = random.Random(seed).sample(range(len(sequences)), min(SAMPLE_SIZE, len(sequences)))
    problems = []
    for i in sorted(sample):
        want = ref.log_loss(sequences[i][1])
        got, zero = scores[i]
        if not _close(want, got) or zero != math.isinf(want):
            problems.append(f"sequence {i}: reference log loss {want!r}, scores CSV {got!r}")
    return problems


def mann_whitney_auc(sequences, scores, zero_policy: str) -> float:
    """P(attack outranks normal) by per-symbol log loss, ties counted half."""
    ranked = []
    for (label, _), (loss, zero) in zip(sequences, scores):
        if label not in ("attack", "normal"):
            continue
        if zero:
            if zero_policy == "exclude_zero":
                continue
            loss = math.inf
        ranked.append((loss, label == "attack"))
    ranked.sort(key=lambda pair: pair[0])
    n_attack = sum(1 for _, attack in ranked if attack)
    n_normal = len(ranked) - n_attack
    rank_sum = 0.0
    start = 0
    while start < len(ranked):
        end = start
        while end < len(ranked) and ranked[end][0] == ranked[start][0]:
            end += 1
        mid_rank = (start + 1 + end) / 2
        rank_sum += mid_rank * sum(1 for _, attack in ranked[start:end] if attack)
        start = end
    return (rank_sum - n_attack * (n_attack + 1) / 2) / (n_attack * n_normal)


def check_auc(report: Path, sequences, scores, zero_policy: str) -> tuple[float, list[str]]:
    """The report's AUC, and a problem if the recomputed one disagrees."""
    with open(report, encoding="utf-8") as fh:
        reported = json.load(fh)["auc"]
    want = mann_whitney_auc(sequences, scores, zero_policy)
    if abs(want - reported) > AUC_TOL:
        return reported, [f"report.json auc {reported!r}, Mann-Whitney {want!r}"]
    return reported, []
