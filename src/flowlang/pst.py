"""Probabilistic suffix tree: counting, construction, scoring, persistence.

The tree stores contexts (recent-history suffixes) with their empirical
next-symbol distributions. Construction keeps a context only when it is
frequent enough and predicts some symbol markedly differently from its
own suffix; scoring walks the longest stored suffix per position.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import compress, repeat
from operator import add
from typing import Iterable, Sequence as Seq, TextIO

from .errors import CorruptModelError, ModelVersionError
from .language import Vocabulary

MODEL_VERSION = 1

# Smallest positive float; reported instead of 0.0 when the likelihood
# underflows but the log-likelihood is finite, so likelihood == 0 remains
# synonymous with the zero_likelihood flag.
_TINY = 5e-324


@dataclass(frozen=True, slots=True)
class PstParams:
    """Construction hyperparameters.

    depth: maximum context length L. p_min: minimum context frequency
    N(s)/total for candidacy. threshold: minimum conditional probability a
    symbol must reach for the retention test. tau: retention keeps a
    context when some conditional differs from its suffix's by a factor
    of tau or more (either direction). epsilon: uniform smoothing floor
    mixed into every queried distribution.
    """

    depth: int = 14
    p_min: float = 0.0001
    threshold: float = 0.0005
    tau: float = 10.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if not 0.0 <= self.p_min <= 1.0:
            raise ValueError(f"p_min must be in [0, 1], got {self.p_min}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if not (math.isfinite(self.tau) and self.tau >= 1.0):
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")


@dataclass
class ContextCounts:
    """Count table for contexts up to max_len symbols.

    occurrences[s] counts s as a contiguous substring. It holds every
    unigram, and every one-symbol extension s + (sym,) of a frequent
    context s: one of at most max_len symbols that occurs in at least a
    p_min fraction of all positions. So a frequent context s is followed
    by sym occurrences[s + (sym,)] times within a sequence. starts[sym]
    counts the sequences that begin with sym: the empty context is
    followed by sym at every position but a sequence's first,
    occurrences[(sym,)] - starts[sym] times. The empty context itself
    occurs total_positions times. With p_min 0 every context is frequent,
    so the table holds every substring of 1 to max_len + 1 symbols and
    tables of disjoint corpora merge by summing (merge_counts).
    """

    max_len: int
    total_positions: int = 0
    n_sequences: int = 0
    starts: dict[int, int] = field(default_factory=dict)
    occurrences: dict[tuple[int, ...], int] = field(default_factory=dict)
    p_min: float = 0.0


def _min_count(p_min: float, total: int) -> int:
    """The fewest occurrences that make a context frequent among total
    positions: the least integer occ with occ / total >= p_min, computed
    on p_min's exact binary value so no division rounds the gate."""
    n, d = p_min.as_integer_ratio()
    return -(-n * total // d)


def count_contexts(id_sequences: Iterable[Seq[int]], max_len: int,
                   p_min: float = 0.0) -> ContextCounts:
    """Count, level by level, the contexts a tree with this p_min can use.

    Occurrence counts are anti-monotone: a context occurs no more often
    than its prefix, so only the extensions of a frequent context can be
    frequent (Ron, Singer & Tishby, The Power of Amnesia, 1996). Level k
    counts the extensions of the frequent contexts of level k - 1, at the
    positions where those occur, and only the positions whose extension
    is frequent go on to level k + 1.

    Args:
        id_sequences: iterable of token-id sequences, ids >= 0; a sentinel
            follows each sequence, so no context spans a boundary.
        max_len: longest context length to extend; one more symbol is
            counted so every frequent context's successor counts are in
            the table (0 counts only unigrams).
        p_min: frequency gate, as in PstParams; 0 keeps every context.

    Returns:
        ContextCounts with every unigram and every one-symbol extension of
        a frequent context of at most max_len symbols.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if not 0.0 <= p_min <= 1.0:
        raise ValueError(f"p_min must be in [0, 1], got {p_min}")
    counts = ContextCounts(max_len=max_len, p_min=p_min)
    starts = counts.starts
    occurrences = counts.occurrences

    # The corpus as one flat list, each sequence followed by a sentinel
    # slot that is set to m, one past the largest id, once m is known.
    flat: list[int] = []
    ends: list[int] = []
    for raw in id_sequences:
        begin = len(flat)
        flat.extend(raw)
        if len(flat) > begin:
            starts[flat[begin]] = starts.get(flat[begin], 0) + 1
        ends.append(len(flat))
        flat.append(0)
    lowest = min(flat, default=0)
    if lowest < 0:
        raise ValueError(f"token ids must be >= 0, got {lowest}")
    counts.n_sequences = len(ends)
    counts.total_positions = total = len(flat) - len(ends)
    m = max(flat, default=0) + 1
    for end in ends:
        flat[end] = m

    # A live position j starts a frequent context of length - 1 symbols
    # and carries its dense rank (from 1, so a kept rank is never falsy)
    # times stride; adding the symbol after the context packs the
    # extension into one integer key, with no tuple per position. Level 1
    # extends the empty context, rank 1, at every position.
    stride = m + 1
    min_count = _min_count(p_min, total)
    contexts: list = [None, ()]
    ranks: Iterable[int] = repeat(stride, len(flat))
    positions: Iterable[int] = range(len(flat))
    for length in range(1, max_len + 2):
        shifted = flat[length - 1:]
        keys = list(map(add, ranks, map(shifted.__getitem__, positions)))
        del shifted
        grow = length <= max_len
        frequent: dict[int, int] = {}
        extended: list = [None]
        for key, occ in Counter(keys).items():
            rank, sym = divmod(key, stride)
            if sym == m:
                continue
            ctx = contexts[rank] + (sym,)
            occurrences[ctx] = occ
            if grow and occ >= min_count:
                frequent[key] = len(extended) * stride
                extended.append(ctx)
        if not frequent:
            break
        selected = list(map(frequent.get, keys))
        del keys
        ranks = list(filter(None, selected))
        positions = array("q", compress(positions, selected))
        del selected
        contexts = extended
    return counts


def merge_counts(a: ContextCounts, b: ContextCounts) -> ContextCounts:
    """Entrywise sum of two exhaustive count tables; commutative and
    associative. A gate applied to one shard is not the gate of the whole
    corpus, so a table counted with p_min > 0 is refused."""
    if a.max_len != b.max_len:
        raise ValueError(f"max_len mismatch: {a.max_len} vs {b.max_len}")
    if a.p_min or b.p_min:
        raise ValueError(
            f"cannot merge tables counted with p_min > 0: {a.p_min}, {b.p_min}")
    merged = ContextCounts(
        max_len=a.max_len,
        total_positions=a.total_positions + b.total_positions,
        n_sequences=a.n_sequences + b.n_sequences,
    )
    for src in (a, b):
        for table, dst in ((src.starts, merged.starts),
                           (src.occurrences, merged.occurrences)):
            for key, c in table.items():
                dst[key] = dst.get(key, 0) + c
    return merged


@dataclass
class PstNode:
    """One stored context: its raw conditional and links one symbol
    deeper into the past (child context = (sym,) + this context)."""

    context: tuple[int, ...]
    dist: dict[int, float]
    children: dict[int, "PstNode"] = field(default_factory=dict)
    # log2 of the smoothed row, indexed by symbol (-inf for a zero
    # probability); filled on the node's first use by score_sequence.
    log2_row: list[float] | None = field(default=None, repr=False, compare=False)


@dataclass
class Pst:
    root: PstNode
    params: PstParams
    vocab: Vocabulary
    n_train_sequences: int = 0
    n_train_tokens: int = 0

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterable[PstNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def smoothed(self, node: PstNode, sym: int) -> float:
        """P(sym | node) with the uniform epsilon floor mixed in."""
        raw = node.dist.get(sym, 0.0)
        eps = self.params.epsilon
        if eps == 0.0:
            return raw
        return (1.0 - len(self.vocab) * eps) * raw + eps

    def smoothed_dist(self, node: PstNode) -> dict[int, float]:
        return {sym: self.smoothed(node, sym) for sym in range(len(self.vocab))}


def _conditional(row: dict[int, int]) -> dict[int, float]:
    total = sum(row.values())
    return {sym: c / total for sym, c in row.items()}


def _check_epsilon(epsilon: float, m: int) -> None:
    """Raise ValueError unless the epsilon floor leaves the raw row some
    mass over an m-token vocabulary, i.e. epsilon < 1/m."""
    if epsilon > 0.0 and (m == 0 or epsilon >= 1.0 / m):
        raise ValueError(f"epsilon {epsilon} must be < 1/{m} for this vocabulary")


def build_tree(counts: ContextCounts, params: PstParams, vocab: Vocabulary) -> Pst:
    """Construct a PST from count tables.

    Candidates are observed contexts with frequency >= p_min. A candidate
    is retained when some symbol has conditional probability >= threshold
    AND that conditional differs from the suffix context's by a factor
    >= tau in either direction (a zero suffix conditional with a positive
    numerator counts as an infinite ratio). Retained contexts are closed
    under suffixes. The root always exists and holds the order-0
    (marginal) distribution. The counts must cover depth symbols, be
    gated at no more than p_min, and hold only ids of vocab.
    """
    m = len(vocab)
    _check_epsilon(params.epsilon, m)
    if counts.max_len < params.depth:
        raise ValueError(
            f"counts cover contexts up to {counts.max_len} symbols, need {params.depth}")
    if params.p_min < counts.p_min:
        raise ValueError(
            f"counts keep contexts of frequency >= {counts.p_min}, need {params.p_min}")

    # The gates compare count ratios against float parameters. Doing that
    # in integer arithmetic on the parameters' exact binary values keeps
    # boundary cases (a ratio of exactly tau, a frequency of exactly
    # p_min) deterministic instead of at the mercy of division rounding.
    total = counts.total_positions
    min_count = _min_count(params.p_min, total)
    thr_n, thr_d = params.threshold.as_integer_ratio()
    tau_n, tau_d = params.tau.as_integer_ratio()
    occurrences = counts.occurrences
    # Successor rows of the candidates: each entry one symbol longer than
    # a candidate is a successor count of it. A candidate's suffix is at
    # least as frequent, so its row exists too; () collects the unigrams.
    rows: dict[tuple[int, ...], dict[int, int]] = {(): {}}
    for ctx, occ in occurrences.items():
        if len(ctx) <= params.depth and occ >= min_count:
            rows[ctx] = {}
    for ctx, occ in occurrences.items():
        row = rows.get(ctx[:-1])
        if row is not None:
            row[ctx[-1]] = occ
    unigrams = rows[()]
    if unigrams and not (min(unigrams) >= 0 and max(unigrams) < m):
        raise ValueError(
            f"counted symbols {min(unigrams)}..{max(unigrams)} fall outside "
            f"the {m}-token vocabulary")
    # With no training data the root is uniform over the vocabulary.
    root_dist = _conditional(unigrams) if total else {sym: 1.0 / m for sym in range(m)}
    starts = counts.starts
    rows[()] = {sym: c - starts.get(sym, 0) for sym, c in unigrams.items()
                if c > starts.get(sym, 0)}

    kept: set[tuple[int, ...]] = set()
    for ctx, ctx_follows in rows.items():
        if not (ctx and ctx_follows):
            continue
        suffix_follows = rows[ctx[1:]]
        denom_p = sum(ctx_follows.values())
        denom_q = sum(suffix_follows.values())
        for sym in set(ctx_follows) | set(suffix_follows):
            cp = ctx_follows.get(sym, 0)
            # threshold gate: cp/denom_p >= threshold
            if cp * thr_d < thr_n * denom_p:
                continue
            cq = suffix_follows.get(sym, 0)
            if cp == 0 and cq == 0:
                continue
            # ratio (cp/denom_p)/(cq/denom_q) vs tau, cq == 0 -> +inf
            lhs = cp * denom_q
            rhs = cq * denom_p
            if cq == 0 or lhs * tau_d >= tau_n * rhs or lhs * tau_n <= rhs * tau_d:
                kept.add(ctx)
                break

    closed: set[tuple[int, ...]] = set()
    for ctx in kept:
        for k in range(len(ctx)):
            closed.add(ctx[k:])

    root = PstNode(context=(), dist=root_dist)
    nodes: dict[tuple[int, ...], PstNode] = {(): root}
    for ctx in sorted(closed, key=lambda c: (len(c), c)):
        node = PstNode(context=ctx, dist=_conditional(rows[ctx]))
        nodes[ctx] = node
        nodes[ctx[1:]].children[ctx[0]] = node

    return Pst(
        root=root,
        params=params,
        vocab=vocab,
        n_train_sequences=counts.n_sequences,
        n_train_tokens=counts.total_positions,
    )


def lookup_context(pst: Pst, history: Seq[int]) -> PstNode:
    """Node of the longest stored suffix of history; root when none match."""
    node = pst.root
    for sym in reversed(history):
        child = node.children.get(sym)
        if child is None:
            break
        node = child
    return node


@dataclass(frozen=True, slots=True)
class Score:
    likelihood: float
    log2_likelihood: float
    per_symbol_log_loss: float
    zero_likelihood: bool
    length: int


def _zero_score(length: int) -> Score:
    return Score(
        likelihood=0.0,
        log2_likelihood=-math.inf,
        per_symbol_log_loss=math.inf,
        zero_likelihood=True,
        length=length,
    )


def _log2_row(pst: Pst, node: PstNode) -> list[float]:
    """log2 of pst.smoothed(node, sym) for every symbol, cached on node."""
    eps = pst.params.epsilon
    row = [math.log2(eps) if eps > 0.0 else -math.inf] * len(pst.vocab)
    for sym in node.dist:
        p = pst.smoothed(node, sym)
        row[sym] = math.log2(p) if p > 0.0 else -math.inf
    node.log2_row = row
    return row


def score_sequence(pst: Pst, tokens: Iterable[str]) -> Score:
    """Likelihood of a token sequence under the tree.

    Each position is predicted from the longest stored suffix of the
    preceding tokens. No stored context is longer than params.depth, so
    the walk looks back at most that many symbols and scoring is linear
    in the sequence length. An out-of-vocabulary token, or any zero
    smoothed probability, makes the whole sequence zero-likelihood.
    Accumulation happens in log2 space; the reported likelihood is
    clamped to the smallest positive float when exponentiation underflows.
    """
    texts = list(tokens)
    n = len(texts)
    if n == 0:
        return Score(1.0, 0.0, 0.0, False, 0)

    ids: list[int] = []
    for t in texts:
        i = pst.vocab.id_of(t)
        if i is None:
            return _zero_score(n)
        ids.append(i)

    root = pst.root
    depth = pst.params.depth
    log2_lik = 0.0
    for i, sym in enumerate(ids):
        node = root
        for j in range(i - 1, i - depth - 1 if i > depth else -1, -1):
            child = node.children.get(ids[j])
            if child is None:
                break
            node = child
        lp = (node.log2_row or _log2_row(pst, node))[sym]
        if lp == -math.inf:
            return _zero_score(n)
        log2_lik += lp

    likelihood = 2.0 ** log2_lik
    if likelihood == 0.0:
        likelihood = _TINY
    loss = -log2_lik / n + 0.0
    return Score(likelihood, log2_lik, loss, False, n)


def flag_anomalies(scores: Iterable[tuple[str, Score]],
                   limit: float) -> tuple[list[str], list[str]]:
    """Split scored ids into (flagged, zero_likelihood).

    Flagged ids have 0 < likelihood < limit, ordered ascending by
    likelihood (id breaks ties). Zero-likelihood ids cannot be ranked by
    likelihood and are returned separately, in input order.
    """
    if not 0.0 < limit <= 1.0:
        raise ValueError(f"limit must be in (0, 1], got {limit}")
    pairs = list(scores)
    flagged = [
        seq_id
        for _, seq_id in sorted(
            (s.likelihood, seq_id)
            for seq_id, s in pairs
            if not s.zero_likelihood and s.likelihood < limit
        )
    ]
    zeros = [seq_id for seq_id, s in pairs if s.zero_likelihood]
    return flagged, zeros


def save_model(pst: Pst, sink: TextIO, created: str | None = None) -> None:
    """Write the versioned model document.

    Raw distributions are stored as binary floats (via their shortest
    decimal repr), so a load never re-derives probabilities and scores
    are bit-equal across a save/load round trip.
    """
    nodes = sorted(pst.iter_nodes(), key=lambda nd: (len(nd.context), nd.context))
    doc: dict = {
        "version": MODEL_VERSION,
        "params": asdict(pst.params),
        "vocab": pst.vocab.tokens(),
        "training": {
            "n_sequences": pst.n_train_sequences,
            "n_tokens": pst.n_train_tokens,
        },
        "nodes": [
            {
                "context": list(nd.context),
                "dist": [[sym, p] for sym, p in sorted(nd.dist.items())],
            }
            for nd in nodes
        ],
    }
    if created is not None:
        doc["created"] = created
    json.dump(doc, sink, sort_keys=True, indent=1)
    sink.write("\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CorruptModelError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_model(source: TextIO) -> Pst:
    """Parse and validate a model document written by save_model."""
    try:
        doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise CorruptModelError(f"model is not valid JSON: {exc}") from None

    _require(isinstance(doc, dict), "model document is not an object")
    version = doc.get("version")
    _require(_is_int(version), "missing or non-integer version field")
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"model version {version} not supported (expected {MODEL_VERSION})")

    raw_vocab = doc.get("vocab")
    _require(isinstance(raw_vocab, list), "missing vocab list")
    _require(all(isinstance(t, str) for t in raw_vocab), "non-string vocab entry")
    try:
        vocab = Vocabulary(raw_vocab)
    except ValueError as exc:
        raise CorruptModelError(f"bad vocab: {exc}") from None
    _require(len(vocab) == len(raw_vocab), "duplicate vocab tokens")
    m = len(vocab)

    raw_params = doc.get("params")
    _require(isinstance(raw_params, dict), "missing params object")
    _require(_is_int(raw_params.get("depth")), "missing or non-integer depth")
    real_params = ("p_min", "threshold", "tau", "epsilon")
    for name in real_params:
        _require(_is_number(raw_params.get(name)), f"missing or non-numeric {name}")
    try:
        params = PstParams(raw_params["depth"],
                           **{name: float(raw_params[name]) for name in real_params})
        _check_epsilon(params.epsilon, m)
    except (OverflowError, ValueError) as exc:
        raise CorruptModelError(f"bad params: {exc}") from None

    training = doc.get("training")
    _require(isinstance(training, dict), "missing training object")
    n_sequences = training.get("n_sequences")
    n_tokens = training.get("n_tokens")
    _require(
        _is_int(n_sequences) and n_sequences >= 0
        and _is_int(n_tokens) and n_tokens >= 0,
        "bad training counts")

    raw_nodes = doc.get("nodes")
    _require(isinstance(raw_nodes, list) and raw_nodes, "missing nodes list")
    nodes: dict[tuple[int, ...], PstNode] = {}
    for entry in raw_nodes:
        _require(isinstance(entry, dict), "node entry is not an object")
        raw_ctx = entry.get("context")
        _require(isinstance(raw_ctx, list), "node missing context")
        _require(
            all(_is_int(s) and 0 <= s < m for s in raw_ctx),
            f"context symbol out of range in {raw_ctx!r}")
        ctx = tuple(raw_ctx)
        _require(len(ctx) <= params.depth, f"context longer than depth: {raw_ctx!r}")
        _require(ctx not in nodes, f"duplicate context {raw_ctx!r}")
        raw_dist = entry.get("dist")
        _require(isinstance(raw_dist, list), "node missing dist")
        dist: dict[int, float] = {}
        for item in raw_dist:
            _require(
                isinstance(item, list) and len(item) == 2, "malformed dist entry")
            sym, p = item
            _require(_is_int(sym) and 0 <= sym < m,
                     f"dist symbol out of range: {sym!r}")
            _require(_is_number(p) and 0.0 <= p <= 1.0,
                     f"dist probability out of range: {p!r}")
            _require(sym not in dist, f"duplicate dist symbol {sym}")
            dist[sym] = float(p)
        # Only an empty vocabulary (an empty corpus) leaves a row empty.
        total = math.fsum(dist.values())
        _require(m == 0 or abs(total - 1.0) <= 1e-9,
                 f"dist of {raw_ctx!r} sums to {total!r}, not 1")
        nodes[ctx] = PstNode(context=ctx, dist=dist)

    root = nodes.get(())
    _require(root is not None, "missing root node")
    for ctx, node in nodes.items():
        if not ctx:
            continue
        parent = nodes.get(ctx[1:])
        _require(parent is not None,
                 f"suffix closure broken: no parent for {list(ctx)!r}")
        parent.children[ctx[0]] = node

    return Pst(
        root=root,
        params=params,
        vocab=vocab,
        n_train_sequences=n_sequences,
        n_train_tokens=n_tokens,
    )
