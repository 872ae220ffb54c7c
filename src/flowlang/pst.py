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
from dataclasses import asdict, dataclass, field, fields
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class PstParams:
    """Construction hyperparameters.

    depth: maximum context length L. p_min: minimum context frequency
    N(s)/total for candidacy. threshold: minimum conditional probability a
    symbol must reach for the retention test. tau: retention keeps a
    context when some conditional differs from its suffix's by a factor
    of tau or more (either direction). epsilon: uniform smoothing floor
    mixed into every queried distribution. depth is an int; the other
    four are stored as floats, so equal params save as equal bytes. A
    bool is neither.
    """

    depth: int = 14
    p_min: float = 0.0001
    threshold: float = 0.0005
    tau: float = 10.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not _is_int(self.depth):
            raise ValueError(f"depth must be an int, got {self.depth!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if not _is_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            object.__setattr__(self, f.name, float(value))
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
    """One stored context: its raw conditional, the log2 of its smoothed
    row indexed by symbol (-inf for a zero probability), and links one
    symbol deeper into the past (child context = (sym,) + this context)."""

    context: tuple[int, ...]
    dist: dict[int, float]
    children: dict[int, "PstNode"] = field(default_factory=dict)
    log2_row: list[float] = field(default_factory=list, repr=False, compare=False)


@dataclass
class Pst:
    """A tree as its node table, sorted by (len(context), context), so
    nodes[0] is the root. make_tree builds it and checks it."""

    nodes: list[PstNode]
    params: PstParams
    vocab: Vocabulary
    n_train_sequences: int = 0
    n_train_tokens: int = 0

    @property
    def root(self) -> PstNode:
        return self.nodes[0]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def iter_nodes(self) -> Iterable[PstNode]:
        return iter(self.nodes)

    def smoothed(self, node: PstNode, sym: int) -> float:
        """P(sym | node) with the uniform epsilon floor mixed in."""
        raw = node.dist.get(sym, 0.0)
        eps = self.params.epsilon
        if eps == 0.0:
            return raw
        return (1.0 - len(self.vocab) * eps) * raw + eps

    def smoothed_dist(self, node: PstNode) -> dict[int, float]:
        return {sym: self.smoothed(node, sym) for sym in range(len(self.vocab))}


def _log2(p: float) -> float:
    return math.log2(p) if p > 0.0 else -math.inf


def make_tree(dists: dict[tuple[int, ...], dict[int, float]], params: PstParams,
              vocab: Vocabulary, n_sequences: int = 0, n_tokens: int = 0) -> Pst:
    """The tree whose contexts are the keys of dists, each with its raw
    next-symbol distribution.

    Raises ValueError unless the contexts hold the root and are closed
    under suffixes, none is longer than params.depth, every symbol is an
    id of vocab, every row is a distribution (probabilities in [0, 1]
    summing to 1 within 1e-9; only the root of an empty vocabulary is
    empty) and params.epsilon leaves the rows some mass.
    """
    m = len(vocab)
    _check_epsilon(params.epsilon, m)
    if () not in dists:
        raise ValueError("missing root node")
    pst = Pst([], params, vocab, n_sequences, n_tokens)
    # The smoothed log2 probability of a symbol that a row lacks.
    unseen = _log2(pst.smoothed(PstNode((), {}), 0))
    nodes: dict[tuple[int, ...], PstNode] = {}
    for ctx in sorted(dists, key=lambda c: (len(c), c)):
        dist = dists[ctx]
        if len(ctx) > params.depth:
            raise ValueError(f"context {list(ctx)} is longer than depth {params.depth}")
        for sym in (*ctx, *dist):
            if not 0 <= sym < m:
                raise ValueError(
                    f"symbol {sym} of context {list(ctx)} falls outside the "
                    f"{m}-token vocabulary")
        if not all(0.0 <= p <= 1.0 for p in dist.values()) \
                or m and abs(math.fsum(dist.values()) - 1.0) > 1e-9:
            raise ValueError(f"dist of {list(ctx)} is not a distribution: {dist}")
        node = nodes[ctx] = PstNode(ctx, dist)
        node.log2_row = row = [unseen] * m
        for sym in dist:
            row[sym] = _log2(pst.smoothed(node, sym))
        if ctx:
            parent = nodes.get(ctx[1:])
            if parent is None:
                raise ValueError(f"suffix closure broken: no node for {list(ctx[1:])}, "
                                 f"the suffix of {list(ctx)}")
            parent.children[ctx[0]] = node
        pst.nodes.append(node)
    return pst


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

    closed = {ctx[k:] for ctx in kept for k in range(len(ctx))}
    dists = {ctx: _conditional(rows[ctx]) for ctx in closed}
    # With no training data the root is uniform over the vocabulary.
    m = len(vocab)
    dists[()] = _conditional(unigrams) if total else {sym: 1.0 / m for sym in range(m)}
    return make_tree(dists, params, vocab, counts.n_sequences, total)


def lookup_context(pst: Pst, history: Seq[int]) -> PstNode:
    """Node of the longest stored suffix of history; root when none match.

    This is the one walk that scoring takes. make_tree refuses any context
    longer than params.depth, so the tree itself ends the walk within depth
    symbols; score_sequence passes only the last depth ids so that each
    step copies no more than that.
    """
    node = pst.nodes[0]
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


def score_sequence(pst: Pst, tokens: Iterable[str]) -> Score:
    """Likelihood of a token sequence under the tree.

    Each position is predicted from the longest stored suffix of the
    preceding tokens, found by lookup_context. No stored context is
    longer than params.depth, so the walk looks back at most that many
    symbols and scoring is linear in the sequence length. An
    out-of-vocabulary token, or any zero smoothed probability, makes the
    whole sequence zero-likelihood. Accumulation happens in log2 space;
    the reported likelihood is clamped to the smallest positive float
    when exponentiation underflows.
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

    depth = pst.params.depth
    log2_lik = 0.0
    for i, sym in enumerate(ids):
        lp = lookup_context(pst, ids[i - depth if i > depth else 0:i]).log2_row[sym]
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
            for nd in pst.nodes
        ],
    }
    if created is not None:
        doc["created"] = created
    json.dump(doc, sink, sort_keys=True, indent=1)
    sink.write("\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CorruptModelError(message)


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

    raw_params = doc.get("params")
    names = {f.name for f in fields(PstParams)}
    _require(isinstance(raw_params, dict) and raw_params.keys() == names,
             f"params must be exactly {sorted(names)}")

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
    for entry in raw_nodes:
        _require(isinstance(entry, dict), "node entry is not an object")
        ctx, dist = entry.get("context"), entry.get("dist")
        _require(isinstance(ctx, list) and all(map(_is_int, ctx)) and isinstance(dist, list)
                 and all(isinstance(item, list) and len(item) == 2 and _is_int(item[0])
                         and _is_number(item[1]) for item in dist)
                 and len({sym for sym, _ in dist}) == len(dist),
                 f"node is not a context and a [symbol, probability] list: {entry!r}")
    _require(len({tuple(entry["context"]) for entry in raw_nodes}) == len(raw_nodes),
             "duplicate context")

    try:
        params = PstParams(**raw_params)
        dists = {tuple(entry["context"]): {sym: float(p) for sym, p in entry["dist"]}
                 for entry in raw_nodes}
        return make_tree(dists, params, vocab, n_sequences, n_tokens)
    except (OverflowError, ValueError) as exc:
        raise CorruptModelError(f"bad model: {exc}") from None
