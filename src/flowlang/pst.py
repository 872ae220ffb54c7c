"""Probabilistic suffix tree: counting, construction, scoring, persistence.

The tree stores contexts (recent-history suffixes) with their empirical
next-symbol distributions. Construction keeps a context only when it is
frequent enough and predicts some symbol markedly differently from its
own suffix. Scoring runs the tree's suffix automaton: one state per
prefix of a stored context, each carrying the row of its longest stored
suffix, so each position costs one edge step instead of a walk back
through the tree.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from typing import Iterable, Sequence as Seq, TextIO

from .errors import CorruptModelError, ModelVersionError
from .language import Vocabulary

MODEL_VERSION = 1

# Smallest positive float; reported instead of 0.0 when the likelihood
# underflows but the log-likelihood is finite, so likelihood == 0 remains
# synonymous with an infinite loss, as Score requires.
_TINY = 5e-324


@dataclass(frozen=True)
class PstParams:
    """Construction hyperparameters.

    depth: maximum context length L. p_min: minimum context frequency
    N(s)/total for candidacy. threshold: minimum conditional probability a
    symbol must reach for the retention test. tau: retention keeps a
    context when some conditional differs from its suffix's by a factor
    of tau or more (either direction). epsilon: uniform smoothing floor
    mixed into every queried distribution. depth is an int; the other
    four are floats, or ints within float range stored as floats, so
    equal params save as equal bytes. A bool or a subclass is neither.
    """

    depth: int = 14
    p_min: float = 0.0001
    threshold: float = 0.0005
    tau: float = 10.0
    epsilon: float = 0.0

    def __post_init__(self):
        if type(self.depth) is not int:
            raise ValueError(f"depth must be an int, got {self.depth!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if type(value) is not float and (
                    type(value) is not int or abs(value) > sys.float_info.max):
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
    tables of disjoint corpora merge by summing (merge_counts). The
    order of occurrences means nothing: build_tree reads it by key.
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
    """Count the contexts a tree with this p_min can use, as runs of the
    sorted windows.

    Every context counted starts some position's window: the next
    max_len + 1 symbols, or fewer where its sequence ends, held as a
    bytes string. Each distinct window is kept once, weighted by the
    number of positions it starts at, and the windows are sorted, so the
    windows that begin with a context form one contiguous run and the
    context's count is the sum of that run's weights (Manber & Myers,
    Suffix arrays, 1993). A run splits into its one-symbol extensions by
    the next symbol, each found by bisection. Occurrence counts are
    anti-monotone: a context occurs no more often than its prefix, so
    only the runs of frequent contexts are split further (Ron, Singer &
    Tishby, The Power of Amnesia, 1996). Memory grows with the distinct
    windows, not with the corpus.

    Args:
        id_sequences: iterable of token-id sequences, int ids >= 0, read
            once; no context spans the end of a sequence.
        max_len: longest context length to extend, an int; one more
            symbol is counted so every frequent context's successor
            counts are in the table (0 counts only unigrams).
        p_min: frequency gate, an int or float as in PstParams (stored
            as a float); 0 keeps every context.

    Returns:
        ContextCounts with every unigram and every one-symbol extension of
        a frequent context of at most max_len symbols.
    """
    if type(max_len) is not int or max_len < 0:
        raise ValueError(f"max_len must be an int >= 0, got {max_len!r}")
    if type(p_min) not in (int, float) or not 0.0 <= p_min <= 1.0:
        raise ValueError(f"p_min must be a number in [0, 1], got {p_min!r}")
    counts = ContextCounts(max_len=max_len, p_min=float(p_min))
    starts = counts.starts
    occurrences = counts.occurrences

    seqs = []
    top = 0
    for raw in id_sequences:
        ids = tuple(raw)
        counts.n_sequences += 1
        if not ids:
            continue
        # True would count as id 1; a float or str fails in the window code.
        if {*map(type, ids)} != {int} or min(ids) < 0:
            raise ValueError(f"token ids must be >= 0 and of type int, got {ids!r}")
        top = max(top, max(ids))
        starts[ids[0]] = starts.get(ids[0], 0) + 1
        counts.total_positions += len(ids)
        seqs.append(ids)

    # Each id as k big-endian bytes, the fewest that hold the largest, so
    # bytes order is id order. The window at every position is the next
    # max_len + 1 ids, cut at its sequence's end: a window that ends a
    # context sorts before every window extending it.
    k = (top.bit_length() + 7) // 8 or 1
    width = (max_len + 1) * k
    windows: Counter = Counter()
    for ids in seqs:
        b = bytes(ids) if k == 1 else b"".join([i.to_bytes(k, "big") for i in ids])
        windows.update([b[p:p + width] for p in range(0, len(b), k)])
    del seqs

    # ws[lo:hi] are the windows that begin with ctx, less the one that ends
    # there; the windows that begin with ext = ctx + (sym,) run up to the
    # first that begins with ctx + (sym + 1,), or to hi for the largest id.
    # A run's count is a difference of prefix sums of the weights.
    min_count = _min_count(p_min, counts.total_positions)
    ws = sorted(windows)
    cum = [0, *accumulate(map(windows.__getitem__, ws))]
    del windows
    runs = [((), 0, len(ws))]
    while runs:
        ctx, lo, hi = runs.pop()
        at = len(ctx) * k
        while lo < hi:
            w = ws[lo]
            sym = int.from_bytes(w[at:at + k], "big")
            end = hi if sym == top else bisect_left(
                ws, w[:at] + (sym + 1).to_bytes(k, "big"), lo, hi)
            ext = ctx + (sym,)
            occ = occurrences[ext] = cum[end] - cum[lo]
            if len(ext) <= max_len and occ >= min_count:
                runs.append((ext, lo + (len(w) == at + k), end))
            lo = end
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
    # The start state of the scoring automaton (see _automaton).
    automaton: tuple | None = field(default=None, repr=False, compare=False)

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
        return (1.0 - len(self.vocab) * eps) * raw + eps

    def smoothed_dist(self, node: PstNode) -> dict[int, float]:
        return {sym: self.smoothed(node, sym) for sym in range(len(self.vocab))}


def _log2(p: float) -> float:
    return math.log2(p) if p > 0.0 else -math.inf


def make_tree(dists: dict[tuple[int, ...], dict[int, float]], params: PstParams,
              vocab: Vocabulary, n_sequences: int = 0, n_tokens: int = 0) -> Pst:
    """The tree whose contexts are the keys of dists, each with its raw
    next-symbol distribution, stored as floats.

    Raises ValueError unless the contexts hold the root and are closed
    under suffixes, none is longer than params.depth, every symbol is an
    int id of vocab, every row is a distribution (numbers in [0, 1]
    summing to 1 within 1e-9; only the root of an empty vocabulary is
    empty), params.epsilon leaves the rows some mass and both training
    counts are ints >= 0. Ints and numbers have type int or float exactly.
    """
    m = len(vocab)
    if params.epsilon > 0.0 and (m == 0 or params.epsilon >= 1.0 / m):
        raise ValueError(f"epsilon {params.epsilon} must be < 1/{m} for this vocabulary")
    for count in (n_sequences, n_tokens):
        if type(count) is not int or count < 0:
            raise ValueError(f"training count {count!r} is not an int >= 0")
    if () not in dists:
        raise ValueError("missing root node")
    pst = Pst([], params, vocab, n_sequences, n_tokens)
    # The smoothed log2 probability of a symbol that a row lacks:
    # (1 - m * epsilon) * 0.0 + epsilon is exactly epsilon.
    unseen = _log2(params.epsilon)
    nodes: dict[tuple[int, ...], PstNode] = {}
    for ctx in sorted(dists, key=lambda c: (len(c), c)):
        dist = dists[ctx]
        if len(ctx) > params.depth:
            raise ValueError(f"context {list(ctx)} is longer than depth {params.depth}")
        for sym in (*ctx, *dist):
            if type(sym) is not int or not 0 <= sym < m:
                raise ValueError(
                    f"symbol {sym!r} of context {list(ctx)} is not an id of the "
                    f"{m}-token vocabulary")
        if not all(type(p) in (int, float) and 0.0 <= p <= 1.0 for p in dist.values()) \
                or m and abs(math.fsum(dist.values()) - 1.0) > 1e-9:
            raise ValueError(f"dist of {list(ctx)} is not a distribution: {dist}")
        node = nodes[ctx] = PstNode(ctx, {sym: float(p) for sym, p in dist.items()})
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
    pst.automaton = _automaton(nodes, m)
    return pst


def _automaton(nodes: dict[tuple[int, ...], PstNode], m: int) -> tuple:
    """The start state of the automaton that scores with a suffix-closed tree
    of nodes over m symbols (Aho & Corasick, Efficient string matching,
    1975; the PST to PSA equivalence of Ron, Singer & Tishby, 1996).

    A state is a prefix P of a stored context, oldest symbol first, held as
    (log2_row, edges, fail): the log2_row of its longest stored suffix, the
    same list the node holds; its trie edges, {sym: the state one symbol
    longer}; and its fail state, that of P[1:], its longest proper suffix.
    The start state is the empty prefix, with the root's row; its edges
    cover all m symbols, a missing one leading back to itself, so every
    fail chain ends there. After a history, the state reached is the
    history's longest suffix that is a state, whose row is that of
    lookup_context's node. States and edges take O(states + m) memory.

    nodes must hold the root, be closed under suffixes and come in
    (len(context), context) order, as make_tree inserts them. Then for a
    prefix P of a context c, P[1:] is a prefix of c[1:], a shorter stored
    context walked before c, so the state of P[1:] exists before P's.
    """
    root_edges: dict[int, tuple] = {}
    root = (nodes[()].log2_row, root_edges, None)
    root_edges.update(dict.fromkeys(range(m), root))
    states = {(): root}
    for ctx in nodes:
        missing = []
        while ctx not in states:
            missing.append(ctx)
            ctx = ctx[:-1]
        for prefix in reversed(missing):
            fail = states[prefix[1:]]
            node = nodes.get(prefix)
            state = (fail[0] if node is None else node.log2_row, {}, fail)
            states[prefix[:-1]][1][prefix[-1]] = states[prefix] = state
    return root


def _conditional(row: dict[int, int]) -> dict[int, float]:
    total = sum(row.values())
    return {sym: c / total for sym, c in row.items()}


def build_tree(counts: ContextCounts, params: PstParams, vocab: Vocabulary) -> Pst:
    """Construct a PST from count tables.

    Candidates are observed contexts with frequency >= p_min. A candidate
    is retained when, for some symbol its suffix is followed by, its
    conditional is >= threshold AND differs from the suffix's by a factor
    >= tau in either direction. Retained contexts are closed under
    suffixes. The root always exists and holds the order-0 (marginal)
    distribution. The counts must cover depth symbols, be gated at no
    more than p_min, and hold only ids of vocab, each context non-empty
    and each count an int >= 1. As every counted table does, they must
    count a context's suffix followed by each symbol the context is
    followed by; a table that does not raises ValueError.
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
    # Successor rows: each entry counts its prefix followed by its last
    # symbol. () gets the unigrams less the starts, each count positive.
    rows: dict[tuple[int, ...], dict[int, int]] = {(): {}}
    for ctx, occ in occurrences.items():
        if not ctx or type(occ) is not int or occ < 1:
            raise ValueError(f"bad count table entry: {ctx!r}: {occ!r}")
        rows.setdefault(ctx[:-1], {})[ctx[-1]] = occ
    unigrams = rows[()]
    starts = counts.starts
    rows[()] = {sym: c - starts.get(sym, 0) for sym, c in unigrams.items()
                if c > starts.get(sym, 0)}

    kept: set[tuple[int, ...]] = set()
    for ctx, ctx_follows in rows.items():
        if not ctx:
            continue
        suffix_follows = rows.get(ctx[1:], {})
        occ = occurrences.get(ctx)
        if occ is None or not ctx_follows.keys() <= suffix_follows.keys():
            raise ValueError(f"count table breaks the suffix rule at context {list(ctx)}")
        if len(ctx) > params.depth or occ < min_count:
            continue
        denom_p = sum(ctx_follows.values())
        denom_q = sum(suffix_follows.values())
        for sym, cq in suffix_follows.items():
            cp = ctx_follows.get(sym, 0)
            # threshold gate: cp/denom_p >= threshold
            if cp * thr_d < thr_n * denom_p:
                continue
            # ratio (cp/denom_p)/(cq/denom_q) vs tau
            lhs = cp * denom_q
            rhs = cq * denom_p
            if lhs * tau_d >= tau_n * rhs or lhs * tau_n <= rhs * tau_d:
                kept.add(ctx)
                break

    closed = {ctx[k:] for ctx in kept for k in range(len(ctx))}
    dists = {ctx: _conditional(rows[ctx]) for ctx in closed}
    del rows  # each keyed by a new prefix tuple: free them before make_tree
    # With no training data the root is uniform over the vocabulary.
    m = len(vocab)
    dists[()] = _conditional(unigrams) if total else {sym: 1.0 / m for sym in range(m)}
    return make_tree(dists, params, vocab, counts.n_sequences, total)


def lookup_context(pst: Pst, history: Seq[int]) -> PstNode:
    """Node of the longest stored suffix of history; root when none match.

    This walk back through PstNode.children defines the context of a
    position. score_sequence does not take it: its automaton reaches the
    same node's row in one edge step per symbol, and the tests hold the
    automaton to this definition.
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
    """A sequence's likelihood under a tree and its per-symbol log loss, the
    two numbers the scores CSV holds. Construction raises ValueError unless
    0 <= likelihood <= 1, per_symbol_log_loss >= 0, and likelihood is 0
    exactly when the loss is inf. A NaN fails these tests, so no Score
    holds one."""
    likelihood: float
    per_symbol_log_loss: float

    def __post_init__(self):
        lik, loss = self.likelihood, self.per_symbol_log_loss
        if not (0.0 <= lik <= 1.0 and loss >= 0.0 and (lik == 0.0) == (loss == math.inf)):
            raise ValueError(f"not a valid score: {self!r}")

    @property
    def zero_likelihood(self) -> bool:
        return self.likelihood == 0.0


_ZERO_SCORE = Score(0.0, math.inf)


def score_sequence(pst: Pst, tokens: Iterable[str]) -> Score:
    """Likelihood of a token sequence under the tree.

    Each position is predicted from the longest stored suffix of the
    preceding tokens, the node lookup_context finds. The tree's automaton
    tracks it: each symbol takes one edge step, after any fail steps,
    each of which undoes one earlier edge step, so scoring takes
    amortized constant time per token. A token that is no str, such as
    an id, raises ValueError; one out of the vocabulary, or any zero
    smoothed probability, makes the whole sequence zero-likelihood. The
    log2 probabilities are added in position order; the reported
    likelihood is clamped to the smallest positive float when
    exponentiation underflows.
    """
    tokens = list(tokens)
    ids = list(map(pst.vocab.id_of, tokens))
    n = len(ids)
    if n == 0:
        return Score(1.0, 0.0)
    if None in ids:
        if {*map(type, tokens)} != {str}:
            raise ValueError(f"tokens must be str, got {tokens!r}")
        return _ZERO_SCORE

    row, edges, fail = pst.automaton
    log2_lik = 0.0
    for sym in ids:
        log2_lik += row[sym]
        state = edges.get(sym)
        while state is None:
            _, edges, fail = fail
            state = edges.get(sym)
        row, edges, fail = state
    # A -inf term makes the sum -inf: no other term is +inf or NaN.
    if log2_lik == -math.inf:
        return _ZERO_SCORE

    likelihood = 2.0 ** log2_lik
    if likelihood == 0.0:
        likelihood = _TINY
    loss = -log2_lik / n + 0.0
    return Score(likelihood, loss)


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


def _document(pst: Pst, created: str | None) -> dict:
    """The model document of pst, as save_model writes it.

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
    return doc


def save_model(pst: Pst, sink: TextIO, created: str | None = None) -> None:
    """Write the versioned model document."""
    json.dump(_document(pst, created), sink, sort_keys=True, indent=1)
    sink.write("\n")


def load_model(source: TextIO) -> Pst:
    """Read a model document back into the tree it describes.

    A wrong version is ModelVersionError. Otherwise the document is built
    into a tree by PstParams, Vocabulary and make_tree, which check every
    value, and it is accepted only if save_model would write that tree as
    exactly this document, with the nodes in any order. Anything else is
    CorruptModelError.
    """
    try:
        doc = json.load(source)
    except UnicodeDecodeError:
        # The CLI reports bytes that are not UTF-8 as such.
        raise
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, or an integer literal over Python's digit limit.
        raise CorruptModelError(f"model is not valid JSON: {exc}") from None
    version = doc.get("version") if type(doc) is dict else None
    if type(version) is not int:
        raise CorruptModelError("missing or non-integer version field")
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"model version {version} not supported (expected {MODEL_VERSION})")

    try:
        params = PstParams(**doc["params"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModelError(f"bad params: {exc}") from None
    try:
        nodes = doc["nodes"]
        training = doc["training"]
        pst = make_tree({tuple(node["context"]): dict(node["dist"]) for node in nodes},
                        params, Vocabulary(doc["vocab"]),
                        training["n_sequences"], training["n_tokens"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModelError(f"bad model: {exc}") from None

    # make_tree took every context as a tuple of ints, so these keys compare.
    doc["nodes"] = sorted(nodes, key=lambda node: (len(node["context"]),
                                                   tuple(node["context"])))
    # created is a string when present; any other value differs from it.
    created = doc.get("created")
    written = _document(pst, created if type(created) is str else None)
    differ = (doc.keys() ^ written.keys()) | {
        key for key in doc.keys() & written.keys() if doc[key] != written[key]}
    if differ:
        raise CorruptModelError(
            f"model differs from what save_model writes in: {', '.join(sorted(differ))}")
    return pst
