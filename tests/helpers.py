"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, Fraction
arithmetic where it matters) so that agreement with the fast code is
meaningful evidence rather than the same algorithm twice. Also the small
flow inputs that the CLI and golden tests and the CI installed-cli job
share.
"""

from __future__ import annotations

import math
from fractions import Fraction

from flowlang.errors import FormatError
from flowlang.flows import CSV_HEADER
from flowlang.language import Label, Sequence, Vocabulary, _sequence_line, _sort_key, read_sequences
from flowlang.pst import ContextCounts, Pst, PstParams
from flowlang.synth import MarkovSpec


# ---------------------------------------------------------------------------
# flow inputs: a labeled CSV day and a Zeek conn log


CSV_TEXT = """\
ts,src_ip,src_port,dst_ip,dst_port,protocol,orig_bytes,resp_bytes,orig_pkts,resp_pkts,duration,label
100.0,10.0.0.1,1234,10.0.0.2,80,tcp,500,1500,5,5,0.3,normal
160.0,10.0.0.2,80,10.0.0.1,5555,tcp,100,900,2,3,0.2,attack
200.0,10.0.0.1,2222,10.0.0.2,443,tcp,9000,100,7,2,1.0,normal
300.0,192.168.1.5,53,192.168.1.9,53,udp,80,0,1,0,0.0,normal
7300.0,10.0.0.1,1234,10.0.0.2,80,tcp,700,100,3,1,0.1,normal
"""

ZEEK_TEXT = (
    "#separator \\x09\n"
    "#fields\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto"
    "\torig_bytes\tresp_bytes\torig_pkts\tresp_pkts\tduration\n"
    "10.0\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t900\t400\t4\t4\t0.5\n"
    "20.0\t10.0.0.9\t80\t10.0.0.1\t2222\ttcp\t-\t100\t1\t1\t-\n"
)

# A labeled CSV and a Zeek log, each with one row per reject reason
# (a bad IP, a leading-zero octet, no ts, a negative count, port 70000,
# a nan duration, a short row), in that order after one good row, and one
# IPv6 host written two ways, which must form one session.
CSV_REJECTS = (
    ",".join(CSV_HEADER) + "\n"
    "100.0,10.0.0.1,1234,10.0.0.2,80,tcp,500,1500,5,5,0.3,normal\n"
    "110.0,10.0.0.300,1234,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n"
    "120.0,10.0.0.01,1234,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n"
    "-,10.0.0.1,1234,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n"
    "130.0,10.0.0.1,1234,10.0.0.2,80,tcp,-5,1,1,1,0.1,normal\n"
    "140.0,10.0.0.1,70000,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n"
    "150.0,10.0.0.1,1234,10.0.0.2,80,tcp,1,1,1,1,nan,normal\n"
    "160.0,10.0.0.1,1234,10.0.0.2,80,tcp,1,1,1,1,0.1\n"
    "170.0,2001:db8::1,4000,2001:db8::2,443,tcp,300,300,3,3,0.5,attack\n"
    "180.0,2001:0db8:0:0::1,4001,2001:db8::2,443,udp,40,0,1,0,0.0,attack\n"
    "200.0,10.0.0.2,80,10.0.0.1,5555,tcp,100,900,2,3,0.2,normal\n"
)
ZEEK_REJECTS = (
    "#separator \\x09\n"
    "#fields\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto"
    "\torig_bytes\tresp_bytes\torig_pkts\tresp_pkts\tduration\n"
    "10.0\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t900\t400\t4\t4\t0.5\n"
    "11.0\tnonsense\t1111\t10.0.0.9\t80\ttcp\t1\t1\t1\t1\t0.1\n"
    "12.0\t10.0.0.1\t1111\t010.0.0.9\t80\ttcp\t1\t1\t1\t1\t0.1\n"
    "-\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t1\t1\t1\t1\t0.1\n"
    "13.0\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t1\t1\t-1\t1\t0.1\n"
    "14.0\t10.0.0.1\t70000\t10.0.0.9\t80\ttcp\t1\t1\t1\t1\t0.1\n"
    "15.0\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t1\t1\t1\t1\tnan\n"
    "16.0\t10.0.0.1\t1111\t10.0.0.9\t80\ttcp\t1\t1\t1\t1\n"
    "17.0\tfe80::1\t5353\t2001:db8::2\t53\tudp\t60\t90\t1\t1\t0.01\n"
    "18.0\tFE80:0:0::0001\t5353\t2001:db8::2\t53\tudp\t70\t-\t1\t-\t-\n"
    "20.0\t10.0.0.9\t80\t10.0.0.1\t2222\ttcp\t-\t100\t1\t1\t-\n"
)


# ---------------------------------------------------------------------------
# flow number cells, as README's grammar states them

MISSING_CELLS = ("-", "(empty)", "")


def oracle_count(text):
    """A port or count cell: ASCII digits, read as int(text), or a
    missing marker, read as 0. None if the cell rejects its row."""
    if text in MISSING_CELLS:
        return 0
    for c in text:
        if c not in "0123456789":
            return None
    return int(text)


def oracle_real(text):
    """A ts or duration cell that is not a missing marker: ASCII text
    without "_" or whitespace at either end that float() reads, read as
    float(text). None if the cell rejects its row."""
    for c in text:
        if ord(c) > 127 or c == "_":
            return None
    if text[0].isspace() or text[-1].isspace():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def oracle_flow_numbers(ts, port, count, duration):
    """The (ts, port, count, duration) values a row with these cells, and
    valid other cells, reads as; None if the row is rejected. A ts is never
    missing and always finite, a port at most 65535, and a duration, 0.0
    when missing, finite and not negative."""
    if ts in MISSING_CELLS:
        return None
    values = (oracle_real(ts), oracle_count(port), oracle_count(count),
              0.0 if duration in MISSING_CELLS else oracle_real(duration))
    for value in values:
        if value is None:
            return None
    ts_value, port_value, _, duration_value = values
    if not math.isfinite(ts_value) or port_value > 65535:
        return None
    if not math.isfinite(duration_value) or duration_value < 0:
        return None
    return values


# ---------------------------------------------------------------------------
# sessions


def brute_sessions(flows, policy, min_length):
    """Flows cut into sessions per endpoint pair, by comparing each flow's
    timestamp with every other of its pair.

    Returns (ip_low, ip_high, window_start, flows, label) per session of at
    least min_length flows, ordered by pair and start, each session's flows
    in sessionize's order. A window session starts at the largest
    multiple of size not above ts, found in exact arithmetic and then
    rounded to a float. A gap session starts at each timestamp t that
    is more than gap_seconds after every earlier timestamp of the pair,
    and a flow belongs to the latest start at or before its ts.
    """
    sizes = {"hour": 3600, "day": 86400, "week": 604800}
    pairs: dict[tuple[str, str], list] = {}
    for f in flows:
        pairs.setdefault(tuple(sorted((f.src_ip, f.dst_ip))), []).append(f)
    sessions = []
    for pair, members in sorted(pairs.items()):
        times = [f.ts for f in members]
        if policy.kind == "gap":
            starts = [t for t in times
                      if all(t - u > policy.gap_seconds for u in times if u < t)]
            start_of = [max(s for s in starts if s <= f.ts) for f in members]
        else:
            size = sizes[policy.kind]
            start_of = [float(Fraction(f.ts) // size * size) for f in members]
        for start in sorted(set(start_of)):
            session = sorted((f for f, s in zip(members, start_of) if s == start),
                             key=_sort_key)
            if len(session) < min_length:
                continue
            labels = {f.label for f in session}
            label = (Label.ATTACK if Label.ATTACK in labels
                     else Label.NORMAL if Label.NORMAL in labels
                     else Label.UNLABELED)
            sessions.append((*pair, start, session, label))
    return sessions


# ---------------------------------------------------------------------------
# counting


def brute_context_stats(sequences, max_len):
    """Count context occurrences and successor pairs by direct enumeration.

    Returns (total_positions, n_sequences, unigrams, occurrences, follows,
    starts): occurrences of every substring of 1 to max_len symbols,
    follows[ctx][sym] for contexts of up to max_len symbols (the empty
    context included), and starts[sym], the sequences that begin with sym.
    """
    total = 0
    n_seq = 0
    unigrams: dict[int, int] = {}
    occurrences: dict[tuple[int, ...], int] = {}
    follows: dict[tuple[int, ...], dict[int, int]] = {(): {}}
    starts: dict[int, int] = {}
    for seq in sequences:
        seq = list(seq)
        n_seq += 1
        total += len(seq)
        if seq:
            starts[seq[0]] = starts.get(seq[0], 0) + 1
        for sym in seq:
            unigrams[sym] = unigrams.get(sym, 0) + 1
        for pos in range(1, len(seq)):
            follows[()][seq[pos]] = follows[()].get(seq[pos], 0) + 1
        for length in range(1, max_len + 1):
            for start in range(0, len(seq) - length + 1):
                ctx = tuple(seq[start:start + length])
                occurrences[ctx] = occurrences.get(ctx, 0) + 1
                nxt = start + length
                if nxt < len(seq):
                    row = follows.setdefault(ctx, {})
                    row[seq[nxt]] = row.get(seq[nxt], 0) + 1
    return total, n_seq, unigrams, occurrences, follows, starts


def brute_gated_counts(sequences, max_len, p_min):
    """The ContextCounts count_contexts should return: every unigram, and
    every one-symbol extension of a context of at most max_len symbols
    that occurs in at least a p_min fraction of all positions."""
    total, n_seq, _, occurrences, _, starts = brute_context_stats(sequences, max_len + 1)
    frequent = {ctx for ctx, occ in occurrences.items()
                if len(ctx) <= max_len and Fraction(occ, total) >= Fraction(p_min)}
    return ContextCounts(
        max_len=max_len, total_positions=total, n_sequences=n_seq, starts=starts,
        occurrences={ctx: occ for ctx, occ in occurrences.items()
                     if len(ctx) == 1 or ctx[:-1] in frequent},
        p_min=p_min)


def brute_conditional(follows, ctx):
    """Normalized successor distribution of ctx, or None if it has none."""
    row = follows.get(tuple(ctx))
    if not row:
        return None
    denom = sum(row.values())
    return {sym: Fraction(count, denom) for sym, count in row.items()}


def brute_retained_contexts(total, occurrences, follows, params):
    """Decide retention for every candidate context from first principles.

    Returns the set of contexts that pass the frequency, probability and
    ratio gates; suffix closure is NOT applied here.
    """
    # Fraction(float) is the parameter's exact binary value, which is the
    # value the gates are defined over.
    p_min = Fraction(params.p_min)
    threshold = Fraction(params.threshold)
    tau = Fraction(params.tau)
    retained = set()
    for ctx, occ in occurrences.items():
        if len(ctx) > params.depth:
            continue
        if total == 0 or Fraction(occ, total) < p_min:
            continue
        cond = brute_conditional(follows, ctx)
        if cond is None:
            continue
        suffix_cond = brute_conditional(follows, ctx[1:]) or {}
        for sym in set(cond) | set(suffix_cond):
            p = cond.get(sym, Fraction(0))
            q = suffix_cond.get(sym, Fraction(0))
            if p < threshold:
                continue
            if p == 0 and q == 0:
                continue
            if q == 0:
                retained.add(ctx)
                break
            if p / q >= tau or p / q <= 1 / tau:
                retained.add(ctx)
                break
    return retained


def suffix_closed(contexts):
    """True if every proper suffix of every context is present."""
    ctxs = set(contexts)
    for ctx in ctxs:
        for start in range(1, len(ctx)):
            if ctx[start:] not in ctxs:
                return False
    return True


# ---------------------------------------------------------------------------
# scoring


def brute_longest_context(pst: Pst, history):
    """Longest stored context that is a suffix of history, by scanning
    every node rather than walking the tree."""
    best = ()
    for node in pst.iter_nodes():
        ctx = node.context
        if len(ctx) <= len(history) and tuple(history[len(history) - len(ctx):]) == ctx:
            if len(ctx) >= len(best):
                best = ctx
    return best


def brute_score(pst: Pst, token_ids):
    """Chain-rule likelihood computed with full-scan context lookup."""
    m = len(pst.vocab)
    eps = pst.params.epsilon
    log2_total = 0.0
    likelihood = 1.0
    nodes_by_ctx = {node.context: node for node in pst.iter_nodes()}
    for pos, sym in enumerate(token_ids):
        ctx = brute_longest_context(pst, token_ids[:pos])
        raw = nodes_by_ctx[ctx].dist.get(sym, 0.0)
        p = raw if eps == 0.0 else (1.0 - m * eps) * raw + eps
        if p <= 0.0:
            return 0.0, None
        likelihood *= p
        log2_total += math.log2(p)
    return likelihood, log2_total


# ---------------------------------------------------------------------------
# evaluation


def pairwise_rank_statistic(examples):
    """Probability that a random attack outscores a random normal,
    counting ties as half, by explicit O(n^2) enumeration."""
    attacks = [e.anomaly_score for e in examples if e.label.value == "attack"]
    normals = [e.anomaly_score for e in examples if e.label.value == "normal"]
    wins = 0.0
    for a in attacks:
        for b in normals:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(attacks) * len(normals))


def brute_roc_points(examples):
    """ROC points at +inf and every distinct score, descending."""
    attacks = [e.anomaly_score for e in examples if e.label.value == "attack"]
    normals = [e.anomaly_score for e in examples if e.label.value == "normal"]
    points = [(0.0, 0.0, math.inf)]
    for cut in sorted(set(attacks) | set(normals), reverse=True):
        tpr = sum(1 for a in attacks if a >= cut) / len(attacks)
        fpr = sum(1 for b in normals if b >= cut) / len(normals)
        points.append((fpr, tpr, cut))
    return points


def trapezoid(points):
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


# ---------------------------------------------------------------------------
# synthetic sources


def scan_draw(items, u):
    """The value a draw of u picks from (value, probability) pairs, by a
    linear scan of the running sum: the first positive-probability value
    whose sum exceeds u, else the last one. Raises ValueError when no
    probability is positive."""
    acc = 0.0  # summed p by p, not by sum(), which Python 3.12 made compensated
    last_positive = None
    for value, p in items:
        if p <= 0.0:
            continue
        last_positive = value
        acc += p
        if u < acc:
            return value
    if last_positive is None:
        raise ValueError("cannot sample from an all-zero distribution")
    return last_positive


def empirical_spec(corpus, order, alphabet_size):
    """Fit a dense order-k source to a corpus by plain counting.

    A suffix tree built with every pruning gate disabled scores position 0
    with the symbol marginal and each later position with the empirical
    conditional of the longest available context. This mirrors that: the
    initial distribution chains the order 0..k-1 conditionals, and rows
    for contexts that never gained a successor fall back to uniform so the
    construction still sums to one. The fallback rows are never consulted
    when scoring the training corpus itself.
    """
    follows: list[dict[tuple[int, ...], dict[int, int]]] = [
        {} for _ in range(order + 1)
    ]
    unigrams: dict[int, int] = {}
    total = 0
    for seq, _label in corpus:
        total += len(seq)
        for sym in seq:
            unigrams[sym] = unigrams.get(sym, 0) + 1
        for k in range(0, order + 1):
            for pos in range(max(k, 1), len(seq)):
                ctx = tuple(seq[pos - k:pos])
                row = follows[k].setdefault(ctx, {})
                row[seq[pos]] = row.get(seq[pos], 0) + 1

    def cond_row(k, ctx):
        row = follows[k].get(tuple(ctx))
        if not row:
            return [1.0 / alphabet_size] * alphabet_size
        denom = sum(row.values())
        return [row.get(sym, 0) / denom for sym in range(alphabet_size)]

    marginal = [unigrams.get(sym, 0) / total for sym in range(alphabet_size)]

    contexts = [()]
    for _ in range(order):
        contexts = [ctx + (s,) for ctx in contexts for s in range(alphabet_size)]

    transitions = {}
    for ctx in contexts:
        transitions[ctx] = tuple(cond_row(order, ctx))
    if order == 0:
        # A depth-0 tree scores every position with the marginal.
        transitions[()] = tuple(marginal)

    initial: dict[tuple[int, ...], float] = {}
    if order == 0:
        initial[()] = 1.0
    else:
        for prefix in contexts:
            p = marginal[prefix[0]]
            for k in range(1, order):
                p *= cond_row(k, prefix[:k])[prefix[k]]
            initial[prefix] = p
    return MarkovSpec(
        order=order,
        alphabet_size=alphabet_size,
        transitions=transitions,
        initial=initial,
    )


def random_markov_spec(rng, order, alphabet_size):
    """A random dense order-k source drawn from a given random.Random."""
    contexts = [()]
    for _ in range(order):
        contexts = [ctx + (sym,) for ctx in contexts for sym in range(alphabet_size)]
    transitions = {}
    for ctx in contexts:
        weights = [rng.random() + 0.05 for _ in range(alphabet_size)]
        denom = math.fsum(weights)
        row = [w / denom for w in weights]
        row[-1] = 1.0 - math.fsum(row[:-1])
        transitions[ctx] = tuple(row)
    weights = [rng.random() + 0.05 for _ in contexts]
    denom = math.fsum(weights)
    initial = {}
    for ctx, w in zip(contexts, weights):
        initial[ctx] = w / denom
    # force exact unity on the last entry
    last = contexts[-1]
    initial[last] = 1.0 - math.fsum(v for c, v in initial.items() if c != last)
    return MarkovSpec(
        order=order,
        alphabet_size=alphabet_size,
        transitions=transitions,
        initial=initial,
    )


# ---------------------------------------------------------------------------
# sequences files


def oracle_read_sequences(lines):
    """read_sequences with each data line checked in three steps: build the
    Sequence from int ids and Label(text), write it back and compare, then
    test that the smallest and largest id lie in the vocabulary.

    The header and vocabulary block go to read_sequences itself, so only
    the data lines are checked independently. Raises FormatError naming
    the line of the first bad data line.
    """
    lines = [raw.rstrip("\n") for raw in lines]
    at = next(i for i, line in enumerate(lines) if line.partition(" ")[0] == "#vocab")
    end = at + 1 + int(lines[at].partition(" ")[2])
    _, vocab = read_sequences(line + "\n" for line in lines[:end])
    sequences = []
    for lineno, line in enumerate(lines[end:], start=end + 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            label, ip_low, ip_high, start, ids = line.split("\t")
            seq = Sequence(ip_low, ip_high, float(start),
                           tuple(int(piece) for piece in ids.split(" ")), Label(label))
            if _sequence_line(seq) != line:
                raise ValueError("not as written")
            if min(seq.token_ids) < 0 or max(seq.token_ids) >= len(vocab):
                raise ValueError("token id out of range")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        sequences.append(seq)
    return sequences, vocab


# ---------------------------------------------------------------------------
# misc


def small_vocab(n):
    vocab = Vocabulary()
    for i in range(n):
        vocab.add(f"s{i}")
    return vocab


def exact_params(depth):
    """Parameters that disable every pruning gate."""
    return PstParams(depth=depth, p_min=0.0, threshold=0.0, tau=1.0, epsilon=0.0)
