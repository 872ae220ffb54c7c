"""Turn flow records into a discrete language.

A token scheme maps each flow to one token; a session policy groups flows
by unordered endpoint pair and slices each pair's traffic into sequences.
Sequences plus a vocabulary round-trip through a plain text format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import FormatError
from .flows import FlowRecord, Label, total_bytes, total_pkts

HOUR = 3600.0
DAY = 86400.0
WEEK = 604800.0

SCHEME_KINDS = ("proto-bytes", "proto-density")
SESSION_KINDS = ("hour", "day", "week", "gap")


@dataclass(frozen=True, slots=True)
class TokenScheme:
    """How a single flow becomes a token.

    proto-bytes:   <proto>_b<floor(log2(total_bytes))>, zero bytes -> bz
    proto-density: <proto>_d<total_bytes // (total_pkts * width)>, zero
                   packets -> dz
    """

    kind: str = "proto-bytes"
    bucket_width: int = 10

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind: {self.kind!r}")
        if self.bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {self.bucket_width}")


@dataclass(frozen=True, slots=True)
class SessionPolicy:
    """How one endpoint pair's flows are cut into sequences.

    hour/day/week cut at fixed UTC boundaries; gap starts a new sequence
    whenever the inter-flow silence strictly exceeds gap_seconds.
    """

    kind: str = "hour"
    gap_seconds: float = 1800.0

    def __post_init__(self):
        if self.kind not in SESSION_KINDS:
            raise ValueError(f"unknown session kind: {self.kind!r}")
        if not (math.isfinite(self.gap_seconds) and self.gap_seconds > 0):
            raise ValueError(f"gap_seconds must be positive, got {self.gap_seconds!r}")


class Vocabulary:
    """Insertion-ordered bijection between token text and integer id."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        """Register token if new; return its id either way."""
        if not token or any(c.isspace() for c in token):
            raise ValueError(f"bad token text: {token!r}")
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        idx = len(self._tokens)
        self._ids[token] = idx
        self._tokens.append(token)
        return idx

    def id_of(self, token: str) -> int | None:
        return self._ids.get(token)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise ValueError(f"token id out of range: {idx}")
        return self._tokens[idx]

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens


@dataclass(frozen=True, slots=True)
class Sequence:
    """One session: a non-empty run of token ids between two endpoints."""

    ip_low: str
    ip_high: str
    window_start: float
    token_ids: tuple[int, ...]
    label: Label = Label.UNLABELED

    def __post_init__(self):
        if not self.token_ids:
            raise ValueError("empty sequence")
        if not math.isfinite(self.window_start):
            raise ValueError(f"non-finite window start: {self.window_start!r}")
        if self.ip_low > self.ip_high:
            raise ValueError(f"endpoint pair not ordered: {self.ip_low!r} > {self.ip_high!r}")
        for ip in (self.ip_low, self.ip_high):
            if any(map(str.isspace, ip)):
                raise ValueError(f"whitespace in endpoint: {ip!r}")


def log2_bin(value: int) -> int | str:
    """floor(log2(value)) for positive ints, the sentinel "z" for zero.

    Uses bit_length so the result is exact however large value gets.
    """
    if value < 0:
        raise ValueError(f"negative value: {value}")
    if value == 0:
        return "z"
    return value.bit_length() - 1


def density_bucket(bytes_total: int, pkts_total: int, width: int) -> int | str:
    """floor((bytes/pkts)/width) in exact integer arithmetic, however
    large the totals; flows with no packets get the sentinel."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if bytes_total < 0 or pkts_total < 0:
        raise ValueError("negative totals")
    if pkts_total == 0:
        return "z"
    return bytes_total // (pkts_total * width)


def tokenize(flow: FlowRecord, scheme: TokenScheme) -> str:
    if scheme.kind == "proto-bytes":
        return f"{flow.protocol}_b{log2_bin(total_bytes(flow))}"
    return f"{flow.protocol}_d{density_bucket(total_bytes(flow), total_pkts(flow), scheme.bucket_width)}"


def _endpoint_pair(flow: FlowRecord) -> tuple[str, str]:
    a, b = flow.src_ip, flow.dst_ip
    return (a, b) if a <= b else (b, a)


def _sort_key(flow: FlowRecord):
    # Total order over every field so sessionization is permutation
    # invariant even when flows share a timestamp.
    return (
        flow.ts, flow.src_port, flow.dst_port, flow.src_ip, flow.dst_ip,
        flow.protocol, flow.orig_bytes, flow.resp_bytes,
        flow.orig_pkts, flow.resp_pkts, flow.duration, flow.label.value,
    )


def _window_id(ts: float, policy: SessionPolicy) -> float:
    size = {"hour": HOUR, "day": DAY, "week": WEEK}[policy.kind]
    return math.floor(ts / size) * size


def _split_sessions(flows: list[FlowRecord], policy: SessionPolicy) -> list[list[FlowRecord]]:
    """Split one pair's time-sorted flows into sessions under the policy."""
    sessions: list[list[FlowRecord]] = []
    for flow in flows:
        if sessions:
            prev = sessions[-1][-1]
            if policy.kind == "gap":
                fresh = flow.ts - prev.ts > policy.gap_seconds
            else:
                fresh = _window_id(flow.ts, policy) != _window_id(prev.ts, policy)
        else:
            fresh = True
        if fresh:
            sessions.append([flow])
        else:
            sessions[-1].append(flow)
    return sessions


def _session_label(flows: list[FlowRecord]) -> Label:
    """Any attack flow marks the whole session; else normal if any labeled
    flow is present; else unlabeled."""
    labels = {f.label for f in flows}
    if Label.ATTACK in labels:
        return Label.ATTACK
    if Label.NORMAL in labels:
        return Label.NORMAL
    return Label.UNLABELED


def sessionize(
    flows: Iterable[FlowRecord],
    scheme: TokenScheme,
    policy: SessionPolicy,
    vocab: Vocabulary | None = None,
    min_length: int = 1,
) -> tuple[list[Sequence], Vocabulary]:
    """Group flows by unordered endpoint pair and emit token sequences.

    Args:
        flows: flow records in any order.
        scheme: token scheme applied per flow.
        policy: session boundary rule applied per endpoint pair.
        vocab: existing vocabulary to extend; a fresh one by default.
        min_length: drop sequences shorter than this many flows.

    Returns:
        (sequences, vocab). Sequences are ordered by (endpoint pair,
        window start); output and vocabulary ids are independent of the
        input order of flows.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    vocab = vocab if vocab is not None else Vocabulary()

    groups: dict[tuple[str, str], list[FlowRecord]] = {}
    for flow in flows:
        groups.setdefault(_endpoint_pair(flow), []).append(flow)

    sequences: list[Sequence] = []
    for pair in sorted(groups):
        members = sorted(groups[pair], key=_sort_key)
        for session in _split_sessions(members, policy):
            if len(session) < min_length:
                continue
            if policy.kind == "gap":
                start = session[0].ts
            else:
                start = _window_id(session[0].ts, policy)
            ids = tuple(vocab.add(tokenize(f, scheme)) for f in session)
            sequences.append(Sequence(
                ip_low=pair[0], ip_high=pair[1], window_start=start,
                token_ids=ids, label=_session_label(session),
            ))
    return sequences, vocab


def _vocab_line(n: int) -> str:
    return f"#vocab {n}"


def _token_line(token_id: int, token: str) -> str:
    return f"{token_id}\t{token}"


def _sequence_line(s: Sequence) -> str:
    ids = " ".join(map(str, s.token_ids))
    return f"{s.label.value}\t{s.ip_low}\t{s.ip_high}\t{s.window_start!r}\t{ids}"


def write_sequences(
    sequences: Iterable[Sequence],
    vocab: Vocabulary,
    sink: TextIO,
    comment: str | None = None,
) -> None:
    """Serialize sequences plus their vocabulary to the text format.

    Layout: optional leading '# <comment>' line, a '#vocab <n>' directive,
    n id<TAB>token lines, then one line per sequence:
    label<TAB>ip_low<TAB>ip_high<TAB>window_start<TAB>space-joined ids.
    Raises ValueError on a comment that str.splitlines would split, since
    read_sequences would take its second line for data.
    """
    if comment is not None:
        if comment and comment.splitlines() != [comment]:
            raise ValueError(f"comment must be one line: {comment!r}")
        sink.write(f"# {comment}\n")
    toks = vocab.tokens()
    sink.write(_vocab_line(len(toks)) + "\n")
    for i, t in enumerate(toks):
        sink.write(_token_line(i, t) + "\n")
    for s in sequences:
        sink.write(_sequence_line(s) + "\n")


def read_sequences(lines: Iterable[str]) -> tuple[list[Sequence], Vocabulary]:
    """Parse the write_sequences format back; inverse of write_sequences.

    A line parses only when writing back what was parsed gives exactly
    that line. The directive is the line whose first space-separated word
    is '#vocab'; blank lines and any other '#' line are comments. An
    input with no content lines yields an empty corpus. Raises FormatError
    (with a line number) on data before the directive, a line not as
    written, a truncated vocabulary block, a duplicate token, a
    non-finite window start or an id not in the vocabulary.
    """
    it = enumerate(lines, start=1)
    for lineno, raw in it:
        line = raw.rstrip("\n")
        word, _, count = line.partition(" ")
        if word == "#vocab":
            break
        if line.strip() and not line.startswith("#"):
            raise FormatError(f"line {lineno}: expected #vocab directive before data")
    else:
        # Nothing but blanks and comments: an empty corpus, not an error.
        return [], Vocabulary()
    try:
        vocab_n = int(count)
    except ValueError:
        vocab_n = -1
    if vocab_n < 0 or _vocab_line(vocab_n) != line:
        raise FormatError(f"line {lineno}: malformed #vocab directive")

    vocab = Vocabulary()
    for token_id in range(vocab_n):
        lineno, raw = next(it, (lineno, None))
        if raw is None:
            raise FormatError("truncated vocabulary block")
        line = raw.rstrip("\n")
        token = line.partition("\t")[2]
        if _token_line(token_id, token) != line:
            raise FormatError(f"line {lineno}: expected vocabulary row {token_id}<TAB>token")
        try:
            if vocab.add(token) != token_id:
                raise ValueError(f"duplicate vocabulary token {token!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None

    sequences: list[Sequence] = []
    for lineno, raw in it:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        try:
            label, ip_low, ip_high, start, ids = line.split("\t")
            seq = Sequence(ip_low, ip_high, float(start),
                           tuple(map(int, ids.split(" "))), Label(label))
            if _sequence_line(seq) != line:
                raise ValueError(f"not as written: {line!r}")
            for i in seq.token_ids:
                vocab.token_of(i)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        sequences.append(seq)

    return sequences, vocab
