"""Turn flow records into a discrete language.

A token scheme maps each flow to one token; a session policy groups flows
by unordered endpoint pair and slices each pair's traffic into sequences.
Sequences plus a vocabulary round-trip through a plain text format.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, TextIO

from .errors import FormatError
from .flows import _LABELS, FlowRecord, Label, total_bytes, total_pkts

SCHEME_KINDS = ("proto-bytes", "proto-density")
# Window session kinds and their sizes in seconds.
WINDOWS = {"hour": 3600.0, "day": 86400.0, "week": 604800.0}
SESSION_KINDS = (*WINDOWS, "gap")


@dataclass(frozen=True)
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
        if type(self.bucket_width) is not int or self.bucket_width < 1:
            raise ValueError(f"bucket_width must be an int >= 1, got {self.bucket_width!r}")


@dataclass(frozen=True)
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
        if type(gap := self.gap_seconds) not in (int, float) or not 0 < gap <= sys.float_info.max:
            raise ValueError(f"gap_seconds must be positive, got {gap!r}")


class Vocabulary:
    """Insertion-ordered bijection between token text and integer id."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        """Register token if new; return its id either way."""
        # The type check comes before the lookup, so an unhashable value
        # is a ValueError and not the dict's TypeError.
        if type(token) is not str:
            raise ValueError(f"bad token text: {token!r}")
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        if not token or any(c.isspace() for c in token):
            raise ValueError(f"bad token text: {token!r}")
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
    """One session: a non-empty tuple of token ids between two str endpoints;
    ids or endpoints of any other type would read back as another Sequence."""

    ip_low: str
    ip_high: str
    window_start: float
    token_ids: tuple[int, ...]
    label: Label = Label.UNLABELED

    def __post_init__(self):
        if type(self.token_ids) is not tuple:
            raise ValueError(f"token ids are no tuple: {self.token_ids!r}")
        if not self.token_ids:
            raise ValueError("empty sequence")
        # write_sequences writes a float's repr, the only start its reader takes.
        if type(self.window_start) is not float or not math.isfinite(self.window_start):
            raise ValueError(f"window start is no finite float: {self.window_start!r}")
        for ip in (self.ip_low, self.ip_high):
            if type(ip) is not str:
                raise ValueError(f"endpoint is no str: {ip!r}")
            if any(map(str.isspace, ip)):
                raise ValueError(f"whitespace in endpoint: {ip!r}")
        if self.ip_low > self.ip_high:
            raise ValueError(f"endpoint pair not ordered: {self.ip_low!r} > {self.ip_high!r}")
        if type(self.label) is not Label:
            raise ValueError(f"bad label: {self.label!r}")


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


def _session_starts(flows: list[FlowRecord], policy: SessionPolicy) -> list[float]:
    """The window_start of the session each of one pair's time-sorted
    flows falls in: the start of its hour, day or week window, or under
    gap the ts of the first flow after a silence longer than gap_seconds.
    A window start is ts less its remainder: the largest multiple of the
    size not above ts, finite for every finite ts. Either start gets
    + 0.0, which makes -0.0 0.0."""
    size = WINDOWS.get(policy.kind)
    if size is not None:
        return [f.ts - f.ts % size + 0.0 for f in flows]
    starts = []
    start = prev = -math.inf
    for f in flows:
        if f.ts - prev > policy.gap_seconds:
            start = f.ts + 0.0
        starts.append(start)
        prev = f.ts
    return starts


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
    min_length: int = 1,
) -> tuple[list[Sequence], Vocabulary]:
    """Group flows by unordered endpoint pair and emit token sequences.

    Args:
        flows: flow records in any order.
        scheme: token scheme applied per flow.
        policy: session boundary rule applied per endpoint pair.
        min_length: drop sequences shorter than this many flows.

    Returns:
        (sequences, vocab). Sequences are ordered by (endpoint pair,
        window start); output and vocabulary ids are independent of the
        input order of flows.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    vocab = Vocabulary()

    groups: dict[tuple[str, str], list[FlowRecord]] = {}
    for flow in flows:
        groups.setdefault(_endpoint_pair(flow), []).append(flow)

    sequences: list[Sequence] = []
    for pair in sorted(groups):
        members = sorted(groups[pair], key=_sort_key)
        runs = zip(_session_starts(members, policy), members)
        for start, run in itertools.groupby(runs, key=itemgetter(0)):
            session = [f for _, f in run]
            if len(session) < min_length:
                continue
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
    read_sequences would take its second line for data, and on a sequence
    whose ids are not ints in 0..n-1, which it would refuse or misread.
    """
    if comment is not None:
        if comment and comment.splitlines() != [comment]:
            raise ValueError(f"comment must be one line: {comment!r}")
        sink.write(f"# {comment}\n")
    toks = vocab.tokens()
    n = len(toks)
    sink.write(_vocab_line(n) + "\n")
    for i, t in enumerate(toks):
        sink.write(_token_line(i, t) + "\n")
    known = frozenset(range(n))
    for s in sequences:
        ids = s.token_ids
        # True and 1.0 equal the id 1, yet str() spells them "True" and "1.0".
        if not known.issuperset(ids) or {*map(type, ids)} != {int}:
            raise ValueError(f"token ids not in a vocabulary of {n}: {ids!r}")
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
    # Each id as write_sequences spells it: a piece of a row's ids is a key
    # exactly when it writes back as itself and names a vocabulary token.
    table = {str(i): i for i in range(len(vocab))}
    for lineno, raw in it:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        try:
            label, ip_low, ip_high, start, ids = line.split("\t")
            window_start = float(start)
            if repr(window_start) != start or label not in _LABELS:
                raise ValueError(f"not as written: {line!r}")
            seq = Sequence(ip_low, ip_high, window_start,
                           tuple(map(table.__getitem__, ids.split(" "))), _LABELS[label])
        except KeyError as exc:
            # A piece that is no id's text: out of range if it is an int as
            # str spells it, else not as written.
            piece = exc.args[0]
            fault = (f"token id out of range: {piece}" if re.fullmatch("0|-?[1-9][0-9]*", piece)
                     else f"not as written: {line!r}")
            raise FormatError(f"line {lineno}: {fault}") from None
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        sequences.append(seq)

    return sequences, vocab
