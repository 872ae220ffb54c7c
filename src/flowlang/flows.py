"""Flow record ingestion: Zeek conn logs and the canonical labeled CSV.

Both parsers are total over their input: a malformed row is counted and
skipped, never fatal. Only a missing or incomplete format header aborts.
"""

from __future__ import annotations

import csv
import ipaddress
import logging
import math
import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import FormatError
from .language import Label

logger = logging.getLogger(__name__)

CSV_HEADER = [
    "ts", "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
    "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "duration", "label",
]

# Zeek's missing-value markers.
_MISSING = {"-", "(empty)", ""}

# Exactly the dotted quads ipaddress.IPv4Address accepts: ASCII digits, no
# leading zero, each octet at most 255. Such text is already canonical.
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}")

# Exactly the protocol names normalize_protocol keeps unchanged.
_PROTOCOL = re.compile("[a-z0-9]+")


def normalize_protocol(text: str) -> str:
    """Lowercase a protocol name and strip characters the token grammar
    cannot carry; missing or empty names become "other"."""
    cleaned = "".join(c for c in text.strip().lower() if c.isascii() and c.isalnum())
    return cleaned or "other"


@dataclass(frozen=True, slots=True, init=False)
class FlowRecord:
    """One bidirectional flow between two endpoints.

    Missing numeric fields are 0 and missing labels are UNLABELED; the
    constructor rejects values a flow cannot physically have.
    """

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    orig_bytes: int = 0
    resp_bytes: int = 0
    orig_pkts: int = 0
    resp_pkts: int = 0
    duration: float = 0.0
    label: Label = Label.UNLABELED

    def __init__(self, ts, src_ip, src_port, dst_ip, dst_port, protocol, orig_bytes=0,
                 resp_bytes=0, orig_pkts=0, resp_pkts=0, duration=0.0, label=Label.UNLABELED):
        # The parsers pass floats. An int is stored as the float nearest it,
        # so equal records write equal rows; a bool is no number.
        if type(ts) is not float:
            if type(ts) is not int or abs(ts) > sys.float_info.max:
                raise ValueError(f"bad ts: {ts!r}")
            ts = float(ts)
        if type(duration) is not float:
            if type(duration) is not int or abs(duration) > sys.float_info.max:
                raise ValueError(f"bad duration: {duration!r}")
            duration = float(duration)
        if not math.isfinite(ts):
            raise ValueError(f"non-finite timestamp: {ts!r}")
        if type(src_port) is not int or src_port < 0:
            raise ValueError(f"bad src_port: {src_port!r}")
        if type(dst_port) is not int or dst_port < 0:
            raise ValueError(f"bad dst_port: {dst_port!r}")
        if type(orig_bytes) is not int or orig_bytes < 0:
            raise ValueError(f"bad orig_bytes: {orig_bytes!r}")
        if type(resp_bytes) is not int or resp_bytes < 0:
            raise ValueError(f"bad resp_bytes: {resp_bytes!r}")
        if type(orig_pkts) is not int or orig_pkts < 0:
            raise ValueError(f"bad orig_pkts: {orig_pkts!r}")
        if type(resp_pkts) is not int or resp_pkts < 0:
            raise ValueError(f"bad resp_pkts: {resp_pkts!r}")
        if src_port > 65535 or dst_port > 65535:
            raise ValueError(f"port out of range: {max(src_port, dst_port)}")
        if not (math.isfinite(duration) and duration >= 0):
            raise ValueError(f"bad duration: {duration!r}")
        # Any other protocol or label is written as text that reads back as
        # another value, or not at all.
        if type(protocol) is not str or not _PROTOCOL.fullmatch(protocol):
            raise ValueError(f"bad protocol: {protocol!r}")
        if type(label) is not Label:
            raise ValueError(f"bad label: {label!r}")
        # Valid IPv4 text is canonical; other text is IPv6 or invalid.
        if type(src_ip) is not str or not _IPV4.fullmatch(src_ip):
            src_ip = _canonical_ipv6("src_ip", src_ip)
        if type(dst_ip) is not str or not _IPV4.fullmatch(dst_ip):
            dst_ip = _canonical_ipv6("dst_ip", dst_ip)
        _set_ts(self, ts)
        _set_src_ip(self, src_ip)
        _set_src_port(self, src_port)
        _set_dst_ip(self, dst_ip)
        _set_dst_port(self, dst_port)
        _set_protocol(self, protocol)
        _set_orig_bytes(self, orig_bytes)
        _set_resp_bytes(self, resp_bytes)
        _set_orig_pkts(self, orig_pkts)
        _set_resp_pkts(self, resp_pkts)
        _set_duration(self, duration)
        _set_label(self, label)


# The slots' own setters, which store past the frozen __setattr__.
_set_ts = FlowRecord.ts.__set__
_set_src_ip = FlowRecord.src_ip.__set__
_set_src_port = FlowRecord.src_port.__set__
_set_dst_ip = FlowRecord.dst_ip.__set__
_set_dst_port = FlowRecord.dst_port.__set__
_set_protocol = FlowRecord.protocol.__set__
_set_orig_bytes = FlowRecord.orig_bytes.__set__
_set_resp_bytes = FlowRecord.resp_bytes.__set__
_set_orig_pkts = FlowRecord.orig_pkts.__set__
_set_resp_pkts = FlowRecord.resp_pkts.__set__
_set_duration = FlowRecord.duration.__set__
_set_label = FlowRecord.label.__set__


def _canonical_ipv6(name: str, text) -> str:
    """Canonical IPv6 text, so that one host spelt two ways is one endpoint;
    a zone id may hold no whitespace or comma, which would split its row."""
    if type(text) is not str:
        raise ValueError(f"invalid {name}: {text!r}")
    try:
        canonical = str(ipaddress.IPv6Address(text))
    except ValueError as exc:
        raise ValueError(f"invalid {name}: {text!r}") from exc
    if "," in canonical or any(map(str.isspace, canonical)):
        raise ValueError(f"separator in {name}: {text!r}")
    # Canonical text stays the object given, which the parsers share.
    return text if canonical == text else canonical


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_rejected: int = 0

    @property
    def rows_parsed(self) -> int:
        return self.rows_read - self.rows_rejected


# int() and float() also read "+443", "1_000", non-ASCII digits such as
# "\u0663" and text inside whitespace; a count is ASCII digits only, a ts
# or duration ASCII without "_" or surrounding whitespace.
def _parse_count(text: str) -> int:
    if text.isdigit() and text.isascii():
        return int(text)
    if text in _MISSING:
        return 0
    raise ValueError(f"bad count: {text!r}")


def _parse_real(text: str) -> float:
    if not text.isascii() or "_" in text or text.strip() != text:
        raise ValueError(f"bad number: {text!r}")
    return float(text)


def _record(cells: Sequence[str], protocols: dict[str, str],
            addresses: dict[str, str]) -> FlowRecord:
    """Build a FlowRecord from cell texts in CSV_HEADER order; raises
    ValueError on a missing timestamp or any bad value. protocols maps
    protocol text to normalize_protocol's result, filled as rows need it;
    addresses maps address text to the first object seen with that text,
    so the records share one copy of each."""
    ts, src_ip, src_port, dst_ip, dst_port, proto, ob, rb, op, rp, duration, label = cells
    if ts in _MISSING:
        raise ValueError("missing ts")
    protocol = protocols.get(proto) or protocols.setdefault(proto, normalize_protocol(proto))
    return FlowRecord(_parse_real(ts), addresses.setdefault(src_ip, src_ip),
                      _parse_count(src_port), addresses.setdefault(dst_ip, dst_ip),
                      _parse_count(dst_port), protocol, _parse_count(ob), _parse_count(rb),
                      _parse_count(op), _parse_count(rp),
                      0.0 if duration in _MISSING else _parse_real(duration), Label.parse(label))


# A data row's line number and either its cells in CSV_HEADER order or the
# reason it could not be split into them.
_Row = tuple[int, Sequence[str] | str]


def _ingest(rows: Iterable[_Row]) -> tuple[list[FlowRecord], IngestStats]:
    """Build records from rows, counting each one rejected."""
    records: list[FlowRecord] = []
    stats = IngestStats()
    protocols: dict[str, str] = {}
    addresses: dict[str, str] = {}
    for lineno, cells in rows:
        stats.rows_read += 1
        try:
            if type(cells) is str:
                raise ValueError(cells)
            records.append(_record(cells, protocols, addresses))
        except ValueError as exc:
            stats.rows_rejected += 1
            logger.debug("rejected line %d: %s", lineno, exc)
    return records, stats


# The Zeek conn log column for each CSV_HEADER field. Zeek carries no label,
# so a column that happens to be named "label" is ignored.
_ZEEK_FIELDS = ("ts", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "proto",
                "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "duration", None)


def _zeek_rows(lines: Iterable[str]) -> Iterator[_Row]:
    width = 0
    pick = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        # Before the header a whitespace-only line is blank, as to sniff_format.
        if not line or pick is None and line.isspace():
            continue
        if line.startswith("#"):
            parts = line.split("\t")
            if parts[0] == "#fields":
                columns = {name: i for i, name in enumerate(parts[1:])}
                # Without these columns no row could make a flow.
                missing = [n for n in ("ts", "id.orig_h", "id.resp_h") if n not in columns]
                if missing:
                    raise FormatError(f"line {lineno}: #fields lacks {', '.join(missing)}")
                # Count the names, not the distinct names: with a repeated
                # name, every index must still fall inside a full row.
                # An absent column reads the "-" appended past the row's end.
                width = len(parts) - 1
                pick = itemgetter(*(columns.get(name, width) for name in _ZEEK_FIELDS))
            continue
        if pick is None:
            raise FormatError(f"line {lineno}: data row before #fields header")
        fields = line.split("\t")
        if len(fields) != width:
            yield lineno, f"expected {width} fields, got {len(fields)}"
        else:
            fields.append("-")
            yield lineno, pick(fields)


def parse_zeek_conn(lines: Iterable[str]) -> tuple[list[FlowRecord], IngestStats]:
    """Parse a tab-separated Zeek conn log into flow records.

    Args:
        lines: an iterable of text lines; a ``#fields`` directive must name
            the columns before the first data row. ``-`` and ``(empty)``
            mark missing values.

    Returns:
        (records, stats). Rows lacking a timestamp or valid IPs are counted
        as rejected. Only a data row arriving before any ``#fields`` header,
        or a ``#fields`` header without ts, id.orig_h or id.resp_h, raises
        FormatError.
    """
    return _ingest(_zeek_rows(lines))


def _csv_rows(lines: Iterable[str]) -> Iterator[_Row]:
    reader = csv.reader(lines)
    # The first row whose line is not blank; one that csv cannot split
    # (a cell over csv.field_size_limit()) is no header either.
    try:
        header = next((row for row in reader if ",".join(row).strip()), None)
    except csv.Error:
        header = None
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise FormatError(f"missing or malformed CSV header, expected {','.join(CSV_HEADER)}")
    while True:
        try:
            row = next(reader, None)
        except csv.Error as exc:
            # A cell over csv.field_size_limit(); the reader goes on at the next line.
            yield reader.line_num, str(exc)
            continue
        if row is None:
            return
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            yield reader.line_num, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
        else:
            yield reader.line_num, list(map(str.strip, row))


def parse_labeled_csv(lines: Iterable[str]) -> tuple[list[FlowRecord], IngestStats]:
    """Parse the canonical labeled flow CSV into flow records.

    Args:
        lines: an iterable of text lines whose first non-blank line is
            exactly the canonical header (see CSV_HEADER). Labels other than
            normal/attack (case-insensitive) become UNLABELED.

    Returns:
        (records, stats), with the same per-row rejection semantics as
        parse_zeek_conn. A missing or wrong header raises FormatError.
    """
    return _ingest(_csv_rows(lines))


def sniff_format(line: str) -> str:
    """Name the parser, "zeek" or "csv", for a file whose first non-blank
    line is `line`: a Zeek log starts with a ``#`` directive, and anything
    else goes to the labeled CSV parser, which alone judges its header."""
    return "zeek" if line.lstrip().startswith("#") else "csv"


def write_labeled_csv(flows: Iterable[FlowRecord], sink: TextIO) -> None:
    """Serialize flows in the canonical CSV format; floats use repr so a
    write/parse round trip is lossless."""
    sink.write(",".join(CSV_HEADER) + "\n")
    for f in flows:
        sink.write(
            f"{f.ts!r},{f.src_ip},{f.src_port},{f.dst_ip},{f.dst_port},{f.protocol},"
            f"{f.orig_bytes},{f.resp_bytes},{f.orig_pkts},{f.resp_pkts},"
            f"{f.duration!r},{f.label.value}\n"
        )
