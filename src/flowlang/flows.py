"""Flow record ingestion: Zeek conn logs and the canonical labeled CSV.

Both parsers are total over their input: a malformed row is counted and
skipped, never fatal. Only a missing or incomplete format header aborts.
"""

from __future__ import annotations

import csv
import enum
import ipaddress
import logging
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import FormatError

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


class Label(enum.Enum):
    NORMAL = "normal"
    ATTACK = "attack"
    UNLABELED = "unlabeled"

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Map label text to a Label; anything unrecognized is UNLABELED."""
        return _LABELS.get(text.strip().lower(), cls.UNLABELED)


_LABELS = {label.value: label for label in Label}


def normalize_protocol(text: str) -> str:
    """Lowercase a protocol name and strip characters the token grammar
    cannot carry; missing or empty names become "other"."""
    cleaned = "".join(c for c in text.strip().lower() if c.isascii() and c.isalnum())
    return cleaned or "other"


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        for name in ("ts", "duration"):
            value = getattr(self, name)
            # The parsers pass floats. An int is stored as the float nearest
            # it, so equal records write equal rows; a bool is no number.
            if type(value) is not float:
                if type(value) is not int or abs(value) > sys.float_info.max:
                    raise ValueError(f"bad {name}: {value!r}")
                object.__setattr__(self, name, float(value))
        if not math.isfinite(self.ts):
            raise ValueError(f"non-finite timestamp: {self.ts!r}")
        for name in ("src_port", "dst_port", "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"bad {name}: {value!r}")
        if max(self.src_port, self.dst_port) > 65535:
            raise ValueError(f"port out of range: {max(self.src_port, self.dst_port)}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"bad duration: {self.duration!r}")
        # Any other protocol or label is written as text that reads back as
        # another value, or not at all.
        if type(self.protocol) is not str or not _PROTOCOL.fullmatch(self.protocol):
            raise ValueError(f"bad protocol: {self.protocol!r}")
        if type(self.label) is not Label:
            raise ValueError(f"bad label: {self.label!r}")
        for name in ("src_ip", "dst_ip"):
            text = getattr(self, name)
            if type(text) is not str:
                raise ValueError(f"invalid {name}: {text!r}")
            if _IPV4.fullmatch(text):
                continue
            # Valid IPv4 text matched _IPV4, so this is IPv6 or invalid. One
            # IPv6 host has many spellings; keep the canonical one so it forms
            # one endpoint. Only a zone id can hold whitespace, which splits a
            # Zeek row, or a comma, which splits a CSV row.
            try:
                canonical = str(ipaddress.IPv6Address(text))
            except ValueError as exc:
                raise ValueError(f"invalid {name}: {text!r}") from exc
            if "," in canonical or any(map(str.isspace, canonical)):
                raise ValueError(f"separator in {name}: {text!r}")
            # Canonical text stays the object given, which the parsers share.
            if canonical != text:
                object.__setattr__(self, name, canonical)


def total_bytes(flow: FlowRecord) -> int:
    return flow.orig_bytes + flow.resp_bytes


def total_pkts(flow: FlowRecord) -> int:
    return flow.orig_pkts + flow.resp_pkts


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


def _record(cells: list[str], protocols: dict[str, str],
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
_Row = tuple[int, list[str] | str]


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
    order: list[int | None] | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        # Before the header a whitespace-only line is blank, as to sniff_format.
        if not line or order is None and line.isspace():
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
                width = len(parts) - 1
                order = [columns.get(name) for name in _ZEEK_FIELDS]
            continue
        if order is None:
            raise FormatError(f"line {lineno}: data row before #fields header")
        fields = line.split("\t")
        if len(fields) != width:
            yield lineno, f"expected {width} fields, got {len(fields)}"
        else:
            yield lineno, ["-" if i is None else fields[i] for i in order]


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
            yield reader.line_num, [cell.strip() for cell in row]


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
