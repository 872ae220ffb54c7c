"""Flow record ingestion: Zeek conn logs and the canonical labeled CSV.

Both parsers are total over their input: a malformed row is counted and
skipped, never fatal. Only a missing format header aborts.
"""

from __future__ import annotations

import csv
import enum
import ipaddress
import logging
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from .errors import FormatError

logger = logging.getLogger(__name__)

CSV_HEADER = [
    "ts", "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
    "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "duration", "label",
]

# Zeek's missing-value markers.
_MISSING = {"-", "(empty)", ""}


class Label(enum.Enum):
    NORMAL = "normal"
    ATTACK = "attack"
    UNLABELED = "unlabeled"

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Map label text to a Label; anything unrecognized is UNLABELED."""
        lowered = text.strip().lower()
        if lowered == "normal":
            return cls.NORMAL
        if lowered == "attack":
            return cls.ATTACK
        return cls.UNLABELED


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
        if not math.isfinite(self.ts):
            raise ValueError(f"non-finite timestamp: {self.ts!r}")
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 65535:
                raise ValueError(f"{name} out of range: {port}")
        for name in ("orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"bad duration: {self.duration!r}")
        for name in ("src_ip", "dst_ip"):
            text = getattr(self, name)
            try:
                addr = ipaddress.ip_address(text)
            except ValueError as exc:
                raise ValueError(f"invalid {name}: {text!r}") from exc
            # One IPv6 host has many spellings; keep the canonical one so
            # it forms one endpoint. Valid IPv4 text is already canonical.
            if addr.version == 6:
                object.__setattr__(self, name, str(addr))


def total_bytes(flow: FlowRecord) -> int:
    return flow.orig_bytes + flow.resp_bytes


def total_pkts(flow: FlowRecord) -> int:
    return flow.orig_pkts + flow.resp_pkts


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_parsed: int = 0
    rows_rejected: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0

    def _observe(self, ts: float) -> None:
        if self.rows_parsed == 1:
            self.first_ts = self.last_ts = ts
        else:
            self.first_ts = min(self.first_ts, ts)
            self.last_ts = max(self.last_ts, ts)


def _parse_float(text: str) -> float:
    if text in _MISSING:
        return 0.0
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value: {text!r}")
    return value


def _parse_count(text: str) -> int:
    if text in _MISSING:
        return 0
    return int(text)


def _reject(stats: IngestStats, lineno: int, reason: str) -> None:
    stats.rows_rejected += 1
    logger.debug("rejected line %d: %s", lineno, reason)


def parse_zeek_conn(lines: Iterable[str]) -> tuple[list[FlowRecord], IngestStats]:
    """Parse a tab-separated Zeek conn log into flow records.

    Args:
        lines: an iterable of text lines; a ``#fields`` directive must name
            the columns before the first data row. ``-`` and ``(empty)``
            mark missing values.

    Returns:
        (records, stats). Rows lacking a timestamp or valid IPs are counted
        as rejected; only a data row arriving before any ``#fields`` header
        raises FormatError.
    """
    columns: dict[str, int] | None = None
    records: list[FlowRecord] = []
    stats = IngestStats()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split("\t")
            if parts[0] == "#fields":
                columns = {name: i for i, name in enumerate(parts[1:])}
            continue
        if columns is None:
            raise FormatError(f"line {lineno}: data row before #fields header")

        stats.rows_read += 1
        fields = line.split("\t")
        if len(fields) != len(columns):
            _reject(stats, lineno, f"expected {len(columns)} fields, got {len(fields)}")
            continue

        def cell(name: str) -> str:
            idx = columns.get(name)
            return fields[idx] if idx is not None else "-"

        try:
            ts_text = cell("ts")
            if ts_text in _MISSING:
                raise ValueError("missing ts")
            record = FlowRecord(
                ts=_parse_float(ts_text),
                src_ip=cell("id.orig_h"),
                src_port=_parse_count(cell("id.orig_p")),
                dst_ip=cell("id.resp_h"),
                dst_port=_parse_count(cell("id.resp_p")),
                protocol=normalize_protocol(cell("proto")),
                orig_bytes=_parse_count(cell("orig_bytes")),
                resp_bytes=_parse_count(cell("resp_bytes")),
                orig_pkts=_parse_count(cell("orig_pkts")),
                resp_pkts=_parse_count(cell("resp_pkts")),
                duration=_parse_float(cell("duration")),
            )
        except ValueError as exc:
            _reject(stats, lineno, str(exc))
            continue

        records.append(record)
        stats.rows_parsed += 1
        stats._observe(record.ts)

    return records, stats


def parse_labeled_csv(lines: Iterable[str]) -> tuple[list[FlowRecord], IngestStats]:
    """Parse the canonical labeled flow CSV into flow records.

    Args:
        lines: an iterable of text lines whose first line is exactly the
            canonical header (see CSV_HEADER). Labels other than
            normal/attack (case-insensitive) become UNLABELED.

    Returns:
        (records, stats), with the same per-row rejection semantics as
        parse_zeek_conn. A missing or wrong header raises FormatError.
    """
    records: list[FlowRecord] = []
    stats = IngestStats()
    reader = csv.reader(lines)

    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise FormatError(f"missing or malformed CSV header, expected {','.join(CSV_HEADER)}")

    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        stats.rows_read += 1
        if len(row) != len(CSV_HEADER):
            _reject(stats, lineno, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            continue
        try:
            ts_text = row[0].strip()
            if ts_text in _MISSING:
                raise ValueError("missing ts")
            record = FlowRecord(
                ts=_parse_float(ts_text),
                src_ip=row[1].strip(),
                src_port=_parse_count(row[2].strip()),
                dst_ip=row[3].strip(),
                dst_port=_parse_count(row[4].strip()),
                protocol=normalize_protocol(row[5]),
                orig_bytes=_parse_count(row[6].strip()),
                resp_bytes=_parse_count(row[7].strip()),
                orig_pkts=_parse_count(row[8].strip()),
                resp_pkts=_parse_count(row[9].strip()),
                duration=_parse_float(row[10].strip()),
                label=Label.parse(row[11]),
            )
        except ValueError as exc:
            _reject(stats, lineno, str(exc))
            continue

        records.append(record)
        stats.rows_parsed += 1
        stats._observe(record.ts)

    return records, stats


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
