"""The benchmark's three workloads: seeded input generation and CLI stages.

Inputs are written under ``<work>/in`` before any stage runs; stages read
them and write under ``<work>/out``. Every path a stage sees is relative
to the work directory, which is the stages' working directory.

The sizes keep one pipeline run at 2-4 s on a 2-vCPU host, so that ten
or more fit in one benchmark run and their median is steady; each
workload is still dominated by the layer it exists to stress.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from flowlang.flows import CSV_HEADER
from flowlang.language import write_sequences
from flowlang.synth import (
    GenConfig,
    SplitMix64,
    corpus_to_sequences,
    demo_spec_pair,
    generate_corpus,
)

EPSILON = "0.0001"


@dataclass
class Inputs:
    """What one set-up wrote, plus what generating it cost."""

    files: list[str]
    synth_s: float = 0.0
    synth_tokens: int = 0
    # Malformed rows written into each flow log, keyed by its path.
    injected: dict[str, int] = field(default_factory=dict)

    def generate(self, background, anomaly, cfg: GenConfig):
        """generate_corpus, with its time and output size recorded."""
        started = time.perf_counter()
        corpus = generate_corpus(background, anomaly, cfg)
        self.synth_s += time.perf_counter() - started
        self.synth_tokens += sum(len(symbols) for symbols, _ in corpus)
        return corpus


@dataclass(frozen=True)
class Workload:
    name: str
    # Writes the inputs under <work>/in from the seed.
    write_inputs: Callable[[int, Path], Inputs]
    # (stage name, argv after "flowlang"), run in order.
    stages: list[tuple[str, list[str]]]
    # Stage outputs whose bytes must be deterministic.
    outputs: list[str]
    # The sequences file that is scored and evaluated.
    scored: str
    # The --zero-policy eval runs with, in the evaluate module's spelling.
    zero_policy: str = "exclude_zero"

    def make_inputs(self, seed: int, work: Path) -> Inputs:
        (work / "in").mkdir(parents=True, exist_ok=True)
        return self.write_inputs(seed, work)


def _sub_seed(seed: int, index: int) -> int:
    """The index-th value of a stream keyed by the workload seed, so each
    generated file draws from its own independent seed."""
    rng = SplitMix64(seed)
    for _ in range(index):
        rng.next_u64()
    return rng.next_u64()


def _write_corpus(path: Path, corpus, alphabet: int) -> None:
    seqs, vocab = corpus_to_sequences(corpus, alphabet)
    with open(path, "w", encoding="utf-8") as fh:
        write_sequences(seqs, vocab, fh)


# --- corpus -----------------------------------------------------------

def _corpus_inputs(seed: int, work: Path) -> Inputs:
    inputs = Inputs(files=["in/corpus.txt"])
    background, anomaly = demo_spec_pair(8)
    corpus = inputs.generate(
        background, anomaly, GenConfig(1_500, 30, 70, 0.05, _sub_seed(seed, 0)))
    _write_corpus(work / "in/corpus.txt", corpus, 8)
    return inputs


# --- long_sessions ----------------------------------------------------

LONG_CLASSES = ((1_000, 12), (10_000, 2), (40_000, 1))


def _long_inputs(seed: int, work: Path) -> Inputs:
    inputs = Inputs(files=["in/train.txt", "in/test.txt"])
    background, anomaly = demo_spec_pair(8)
    train = inputs.generate(
        background, anomaly, GenConfig(500, 30, 70, 0.05, _sub_seed(seed, 0)))
    _write_corpus(work / "in/train.txt", train, 8)
    test = []
    for k, (length, count) in enumerate(LONG_CLASSES):
        n_attack = max(1, count // 4)
        for fraction, n in ((1.0, n_attack), (0.0, count - n_attack)):
            if n == 0:
                continue
            cfg = GenConfig(n, length, length, fraction, _sub_seed(seed, 1 + 2 * k + int(fraction)))
            test.extend(inputs.generate(background, anomaly, cfg))
    _write_corpus(work / "in/test.txt", test, 8)
    return inputs


# --- flows ------------------------------------------------------------

FLOW_ALPHABET = 16
FLOW_SEQUENCES = 500  # x 30..70 flows = about 25k flows per day
MALFORMED_PERCENT = 1
DAY0 = 1_700_006_400  # a UTC midnight
ZEEK_FIELDS = [
    "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "proto",
    "service", "duration", "orig_bytes", "resp_bytes", "conn_state",
    "orig_pkts", "resp_pkts",
]
ZEEK_TYPES = [
    "time", "string", "addr", "port", "addr", "port", "enum", "string",
    "interval", "count", "count", "string", "count", "count",
]
_PORTS = (22, 53, 80, 123, 443, 445, 3389, 8080)


def _flows(corpus, rng: SplitMix64, day_start: int) -> list[dict]:
    """One flow per symbol; each sequence is one host pair's traffic in one
    hour, so hourly sessionization gives the source's sequences back.

    Symbol s becomes a tcp (even s) or udp (odd s) flow whose total bytes
    have floor(log2) == 4 + s // 2, hence the token proto_b<4 + s//2>.
    """
    flows = []
    for k, (symbols, label) in enumerate(corpus):
        a = f"10.{k >> 8 & 255}.{k & 255}.{1 + rng.next_below(250)}"
        b = f"192.168.{rng.next_below(256)}.{1 + rng.next_below(250)}"
        start = day_start + 3600 * rng.next_below(24)
        step = 3600 / len(symbols)
        for j, s in enumerate(symbols):
            size_bits, other_bits = rng.next_u64(), rng.next_u64()
            lo = 1 << (4 + s // 2)
            total = lo + (size_bits & 0xFFFFF) % lo
            orig = (size_bits >> 20 & 0xFFFFF) % (total + 1)
            src, dst = (a, b) if size_bits >> 40 & 1 else (b, a)
            flows.append({
                # Under half a step of jitter keeps each pair's flows in
                # order and inside the hour.
                "ts": start + (j + (size_bits >> 41 & 0xFFFF) / 0x20000) * step,
                "src_ip": src,
                "src_port": 1024 + (other_bits & 0xEFFF),
                "dst_ip": dst,
                "dst_port": _PORTS[other_bits >> 16 & 7],
                "protocol": "tcp" if s % 2 == 0 else "udp",
                "orig_bytes": orig,
                "resp_bytes": total - orig,
                "orig_pkts": 1 + (other_bits >> 19 & 7),
                "resp_pkts": other_bits >> 22 & 7,
                "duration": (other_bits >> 25 & 0x3FF) / 64,
                "label": label.value,
                "uid": f"C{k:05d}x{j:03d}",
            })
    flows.sort(key=lambda f: f["ts"])
    return flows


# Each malformed row has exactly one of these faults, and each makes the
# parser reject the row.
_FAULTS = ("bad_ip", "missing_ts", "negative_bytes", "field_count")


def _break(flow: dict, fault: str, missing: str) -> dict:
    bad = dict(flow)
    if fault == "bad_ip":
        bad["src_ip"] = "10.0.0.300"
    elif fault == "missing_ts":
        bad["ts"] = missing
    elif fault == "negative_bytes":
        bad["resp_bytes"] = -1 - bad["resp_bytes"]
    return bad


def _write_rows(path: Path, header: list[str], flows: list[dict], columns,
                sep: str, missing: str, rng: SplitMix64) -> int:
    """Write flows, with a malformed copy of a seeded 1% of them just
    before the original. Returns how many malformed rows were written."""
    broken: dict[int, str] = {}
    while len(broken) < len(flows) * MALFORMED_PERCENT // 100:
        broken.setdefault(rng.next_below(len(flows)), _FAULTS[rng.next_below(len(_FAULTS))])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(header)
        for i, flow in enumerate(flows):
            fault = broken.get(i)
            if fault is not None:
                cells = columns(_break(flow, fault, missing))
                if fault == "field_count":
                    cells = cells[:-1]
                fh.write(sep.join(cells) + "\n")
            fh.write(sep.join(columns(flow)) + "\n")
    return len(broken)


def _ts(value) -> str:
    return value if isinstance(value, str) else f"{value:.6f}"


def _zeek_columns(f: dict) -> list[str]:
    return [
        _ts(f["ts"]), f["uid"], f["src_ip"], str(f["src_port"]), f["dst_ip"],
        str(f["dst_port"]), f["protocol"], "-", repr(f["duration"]),
        str(f["orig_bytes"]), str(f["resp_bytes"]), "SF",
        str(f["orig_pkts"]), str(f["resp_pkts"]),
    ]


def _csv_columns(f: dict) -> list[str]:
    return [
        _ts(f["ts"]), f["src_ip"], str(f["src_port"]), f["dst_ip"],
        str(f["dst_port"]), f["protocol"], str(f["orig_bytes"]),
        str(f["resp_bytes"]), str(f["orig_pkts"]), str(f["resp_pkts"]),
        repr(f["duration"]), f["label"],
    ]


def _flows_inputs(seed: int, work: Path) -> Inputs:
    inputs = Inputs(files=["in/train.log", "in/mixed.csv"])
    background, anomaly = demo_spec_pair(FLOW_ALPHABET)

    train = inputs.generate(background, anomaly, GenConfig(
        FLOW_SEQUENCES, 30, 70, 0.0, _sub_seed(seed, 0)))
    rng = SplitMix64(_sub_seed(seed, 1))
    header = [
        "#separator \\x09\n", "#set_separator\t,\n", "#empty_field\t(empty)\n",
        "#unset_field\t-\n", "#path\tconn\n",
        "#fields\t" + "\t".join(ZEEK_FIELDS) + "\n",
        "#types\t" + "\t".join(ZEEK_TYPES) + "\n",
    ]
    inputs.injected["in/train.log"] = _write_rows(
        work / "in/train.log", header, _flows(train, rng, DAY0), _zeek_columns,
        "\t", "-", rng)

    mixed = inputs.generate(background, anomaly, GenConfig(
        FLOW_SEQUENCES, 30, 70, 0.05, _sub_seed(seed, 2)))
    rng = SplitMix64(_sub_seed(seed, 3))
    inputs.injected["in/mixed.csv"] = _write_rows(
        work / "in/mixed.csv", [",".join(CSV_HEADER) + "\n"],
        _flows(mixed, rng, DAY0 + 86_400), _csv_columns, ",", "", rng)
    return inputs


_TRAIN = ["--out", "out/model.json", "--epsilon", EPSILON, "--no-timestamp"]
_REPORT = ["out/model.json", "out/scores.csv", "out/report/report.json"]

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="corpus",
            write_inputs=_corpus_inputs,
            stages=[
                ("train", ["train", "--in", "in/corpus.txt", *_TRAIN]),
                ("score", ["score", "--model", "out/model.json", "--in", "in/corpus.txt",
                           "--out", "out/scores.csv", "--limit", "1e-30"]),
                ("eval", ["eval", "--scores", "out/scores.csv",
                          "--sequences", "in/corpus.txt", "--out-dir", "out/report"]),
            ],
            outputs=_REPORT,
            scored="in/corpus.txt",
        ),
        Workload(
            name="long_sessions",
            write_inputs=_long_inputs,
            stages=[
                ("train", ["train", "--in", "in/train.txt", *_TRAIN]),
                ("score", ["score", "--model", "out/model.json", "--in", "in/test.txt",
                           "--out", "out/scores.csv"]),
                ("eval", ["eval", "--scores", "out/scores.csv",
                          "--sequences", "in/test.txt", "--out-dir", "out/report"]),
            ],
            outputs=_REPORT,
            scored="in/test.txt",
        ),
        Workload(
            name="flows",
            write_inputs=_flows_inputs,
            stages=[
                ("prepare", ["prepare", "--in", "in/train.log", "--out", "out/train.seqs",
                             "--no-timestamp"]),
                ("prepare", ["prepare", "--in", "in/mixed.csv", "--out", "out/mixed.seqs",
                             "--no-timestamp"]),
                ("train", ["train", "--in", "out/train.seqs", *_TRAIN]),
                ("score", ["score", "--model", "out/model.json", "--in", "out/mixed.seqs",
                           "--out", "out/scores.csv"]),
                ("eval", ["eval", "--scores", "out/scores.csv", "--sequences",
                          "out/mixed.seqs", "--out-dir", "out/report",
                          "--zero-policy", "most-anomalous"]),
            ],
            outputs=["out/train.seqs", "out/mixed.seqs", *_REPORT],
            scored="out/mixed.seqs",
            zero_policy="zero_most_anomalous",
        ),
    )
}
