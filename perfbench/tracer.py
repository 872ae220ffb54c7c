"""Run one flowlang CLI stage in this process with its layer calls timed.

Usage: python3 tracer.py SPANS_JSON ARG...   (ARG... as for `flowlang`)

The names flowlang.cli imported from the other modules are replaced by
wrappers that time each call from outside. Calls made once per sequence
(score_sequence) are folded into one count and one total. The stage's
self time is its time inside cli.main minus the layer calls and the
wrappers' own bookkeeping. The totals are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import flowlang.cli as cli

# Length classes of scored sequences, named by the long_sessions lengths.
LENGTH_CLASSES = (("len1k", 500, 5_000), ("len10k", 5_000, 20_000), ("len40k", 20_000, None))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.bookkeeping = 0.0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, layer: str, name: str, observe=None) -> None:
        """Replace cli.<name> by a timed call recorded under layer."""
        fn = getattr(cli, name)

        def timed(*args, **kwargs):
            entered = time.perf_counter()
            rss_before = _maxrss_mb()
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            ended = time.perf_counter()
            self.bookkeeping += started - entered
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.seconds[layer] = self.seconds.get(layer, 0.0) + ended - started
            if observe is not None:
                observe(self, args, result, ended - started, rss_before)
            self.bookkeeping += time.perf_counter() - ended
            return result

        setattr(cli, name, timed)


def _parsed(t: Tracer, args, result, elapsed, rss_before) -> None:
    stats = result[1]
    t.add("flows.rows_read", stats.rows_read)
    t.add("flows.rows_rejected", stats.rows_rejected)


def _read(t: Tracer, args, result, elapsed, rss_before) -> None:
    seqs = result[0]
    t.add("language.sequences", len(seqs))
    t.add("language.tokens", sum(len(s.token_ids) for s in seqs))


def _counted(t: Tracer, args, result, elapsed, rss_before) -> None:
    t.add("pst.contexts", len(result.occurrences))
    t.add("pst.count_rss_mb", _maxrss_mb() - rss_before)


def _built(t: Tracer, args, result, elapsed, rss_before) -> None:
    t.add("pst.nodes", result.node_count)


def _scored(t: Tracer, args, result, elapsed, rss_before) -> None:
    n = len(args[1])
    t.add("pst.score_tokens", n)
    for name, lo, hi in LENGTH_CLASSES:
        if n >= lo and (hi is None or n < hi):
            t.add(f"pst.score_tokens.{name}", n)
            t.add(f"pst.score_s.{name}", elapsed)


def _evaluated(t: Tracer, args, result, elapsed, rss_before) -> None:
    t.add("evaluate.examples", result.n_attack + result.n_normal)


def main(argv: list[str]) -> int:
    spans_path, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.wrap("flows.parse", "parse_zeek_conn", _parsed)
    tracer.wrap("flows.parse", "parse_labeled_csv", _parsed)
    tracer.wrap("language.sessionize", "sessionize")
    tracer.wrap("language.write", "write_sequences")
    tracer.wrap("language.read", "read_sequences", _read)
    tracer.wrap("pst.count", "count_contexts", _counted)
    tracer.wrap("pst.build", "build_tree", _built)
    tracer.wrap("pst.save", "save_model")
    tracer.wrap("pst.load", "load_model")
    tracer.wrap("pst.score", "score_sequence", _scored)
    tracer.wrap("pst.flag", "flag_anomalies")
    tracer.wrap("evaluate.evaluate", "evaluate", _evaluated)

    started = time.perf_counter()
    code = cli.main(stage_argv)
    stage_s = time.perf_counter() - started
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "stage": stage_argv[0],
            "stage_s": stage_s,
            "self_s": stage_s - sum(tracer.seconds.values()) - tracer.bookkeeping,
            "calls": tracer.calls,
            "seconds": tracer.seconds,
            "counts": tracer.counts,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
