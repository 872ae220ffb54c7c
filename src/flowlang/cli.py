"""Command line front end: prepare, train, score, eval, synth, words.

Every stage reads and writes plain files so the pipeline is resumable
and each step is testable on its own. Diagnostics go to stderr; exit
codes: 0 success, 1 stdout closed early, 2 usage error, 3 format error,
4 data error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from .errors import DataError, FormatError
from .evaluate import DEFAULT_PRECISION_NS, RANKINGS, ZERO_POLICIES, EvalReport, evaluate
from .flows import parse_labeled_csv, parse_zeek_conn, sniff_format
from .language import (
    SCHEME_KINDS,
    WINDOWS,
    Label,
    SessionPolicy,
    TokenScheme,
    Vocabulary,
    read_sequences,
    sessionize,
    write_sequences,
)
from .pst import (
    PstParams,
    Score,
    build_tree,
    count_contexts,
    flag_anomalies,
    load_model,
    save_model,
    score_sequence,
)

SCORES_HEADER = "id,likelihood,per_symbol_log_loss,zero_likelihood"


def _now_utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _seq_id(index: int) -> str:
    return f"{index:08d}"


def _score_row(index: int, s: Score) -> str:
    flag = "true" if s.zero_likelihood else "false"
    return f"{_seq_id(index)},{s.likelihood!r},{s.per_symbol_log_loss!r},{flag}"


def _session_policy(text: str) -> SessionPolicy:
    if text in WINDOWS:
        return SessionPolicy(kind=text)
    if text.startswith("gap:"):
        try:
            return SessionPolicy(kind="gap", gap_seconds=float(text[4:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"expected hour, day, week, or gap:SECONDS, got {text!r}")


def _precision_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad precision depths: {text!r}")
    return values


def _add_pst_flags(sp: argparse.ArgumentParser) -> None:
    defaults = PstParams()
    sp.add_argument("--depth", type=int, default=defaults.depth, help="max context length")
    sp.add_argument("--p-min", type=float, default=defaults.p_min,
                    help="min context frequency for candidacy")
    sp.add_argument("--threshold", type=float, default=defaults.threshold,
                    help="min conditional probability in the retention test")
    sp.add_argument("--tau", type=float, default=defaults.tau,
                    help="retention ratio against the suffix context")
    sp.add_argument("--epsilon", type=float, default=defaults.epsilon,
                    help="uniform smoothing floor")


def _pst_params(args: argparse.Namespace) -> PstParams:
    return PstParams(depth=args.depth, p_min=args.p_min, threshold=args.threshold,
                     tau=args.tau, epsilon=args.epsilon)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlang",
        description="Tokenize network flows, model them with a probabilistic "
                    "suffix tree, and rank sequences by likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="flows file -> sequences file")
    sp.add_argument("--in", dest="input", required=True,
                    help="Zeek conn log or labeled CSV (auto-detected)")
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--scheme", choices=SCHEME_KINDS, default=TokenScheme().kind)
    sp.add_argument("--bucket-width", type=int, default=TokenScheme().bucket_width)
    sp.add_argument("--session", type=_session_policy, default=SessionPolicy(),
                    metavar="{hour,day,week,gap:SECONDS}")
    sp.add_argument("--min-length", type=int, default=1,
                    help="drop sequences with fewer flows")
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(run=cmd_prepare)

    sp = sub.add_parser("train", help="sequences file -> model file")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    _add_pst_flags(sp)
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(run=cmd_train)

    sp = sub.add_parser("score", help="model + sequences -> scores CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--limit", type=float, default=1e-6,
                    help="flag sequences with 0 < likelihood < limit")
    sp.set_defaults(run=cmd_score)

    sp = sub.add_parser("eval", help="scores + sequences -> report and CSVs")
    sp.add_argument("--scores", required=True)
    sp.add_argument("--sequences", required=True)
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.add_argument("--rank", choices=RANKINGS, default="logloss")
    sp.add_argument("--zero-policy", choices=ZERO_POLICIES, default="exclude")
    sp.add_argument("--bins", type=int, default=20)
    sp.add_argument("--precision-at", type=_precision_list, default=DEFAULT_PRECISION_NS,
                    metavar="N[,N...]")
    sp.set_defaults(run=cmd_eval)

    sp = sub.add_parser("synth", help="built-in Markov pair -> sequences file")
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--n", dest="n_sequences", type=int, default=2000)
    sp.add_argument("--length-min", type=int, default=30)
    sp.add_argument("--length-max", type=int, default=70)
    sp.add_argument("--anomaly-fraction", type=float, default=0.05)
    sp.add_argument("--alphabet", type=int, default=8, help="4 to 1024 symbols")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(run=cmd_synth)

    sp = sub.add_parser("words", help="character-level demo on a wordlist")
    sp.add_argument("--wordlist", help="one lowercase word per line "
                                       "(default: bundled list)")
    sp.add_argument("--out", dest="output",
                    help="write the listing here instead of stdout")
    _add_pst_flags(sp)
    sp.set_defaults(run=cmd_words)

    return parser


def cmd_prepare(args: argparse.Namespace) -> int:
    scheme = TokenScheme(kind=args.scheme, bucket_width=args.bucket_width)
    if args.min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {args.min_length}")
    with open(args.input, encoding="utf-8", errors="replace") as fh:
        # Buffer up to the first non-blank line to sniff the format, then
        # give the parser every line, so its line numbers are the file's.
        head = []
        for line in fh:
            head.append(line)
            if line.strip():
                break
        lines = itertools.chain(head, fh)
        if sniff_format(head[-1] if head else "") == "zeek":
            records, stats = parse_zeek_conn(lines)
        else:
            records, stats = parse_labeled_csv(lines)
    seqs, vocab = sessionize(
        records, scheme, args.session, min_length=args.min_length)
    comment = None if args.no_timestamp else f"generated {_now_utc()}"
    with open(args.output, "w", encoding="utf-8") as fh:
        write_sequences(seqs, vocab, fh, comment=comment)
    by_label = {label: 0 for label in Label}
    for s in seqs:
        by_label[s.label] += 1
    print(f"rows: {stats.rows_read} read, {stats.rows_parsed} parsed, "
          f"{stats.rows_rejected} rejected")
    print(f"sequences: {len(seqs)}")
    print(f"vocabulary: {len(vocab)} tokens")
    print(f"labels: {by_label[Label.ATTACK]} attack, {by_label[Label.NORMAL]} normal, "
          f"{by_label[Label.UNLABELED]} unlabeled")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    params = _pst_params(args)
    with open(args.input, encoding="utf-8") as fh:
        seqs, vocab = read_sequences(fh)
    tree = build_tree(count_contexts((s.token_ids for s in seqs), params.depth, params.p_min),
                      params, vocab)  # so the count table is freed before the save
    created = None if args.no_timestamp else _now_utc()
    with open(args.output, "w", encoding="utf-8") as fh:
        save_model(tree, fh, created=created)
    print(f"nodes: {tree.node_count}")
    print(f"depth: {params.depth}")
    print(f"vocabulary: {len(vocab)} tokens")
    print(f"trained on {tree.n_train_sequences} sequences, "
          f"{tree.n_train_tokens} tokens")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if not 0.0 < args.limit <= 1.0:
        raise ValueError(f"limit must be in (0, 1], got {args.limit}")
    with open(args.model, encoding="utf-8") as fh:
        tree = load_model(fh)
    with open(args.input, encoding="utf-8") as fh:
        seqs, vocab = read_sequences(fh)
    text_of = vocab.tokens()
    scored = [(_seq_id(i), score_sequence(tree, [text_of[t] for t in seq.token_ids]))
              for i, seq in enumerate(seqs)]
    flagged, zeros = flag_anomalies(scored, args.limit)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(SCORES_HEADER + "\n")
        for i, (_, s) in enumerate(scored):
            fh.write(_score_row(i, s) + "\n")
    print(f"scored {len(scored)} sequences: {len(flagged)} flagged below "
          f"{args.limit!r}, {len(zeros)} zero-likelihood")
    for seq_id in flagged:
        print(f"flag {seq_id}")
    for seq_id in zeros:
        print(f"zero {seq_id}")
    return 0


def _parse_scores_csv(lines: Iterable[str]) -> list[Score]:
    """Parse cmd_score's CSV into its scores, in row order. Data row k
    parses only when it builds a Score that _score_row(k, ...) writes back
    as exactly that row, so each id is its row's 0-based position and
    every value is one Score accepts."""
    it = iter(lines)
    if next(it, "").rstrip("\n") != SCORES_HEADER:
        raise FormatError(f"scores file must start with {SCORES_HEADER!r}")
    rows: list[Score] = []
    for lineno, raw in enumerate(it, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        try:
            _, lik_text, loss_text, _ = line.split(",")
            score = Score(float(lik_text), float(loss_text))
            if _score_row(len(rows), score) != line:
                raise ValueError
        except ValueError:
            raise FormatError(f"line {lineno}: not as written: {line!r}") from None
        rows.append(score)
    return rows


def _report_json(report: EvalReport) -> dict:
    return {
        "auc": report.auc,
        "n_attack": report.n_attack,
        "n_normal": report.n_normal,
        "n_zero_likelihood": report.n_zero_likelihood,
        "precision_at": {str(n): v for n, v in sorted(report.precision_at.items())},
        # json writes the histogram's tuples as lists.
        "histogram": asdict(report.histogram),
    }


def cmd_eval(args: argparse.Namespace) -> int:
    if args.bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {args.bins}")
    with open(args.sequences, encoding="utf-8") as fh:
        seqs, _ = read_sequences(fh)
    with open(args.scores, encoding="utf-8") as fh:
        rows = _parse_scores_csv(fh)
    if len(rows) != len(seqs):
        raise DataError(
            f"scores file has {len(rows)} rows for {len(seqs)} sequences")
    triples = [(_seq_id(i), score, seq.label)
               for i, (score, seq) in enumerate(zip(rows, seqs))]

    report = evaluate(
        triples, policy=args.zero_policy, rank=args.rank,
        n_bins=args.bins, precision_ns=args.precision_at)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_report_json(report), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(out_dir / "roc.csv", "w", encoding="utf-8") as fh:
        fh.write("fpr,tpr,threshold\n")
        for pt in report.roc:
            fh.write(f"{pt.fpr!r},{pt.tpr!r},{pt.threshold!r}\n")
    with open(out_dir / "hist.csv", "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,normal_count,attack_count\n")
        h = report.histogram
        for b in range(len(h.normal_counts)):
            fh.write(f"{h.edges[b]!r},{h.edges[b + 1]!r},"
                     f"{h.normal_counts[b]},{h.attack_counts[b]}\n")
        fh.write(f"inf,inf,{h.overflow_normal},{h.overflow_attack}\n")

    print(f"auc: {report.auc!r}")
    print(f"examples: {report.n_attack} attack, {report.n_normal} normal, "
          f"{report.n_zero_likelihood} zero-likelihood")
    for n, v in sorted(report.precision_at.items()):
        print(f"precision@{n}: {v!r}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import GenConfig, corpus_to_sequences, demo_spec_pair, generate_corpus
    background, anomaly = demo_spec_pair(args.alphabet)
    gen = GenConfig(
        n_sequences=args.n_sequences, length_min=args.length_min,
        length_max=args.length_max, anomaly_fraction=args.anomaly_fraction,
        seed=args.seed)
    corpus = generate_corpus(background, anomaly, gen)
    seqs, vocab = corpus_to_sequences(corpus, args.alphabet)
    comment = None if args.no_timestamp else f"generated {_now_utc()}"
    with open(args.output, "w", encoding="utf-8") as fh:
        write_sequences(seqs, vocab, fh, comment=comment)
    n_attack = sum(1 for s in seqs if s.label is Label.ATTACK)
    print(f"wrote {len(seqs)} sequences ({n_attack} attack, "
          f"{len(seqs) - n_attack} normal), alphabet {args.alphabet}")
    return 0


def _load_wordlist(path: str | None) -> list[str]:
    from importlib import resources  # only the bundled list needs it
    source = resources.files("flowlang") / "data/words.txt" if path is None else Path(path)
    words = []
    with source.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            word = raw.strip()
            if not word:
                continue
            if not word.isascii() or not word.isalpha() or word != word.lower():
                raise FormatError(f"line {lineno}: not a lowercase word: {word!r}")
            words.append(word)
    if not words:
        raise DataError("word list is empty")
    return words


def cmd_words(args: argparse.Namespace) -> int:
    params = _pst_params(args)
    words = _load_wordlist(args.wordlist)
    vocab = Vocabulary()
    id_seqs = [tuple(vocab.add(ch) for ch in word) for word in words]
    counts = count_contexts(id_seqs, params.depth, params.p_min)
    tree = build_tree(counts, params, vocab)
    scored = sorted(
        ((word, score_sequence(tree, list(word))) for word in words),
        key=lambda pair: (pair[1].per_symbol_log_loss, pair[0]),
    )
    listing = "".join(
        f"{word}\t{s.per_symbol_log_loss!r}\t{s.likelihood!r}\n"
        for word, s in scored)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(listing)
        print(f"scored {len(words)} words against a {tree.node_count}-node tree")
    else:
        sys.stdout.write(listing)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away; files written are complete. Point
        # stdout at devnull so the interpreter's exit flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"format error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
