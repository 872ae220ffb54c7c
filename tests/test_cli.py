"""End-to-end checks of the command line pipeline.

Commands run in-process through main(), which returns the exit code; one
subprocess test confirms the module entry point is wired up.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CSV_TEXT, ZEEK_TEXT
import flowlang.cli
from flowlang.cli import SCORES_HEADER, _parse_scores_csv, _score_row, main
from flowlang.errors import FormatError
from flowlang.language import Label, Sequence, Vocabulary, read_sequences, write_sequences
from flowlang.pst import (
    PstParams, Score, build_tree, count_contexts, load_model, score_sequence)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_corpus(path):
    with open(path, encoding="utf-8") as fh:
        return read_sequences(fh.readlines())


class TestPrepare:
    def test_labeled_csv(self, tmp_path, capsys):
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT)
        out = tmp_path / "seqs.txt"
        code, stdout, _ = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 0
        assert "rows: 5 read, 5 parsed, 0 rejected" in stdout
        assert "sequences: 3" in stdout
        assert "labels: 1 attack, 2 normal, 0 unlabeled" in stdout
        seqs, vocab = read_corpus(out)
        assert len(seqs) == 3
        assert sum(len(s.token_ids) for s in seqs) == 5
        labels = [s.label for s in seqs]
        assert labels.count(Label.ATTACK) == 1
        assert labels.count(Label.NORMAL) == 2
        assert len(vocab) >= 1

    def test_min_length_filter(self, tmp_path, capsys):
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT)
        out = tmp_path / "seqs.txt"
        code, stdout, _ = run(capsys, "prepare", "--in", str(src),
                              "--out", str(out), "--min-length", "2")
        assert code == 0
        assert "sequences: 1" in stdout

    def test_header_only_csv(self, tmp_path, capsys):
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT.splitlines()[0] + "\n")
        out = tmp_path / "seqs.txt"
        code, stdout, _ = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 0
        assert "rows: 0 read, 0 parsed, 0 rejected" in stdout
        assert "sequences: 0" in stdout
        seqs, vocab = read_corpus(out)
        assert seqs == []
        assert len(vocab) == 0

    def test_zeek_autodetect(self, tmp_path, capsys):
        src = tmp_path / "conn.log"
        src.write_text(ZEEK_TEXT)
        out = tmp_path / "seqs.txt"
        code, stdout, _ = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 0
        assert "rows: 2 read, 2 parsed, 0 rejected" in stdout
        seqs, _ = read_corpus(out)
        assert len(seqs) == 1
        assert seqs[0].label is Label.UNLABELED

    def test_binary_garbage(self, tmp_path, capsys):
        src = tmp_path / "blob.bin"
        src.write_bytes(b"\x00\xff\xfePK\x03\x04\x1f\x8b")
        out = tmp_path / "seqs.txt"
        code, _, stderr = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 3
        assert "format error" in stderr

    def test_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code, _, stderr = run(capsys, "prepare", "--in", str(missing),
                              "--out", str(tmp_path / "o"))
        assert code == 2
        assert os.strerror(errno.ENOENT) in stderr
        assert repr(str(missing)) in stderr
        assert not (tmp_path / "o").exists()

    def test_leading_blank_lines(self, tmp_path, capsys):
        outputs = []
        for name, text in (("plain", CSV_TEXT), ("blank", "\n\n" + CSV_TEXT)):
            src = tmp_path / f"{name}.csv"
            src.write_text(text)
            out = tmp_path / f"{name}.seqs"
            code, stdout, _ = run(capsys, "prepare", "--in", str(src), "--out", str(out),
                                  "--no-timestamp")
            assert code == 0
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", [CSV_TEXT, ZEEK_TEXT], ids=["csv", "zeek"])
    def test_leading_whitespace_lines(self, tmp_path, capsys, text):
        outputs = []
        for name, prefix in (("plain", ""), ("spaces", "   \n"), ("tab", "\t\n"),
                             ("both", "   \n\t\n")):
            src = tmp_path / f"{name}.in"
            src.write_text(prefix + text)
            out = tmp_path / f"{name}.seqs"
            code, stdout, stderr = run(capsys, "prepare", "--in", str(src),
                                       "--out", str(out), "--no-timestamp")
            assert (code, stderr) == (0, "")
            outputs.append((stdout, out.read_bytes()))
        assert all(output == outputs[0] for output in outputs)

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_whitespace_in_ipv6_zone_is_rejected(self, tmp_path, capsys, char):
        # The quoted cell is a valid scoped address, but no sequences file
        # row can carry its whitespace.
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT + f'400.0,"fe80::1%a{char}b",1,fe80::2,2,tcp,1,1,1,1,0.0,normal\n')
        out = tmp_path / "seqs.txt"
        code, stdout, _ = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 0
        assert "rows: 6 read, 5 parsed, 1 rejected" in stdout
        code, _, stderr = run(capsys, "train", "--in", str(out),
                              "--out", str(tmp_path / "m.json"))
        assert (code, stderr) == (0, "")

    @pytest.mark.parametrize("name", ["ts", "id.orig_h", "id.resp_h"])
    def test_zeek_fields_need_flow_columns(self, tmp_path, capsys, name):
        src = tmp_path / "conn.log"
        src.write_text(ZEEK_TEXT.replace(f"\t{name}\t", "\tuid\t", 1))
        out = tmp_path / "seqs.txt"
        code, _, stderr = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 3
        assert f"line 2: #fields lacks {name}" in stderr
        assert not out.exists()

    def test_bad_session_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--in", "x", "--out", "y", "--session", "fortnight"])
        assert exc.value.code == 2

    def test_bad_gap_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--in", "x", "--out", "y", "--session", "gap:x"])
        assert exc.value.code == 2
        assert "could not convert string to float" in capsys.readouterr().err

    def test_quoted_csv_header(self, tmp_path, capsys):
        # The CSV parser alone judges the header, cell by cell as csv
        # splits it; the first line only picks that parser.
        header, rest = CSV_TEXT.split("\n", 1)
        quoted = ",".join(f'"{cell}"' for cell in header.split(",")) + "\n" + rest
        outputs = []
        for name, text in (("plain", CSV_TEXT), ("quoted", quoted)):
            src = tmp_path / f"{name}.csv"
            src.write_text(text)
            out = tmp_path / f"{name}.seqs"
            code, stdout, stderr = run(capsys, "prepare", "--in", str(src),
                                       "--out", str(out), "--no-timestamp")
            assert (code, stderr) == (0, "")
            outputs.append((stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", ["", "\n  \n", "not,a,header\n", "a" * 200_000 + "\n"],
                             ids=["empty", "blank", "bad-header", "over-field-limit"])
    def test_no_csv_header_is_format_error(self, tmp_path, capsys, text):
        src = tmp_path / "flows.csv"
        src.write_text(text)
        out = tmp_path / "seqs.txt"
        code, _, stderr = run(capsys, "prepare", "--in", str(src), "--out", str(out))
        assert code == 3
        assert "missing or malformed CSV header" in stderr
        assert not out.exists()

    def test_row_over_field_limit_is_rejected(self, tmp_path, capsys):
        # csv cannot split this row; the reader goes on at the next one.
        huge = f"400.0,{'1' * 200_000},1,10.0.0.2,2,tcp,1,1,1,1,0.1,normal\n"
        outputs = []
        for name, text in [("plain", CSV_TEXT), ("huge", CSV_TEXT + huge)]:
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.seqs"
            src.write_text(text)
            code, stdout, stderr = run(capsys, "prepare", "--in", str(src),
                                       "--out", str(out), "--no-timestamp")
            assert (code, stderr) == (0, "")
            outputs.append((stdout.splitlines()[0], out.read_bytes()))
        assert outputs[1][0] == "rows: 6 read, 5 parsed, 1 rejected"
        assert outputs[1][1] == outputs[0][1]

    def test_density_of_huge_byte_count(self, tmp_path, capsys):
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT + f"400.0,10.0.0.1,1,10.0.0.2,2,tcp,{'9' * 400},0,1,0,0.0,normal\n")
        out = tmp_path / "seqs.txt"
        code, stdout, stderr = run(capsys, "prepare", "--in", str(src), "--out", str(out),
                                   "--scheme", "proto-density")
        assert (code, stderr) == (0, "")
        assert "rows: 6 read, 6 parsed, 0 rejected" in stdout
        _, vocab = read_corpus(out)
        assert f"tcp_d{'9' * 399}" in vocab

    @pytest.mark.parametrize("session", ["hour", "day", "week", "gap:60"])
    @pytest.mark.parametrize("ts", ["1.7976931348623157e308", "-1.7976931348623157e308",
                                    "-5e-324"])
    def test_window_start_at_float_extremes(self, tmp_path, capsys, session, ts):
        # Every finite ts has a finite session start that is not after it.
        src = tmp_path / "flows.csv"
        src.write_text(CSV_TEXT.splitlines()[0]
                       + f"\n{ts},10.0.0.1,1,10.0.0.2,2,tcp,1,0,1,0,0.0,normal\n")
        out = tmp_path / "seqs.txt"
        code, stdout, stderr = run(capsys, "prepare", "--in", str(src), "--out", str(out),
                                   "--session", session)
        assert (code, stderr) == (0, "")
        assert "rows: 1 read, 1 parsed, 0 rejected" in stdout
        (seq,), _ = read_corpus(out)
        assert seq.window_start <= float(ts)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> score, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.txt"
    model = root / "model.json"
    scores = root / "scores.csv"
    assert main(["synth", "--out", str(corpus), "--n", "300",
                 "--length-min", "10", "--length-max", "20",
                 "--seed", "3", "--no-timestamp"]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(model),
                 "--epsilon", "0.001", "--no-timestamp"]) == 0
    assert main(["score", "--model", str(model), "--in", str(corpus),
                 "--out", str(scores)]) == 0
    return root


class TestSynth:
    def test_writes_readable_corpus(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        code, stdout, _ = run(capsys, "synth", "--out", str(out), "--n", "40",
                              "--length-min", "5", "--length-max", "9",
                              "--seed", "1")
        assert code == 0
        assert "wrote 40 sequences" in stdout
        assert "alphabet 8" in stdout
        seqs, vocab = read_corpus(out)
        assert len(seqs) == 40
        assert len(vocab) == 8
        assert all(5 <= len(s.token_ids) <= 9 for s in seqs)

    def test_seed_determinism(self, tmp_path, capsys):
        args = ["--n", "30", "--length-min", "5", "--length-max", "9",
                "--seed", "11", "--no-timestamp"]
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        assert run(capsys, "synth", "--out", str(a), *args)[0] == 0
        assert run(capsys, "synth", "--out", str(b), *args)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        args[args.index("11")] = "12"
        assert run(capsys, "synth", "--out", str(c), *args)[0] == 0
        assert a.read_bytes() != c.read_bytes()

    def test_alphabet_past_bound_exits_2_without_writing(self, tmp_path, capsys):
        from flowlang.synth import MAX_DEMO_ALPHABET
        out = tmp_path / "c.txt"
        code, stdout, stderr = run(capsys, "synth", "--out", str(out), "--n", "3",
                                   "--length-min", "1", "--length-max", "2",
                                   "--alphabet", str(MAX_DEMO_ALPHABET + 1))
        assert (code, stdout, out.exists()) == (2, "", False)
        assert stderr == (f"error: alphabet_size must be 4 to {MAX_DEMO_ALPHABET}, "
                          f"got {MAX_DEMO_ALPHABET + 1}\n")
        # --help states the bound.
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        assert f"4 to {MAX_DEMO_ALPHABET} symbols" in capsys.readouterr().out


class TestTrain:
    def test_summary_matches_saved_model(self, pipeline, capsys):
        model2 = pipeline / "model2.json"
        code, stdout, _ = run(capsys, "train", "--in", str(pipeline / "corpus.txt"),
                              "--out", str(model2), "--epsilon", "0.001",
                              "--no-timestamp")
        assert code == 0
        with open(model2, encoding="utf-8") as fh:
            tree = load_model(fh)
        assert f"nodes: {tree.node_count}" in stdout
        assert "vocabulary: 8 tokens" in stdout
        assert f"trained on {tree.n_train_sequences} sequences" in stdout
        assert tree.n_train_sequences == 300
        assert model2.read_bytes() == (pipeline / "model.json").read_bytes()

    def test_invalid_epsilon_rejected(self, pipeline, tmp_path, capsys):
        corpus = str(pipeline / "corpus.txt")
        out = str(tmp_path / "m.json")
        code, _, stderr = run(capsys, "train", "--in", corpus, "--out", out,
                              "--epsilon", "-0.5")
        assert code == 2
        assert "error" in stderr
        # 0.2 >= 1/8, so smoothing would exceed the row mass
        code, _, stderr = run(capsys, "train", "--in", corpus, "--out", out,
                              "--epsilon", "0.2")
        assert code == 2

    def test_garbage_input(self, tmp_path, capsys):
        src = tmp_path / "junk.txt"
        src.write_text("this is not a sequences file\n")
        code, _, stderr = run(capsys, "train", "--in", str(src),
                              "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "format error" in stderr

    def test_vocab_directive_is_one_word(self, tmp_path, capsys):
        # "#vocabX 1" is a comment, so its vocabulary row is data too early.
        src = tmp_path / "c.txt"
        src.write_text("#vocabX 1\n0\ttok_b1\nnormal\ta\tb\t0.0\t0\n")
        code, _, stderr = run(capsys, "train", "--in", str(src),
                              "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "line 2: expected #vocab directive" in stderr


def parse_scores(path):
    lines = path.read_text().splitlines()
    assert lines[0] == SCORES_HEADER
    rows = {}
    for line in lines[1:]:
        seq_id, lik, loss, zero = line.split(",")
        rows[seq_id] = (float(lik), float(loss), zero == "true")
    return rows


@st.composite
def score_rows(draw, index):
    """Text for data row `index` of a scores CSV: a valid row with id
    `index` and one character inserted, replaced or deleted, or any line
    but a blank one."""
    if draw(st.booleans()):
        fields = draw(st.sampled_from(["0.0,inf,true", "0.5,1.25,false",
                                       "1.0,0.0,false", "5e-324,1074.0,false"]))
        row = f"{index:08d},{fields}"
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["", *"0+-_. ,\rea\u0660"]))
        return row[:at] + edit + row[at + draw(st.integers(0, 1)):]
    return draw(st.text(alphabet=st.characters(blacklist_characters="\n"),
                        min_size=1, max_size=20))


class TestScore:
    def test_csv_shape(self, pipeline):
        rows = parse_scores(pipeline / "scores.csv")
        assert len(rows) == 300
        assert set(rows) == {f"{i:08d}" for i in range(300)}
        for lik, loss, zero in rows.values():
            assert zero == (lik == 0.0)
            assert lik >= 0.0

    def test_training_corpus_has_no_zero_rows(self, pipeline):
        rows = parse_scores(pipeline / "scores.csv")
        assert not any(zero for _, _, zero in rows.values())

    def test_flag_lines_match_csv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run(
            capsys, "score", "--model", str(pipeline / "model.json"),
            "--in", str(pipeline / "corpus.txt"), "--out", str(out),
            "--limit", "1e-4")
        assert code == 0
        rows = parse_scores(out)
        expected = sorted(
            (seq_id for seq_id, (lik, _, _) in rows.items() if 0.0 < lik < 1e-4),
            key=lambda sid: (rows[sid][0], sid))
        flagged = [line.split()[1] for line in stdout.splitlines()
                   if line.startswith("flag ")]
        assert flagged == expected
        assert f"scored 300 sequences: {len(expected)} flagged" in stdout

    def test_out_of_vocabulary_scores_zero(self, pipeline, tmp_path, capsys):
        wide = tmp_path / "wide.txt"
        assert run(capsys, "synth", "--out", str(wide), "--n", "50",
                   "--length-min", "10", "--length-max", "20",
                   "--alphabet", "8", "--seed", "4")[0] == 0
        narrow_model = tmp_path / "narrow.json"
        narrow_corpus = tmp_path / "narrow.txt"
        assert run(capsys, "synth", "--out", str(narrow_corpus), "--n", "50",
                   "--length-min", "10", "--length-max", "20",
                   "--alphabet", "4", "--seed", "4")[0] == 0
        assert run(capsys, "train", "--in", str(narrow_corpus),
                   "--out", str(narrow_model), "--epsilon", "0.01")[0] == 0
        out = tmp_path / "s.csv"
        code, stdout, _ = run(capsys, "score", "--model", str(narrow_model),
                              "--in", str(wide), "--out", str(out))
        assert code == 0
        rows = parse_scores(out)
        zero_ids = [sid for sid, (_, _, zero) in rows.items() if zero]
        assert zero_ids
        for line in stdout.splitlines():
            if line.startswith("zero "):
                assert line.split()[1] in zero_ids

    def test_one_score_sequence_call_per_sequence(self, pipeline, tmp_path,
                                                  capsys, monkeypatch):
        # The benchmark's tracer times scoring by wrapping this name.
        lengths = []
        real = flowlang.cli.score_sequence

        def counting(tree, tokens):
            lengths.append(len(tokens))
            return real(tree, tokens)

        monkeypatch.setattr(flowlang.cli, "score_sequence", counting)
        code, _, _ = run(capsys, "score", "--model", str(pipeline / "model.json"),
                         "--in", str(pipeline / "corpus.txt"),
                         "--out", str(tmp_path / "s.csv"))
        assert code == 0
        seqs, _ = read_corpus(pipeline / "corpus.txt")
        assert lengths == [len(s.token_ids) for s in seqs]

    def test_bad_limit(self, pipeline, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(flowlang.cli, "load_model", loads.append)
        code, _, stderr = run(
            capsys, "score", "--model", str(pipeline / "model.json"),
            "--in", str(pipeline / "corpus.txt"),
            "--out", str(tmp_path / "s.csv"), "--limit", "2.0")
        assert code == 2
        assert stderr.startswith("error: limit must be in (0, 1]")
        assert loads == []

    def test_corrupt_model(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code, _, stderr = run(capsys, "score", "--model", str(bad),
                              "--in", str(pipeline / "corpus.txt"),
                              "--out", str(tmp_path / "s.csv"))
        assert code == 3

    def test_binary_model(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bin.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, _, stderr = run(capsys, "score", "--model", str(bad),
                              "--in", str(pipeline / "corpus.txt"),
                              "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert stderr.startswith("format error: ")

    @pytest.mark.parametrize("content, message", [
        (b'{"version": ' + b"1" * 5000 + b"}", "format error: model is not valid JSON: "),
        (b'{"version": "\xff"}', "format error: input is not UTF-8 text: "),
    ], ids=["over-digit-limit", "not-utf8"])
    def test_unreadable_model_is_a_format_error(self, pipeline, tmp_path, capsys,
                                                content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, _, stderr = run(capsys, "score", "--model", str(bad),
                              "--in", str(pipeline / "corpus.txt"),
                              "--out", str(tmp_path / "s.csv"))
        assert code == 3
        assert stderr.startswith(message)

    def test_missing_model(self, pipeline, tmp_path, capsys):
        code, _, _ = run(capsys, "score", "--model", str(tmp_path / "nope.json"),
                         "--in", str(pipeline / "corpus.txt"),
                         "--out", str(tmp_path / "s.csv"))
        assert code == 2

    @settings(max_examples=25, deadline=None)
    @given(seqs=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=40),
                         min_size=2, max_size=8),
           epsilon=st.sampled_from(["0.0", "0.0001", "0.01"]),
           data=st.data())
    def test_output_reads_back(self, tmp_path_factory, seqs, epsilon, data):
        work = tmp_path_factory.mktemp("roundtrip")
        vocab = Vocabulary(f"t{i}_b{i}" for i in range(4))
        sequences = [Sequence("a", "b", float(i), tuple(ids))
                     for i, ids in enumerate(seqs)]
        train_in, corpus = work / "train.txt", work / "corpus.txt"
        model, scores = work / "m.json", work / "s.csv"
        # Train on half the corpus so that unseen transitions score zero.
        for path, subset in ((train_in, sequences[::2]), (corpus, sequences)):
            with open(path, "w", encoding="utf-8") as fh:
                write_sequences(subset, vocab, fh)
        assert main(["train", "--in", str(train_in), "--out", str(model),
                     "--depth", "3", "--epsilon", epsilon, "--no-timestamp"]) == 0
        assert main(["score", "--model", str(model), "--in", str(corpus),
                     "--out", str(scores), "--limit", "1.0"]) == 0
        with open(scores, encoding="utf-8") as fh:
            rows = _parse_scores_csv(fh)
        with open(model, encoding="utf-8") as fh:
            tree = load_model(fh)
        assert len(rows) == len(sequences)
        for i, seq in enumerate(sequences):
            assert rows[i] == score_sequence(tree, [vocab.token_of(t) for t in seq.token_ids])

        def written(rows):
            return SCORES_HEADER + "\n" + "".join(
                _score_row(i, s) + "\n" for i, s in enumerate(rows))

        text = scores.read_text(encoding="utf-8")
        assert written(rows) == text
        # Any further row is a FormatError or writes back as exactly itself.
        for row in data.draw(st.lists(score_rows(len(rows)), max_size=10)):
            try:
                parsed = _parse_scores_csv(io.StringIO(f"{text}{row}\n"))
            except FormatError:
                continue
            assert written(parsed) == f"{text}{row}\n"

    # "c" never occurs in training, so it scores zero unless smoothed;
    # UNDERFLOW's likelihood underflows under both trees.
    TREES = [build_tree(count_contexts([[0, 1, 0, 0, 1, 1] * 10], 2),
                        PstParams(depth=2, p_min=0.0, threshold=0.0, tau=1.0, epsilon=eps),
                        Vocabulary(["a", "b", "c"]))
             for eps in (0.0, 0.01)]
    UNDERFLOW = ["a", "b"] * 3000

    @settings(max_examples=100, deadline=None)
    @given(smoothed=st.booleans(),
           probes=st.lists(st.one_of(st.lists(st.sampled_from(["a", "b", "c", "zz"]),
                                              max_size=30),
                                     st.just(UNDERFLOW)),
                           max_size=6))
    @example(smoothed=False, probes=[[], ["zz"], UNDERFLOW])
    @example(smoothed=True, probes=[[], ["a", "zz"], UNDERFLOW])
    def test_scores_csv_round_trips(self, smoothed, probes):
        # What eval reads back is exactly the Score that score computed.
        scores = [score_sequence(self.TREES[smoothed], probe) for probe in probes]
        lines = [SCORES_HEADER + "\n", *(_score_row(i, s) + "\n" for i, s in enumerate(scores))]
        assert _parse_scores_csv(lines) == scores


class TestEval:
    def test_full_report(self, pipeline, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code, stdout, _ = run(capsys, "eval",
                              "--scores", str(pipeline / "scores.csv"),
                              "--sequences", str(pipeline / "corpus.txt"),
                              "--out-dir", str(out_dir))
        assert code == 0
        assert "auc: " in stdout
        report = json.loads((out_dir / "report.json").read_text())
        assert report["auc"] >= 0.9
        assert report["n_attack"] + report["n_normal"] == 300
        assert report["n_zero_likelihood"] == 0
        assert set(report["precision_at"]) == {"10", "50", "100"}
        roc_lines = (out_dir / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr,threshold"
        assert roc_lines[1] == "0.0,0.0,inf"
        hist_lines = (out_dir / "hist.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_lo,bin_hi,normal_count,attack_count"
        assert len(hist_lines) == 1 + 20 + 1

    def test_zero_policy_flag(self, pipeline, tmp_path, capsys):
        code, _, _ = run(capsys, "eval",
                         "--scores", str(pipeline / "scores.csv"),
                         "--sequences", str(pipeline / "corpus.txt"),
                         "--out-dir", str(tmp_path / "r"),
                         "--zero-policy", "most-anomalous", "--bins", "5")
        assert code == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert len(report["histogram"]["normal_counts"]) == 5

    @pytest.mark.parametrize("text", ["1", "1,5"])
    def test_precision_at_accepts_depth_one(self, pipeline, tmp_path, capsys, text):
        code, stdout, _ = run(capsys, "eval",
                              "--scores", str(pipeline / "scores.csv"),
                              "--sequences", str(pipeline / "corpus.txt"),
                              "--out-dir", str(tmp_path / "r"), "--precision-at", text)
        assert code == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert sorted(report["precision_at"]) == text.split(",")
        assert "precision@1: " in stdout

    @pytest.mark.parametrize("text", ["0", "x", ",", "1,0"])
    def test_bad_precision_at_is_usage_error(self, tmp_path, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scores", "s", "--sequences", "q", "--out-dir",
                  str(tmp_path / "r"), "--precision-at", text])
        assert exc.value.code == 2
        assert "--precision-at" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_one_bin(self, pipeline, tmp_path, capsys):
        code, _, _ = run(capsys, "eval",
                         "--scores", str(pipeline / "scores.csv"),
                         "--sequences", str(pipeline / "corpus.txt"),
                         "--out-dir", str(tmp_path / "r"), "--bins", "1")
        assert code == 0
        histogram = json.loads((tmp_path / "r" / "report.json").read_text())["histogram"]
        assert len(histogram["edges"]) == 2
        assert histogram["normal_counts"][0] + histogram["attack_counts"][0] == 300
        assert len((tmp_path / "r" / "hist.csv").read_text().splitlines()) == 1 + 1 + 1

    def test_blank_lines_in_scores_are_skipped(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "scores.csv").read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(lines[0] + "".join(line + "\n" for line in lines[1:]))
        outputs = []
        for scores in (pipeline / "scores.csv", spaced):
            out_dir = tmp_path / scores.stem
            assert run(capsys, "eval", "--scores", str(scores),
                       "--sequences", str(pipeline / "corpus.txt"),
                       "--out-dir", str(out_dir))[0] == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("report.json", "roc.csv", "hist.csv")])
        assert outputs[0] == outputs[1]

    def test_single_class_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        model = tmp_path / "m.json"
        scores = tmp_path / "s.csv"
        assert run(capsys, "synth", "--out", str(corpus), "--n", "30",
                   "--length-min", "5", "--length-max", "9", "--seed", "2",
                   "--anomaly-fraction", "0")[0] == 0
        assert run(capsys, "train", "--in", str(corpus), "--out", str(model))[0] == 0
        assert run(capsys, "score", "--model", str(model), "--in", str(corpus),
                   "--out", str(scores))[0] == 0
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(corpus),
                              "--out-dir", str(tmp_path / "r"))
        assert code == 4
        assert "data error" in stderr

    def test_subnormal_likelihood_span(self, tmp_path, capsys):
        # The two likelihoods are one subnormal step apart, so a float bin
        # width of their span underflows to 0.
        corpus = tmp_path / "c.txt"
        with open(corpus, "w", encoding="utf-8") as fh:
            write_sequences([Sequence("10.0.0.1", "10.0.0.2", 0.0, (0,), label)
                             for label in (Label.NORMAL, Label.ATTACK)],
                            Vocabulary(["a"]), fh)
        scores = tmp_path / "s.csv"
        scores.write_text(f"{SCORES_HEADER}\n00000000,5e-324,1074.0,false\n"
                          "00000001,1e-323,1073.0,false\n")
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(corpus), "--rank", "likelihood",
                              "--out-dir", str(tmp_path / "r"))
        assert (code, stderr) == (0, "")
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert sum(report["histogram"]["normal_counts"]) == 1
        assert sum(report["histogram"]["attack_counts"]) == 1

    def test_score_on_an_edge_is_counted_in_its_written_row(self, tmp_path, capsys):
        # The edges are 0.2, 0.5 and 0.8, so the loss 0.5 opens the last row.
        labels = (Label.NORMAL, Label.ATTACK, Label.ATTACK)
        corpus = tmp_path / "c.txt"
        with open(corpus, "w", encoding="utf-8") as fh:
            write_sequences([Sequence("10.0.0.1", "10.0.0.2", 0.0, (0,), label)
                             for label in labels], Vocabulary(["a"]), fh)
        scores = tmp_path / "s.csv"
        scores.write_text("".join(
            [SCORES_HEADER + "\n"] + [_score_row(i, Score(0.5, loss)) + "\n"
                                      for i, loss in enumerate((0.2, 0.5, 0.8))]))
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(corpus), "--bins", "2",
                              "--out-dir", str(tmp_path / "r"))
        assert (code, stderr) == (0, "")
        assert (tmp_path / "r" / "hist.csv").read_text().splitlines()[1:] == \
            ["0.2,0.5,1,0", "0.5,0.8,0,2", "inf,inf,0,0"]

    def test_row_count_mismatch(self, pipeline, tmp_path, capsys):
        short = tmp_path / "short.csv"
        lines = (pipeline / "scores.csv").read_text().splitlines()[:11]
        short.write_text("\n".join(lines) + "\n")
        code, _, _ = run(capsys, "eval", "--scores", str(short),
                         "--sequences", str(pipeline / "corpus.txt"),
                         "--out-dir", str(tmp_path / "r"))
        assert code == 4

    def test_bad_scores_header(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,score\nx,1\n")
        code, _, _ = run(capsys, "eval", "--scores", str(bad),
                         "--sequences", str(pipeline / "corpus.txt"),
                         "--out-dir", str(tmp_path / "r"))
        assert code == 3

    def test_misspelled_label_is_format_error(self, pipeline, tmp_path, capsys):
        # A label the reader mapped to unlabeled would drop out of the AUC.
        lines = (pipeline / "corpus.txt").read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("attack\t"))
        lines[row] = "atack" + lines[row][len("attack"):]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(lines))
        code, _, stderr = run(capsys, "eval", "--scores", str(pipeline / "scores.csv"),
                              "--sequences", str(corpus),
                              "--out-dir", str(tmp_path / "r"))
        assert code == 3
        assert stderr.startswith(f"format error: line {row + 1}: ")
        assert not (tmp_path / "r").exists()


def _with_row(pipeline, path, row):
    """Copy of the pipeline's scores CSV with its second data row replaced."""
    lines = (pipeline / "scores.csv").read_text().splitlines()
    lines[2] = f"{lines[2].split(',')[0]},{row}"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEvalRejectsBadRows:
    @pytest.mark.parametrize("row", [
        "nan,1.5,false",
        "0.25,nan,false",
        "1.5,0.1,false",
        "-0.25,0.1,false",
        "inf,0.1,false",
        "0.0,inf,false",
        "0.25,2.0,true",
        "0.25,inf,false",
        "0.25,-0.5,false",
        "0.0_1,0.1,false",
        "\u0660.5,0.1,false",
        " 0.5 ,0.1,false",
        "0.5,1e0,false",
        "0.0,3.5,true",
    ], ids=["nan-likelihood", "nan-loss", "likelihood-above-one",
            "negative-likelihood", "infinite-likelihood", "zero-flagged-false",
            "nonzero-flagged-true", "infinite-loss-on-nonzero", "negative-loss",
            "likelihood-underscore", "likelihood-arabic-indic", "likelihood-spaces",
            "loss-exponent", "finite-loss-on-zero"])
    def test_format_error(self, pipeline, tmp_path, capsys, row):
        scores = _with_row(pipeline, tmp_path / "s.csv", row)
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(pipeline / "corpus.txt"),
                              "--out-dir", str(tmp_path / "r"))
        assert code == 3
        assert "line 3" in stderr

    @pytest.mark.parametrize("seq_id", ["1", "+0000001", "0000001 ", "\u0660" * 7 + "1",
                                        "-0000001"])
    def test_id_not_as_written_is_format_error(self, pipeline, tmp_path, capsys,
                                               seq_id):
        lines = (pipeline / "scores.csv").read_text().splitlines()
        assert lines[2].startswith("00000001,")
        lines[2] = seq_id + lines[2][len("00000001"):]
        scores = tmp_path / "s.csv"
        scores.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(pipeline / "corpus.txt"),
                              "--out-dir", str(tmp_path / "r"))
        assert code == 3
        assert "line 3" in stderr

    @pytest.mark.parametrize("order", [[1, 0], [0, 0], [1, 1], [0, 2]],
                             ids=["swapped", "repeated-first", "repeated-second",
                                  "skipped"])
    def test_id_not_its_position_is_format_error(self, pipeline, tmp_path, capsys,
                                                 order):
        # Data rows 0 and 1 replaced by the data rows at `order`: the first
        # row whose id is not its position is refused.
        lines = (pipeline / "scores.csv").read_text().splitlines()
        lines[1:3] = [lines[1 + k] for k in order]
        scores = tmp_path / "s.csv"
        scores.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "eval", "--scores", str(scores),
                              "--sequences", str(pipeline / "corpus.txt"),
                              "--out-dir", str(tmp_path / "r"))
        assert code == 3
        line = 2 if order[0] else 3
        assert stderr.startswith(f"format error: line {line}: ")

    def test_well_formed_zero_row_accepted(self, pipeline, tmp_path, capsys):
        scores = _with_row(pipeline, tmp_path / "s.csv", "0.0,inf,true")
        code, _, _ = run(capsys, "eval", "--scores", str(scores),
                         "--sequences", str(pipeline / "corpus.txt"),
                         "--out-dir", str(tmp_path / "r"))
        assert code == 0

    @settings(max_examples=60, deadline=None)
    @given(
        likelihood=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                             st.sampled_from([0.0, 1.0, 0.5, 5e-324])),
        loss=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, math.inf, 1.25])),
        zero=st.booleans(),
    )
    def test_exit_code_iff_row_valid(self, pipeline, tmp_path_factory,
                                     likelihood, loss, zero):
        work = tmp_path_factory.mktemp("rows")
        flag = "true" if zero else "false"
        scores = _with_row(pipeline, work / "s.csv",
                           f"{likelihood!r},{loss!r},{flag}")
        valid = (
            0.0 <= likelihood <= 1.0
            and zero == (likelihood == 0.0)
            and loss >= 0.0
            and zero == (loss == math.inf)
        )
        code = main(["eval", "--scores", str(scores),
                     "--sequences", str(pipeline / "corpus.txt"),
                     "--out-dir", str(work / "r")])
        assert code == (0 if valid else 3)


class TestWords:
    def test_single_word_self_model(self, tmp_path, capsys):
        lst = tmp_path / "w.txt"
        lst.write_text("banana\n")
        code, stdout, _ = run(capsys, "words", "--wordlist", str(lst))
        assert code == 0
        line = stdout.splitlines()[0]
        assert line.startswith("banana\t")
        loss = float(line.split("\t")[1])
        assert loss >= 0.0

    def test_listing_sorted_by_loss(self, tmp_path, capsys):
        lst = tmp_path / "w.txt"
        lst.write_text("aaaa\nabab\nzzzz\nqqqq\n")
        out = tmp_path / "listing.tsv"
        code, stdout, _ = run(capsys, "words", "--wordlist", str(lst),
                              "--out", str(out))
        assert code == 0
        assert "scored 4 words" in stdout
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        losses = [float(r[1]) for r in rows]
        assert losses == sorted(losses)
        assert {r[0] for r in rows} == {"aaaa", "abab", "zzzz", "qqqq"}

    def test_empty_list(self, tmp_path, capsys):
        lst = tmp_path / "w.txt"
        lst.write_text("\n\n")
        code, _, stderr = run(capsys, "words", "--wordlist", str(lst))
        assert code == 4

    def test_bad_characters(self, tmp_path, capsys):
        lst = tmp_path / "w.txt"
        lst.write_text("Hello1\n")
        code, _, stderr = run(capsys, "words", "--wordlist", str(lst))
        assert code == 3
        assert "format error" in stderr

    def test_missing_wordlist(self, tmp_path, capsys):
        code, _, _ = run(capsys, "words", "--wordlist", str(tmp_path / "nope"))
        assert code == 2


class TestDeterminism:
    def test_pipeline_reruns_byte_identical(self, tmp_path, capsys):
        outputs = []
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            corpus, model, scores = d / "c.txt", d / "m.json", d / "s.csv"
            assert run(capsys, "synth", "--out", str(corpus), "--n", "60",
                       "--length-min", "8", "--length-max", "14",
                       "--seed", "5", "--no-timestamp")[0] == 0
            assert run(capsys, "train", "--in", str(corpus), "--out", str(model),
                       "--epsilon", "0.001", "--no-timestamp")[0] == 0
            assert run(capsys, "score", "--model", str(model),
                       "--in", str(corpus), "--out", str(scores))[0] == 0
            assert run(capsys, "eval", "--scores", str(scores),
                       "--sequences", str(corpus),
                       "--out-dir", str(d / "r"))[0] == 0
            for stem, text in (("csv", CSV_TEXT), ("zeek", ZEEK_TEXT)):
                flows = d / f"{stem}.in"
                flows.write_text(text)
                assert run(capsys, "prepare", "--in", str(flows),
                           "--out", str(d / f"{stem}.seqs"), "--no-timestamp")[0] == 0
            assert run(capsys, "words", "--out", str(d / "words.tsv"))[0] == 0
            outputs.append(d)
        one, two = outputs
        for rel in ("c.txt", "m.json", "s.csv", "r/report.json",
                    "r/roc.csv", "r/hist.csv", "csv.seqs", "zeek.seqs",
                    "words.tsv"):
            assert (one / rel).read_bytes() == (two / rel).read_bytes()


def test_module_entry_point(tmp_path):
    out = tmp_path / "c.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "flowlang", "synth", "--out", str(out),
         "--n", "5", "--length-min", "3", "--length-max", "5", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 5 sequences" in proc.stdout
    assert out.exists()


def test_now_utc_is_a_utc_stamp():
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", flowlang.cli._now_utc())


def test_import_leaves_out_modules_no_stage_start_needs():
    # Each stage is a process of its own and pays for every module the CLI
    # imports. fractions (with decimal) is imported for histogram's exact
    # branch only, importlib.resources for the bundled word list only,
    # flowlang.synth for synth only. -S leaves out what site imports for
    # this environment.
    code = ("import sys, flowlang.cli; print(sorted({'datetime', 'fractions', 'decimal',"
            " 'importlib.resources', 'flowlang.synth'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(flowlang.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# The flow parser and the stdlib modules only it needs.
_PARSER = {"flowlang.flows", "csv", "ipaddress", "logging"}


@pytest.mark.parametrize("module, left_out", [
    ("flowlang", {f"flowlang.{name}" for name in
                  ("cli", "errors", "evaluate", "flows", "language", "pst", "synth")}),
    ("flowlang.synth", {"flowlang.cli", "flowlang.evaluate", "flowlang.pst", *_PARSER}),
    ("flowlang.language", {"flowlang.cli", "flowlang.evaluate", "flowlang.pst",
                           "flowlang.synth", *_PARSER}),
    ("flowlang.pst", {"flowlang.cli", "flowlang.evaluate", "flowlang.synth", *_PARSER}),
    ("flowlang.evaluate", {"flowlang.cli", "flowlang.synth", *_PARSER}),
], ids=["flowlang", "flowlang.synth", "flowlang.language", "flowlang.pst",
        "flowlang.evaluate"])
def test_import_loads_no_module_it_does_not_use(module, left_out):
    # The package re-exports nothing, so importing it loads no submodule,
    # and importing one module loads only the modules it imports itself:
    # below the CLI, only prepare's parser needs flowlang.flows and its
    # stdlib. -S leaves out what site imports for this environment.
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(flowlang.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert sorted(loaded & left_out) == []


def _output_bytes(path):
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


@pytest.mark.parametrize("argv, piped", [
    (["prepare", "--in", "{piped}", "--out", "{out}", "--no-timestamp"], "flows"),
    (["train", "--in", "{piped}", "--out", "{out}", "--epsilon", "0.001",
      "--no-timestamp"], "corpus"),
    (["score", "--model", "{piped}", "--in", "{corpus}", "--out", "{out}"], "model"),
    (["score", "--model", "{model}", "--in", "{piped}", "--out", "{out}"], "corpus"),
    (["eval", "--scores", "{piped}", "--sequences", "{corpus}", "--out-dir", "{out}"],
     "scores"),
    (["eval", "--scores", "{scores}", "--sequences", "{piped}", "--out-dir", "{out}"],
     "corpus"),
    (["words", "--wordlist", "{piped}", "--out", "{out}"], "words"),
], ids=["prepare", "train", "score-model", "score-in", "eval-scores",
        "eval-sequences", "words"])
def test_input_from_pipe(pipeline, tmp_path, argv, piped):
    # Any input may be a pipe: /dev/stdin on a pipe is not a regular file,
    # and the command must write the same bytes as with the file's path.
    files = {"model": pipeline / "model.json", "corpus": pipeline / "corpus.txt",
             "scores": pipeline / "scores.csv", "flows": tmp_path / "flows.csv",
             "words": tmp_path / "words.txt"}
    files["flows"].write_text(CSV_TEXT)
    files["words"].write_text("abc\nabd\nbcd\n")
    results = []
    for name, source in (("path", files[piped]), ("pipe", "/dev/stdin")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "flowlang",
             *(a.format(piped=source, out=out, **files) for a in argv)],
            input=files[piped].read_bytes(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, _output_bytes(out)))
    assert results[0] == results[1]


class TestExitCodes:
    """A bad parameter is reported (exit 2) before a bad input is read."""

    @pytest.mark.parametrize("argv", [
        ["train", "--in", "{bad_corpus}", "--out", "{out}"],
        ["score", "--model", "{model}", "--in", "{bad_corpus}", "--out", "{out}"],
        ["eval", "--scores", "{scores}", "--sequences", "{bad_corpus}",
         "--out-dir", "{out}"],
        ["eval", "--scores", "{bad_scores}", "--sequences", "{corpus}",
         "--out-dir", "{out}"],
    ], ids=["train", "score", "eval-sequences", "eval-scores"])
    def test_late_invalid_byte(self, pipeline, tmp_path, capsys, argv):
        # Inputs are streamed, so the decode error arrives mid-parse.
        files = {"model": pipeline / "model.json", "corpus": pipeline / "corpus.txt",
                 "scores": pipeline / "scores.csv", "out": tmp_path / "out",
                 "bad_corpus": tmp_path / "corpus.txt",
                 "bad_scores": tmp_path / "scores.csv"}
        for name in ("corpus", "scores"):
            data = files[name].read_bytes()
            files[f"bad_{name}"].write_bytes(data[:-1] + b"\xff\n")
        code, _, stderr = run(capsys, *(a.format(**files) for a in argv))
        assert code == 3
        assert stderr.startswith("format error: ")

    @pytest.mark.parametrize("argv", [
        ["train", "--in", "{junk}", "--out", "{out}", "--epsilon", "-0.5"],
        ["train", "--in", "{missing}", "--out", "{out}", "--epsilon", "-0.5"],
        ["prepare", "--in", "{blob}", "--out", "{out}", "--bucket-width", "0"],
        ["words", "--wordlist", "{bad_words}", "--tau", "0.5"],
        ["synth", "--out", "{out}", "--n", "-1"],
        ["score", "--model", "{missing}", "--in", "{junk}", "--out", "{out}",
         "--limit", "2.0"],
        ["score", "--model", "{junk}", "--in", "{junk}", "--out", "{out}",
         "--limit", "2.0"],
        ["score", "--model", "{junk}", "--in", "{junk}", "--out", "{out}",
         "--limit", "0"],
        ["eval", "--scores", "{junk}", "--sequences", "{junk}", "--out-dir", "{out}",
         "--bins", "0"],
        ["prepare", "--in", "{blob}", "--out", "{out}", "--min-length", "0"],
    ], ids=["train-epsilon-garbage", "train-epsilon-missing",
            "prepare-bucket-width-binary", "words-tau-bad-list",
            "synth-negative-n", "score-limit-missing-model",
            "score-limit-junk-model", "score-limit-zero-junk-model", "eval-bins-junk",
            "prepare-min-length-blob"])
    def test_double_fault(self, tmp_path, capsys, argv):
        files = {"junk": tmp_path / "junk.txt", "blob": tmp_path / "blob.bin",
                 "bad_words": tmp_path / "words.txt",
                 "missing": tmp_path / "nope", "out": tmp_path / "out"}
        files["junk"].write_text("this is not a sequences file\n")
        files["blob"].write_bytes(b"\x00\xff\xfePK\x03\x04")
        files["bad_words"].write_text("Hello1\n")
        code, _, stderr = run(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["words", "--wordlist", "{words}"],
        ["synth", "--out", "{out}", "--n", "20"],
        ["score", "--model", "{model}", "--in", "{corpus}", "--out", "{out}",
         "--limit", "1.0"],
    ], ids=["words", "synth", "score"])
    def test_closed_stdout(self, pipeline, tmp_path, argv):
        words = tmp_path / "words.txt"
        words.write_text("abc\nabd\nbcd\n")
        files = {"words": words, "out": tmp_path / "out",
                 "model": pipeline / "model.json", "corpus": pipeline / "corpus.txt"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "flowlang", *(a.format(**files) for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


# Strings a damaged or hostile input file may hold.
HOSTILE = ["nan", "inf", "1e400", "-1", "1" * 30, "#", '"', "\t", "\x00", "\r", "::", "%"]

# More digits than csv.field_size_limit() lets one cell hold.
LONG_CELL = "9" * (csv.field_size_limit() + 1)


@st.composite
def edited(draw, text, hostile=st.sampled_from(HOSTILE)):
    """text after one edit: a string drawn from hostile inserted, a span
    deleted, a line duplicated, or the tail cut off."""
    kind = draw(st.sampled_from(["insert", "delete", "duplicate", "truncate"]))
    at = draw(st.integers(0, len(text)))
    if kind == "insert":
        return text[:at] + draw(hostile) + text[at:]
    if kind == "delete":
        return text[:at] + text[draw(st.integers(at, min(len(text), at + 40))):]
    if kind == "duplicate":
        lines = text.splitlines(keepends=True)
        if not lines:
            return text
        k = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:k + 1] + lines[k:])
    return text[:at]


def run_quietly(*argv):
    """main(argv) with stdout and stderr captured: (code, stderr). For
    hypothesis tests, which cannot take the function-scoped capsys."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


class TestPrepareInputEdits:
    """Whatever a flow log holds, a cell too long for csv included, prepare
    exits with a documented code, and train accepts the sequences file it
    writes."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("prepare-edits")

    @settings(max_examples=150, deadline=None)
    @given(text=st.sampled_from([CSV_TEXT, ZEEK_TEXT]), data=st.data())
    def test_exit_code_is_documented(self, work, text, data):
        hostile = st.sampled_from(HOSTILE) | st.just(LONG_CELL)
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(edited(text, hostile))
        flows, seqs = work / "flows.in", work / "seqs.txt"
        flows.write_bytes(text.encode("utf-8"))
        code, stderr = run_quietly("prepare", "--in", str(flows), "--out", str(seqs),
                                   "--no-timestamp")
        # The parameters are valid, so a bad input is a format error (3),
        # never a usage error (2).
        assert code in (0, 3)
        if code:
            assert stderr.strip()
        else:
            code, stderr = run_quietly("train", "--in", str(seqs),
                                       "--out", str(work / "model.json"),
                                       "--no-timestamp")
            assert (code, stderr) == (0, "")


class TestTrainInputEdits:
    """Whatever a sequences file holds, train exits with a documented code,
    and a model it writes scores that file."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("edits")
        assert main(["synth", "--out", str(root / "corpus.txt"), "--n", "12",
                     "--length-min", "3", "--length-max", "9",
                     "--seed", "5", "--no-timestamp"]) == 0
        return root

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, work, data):
        text = (work / "corpus.txt").read_text(encoding="utf-8")
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(edited(text))
        corpus, model = work / "edited.txt", work / "model.json"
        corpus.write_bytes(text.encode("utf-8"))
        code, stderr = run_quietly("train", "--in", str(corpus), "--out", str(model),
                                   "--no-timestamp")
        # The parameters are valid, so a bad input is a format error (3)
        # or a data error (4), never a usage error (2).
        assert code in (0, 3, 4)
        if code:
            assert stderr.strip()
        else:
            code, stderr = run_quietly("score", "--model", str(model),
                                       "--in", str(corpus),
                                       "--out", str(work / "scores.csv"))
            assert (code, stderr) == (0, "")


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 40-sequence synth corpus with both labels, its model and its
    scores, for the edit properties of score and eval."""
    root = tmp_path_factory.mktemp("small-pipeline")
    for argv in (["synth", "--out", "{root}/corpus.txt", "--n", "40", "--length-min", "3",
                  "--length-max", "9", "--anomaly-fraction", "0.25", "--seed", "5",
                  "--no-timestamp"],
                 ["train", "--in", "{root}/corpus.txt", "--out", "{root}/model.json",
                  "--epsilon", "0.01", "--no-timestamp"],
                 ["score", "--model", "{root}/model.json", "--in", "{root}/corpus.txt",
                  "--out", "{root}/scores.csv"],
                 ["eval", "--scores", "{root}/scores.csv", "--sequences", "{root}/corpus.txt",
                  "--out-dir", "{root}/report"]):
        assert run_quietly(*(a.format(root=root) for a in argv)) == (0, "")
    return root


class TestScoreModelEdits:
    """Whatever a model file holds, score exits with a documented code, and
    eval reads the scores it writes."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, small_pipeline, data):
        work = small_pipeline
        text = (work / "model.json").read_text(encoding="utf-8")
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(edited(text))
        model, scores = work / "edited-model.json", work / "edited-model-scores.csv"
        model.write_bytes(text.encode("utf-8"))
        code, stderr = run_quietly("score", "--model", str(model),
                                   "--in", str(work / "corpus.txt"), "--out", str(scores))
        # The parameters and the sequences are valid, so a bad model is a
        # format error (3), never a usage (2) or data (4) error.
        assert code in (0, 3)
        if code:
            assert stderr.strip()
        else:
            code, stderr = run_quietly("eval", "--scores", str(scores),
                                       "--sequences", str(work / "corpus.txt"),
                                       "--out-dir", str(work / "edited-model-report"))
            # 4 when the model gives every sequence of one label zero
            # likelihood, which eval excludes.
            assert code in (0, 4)
            if code:
                assert stderr.startswith("data error: ")


class TestEvalInputEdits:
    """Whatever the scores and sequences files hold, eval exits with a
    documented code."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, small_pipeline, data):
        work = small_pipeline
        texts = {name: (work / name).read_text(encoding="utf-8")
                 for name in ("scores.csv", "corpus.txt")}
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from(sorted(texts)))
            texts[name] = data.draw(edited(texts[name]))
        for name, text in texts.items():
            (work / f"edited-{name}").write_bytes(text.encode("utf-8"))
        code, stderr = run_quietly("eval", "--scores", str(work / "edited-scores.csv"),
                                   "--sequences", str(work / "edited-corpus.txt"),
                                   "--out-dir", str(work / "edited-report"))
        # The parameters are valid, so a bad input is a format error (3) or
        # a data error (4), never a usage error (2).
        assert code in (0, 3, 4)
        if code:
            assert stderr.strip()
        else:
            # eval took each scores row only as score writes its score.
            with open(work / "edited-scores.csv", encoding="utf-8") as fh:
                rows = [line.rstrip("\n") for line in fh][1:]
            scores = _parse_scores_csv([SCORES_HEADER, *rows])
            assert [row for row in rows if row] == list(map(_score_row, itertools.count(), scores))
