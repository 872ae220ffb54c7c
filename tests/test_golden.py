"""The README quickstart, the words demo and `prepare`, pinned to their
output bytes.

Runs the documented commands with --no-timestamp and checks the summary
lines the README shows and the sha256 of every file they write. One more
`train --p-min 0 --depth 5` pins the exhaustive count: with p_min 0
every context is frequent, so counting keeps every substring. Scoring
the corpus with that model pins the scorer on a second tree shape, with
more and shallower contexts. A `train --threshold 0` pins the retention
test where a symbol the context is never followed by can keep it. `eval`
runs under both rankings, logloss and likelihood. A 16-symbol corpus
pins the draw over rows twice as long as the quickstart's. `prepare`
runs on the labeled CSV and the Zeek log the CLI tests use, and on the
CSV under day and gap sessions too, and on a CSV and a Zeek log holding
every reject reason, which pin the rows the parsers drop. Python
3.10, 3.11, 3.12 and 3.13 write the same bytes, so a changed digest
means the program's output changed, not the interpreter.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from helpers import CSV_TEXT, ZEEK_TEXT
from flowlang.cli import main
from flowlang.flows import CSV_HEADER

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

# The quickstart's files and their sha256, in `sha256sum` format; the CI
# installed-cli job checks the same file with `sha256sum -c`.
GOLDEN = Path(__file__).with_name("golden.sha256")
DIGESTS = dict(line.split("  ")[::-1] for line in GOLDEN.read_text().splitlines())


def test_readme_quickstart_and_words(tmp_path, capsys):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out.splitlines()

    corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
    scores, report = tmp_path / "scores.csv", tmp_path / "report"
    out = run("synth", "--out", corpus, "--seed", 7, "--no-timestamp")
    assert out == ["wrote 2000 sequences (95 attack, 1905 normal), alphabet 8"]
    out = run("train", "--in", corpus, "--out", model, "--epsilon", "0.0001",
              "--no-timestamp")
    assert out == ["nodes: 645", "depth: 14", "vocabulary: 8 tokens",
                   "trained on 2000 sequences, 100720 tokens"]
    out = run("train", "--in", corpus, "--out", tmp_path / "model-p0-d5.json",
              "--p-min", 0, "--depth", 5, "--no-timestamp")
    assert out == ["nodes: 1165", "depth: 5", "vocabulary: 8 tokens",
                   "trained on 2000 sequences, 100720 tokens"]
    out = run("train", "--in", corpus, "--out", tmp_path / "model-t0.json",
              "--threshold", 0, "--no-timestamp")
    assert out == ["nodes: 3231", "depth: 14", "vocabulary: 8 tokens",
                   "trained on 2000 sequences, 100720 tokens"]
    out = run("score", "--model", model, "--in", corpus, "--out", scores,
              "--limit", "1e-30")
    assert out[0] == "scored 2000 sequences: 94 flagged below 1e-30, 0 zero-likelihood"
    assert out[1] == "flag 00001582"
    assert len(out) == 1 + 94
    out = run("score", "--model", tmp_path / "model-p0-d5.json", "--in", corpus,
              "--out", tmp_path / "scores-p0-d5.csv", "--limit", "1e-30")
    assert out[0] == "scored 2000 sequences: 81 flagged below 1e-30, 0 zero-likelihood"
    for rank_args, out_dir in (((), report),
                               (("--rank", "likelihood"), tmp_path / "report-likelihood")):
        out = run("eval", "--scores", scores, "--sequences", corpus, *rank_args,
                  "--out-dir", out_dir)
        assert out == ["auc: 1.0", "examples: 95 attack, 1905 normal, 0 zero-likelihood",
                       "precision@10: 1.0", "precision@50: 1.0", "precision@100: 0.95"]
    out = run("words", "--out", tmp_path / "words.tsv")
    assert out == ["scored 2578 words against a 427-node tree"]
    out = run("synth", "--out", tmp_path / "corpus-a16.txt", "--alphabet", 16,
              "--n", 300, "--seed", 9, "--no-timestamp")
    assert out == ["wrote 300 sequences (8 attack, 292 normal), alphabet 16"]
    written = {str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
               if path.is_file()}
    assert written == DIGESTS.keys()
    for rel, digest in DIGESTS.items():
        assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest, rel


@pytest.mark.parametrize("text, session, stdout, digest", [
    (CSV_TEXT, "hour",
     ["rows: 5 read, 5 parsed, 0 rejected", "sequences: 3", "vocabulary: 4 tokens",
      "labels: 1 attack, 2 normal, 0 unlabeled"],
     "e61f80702c7f0fba7056be5095a425b281026dc0ef8b92816324a8e47971fa99"),
    (CSV_TEXT, "day",
     ["rows: 5 read, 5 parsed, 0 rejected", "sequences: 2", "vocabulary: 4 tokens",
      "labels: 1 attack, 1 normal, 0 unlabeled"],
     "bc84c52437a9faa5371bbcb1019ac4873d25b29c3781834a02b4826248a7c094"),
    (CSV_TEXT, "gap:60",
     ["rows: 5 read, 5 parsed, 0 rejected", "sequences: 3", "vocabulary: 4 tokens",
      "labels: 1 attack, 2 normal, 0 unlabeled"],
     "419f20611d94962e1f93a8c09c0051fccab2a7dd90604e2bb433656a6de8949d"),
    (ZEEK_TEXT, "hour",
     ["rows: 2 read, 2 parsed, 0 rejected", "sequences: 1", "vocabulary: 2 tokens",
      "labels: 0 attack, 0 normal, 1 unlabeled"],
     "b71cad7606a8e6639dfc1e5023de5b5052f850b1cb278e294bd9e2151d5718db"),
    (CSV_REJECTS, "hour",
     ["rows: 11 read, 4 parsed, 7 rejected", "sequences: 2", "vocabulary: 3 tokens",
      "labels: 1 attack, 1 normal, 0 unlabeled"],
     "9898ec5210fe6e01ea7b378bc50fd6647ed0af5cf96992d0b7e80f6dfca854f5"),
    (ZEEK_REJECTS, "hour",
     ["rows: 11 read, 4 parsed, 7 rejected", "sequences: 2", "vocabulary: 4 tokens",
      "labels: 0 attack, 0 normal, 2 unlabeled"],
     "c0b1941d47d08aa4ce85e48f5c00b146cd25e5833d58546d3b92c2239cdfcae1"),
], ids=["csv", "csv-day", "csv-gap60", "zeek", "csv-rejects", "zeek-rejects"])
def test_prepare(tmp_path, capsys, text, session, stdout, digest):
    src, out = tmp_path / "flows.in", tmp_path / "seqs.txt"
    src.write_text(text)
    assert main(["prepare", "--in", str(src), "--out", str(out), "--session", session,
                 "--no-timestamp"]) == 0
    assert capsys.readouterr().out.splitlines() == stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
