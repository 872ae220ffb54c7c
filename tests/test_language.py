from __future__ import annotations

import io
import math
import re

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from flowlang.cli import SCORES_HEADER, _parse_scores_csv
from flowlang.errors import FormatError
from flowlang.flows import FlowRecord, Label
from flowlang.language import (
    Sequence,
    SessionPolicy,
    TokenScheme,
    Vocabulary,
    density_bucket,
    log2_bin,
    read_sequences,
    sessionize,
    tokenize,
    write_sequences,
)

TOKEN_GRAMMAR = re.compile(r"^[a-z0-9]+_(b|d)([0-9]+|z)$")


def flow(ts, src="10.0.0.1", dst="10.0.0.2", label=Label.UNLABELED,
         orig_bytes=100, resp_bytes=200, orig_pkts=1, resp_pkts=1,
         protocol="tcp", src_port=1000, dst_port=80):
    return FlowRecord(ts=ts, src_ip=src, src_port=src_port, dst_ip=dst,
                      dst_port=dst_port, protocol=protocol,
                      orig_bytes=orig_bytes, resp_bytes=resp_bytes,
                      orig_pkts=orig_pkts, resp_pkts=resp_pkts,
                      duration=0.1, label=label)


class TestConfigs:
    def test_scheme_validation(self):
        TokenScheme(kind="proto-density", bucket_width=5)
        with pytest.raises(ValueError):
            TokenScheme(kind="nope")
        with pytest.raises(ValueError):
            TokenScheme(bucket_width=0)

    def test_policy_validation(self):
        SessionPolicy(kind="gap", gap_seconds=60.0)
        with pytest.raises(ValueError):
            SessionPolicy(kind="fortnight")
        with pytest.raises(ValueError):
            SessionPolicy(kind="gap", gap_seconds=0.0)
        with pytest.raises(ValueError):
            SessionPolicy(kind="gap", gap_seconds=math.inf)


class TestVocabulary:
    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        assert vocab.add("tcp_b3") == 0
        assert vocab.add("udp_b1") == 1
        assert vocab.add("tcp_b3") == 0
        assert len(vocab) == 2

    def test_lookup(self):
        vocab = Vocabulary(["a_b1", "a_b2"])
        assert vocab.id_of("a_b2") == 1
        assert vocab.id_of("missing") is None
        assert vocab.token_of(0) == "a_b1"
        assert "a_b1" in vocab
        with pytest.raises(ValueError):
            vocab.token_of(2)

    def test_rejects_bad_token_text(self):
        vocab = Vocabulary()
        with pytest.raises(ValueError):
            vocab.add("")
        with pytest.raises(ValueError):
            vocab.add("has space")
        with pytest.raises(ValueError):
            vocab.add("tab\tch")

    def test_equality_is_by_token_order(self):
        assert Vocabulary(["x", "y"]) == Vocabulary(["x", "y"])
        assert Vocabulary(["x", "y"]) != Vocabulary(["y", "x"])


class TestSequenceType:
    def test_invariants(self):
        seq = Sequence(ip_low="10.0.0.1", ip_high="10.0.0.2",
                       window_start=0.0, token_ids=(0, 1))
        assert len(seq.token_ids) == 2
        with pytest.raises(ValueError):
            Sequence(ip_low="b", ip_high="a", window_start=0.0, token_ids=(0,))
        with pytest.raises(ValueError):
            Sequence(ip_low="a", ip_high="b", window_start=0.0, token_ids=())
        for start in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Sequence(ip_low="a", ip_high="b", window_start=start, token_ids=(0,))
        # A tab or line break would split the row written for it.
        for ip in ("a\tb", "a\rb", "a\nb", "a b", "a\u2028b"):
            with pytest.raises(ValueError, match="whitespace in endpoint"):
                Sequence(ip_low=ip, ip_high="z", window_start=0.0, token_ids=(0,))
            with pytest.raises(ValueError, match="whitespace in endpoint"):
                Sequence(ip_low="", ip_high=ip, window_start=0.0, token_ids=(0,))


class TestBucketing:
    def test_log2_bin_table(self):
        assert log2_bin(1) == 0
        assert log2_bin(1024) == 10
        assert log2_bin(1500) == 10
        assert log2_bin(0) == "z"

    def test_log2_bin_rejects_negative(self):
        with pytest.raises(ValueError):
            log2_bin(-1)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_log2_bin_matches_bit_length(self, v):
        b = log2_bin(v)
        assert 2 ** b <= v < 2 ** (b + 1)

    def test_density_bucket_table(self):
        assert density_bucket(1000, 10, 10) == 10
        assert density_bucket(55, 2, 10) == 2
        assert density_bucket(500, 0, 10) == "z"
        assert density_bucket(99999999999999999, 10**15, 1) == 99
        assert density_bucket(10**400, 1, 10) == 10**399

    def test_density_bucket_rejects_bad_input(self):
        with pytest.raises(ValueError):
            density_bucket(1, 1, 0)
        with pytest.raises(ValueError):
            density_bucket(-1, 1, 10)

    def test_tokenize_examples(self):
        f = flow(0.0, orig_bytes=100, resp_bytes=200)
        assert tokenize(f, TokenScheme()) == "tcp_b8"
        g = flow(0.0, orig_bytes=0, resp_bytes=0, protocol="udp")
        assert tokenize(g, TokenScheme()) == "udp_bz"
        h = flow(0.0, orig_bytes=1000, resp_bytes=0, orig_pkts=10, resp_pkts=0)
        assert tokenize(h, TokenScheme(kind="proto-density", bucket_width=10)) == "tcp_d10"

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=0, max_value=10**4),
        st.sampled_from(["tcp", "udp", "icmp", "other"]),
        st.sampled_from([TokenScheme(), TokenScheme(kind="proto-density")]),
    )
    def test_token_grammar(self, ob, rb, op, rp, proto, scheme):
        f = flow(0.0, orig_bytes=ob, resp_bytes=rb, orig_pkts=op,
                 resp_pkts=rp, protocol=proto)
        assert TOKEN_GRAMMAR.match(tokenize(f, scheme))


class TestSessionize:
    def test_empty_input(self):
        sequences, vocab = sessionize([], TokenScheme(), SessionPolicy())
        assert sequences == []
        assert len(vocab) == 0

    def test_hour_boundary_example(self):
        flows = [flow(100.0), flow(200.0), flow(3700.0)]
        sequences, _ = sessionize(flows, TokenScheme(), SessionPolicy(kind="hour"))
        assert [s.window_start for s in sequences] == [0.0, 3600.0]
        assert [len(s.token_ids) for s in sequences] == [2, 1]

    def test_any_attack_label_wins(self):
        flows = [flow(1.0, label=Label.NORMAL), flow(2.0, label=Label.ATTACK)]
        (seq,), _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert seq.label is Label.ATTACK

    def test_normal_beats_unlabeled(self):
        flows = [flow(1.0), flow(2.0, label=Label.NORMAL)]
        (seq,), _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert seq.label is Label.NORMAL

    def test_gap_splits_only_when_strictly_exceeded(self):
        policy = SessionPolicy(kind="gap", gap_seconds=1800.0)
        flows = [flow(0.0), flow(1800.0), flow(3601.0)]
        sequences, _ = sessionize(flows, TokenScheme(), policy)
        assert [len(s.token_ids) for s in sequences] == [2, 1]
        assert [s.window_start for s in sequences] == [0.0, 3601.0]

    def test_unordered_pair_grouping(self):
        flows = [flow(1.0, src="10.0.0.9", dst="10.0.0.2"),
                 flow(2.0, src="10.0.0.2", dst="10.0.0.9")]
        (seq,), _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert len(seq.token_ids) == 2
        assert seq.ip_low == "10.0.0.2"
        assert seq.ip_high == "10.0.0.9"

    def test_ipv6_spellings_share_a_session(self):
        flows = [flow(1.0, src="2001:db8::1", dst="2001:db8::2"),
                 flow(2.0, src="2001:0db8:0::1", dst="2001:DB8::2")]
        (seq,), _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert len(seq.token_ids) == 2
        assert (seq.ip_low, seq.ip_high) == ("2001:db8::1", "2001:db8::2")

    @settings(max_examples=100, deadline=None)
    @given(st.ip_addresses(v=6))
    def test_ipv6_endpoint_is_canonical(self, addr):
        spellings = [addr.exploded, addr.compressed, addr.compressed.upper()]
        flows = [flow(float(i), src=text, dst="2001:db8::2")
                 for i, text in enumerate(spellings)]
        assert {f.src_ip for f in flows} == {str(addr)}
        sequences, _ = sessionize(flows, TokenScheme(), SessionPolicy())
        assert len(sequences) == 1

    def test_min_length_filter(self):
        flows = [flow(100.0), flow(200.0), flow(3700.0)]
        sequences, _ = sessionize(flows, TokenScheme(), SessionPolicy(),
                                  min_length=2)
        assert [len(s.token_ids) for s in sequences] == [2]
        with pytest.raises(ValueError):
            sessionize(flows, TokenScheme(), SessionPolicy(), min_length=0)

    def test_tokens_resolve_through_vocab(self):
        flows = [flow(1.0, orig_bytes=0, resp_bytes=0),
                 flow(2.0, orig_bytes=1000, resp_bytes=24)]
        (seq,), vocab = sessionize(flows, TokenScheme(), SessionPolicy())
        texts = [vocab.token_of(i) for i in seq.token_ids]
        assert texts == ["tcp_bz", "tcp_b10"]

    def test_vocab_can_be_extended(self):
        vocab = Vocabulary(["pre_b1"])
        _, vocab2 = sessionize([flow(1.0)], TokenScheme(), SessionPolicy(),
                               vocab=vocab)
        assert vocab2.token_of(0) == "pre_b1"
        assert len(vocab2) == 2


small_flows = st.builds(
    flow,
    ts=st.floats(min_value=0, max_value=20000, allow_nan=False),
    src=st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
    dst=st.sampled_from(["10.0.0.1", "10.0.0.4"]),
    orig_bytes=st.integers(0, 4096),
    label=st.sampled_from(list(Label)),
    src_port=st.integers(1, 4),
)


class TestSessionizeProperties:
    @settings(max_examples=100)
    @given(st.lists(small_flows, max_size=40), st.randoms(use_true_random=False))
    def test_partition_and_permutation_invariance(self, flows, rng):
        scheme = TokenScheme()
        policy = SessionPolicy(kind="hour")
        sequences, vocab = sessionize(flows, scheme, policy)
        assert sum(len(s.token_ids) for s in sequences) == len(flows)

        shuffled = list(flows)
        rng.shuffle(shuffled)
        sequences2, vocab2 = sessionize(shuffled, scheme, policy)
        assert sequences == sequences2
        assert vocab == vocab2

    @settings(max_examples=100)
    @given(st.lists(small_flows, max_size=40))
    def test_hour_window_coherence(self, flows):
        sequences, _ = sessionize(flows, TokenScheme(), SessionPolicy(kind="hour"))
        starts = {}
        for f in flows:
            pair = tuple(sorted((f.src_ip, f.dst_ip)))
            window = math.floor(f.ts / 3600.0) * 3600.0
            starts.setdefault((pair, window), 0)
            starts[pair, window] += 1
        got = {((s.ip_low, s.ip_high), s.window_start): len(s.token_ids)
               for s in sequences}
        assert got == starts

    @settings(max_examples=60)
    @given(st.lists(small_flows, max_size=30), st.integers(0, 29))
    def test_label_monotone_under_added_attack(self, flows, at):
        policy = SessionPolicy(kind="hour")
        if not flows:
            return
        victim = flows[at % len(flows)]
        extra = flow(victim.ts, src=victim.src_ip, dst=victim.dst_ip,
                     label=Label.ATTACK)
        sequences, _ = sessionize(flows + [extra], TokenScheme(), policy)
        pair = tuple(sorted((victim.src_ip, victim.dst_ip)))
        window = math.floor(victim.ts / 3600.0) * 3600.0
        hit = [s for s in sequences
               if (s.ip_low, s.ip_high) == pair and s.window_start == window]
        assert len(hit) == 1
        assert hit[0].label is Label.ATTACK


@st.composite
def any_sequence(draw):
    """Any Sequence the constructor accepts, over a 12-token vocabulary."""
    ip_low, ip_high = sorted(draw(st.lists(st.text(max_size=6), min_size=2, max_size=2)))
    try:
        return Sequence(
            ip_low=ip_low, ip_high=ip_high,
            window_start=draw(st.floats(allow_nan=False, allow_infinity=False)),
            token_ids=tuple(draw(st.lists(st.integers(0, 11), min_size=1, max_size=8))),
            label=draw(st.sampled_from(list(Label))))
    except ValueError:
        reject()


sequence_lists = st.lists(any_sequence(), max_size=15)


@st.composite
def sequence_rows(draw):
    """Text for one data row of a sequences file: the row written for a
    valid Sequence with one character inserted, replaced or deleted, or
    any line. Blank and '#' lines are comments, not rows."""
    if draw(st.booleans()):
        buf = io.StringIO()
        write_sequences([draw(any_sequence())], Vocabulary(), buf)
        row = buf.getvalue().splitlines()[-1]
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["", *"0+-_. \t\rea\u0660"]))
        row = row[:at] + edit + row[at + draw(st.integers(0, 1)):]
    else:
        row = draw(st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=12))
    assume(row.strip() and not row.startswith("#"))
    return row


# Sequence rows, each spelling a number as write_sequences never does.
NON_CANONICAL_ROWS = {
    "id-plus-zero": "normal\ta\tb\t0.0\t+0",
    "id-minus-zero": "normal\ta\tb\t0.0\t-0",
    "id-underscore": "normal\ta\tb\t0.0\t0_0",
    "id-arabic-indic": "normal\ta\tb\t0.0\t\u0660",
    "id-leading-zero": "normal\ta\tb\t0.0\t00",
    "id-double-space": "normal\ta\tb\t0.0\t0  0",
    "start-nan": "normal\ta\tb\tnan\t0",
    "start-inf": "normal\ta\tb\tinf\t0",
    "start-overflow": "normal\ta\tb\t-1e400\t0",
    "start-space": "normal\ta\tb\t 1.0\t0",
    "start-int": "normal\ta\tb\t1\t0",
    "label-typo": "atack\ta\tb\t0.0\t0",
    "label-case": "Attack\ta\tb\t0.0\t0",
    "label-empty": "\ta\tb\t0.0\t0",
}


class TestSequenceFile:
    @staticmethod
    def written(sequences, vocab):
        buf = io.StringIO()
        write_sequences(sequences, vocab, buf, comment="unit test")
        return buf.getvalue()

    @settings(max_examples=150)
    @given(sequence_lists, sequence_rows())
    def test_round_trip_identity(self, sequences, row):
        vocab = Vocabulary([f"t{i}_b{i}" for i in range(12)])
        text = self.written(sequences, vocab)
        got_sequences, got_vocab = read_sequences(io.StringIO(text))
        assert got_sequences == sequences
        assert got_vocab == vocab
        assert self.written(got_sequences, got_vocab) == text
        # Any further row is a FormatError or writes back as exactly itself.
        try:
            parsed = read_sequences(io.StringIO(f"{text}{row}\n"))
        except FormatError:
            return
        assert self.written(*parsed) == f"{text}{row}\n"

    @pytest.mark.parametrize("comment", [
        "two\nlines", "two\rlines", "two\r\nlines", "trailing\n", "\n",
        "two\u2028lines", "two\u2029lines", "two\x85lines", "two\x0blines",
        "two\x0clines", "two\x1clines",
    ])
    def test_comment_with_line_break_is_refused(self, comment):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="comment must be one line"):
            write_sequences([], Vocabulary(), buf, comment=comment)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("comment", ["", "generated 2024-01-01T00:00:00Z", "tab\there"])
    def test_one_line_comment_is_written(self, comment):
        sequences, vocab = [Sequence("a", "b", 0.0, (0,))], Vocabulary(["t0_b0"])
        buf = io.StringIO()
        write_sequences(sequences, vocab, buf, comment=comment)
        assert buf.getvalue().startswith(f"# {comment}\n#vocab 1\n")
        assert read_sequences(io.StringIO(buf.getvalue())) == (sequences, vocab)

    def test_empty_file_is_empty_corpus(self):
        sequences, vocab = read_sequences([])
        assert sequences == []
        assert len(vocab) == 0
        sequences, vocab = read_sequences(["# only a comment\n", "\n"])
        assert sequences == []
        assert len(vocab) == 0

    def test_unknown_token_id_is_format_error(self):
        text = "#vocab 1\n0\ttok_b1\nnormal\ta\tb\t0.0\t0 7\n"
        with pytest.raises(FormatError, match="line 3"):
            read_sequences(io.StringIO(text))

    def test_data_before_vocab_directive(self):
        with pytest.raises(FormatError, match="line 1"):
            read_sequences(["normal\ta\tb\t0.0\t0\n"])

    def test_malformed_vocab_directive(self):
        with pytest.raises(FormatError):
            read_sequences(["#vocab x\n"])

    def test_truncated_vocab_block(self):
        with pytest.raises(FormatError):
            read_sequences(["#vocab 2\n", "0\ttok_b1\n"])

    def test_wrong_field_count(self):
        text = "#vocab 1\n0\ttok_b1\nnormal\ta\tb\t0.0\n"
        with pytest.raises(FormatError, match="line 3"):
            read_sequences(io.StringIO(text))

    def test_bad_window_start(self):
        text = "#vocab 1\n0\ttok_b1\nnormal\ta\tb\tnope\t0\n"
        with pytest.raises(FormatError, match="line 3"):
            read_sequences(io.StringIO(text))

    @pytest.mark.parametrize("row", list(NON_CANONICAL_ROWS.values()),
                             ids=list(NON_CANONICAL_ROWS))
    def test_non_canonical_row_is_format_error(self, row):
        good = "#vocab 1\n0\ttok_b1\nnormal\ta\tb\t0.0\t0\n"
        assert len(read_sequences(io.StringIO(good))[0]) == 1
        with pytest.raises(FormatError, match="line 3"):
            read_sequences(io.StringIO(f"#vocab 1\n0\ttok_b1\n{row}\n"))

    @pytest.mark.parametrize("lines", [
        ["#vocab 02\n", "0\ta\n", "1\tb\n"],
        ["#vocab 1\n", "00\ttok_b1\n"],
        ["#vocab 1\n", "+0\ttok_b1\n"],
    ], ids=["count-leading-zero", "id-leading-zero", "id-sign"])
    def test_non_canonical_vocab_number_is_format_error(self, lines):
        with pytest.raises(FormatError, match="line"):
            read_sequences(lines)

    def test_vocab_prefixed_comment(self):
        # Only a line whose first word is exactly #vocab is the directive.
        sequences, vocab = read_sequences(
            ["#vocabulary notes\n", "#vocab 1\n", "0\ttok_b1\n", "normal\ta\tb\t0.0\t0\n"])
        assert (len(sequences), vocab.tokens()) == (1, ["tok_b1"])

    def test_duplicate_vocab_token_is_format_error(self):
        with pytest.raises(FormatError, match="line 3: duplicate vocabulary token"):
            read_sequences(["#vocab 2\n", "0\ta\n", "1\ta\n"])

    @pytest.mark.parametrize("lines", [
        ["#vocab ²\n"],
        ["#vocab 1\n", "²\ttok_b1\n"],
    ], ids=["vocab-count", "vocab-id"])
    def test_non_ascii_digits_are_format_error(self, lines):
        with pytest.raises(FormatError, match="line"):
            read_sequences(lines)

    @settings(max_examples=600)
    @given(text=st.text(alphabet=st.characters(blacklist_characters="\t\n\r"),
                        max_size=6)
           | st.text(alphabet="019²³¹٣۵०①", min_size=1, max_size=4)
           | st.text(alphabet="01.e+-_ infa\u0660", min_size=1, max_size=6)
           | st.floats().map(repr)
           | st.integers(-2, 2).map(str)
           | st.integers(-2, 10**9).map("{:08d}".format),
           position=st.sampled_from(["count", "id", "start", "token",
                                     "score-id", "likelihood", "loss"]))
    def test_number_positions_parse_or_format_error(self, text, position):
        # A machine-written number field parses only in the spelling its
        # writer gives the parsed value; anything else is a FormatError.
        if position in ("score-id", "likelihood", "loss"):
            fields = {"score-id": "00000000", "likelihood": "0.5", "loss": "1.0",
                      position: text}
            lines = [SCORES_HEADER + "\n", ",".join(fields.values()) + ",false\n"]
            try:
                ((seq_id, score),) = _parse_scores_csv(lines).items()
            except FormatError:
                return
            assert {"score-id": f"{int(seq_id):08d}",
                    "likelihood": repr(score.likelihood),
                    "loss": repr(score.per_symbol_log_loss)}[position] == text
            return
        vocab = ["#vocab 1\n", "0\ttok_b1\n"]
        lines = {
            "count": [f"#vocab {text}\n", "0\ttok_b1\n"],
            "id": ["#vocab 1\n", f"{text}\ttok_b1\n"],
            "start": vocab + [f"normal\ta\tb\t{text}\t0\n"],
            "token": vocab + [f"normal\ta\tb\t0.0\t{text}\n"],
        }[position]
        try:
            sequences, _ = read_sequences(lines)
        except FormatError:
            return
        if position == "start":
            assert repr(sequences[0].window_start) == text
        elif position == "token":
            assert " ".join(str(i) for i in sequences[0].token_ids) == text
        else:
            assert text == {"count": "1", "id": "0"}[position]
