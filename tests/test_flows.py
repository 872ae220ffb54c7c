from __future__ import annotations

import dataclasses
import inspect
import io
import ipaddress
import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from flowlang.errors import FormatError
from flowlang.flows import (
    CSV_HEADER,
    FlowRecord,
    normalize_protocol,
    parse_labeled_csv,
    parse_zeek_conn,
    write_labeled_csv,
)
from flowlang.language import Label

ZEEK_HEADER = [
    "#separator \\x09\n",
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto"
    "\tservice\tduration\torig_bytes\tresp_bytes\tconn_state\tlocal_orig"
    "\tlocal_resp\tmissed_bytes\thistory\torig_pkts\torig_ip_bytes"
    "\tresp_pkts\tresp_ip_bytes\ttunnel_parents\n",
]


def zeek_row(ts="1.5", orig="10.0.0.1", resp="10.0.0.2", proto="tcp",
             duration="0.25", orig_bytes="10", resp_bytes="20",
             orig_pkts="1", resp_pkts="2"):
    cells = [ts, "Cuid1", orig, "1024", resp, "80", proto, "-", duration,
             orig_bytes, resp_bytes, "SF", "-", "-", "0", "Sh", orig_pkts,
             "64", resp_pkts, "128", "-"]
    return "\t".join(cells) + "\n"


class TestLabel:
    def test_parse_known(self):
        assert Label.parse("normal") is Label.NORMAL
        assert Label.parse(" ATTACK ") is Label.ATTACK
        assert Label.parse("Normal") is Label.NORMAL

    def test_parse_unknown_is_unlabeled(self):
        for text in ("", "benign", "botnet", "-", "unlabeled"):
            assert Label.parse(text) is Label.UNLABELED


class TestNormalizeProtocol:
    def test_lowercases(self):
        assert normalize_protocol("TCP") == "tcp"
        assert normalize_protocol(" Udp ") == "udp"

    def test_strips_non_alphanumeric(self):
        assert normalize_protocol("icmp!") == "icmp"
        assert normalize_protocol("ip_v6") == "ipv6"

    def test_empty_becomes_other(self):
        assert normalize_protocol("") == "other"
        assert normalize_protocol("-") == "other"
        assert normalize_protocol("???") == "other"


def stored_ip(text):
    """The src_ip a FlowRecord stores for text, or None if it refuses it."""
    try:
        return FlowRecord(ts=0.0, src_ip=text, src_port=0, dst_ip="10.0.0.2",
                          dst_port=0, protocol="tcp").src_ip
    except ValueError:
        return None


def canonical_ip(text):
    """str(ipaddress.ip_address(text)), or None where ipaddress refuses text
    or its canonical form holds whitespace or a comma (only a zone id can)."""
    try:
        canonical = str(ipaddress.ip_address(text))
    except ValueError:
        return None
    return None if "," in canonical or any(map(str.isspace, canonical)) else canonical


# Address characters, with one non-ASCII digit (Arabic-Indic three).
IP_CHARS = st.sampled_from(list("0123456789.:%abcdef") + ["\u0663"])


class TestFlowRecord:
    def test_accepts_valid(self):
        flow = FlowRecord(ts=1.0, src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2",
                          dst_port=2, protocol="tcp")
        assert flow.orig_bytes == 0
        assert flow.label is Label.UNLABELED

    @pytest.mark.parametrize("kwargs", [
        {"ts": float("nan")},
        {"ts": float("inf")},
        {"src_port": -1},
        {"dst_port": 65536},
        {"orig_bytes": -1},
        {"resp_pkts": -5},
        {"duration": -0.5},
        {"duration": float("inf")},
        {"src_ip": "not-an-ip"},
        {"dst_ip": "999.0.0.1"},
    ])
    def test_rejects_invalid(self, kwargs):
        base = dict(ts=1.0, src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2",
                    dst_port=2, protocol="tcp")
        base.update(kwargs)
        with pytest.raises(ValueError):
            FlowRecord(**base)

    @pytest.mark.parametrize("kwargs", [
        {"src_ip": 167772161},
        {"dst_ip": b"abcd"},
        {"src_ip": ipaddress.IPv4Address("10.0.0.1")},
        {"src_port": 1.5},
        {"dst_port": True},
        {"src_port": "80"},
        {"orig_bytes": 2.0},
        {"resp_bytes": False},
        {"orig_pkts": "3"},
        {"resp_pkts": 1.0},
        {"ts": True},
        {"ts": "1.0"},
        {"ts": 10**400},
        {"duration": False},
        {"duration": "0.5"},
        {"protocol": "tcp,x"},
        {"protocol": "TCP"},
        {"protocol": 5},
        {"protocol": ""},
        {"protocol": "tcp\n"},
        {"label": "normal"},
        {"label": None},
    ], ids=["ip-int", "ip-bytes", "ip-object", "port-float", "port-bool", "port-str",
            "bytes-float", "bytes-bool", "pkts-str", "pkts-float", "ts-bool", "ts-str",
            "ts-huge-int", "duration-bool", "duration-str", "protocol-comma",
            "protocol-upper", "protocol-int", "protocol-empty", "protocol-newline",
            "label-str", "label-none"])
    def test_rejects_wrong_types(self, kwargs):
        # An address must be text, a port or count an int, a ts or duration
        # a number (not a bool), a protocol a name normalize_protocol keeps
        # and a label a Label: write_labeled_csv writes any other value as
        # text no parser reads back as that value.
        base = dict(ts=1.0, src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2",
                    dst_port=2, protocol="tcp")
        base.update(kwargs)
        with pytest.raises(ValueError):
            FlowRecord(**base)

    def test_int_times_are_stored_as_floats(self):
        # Equal records write equal rows: ts 5 and 5.0 are one record.
        flow = FlowRecord(ts=5, src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2",
                          dst_port=2, protocol="tcp", duration=2)
        assert (type(flow.ts), type(flow.duration)) == (float, float)
        written = [io.StringIO(), io.StringIO()]
        write_labeled_csv([flow], written[0])
        write_labeled_csv([dataclasses.replace(flow, ts=5.0, duration=2.0)], written[1])
        assert written[0].getvalue() == written[1].getvalue()

    def test_is_a_frozen_hashable_dataclass(self):
        # FlowRecord writes its own __init__; what the dataclass gives the
        # rest must still hold.
        args = (5, "10.0.0.1", 1, "10.0.0.2", 2, "tcp", 3, 4, 5, 6, 0.5, Label.ATTACK)
        names = ("ts", "src_ip", "src_port", "dst_ip", "dst_port", "protocol",
                 "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "duration", "label")
        flow = FlowRecord(*args)
        assert flow == FlowRecord(**dict(zip(names, args)))
        assert FlowRecord.__match_args__ == names
        assert tuple(f.name for f in dataclasses.fields(FlowRecord)) == names
        # The written __init__ keeps the fields' order and defaults.
        parameters = inspect.signature(FlowRecord).parameters.values()
        empty = {dataclasses.MISSING: inspect.Parameter.empty}
        assert [(p.name, p.default) for p in parameters] == [
            (f.name, empty.get(f.default, f.default)) for f in dataclasses.fields(FlowRecord)]
        assert [getattr(flow, name) for name in names] == [5.0, *args[1:]]
        assert type(flow.ts) is float
        assert repr(flow) == (
            "FlowRecord(ts=5.0, src_ip='10.0.0.1', src_port=1, dst_ip='10.0.0.2', "
            "dst_port=2, protocol='tcp', orig_bytes=3, resp_bytes=4, orig_pkts=5, "
            "resp_pkts=6, duration=0.5, label=<Label.ATTACK: 'attack'>)")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(flow, name, getattr(flow, name))
        twin = FlowRecord(*args)
        assert twin is not flow and hash(twin) == hash(flow)
        assert len({flow, twin, dataclasses.replace(flow, ts=6)}) == 2
        moved = dataclasses.replace(flow, dst_ip="2001:0DB8::1", duration=2)
        assert (moved.dst_ip, moved.duration, type(moved.duration)) == ("2001:db8::1", 2.0, float)
        assert dataclasses.replace(moved, dst_ip="10.0.0.2", duration=0.5) == flow
        with pytest.raises(ValueError):
            dataclasses.replace(flow, src_port=-1)
        match flow:
            case FlowRecord(ts, src, sport, dst, dport, proto):
                assert (ts, src, sport, dst, dport, proto) == (5.0, *args[1:6])

    def test_ipv6_allowed(self):
        flow = FlowRecord(ts=0.0, src_ip="::1", src_port=0, dst_ip="fe80::2",
                          dst_port=0, protocol="udp")
        assert flow.src_ip == "::1"

    @pytest.mark.parametrize("position", range(4))
    def test_ip_check_is_exact_per_octet(self, position):
        octets = [str(n) for n in range(1000)] + [
            "00", "01", "0255", "", "\u0663", "+1", " 1", "1\n"]
        for octet in octets:
            parts = ["10", "20", "30", "40"]
            parts[position] = octet
            text = ".".join(parts)
            assert stored_ip(text) == canonical_ip(text)

    @pytest.mark.parametrize("text", [
        "::ffff:1.2.3.4", "1.2.3.4%eth0", "fe80::1%eth0", "FE80::1%eth0",
        "fe80::1%eth 0", "fe80::1%a,b", "1.2.3.4 ", "1.2.3.4.5", "1.2.3", "\u0661.2.3.4"])
    def test_ip_check_is_exact_on_other_text(self, text):
        assert stored_ip(text) == canonical_ip(text)

    @settings(max_examples=400)
    @given(st.one_of(
        st.text(IP_CHARS, max_size=24),
        st.lists(st.text(IP_CHARS, max_size=4), min_size=1, max_size=5).map(".".join)))
    def test_ip_check_is_exact_on_drawn_text(self, text):
        assert stored_ip(text) == canonical_ip(text)


class TestParseZeek:
    def test_basic_row(self):
        records, stats = parse_zeek_conn(ZEEK_HEADER + [zeek_row()])
        assert stats.rows_read == 1
        assert stats.rows_parsed == 1
        assert stats.rows_rejected == 0
        (flow,) = records
        assert flow.ts == 1.5
        assert flow.src_ip == "10.0.0.1"
        assert flow.src_port == 1024
        assert flow.dst_ip == "10.0.0.2"
        assert flow.dst_port == 80
        assert flow.protocol == "tcp"
        assert flow.orig_bytes == 10
        assert flow.resp_bytes == 20
        assert flow.orig_pkts == 1
        assert flow.resp_pkts == 2
        assert flow.duration == 0.25
        assert flow.label is Label.UNLABELED

    def test_missing_values_default_to_zero(self):
        row = zeek_row(duration="-", orig_bytes="-", resp_bytes="(empty)")
        (flow,), _ = parse_zeek_conn(ZEEK_HEADER + [row])
        assert flow.duration == 0.0
        assert flow.orig_bytes == 0
        assert flow.resp_bytes == 0

    def test_missing_ts_rejected(self):
        records, stats = parse_zeek_conn(ZEEK_HEADER + [zeek_row(ts="-")])
        assert records == []
        assert stats.rows_rejected == 1

    def test_bad_ip_rejected(self):
        records, stats = parse_zeek_conn(
            ZEEK_HEADER + [zeek_row(orig="nonsense"), zeek_row()])
        assert len(records) == 1
        assert stats.rows_read == 2
        assert stats.rows_rejected == 1

    def test_comma_in_zone_id_rejected(self):
        # Such a record would be written as a CSV row of 13 cells.
        records, stats = parse_zeek_conn(
            ZEEK_HEADER + [zeek_row(orig="fe80::1%a,b"), zeek_row()])
        assert len(records) == 1
        assert stats.rows_read == 2
        assert stats.rows_rejected == 1

    def test_wrong_field_count_rejected(self):
        records, stats = parse_zeek_conn(ZEEK_HEADER + ["1.0\t2.0\n"])
        assert records == []
        assert stats.rows_rejected == 1

    def test_data_before_fields_is_fatal(self):
        with pytest.raises(FormatError):
            parse_zeek_conn(["1.0\tC1\t10.0.0.1\n"])

    def test_reordered_columns_and_label_column_ignored(self):
        # The canonical header's rows, rewritten under a header that lists
        # the columns backwards and adds a "label" column Zeek never has.
        names = ZEEK_HEADER[1].rstrip("\n").split("\t")[1:]
        rows = [zeek_row(), zeek_row(ts="2.5", proto="udp", orig_bytes="-")]
        reordered = ["#fields\t" + "\t".join(["label"] + names[::-1]) + "\n"]
        for row in rows:
            cells = row.rstrip("\n").split("\t")
            reordered.append("\t".join(["attack"] + cells[::-1]) + "\n")
        assert parse_zeek_conn(reordered) == parse_zeek_conn(ZEEK_HEADER + rows)
        records, _ = parse_zeek_conn(reordered)
        assert [r.label for r in records] == [Label.UNLABELED] * 2

    def test_repeated_column_name_does_not_crash(self):
        header = "#fields\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tts\n"
        records, stats = parse_zeek_conn(
            [header, "1.0\t10.0.0.1\t1\t10.0.0.2\t2\ttcp\t3.0\n",
             "1.0\t10.0.0.1\t1\t10.0.0.2\t2\ttcp\n"])
        assert [r.ts for r in records] == [3.0]
        assert stats.rows_read == 2
        assert stats.rows_rejected == 1

    def test_comment_only_input_is_empty(self):
        records, stats = parse_zeek_conn(["#unset_field\t-\n"] + ZEEK_HEADER)
        assert records == []
        assert stats.rows_read == 0


def csv_line(flow: FlowRecord) -> str:
    buf = io.StringIO()
    write_labeled_csv([flow], buf)
    return buf.getvalue().splitlines()[1]


class TestParseLabeledCsv:
    HEADER = ",".join(CSV_HEADER) + "\n"

    def test_header_required(self):
        with pytest.raises(FormatError):
            parse_labeled_csv(["ts,src_ip\n", "1.0,10.0.0.1\n"])
        with pytest.raises(FormatError):
            parse_labeled_csv([])

    def test_basic_row(self):
        line = "1.5,10.0.0.1,1024,10.0.0.2,80,TCP,10,20,1,2,0.25,attack\n"
        (flow,), stats = parse_labeled_csv([self.HEADER, line])
        assert flow.label is Label.ATTACK
        assert flow.protocol == "tcp"
        assert flow.duration == 0.25
        assert stats.rows_parsed == 1

    def test_unknown_label_kept_as_unlabeled(self):
        line = "1.5,10.0.0.1,1024,10.0.0.2,80,tcp,10,20,1,2,0.25,weird\n"
        (flow,), stats = parse_labeled_csv([self.HEADER, line])
        assert flow.label is Label.UNLABELED
        assert stats.rows_rejected == 0

    def test_missing_numerics_default_to_zero(self):
        line = "1.5,10.0.0.1,1024,10.0.0.2,80,tcp,-,-,-,-,-,normal\n"
        (flow,), _ = parse_labeled_csv([self.HEADER, line])
        assert flow.orig_bytes == 0
        assert flow.resp_pkts == 0
        assert flow.duration == 0.0

    def test_header_after_blank_lines(self, caplog):
        # The header is the first non-empty row, as sniff_format reads it,
        # and a rejected row is logged at its physical line, counting every
        # line of a quoted multi-line cell.
        good = "1.5,10.0.0.1,1024,10.0.0.2,80,tcp,10,20,1,2,0.25,attack\n"
        lines = ["\n", "\n", self.HEADER, good, "\n",
                 '"1.5\n",10.0.0.1,70000,10.0.0.2,80,tcp,1,1,1,1,0.1,"nor\n', 'mal"\n',
                 "x\n"]
        with caplog.at_level(logging.DEBUG, logger="flowlang.flows"):
            (flow,), stats = parse_labeled_csv(lines)
        assert flow.label is Label.ATTACK
        assert (stats.rows_read, stats.rows_rejected) == (3, 2)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == \
            ["rejected line 7", "rejected line 8"]

    def test_bad_rows_rejected_not_fatal(self):
        lines = [
            self.HEADER,
            "xx,10.0.0.1,1024,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n",
            "1.5,10.0.0.1,70000,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n",
            "1.5,10.0.0.1,1024,10.0.0.2,80,tcp,1,1,1,1,0.1,normal\n",
        ]
        records, stats = parse_labeled_csv(lines)
        assert len(records) == 1
        assert stats.rows_read == 3
        assert stats.rows_rejected == 2


ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: str(ipaddress.IPv4Address(n)))
ports = st.integers(min_value=0, max_value=65535)
sizes = st.integers(min_value=0, max_value=2**40)
timestamps = st.floats(min_value=-1e12, max_value=1e12,
                       allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False)

flow_records = st.builds(
    FlowRecord,
    ts=timestamps,
    src_ip=ipv4,
    src_port=ports,
    dst_ip=ipv4,
    dst_port=ports,
    protocol=st.sampled_from(["tcp", "udp", "icmp", "other", "sctp"]),
    orig_bytes=sizes,
    resp_bytes=sizes,
    orig_pkts=sizes,
    resp_pkts=sizes,
    duration=durations,
    label=st.sampled_from(list(Label)),
)


class TestCsvRoundTrip:
    @settings(max_examples=200)
    @given(st.lists(flow_records, max_size=20))
    def test_write_then_parse_is_identity(self, flows):
        buf = io.StringIO()
        write_labeled_csv(flows, buf)
        parsed, stats = parse_labeled_csv(io.StringIO(buf.getvalue()))
        assert parsed == flows
        assert stats.rows_parsed == len(flows)
        assert stats.rows_rejected == 0


# Values of the wrong type for a flow field, or of the right type.
any_field_value = st.one_of(
    st.integers(-1, 2**32), st.floats(0, 70000), st.booleans(),
    st.binary(min_size=4, max_size=4), st.sampled_from(["10.0.0.1", "::1", "80", "1.5"]))


class TestRecordsRoundTrip:
    @settings(max_examples=200)
    @given(flow_records, st.sampled_from(["ts", "src_ip", "dst_ip", "src_port", "dst_port",
                                          "orig_bytes", "resp_bytes", "orig_pkts",
                                          "resp_pkts", "duration"]), any_field_value)
    @example(FlowRecord(1.0, "10.0.0.1", 1, "10.0.0.2", 2, "tcp"), "src_ip", "fe80::1%a,b")
    def test_every_record_built_reads_back(self, flow, name, value):
        # A record FlowRecord builds, whatever the type of one field, is
        # written by write_labeled_csv as a row parse_labeled_csv reads back
        # as that record.
        try:
            flow = dataclasses.replace(flow, **{name: value})
        except ValueError:
            return
        buf = io.StringIO()
        write_labeled_csv([flow], buf)
        parsed, stats = parse_labeled_csv(io.StringIO(buf.getvalue()))
        assert (parsed, stats.rows_rejected) == ([flow], 0)


# Cell texts either parser must read alike: no separators, no quotes, no
# leading "#" and no surrounding blanks (the CSV parser strips its cells).
junk_cells = st.sampled_from(
    ["", "-", "(empty)", "x", "-1", "70000", "nan", "inf", "1e3", "0.5",
     "999.0.0.1", "::1", "TCP", "udp"])


# Number cell texts from digits, non-ASCII digits (which int() and float()
# read, or isdigit() takes), signs, "_", ".", "e" and blanks, and the missing
# markers; one branch draws digits alone, so rows pass more often.
NUMBER_CHARS = list("0123456789") + ["\u0663", "\u00b3", "_", "+", "-", ".", "e",
                                      " ", "\x0b", "\x0c"]
number_cells = st.one_of(
    st.sampled_from(["-", "(empty)", ""]),
    st.text(st.sampled_from(NUMBER_CHARS[:12]), min_size=1, max_size=4),
    st.text(st.sampled_from(NUMBER_CHARS), max_size=6))


def zeek_text(cells):
    names = ["ts", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "proto",
             "orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "duration"]
    return ["#fields\t" + "\t".join(names) + "\n", "\t".join(cells[:11]) + "\n"]


def csv_text(cells):
    return [",".join(CSV_HEADER) + "\n", ",".join(cells) + "\n"]


class TestNumberGrammar:
    # A count is ASCII digits, and a ts or duration ASCII text without "_";
    # int() and float() read most of these cells.
    @pytest.mark.parametrize("index, text", [
        (2, "8_0"), (4, "+443"), (6, "1_000"), (7, "\u0663"), (8, "-1"), (9, "1.0"),
        (0, "1_0.5"), (0, "\u0661.5"), (10, "\u0661.5"), (10, "0_1"),
    ])
    def test_both_parsers_reject(self, index, text):
        cells = csv_line(FlowRecord(ts=10.5, src_ip="10.0.0.1", src_port=80,
                                    dst_ip="10.0.0.2", dst_port=443, protocol="tcp",
                                    orig_bytes=1000, duration=1.5)).split(",")
        for parse, lines in ((parse_zeek_conn, zeek_text), (parse_labeled_csv, csv_text)):
            assert parse(lines(cells))[1].rows_rejected == 0
            edited = cells[:index] + [text] + cells[index + 1:]
            records, stats = parse(lines(edited))
            assert (records, stats.rows_read, stats.rows_rejected) == ([], 1, 1)

    # Zeek cells are read as written; the labeled CSV strips each cell first.
    @pytest.mark.parametrize("index, text", [
        (0, " 1.5 "), (0, "1.5\x0b"), (0, "\x0c0.5"), (0, "\x1c1.5"),
        (10, "0.5 "), (10, "\x1f0.5"), (2, " 80"), (7, "0\x0b"),
    ])
    def test_zeek_rejects_whitespace_around_numbers(self, index, text):
        cells = csv_line(FlowRecord(ts=10.5, src_ip="10.0.0.1", src_port=80,
                                    dst_ip="10.0.0.2", dst_port=443, protocol="tcp",
                                    orig_bytes=1000, duration=1.5)).split(",")
        edited = cells[:index] + [text] + cells[index + 1:]
        records, stats = parse_zeek_conn(zeek_text(edited))
        assert (records, stats.rows_read, stats.rows_rejected) == ([], 1, 1)
        assert parse_labeled_csv(csv_text(edited))[1].rows_rejected == 0

    # The README's grammar, cell by cell (helpers.oracle_flow_numbers),
    # against both parsers.
    @settings(max_examples=600)
    @given(number_cells, st.sampled_from([2, 4]), number_cells, st.sampled_from([6, 7, 8, 9]),
           number_cells, number_cells)
    @example("1.5", 2, "\u0663", 6, "7", "0.5")
    @example("1.5", 4, "80", 9, "\u00b3", "0.5")
    @example("1.5", 2, "65536", 6, "-", "(empty)")
    def test_both_parsers_follow_the_grammar(self, ts, port_index, port, count_index, count,
                                             duration):
        cells = csv_line(FLOW).split(",")
        cells[0], cells[port_index], cells[count_index], cells[10] = ts, port, count, duration
        names = ["ts", CSV_HEADER[port_index], CSV_HEADER[count_index], "duration"]
        for parse, lines, read in ((parse_zeek_conn, zeek_text, str),
                                   (parse_labeled_csv, csv_text, str.strip)):
            want = helpers.oracle_flow_numbers(*map(read, (ts, port, count, duration)))
            records, stats = parse(lines(cells))
            assert stats.rows_rejected == (want is None)
            if want is not None:
                got = [getattr(records[0], name) for name in names]
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


class TestParsersAgree:
    @settings(max_examples=300)
    @given(flow_records, st.lists(st.tuples(st.integers(0, 10), junk_cells), max_size=3))
    def test_same_row_same_record(self, flow, edits):
        cells = csv_line(flow).split(",")
        for index, text in edits:
            cells[index] = text
        zeek, zeek_stats = parse_zeek_conn(zeek_text(cells))
        csv_records, csv_stats = parse_labeled_csv(csv_text(cells))
        assert zeek_stats.rows_rejected == csv_stats.rows_rejected
        assert zeek == [dataclasses.replace(r, label=Label.UNLABELED) for r in csv_records]
        if not edits:
            assert csv_records == [flow]


def joined(lines, rows):
    """The input lines(row) makes for one row, with every row after its header."""
    return lines(rows[0])[:1] + [lines(row)[1] for row in rows]


def with_addresses(flow, src, dst):
    """The cells of flow's CSV row, with src and dst as its address texts."""
    cells = csv_line(flow).split(",")
    return cells[:1] + [src] + cells[2:3] + [dst] + cells[4:]


PARSERS = [(parse_zeek_conn, zeek_text), (parse_labeled_csv, csv_text)]
FLOW = FlowRecord(ts=1.0, src_ip="10.0.0.1", src_port=1, dst_ip="10.0.0.2", dst_port=2,
                  protocol="tcp")

# Address texts: IPv4, canonical and non-canonical IPv6, and invalid text.
address_texts = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "2001:db8::1", "2001:0DB8:0::1", "::ffff:1.2.3.4", "10.0.0.300"])


class TestSharedAddresses:
    @pytest.mark.parametrize("parse, lines", PARSERS, ids=["zeek", "csv"])
    @pytest.mark.parametrize("a, b", [("10.0.0.1", "192.168.7.9"), ("2001:db8::1", "fe80::2")],
                             ids=["ipv4", "ipv6"])
    def test_equal_text_is_one_object(self, parse, lines, a, b):
        rows = [with_addresses(FLOW, a, b), with_addresses(FLOW, b, a)]
        (first, second), _ = parse(joined(lines, rows))
        assert (first.src_ip, first.dst_ip) == (a, b)
        assert first.src_ip is second.dst_ip
        assert first.dst_ip is second.src_ip

    @pytest.mark.parametrize("parse, lines", PARSERS, ids=["zeek", "csv"])
    def test_non_canonical_ipv6_reads_back_canonical(self, parse, lines):
        rows = [with_addresses(FLOW, "10.0.0.1", text)
                for text in ("2001:0DB8:0::1", "2001:db8::1")]
        records, _ = parse(joined(lines, rows))
        assert [r.dst_ip for r in records] == ["2001:db8::1", "2001:db8::1"]

    @settings(max_examples=200)
    @given(st.lists(st.tuples(flow_records, address_texts, address_texts),
                    min_size=1, max_size=8))
    def test_rows_together_read_as_each_alone(self, drawn):
        # Sharing address objects across a parse changes no record's value.
        rows = [with_addresses(flow, src, dst) for flow, src, dst in drawn]
        for parse, lines in PARSERS:
            together, stats = parse(joined(lines, rows))
            alone = [parse(lines(row)) for row in rows]
            assert together == [record for records, _ in alone for record in records]
            assert stats.rows_rejected == sum(s.rows_rejected for _, s in alone)
