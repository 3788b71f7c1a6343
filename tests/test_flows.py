import io
import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flow, written_flows
from depwalk.flows import (CSV_COLUMNS, FlowRecord, ParseReport, Proto, SplitMode,
                           biflow_to_uniflows, filter_tcp_udp, flow_from_dict, flow_to_csv_line,
                           flow_to_dict, parse_flows, write_flows_csv)
from depwalk.synth import ScenarioConfig, generate
from refimpl import reference_parse_flows


def parse_text(text):
    return parse_flows(io.StringIO(text))


def test_parse_csv_line_maps_fields():
    flows, report = parse_text("1000,2000,10.0.0.1,10.0.0.2,50000,443,TCP\n")
    assert report.ok
    assert flows == [FlowRecord("10.0.0.1", "10.0.0.2", 50000, 443, Proto.TCP, 1000, 2000)]


def test_parse_empty_input():
    flows, report = parse_text("")
    assert flows == [] and report.ok


def test_reversed_interval_rejected_with_line_number():
    flows, report = parse_text(
        "1000,2000,10.0.0.1,10.0.0.2,1,2,TCP\n"
        "5000,4000,10.0.0.1,10.0.0.2,1,2,TCP\n"
        "3000,4000,10.0.0.3,10.0.0.4,1,2,UDP\n")
    assert len(flows) == 2
    assert [lineno for lineno, _ in report.errors] == [2]
    assert "t_end" in report.errors[0][1]


def test_timestamps_must_fit_in_signed_64_bits():
    flows, report = parse_text(
        f"{-2**63},{2**63 - 2},10.0.0.1,10.0.0.2,1,2,TCP\n"
        f"0,{2**63 - 1},10.0.0.1,10.0.0.2,1,2,TCP\n"
        f"{-2**63 - 1},0,10.0.0.1,10.0.0.2,1,2,TCP\n")
    assert [(f.t_start, f.t_end) for f in flows] == [(-2**63, 2**63 - 2)]
    assert [lineno for lineno, _ in report.errors] == [2, 3]
    assert all("outside the signed 64-bit range" in message for _, message in report.errors)


def test_bad_address_and_timestamp_reported():
    flows, report = parse_text(
        "x,2000,10.0.0.1,10.0.0.2,1,2,TCP\n"
        "1000,2000,10.0.0.999,10.0.0.2,1,2,TCP\n")
    assert flows == []
    assert [lineno for lineno, _ in report.errors] == [1, 2]


def test_repeated_invalid_address_is_an_error_on_each_of_its_lines():
    flows, report = parse_text(
        "1,2,10.0.0.999,10.0.0.2,1,2,TCP\n"
        "3,4,10.0.0.1,10.0.0.2,1,2,TCP\n"
        "5,6,10.0.0.3,10.0.0.999,1,2,TCP\n")
    assert len(flows) == 1
    assert report.errors == [(1, "invalid IP address '10.0.0.999'"),
                             (3, "invalid IP address '10.0.0.999'")]


def test_scoped_ipv6_address_is_an_error_on_its_line():
    # A scope ID names an interface of one host, not a device, and its text
    # may hold a comma, which the CSV writer could not carry.
    flows, report = parse_text("1,2,fe80::1%eth0,10.0.0.2,1,2,TCP\n"
                               "5,6,fe80::1,10.0.0.2,1,2,TCP\n")
    assert report.errors == [(1, "scoped IPv6 address 'fe80::1%eth0'")]
    assert [f.src_ip for f in flows] == ["fe80::1"]
    flows, report = parse_text(json.dumps(
        {"t_start": 3, "t_end": 4, "src_ip": "10.0.0.1", "dst_ip": "fe80::1%a,b",
         "src_port": 1, "dst_port": 2, "proto": "TCP"}) + "\n")
    assert (flows, report.errors) == ([], [(1, "scoped IPv6 address 'fe80::1%a,b'")])


def test_repeated_port_token_shares_one_int_and_is_range_checked_on_each_line():
    flows, report = parse_text(
        "1,2,10.0.0.1,10.0.0.2,50000,70000,TCP\n"
        "3,4,10.0.0.1,10.0.0.2,50000,443,TCP\n"
        "5,6,10.0.0.3,10.0.0.4,70000,50000,TCP\n"
        "7,8,10.0.0.3,10.0.0.4,443,50000,TCP\n")
    assert report.errors == [(1, "dst_port 70000 out of range 0-65535"),
                             (3, "src_port 70000 out of range 0-65535")]
    assert [(f.src_port, f.dst_port) for f in flows] == [(50000, 443), (443, 50000)]
    assert flows[0].src_port is flows[1].dst_port


def test_address_tokens_parse_to_their_canonical_text():
    flows, report = parse_text(
        "1,2,2001:DB8::1,2001:db8::2,1,2,TCP\n"
        "3,4,2001:db8::1,2001:0db8:0:0::2,1,2,TCP\n"
        "5,6, 010.0.0.1,10.0.0.2,1,2,TCP\n"
        "7,8, 2001:DB8::1 ,10.0.0.2,1,2,TCP\n")
    # IPv4 octets with leading zeros are rejected by ``ipaddress``
    assert report.errors == [(3, "invalid IP address '010.0.0.1'")]
    assert [(f.src_ip, f.dst_ip) for f in flows] == [
        ("2001:db8::1", "2001:db8::2"), ("2001:db8::1", "2001:db8::2"), ("2001:db8::1", "10.0.0.2")]


ADDRESSES = st.one_of(
    st.ip_addresses().map(str),
    st.ip_addresses(v=6).map(lambda a: a.exploded),
    st.ip_addresses(v=6).map(lambda a: str(a).upper()),
    st.sampled_from(["10.0.0.999", "2001:db8::g", "", "host"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**13), st.integers(0, 10**4), ADDRESSES, ADDRESSES,
                          st.integers(0, 65535), st.integers(0, 65535),
                          st.sampled_from(["TCP", "UDP", "6", "ICMP"])), max_size=12))
def test_jsonl_records_equal_the_equivalent_csv(rows):
    csv_lines, json_lines = [], []
    for start, duration, src, dst, sport, dport, proto in rows:
        cells = (start, start + duration, src, dst, sport, dport, proto)
        csv_lines.append(",".join(map(str, cells)) + "\n")
        json_lines.append(json.dumps(dict(zip(CSV_COLUMNS, cells))) + "\n")
    from_csv = parse_text("".join(csv_lines))
    from_json = parse_text("".join(json_lines))
    assert from_json == from_csv
    # graph and walk files hold TCP/UDP flows without self-loops, written by
    # flow_to_dict; read back by flow_from_dict they are the parsed flows
    kept = filter_tcp_udp(from_csv[0])
    canonical = {}
    assert [flow_from_dict(json.loads(json.dumps(flow_to_dict(f))), canonical) for f in kept] == kept


PADDING = st.sampled_from(["", "", "", " ", "  ", "\t", " \t "])
TIMESTAMPS = st.one_of(
    st.integers(-2, 10**13).map(str),
    st.sampled_from([-2**63 - 1, -2**63, 2**63 - 2, 2**63 - 1, 2**63]).map(str),
    st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1),
                 timezones=st.sampled_from([None, timezone.utc])).map(datetime.isoformat),
    st.sampled_from(["1970-01-01T00:00:01Z", "1970-01-01T00:00:02z", "+5", "1_000", "-7",
                     "1.5", "x", "", "2024-02-30T00:00:00"]))
PORTS = st.one_of(st.sampled_from([-1, 0, 65535, 65536]).map(str), st.integers(-2, 70000).map(str),
                  st.sampled_from(["", "x", "80.0", "0x50"]))
PROTOS = st.sampled_from(["TCP", "UDP", "6", "17", "ICMP", "tcp", "Udp", "", "47"])
# repeated tokens, leading zeros, and self-loops on the two fixed addresses
CSV_ADDRESSES = st.one_of(ADDRESSES, st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "010.0.0.1", "10.0.0.01", "1.2.3", "256.0.0.1", "::ffff:1.2.3.4",
     "fe80::1%eth0", "fe80::1%"]))
COUNTS = st.one_of(st.integers(-1, 10**6).map(str), st.sampled_from(["2x0", ""]))
# (t_start, t_end): valid, at the edges of int64 and reversed
INTERVALS = st.one_of(
    st.integers(0, 10**13).flatmap(lambda start: st.tuples(st.just(start),
                                                             st.integers(start, start + 10**4))),
    st.sampled_from([(-2**63, 2**63 - 2), (0, 2**63 - 1), (-2**63 - 1, 0), (5, 4), (7, 7)]))
# the token that damages a cell, by column; the last serves the count columns
DAMAGE = (TIMESTAMPS, TIMESTAMPS, CSV_ADDRESSES, CSV_ADDRESSES, PORTS, PORTS, PROTOS, COUNTS)


def padded(strategy):
    return st.tuples(PADDING, strategy, PADDING).map("".join)


@st.composite
def csv_lines(draw):
    """A row of 7 or 11 columns, with up to two damaged cells, padding,
    and sometimes a column too few or too many."""
    start, end = draw(INTERVALS)
    cells = [str(start), str(end), draw(CSV_ADDRESSES),
             draw(CSV_ADDRESSES), str(draw(st.integers(0, 65535))),
             str(draw(st.integers(0, 65535))), draw(PROTOS)]
    if draw(st.booleans()):  # a biflow row's byte and packet counts
        cells += [str(draw(st.integers(0, 10**6))) for _ in range(4)]
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.integers(0, len(cells) - 1))
        cells[column] = draw(DAMAGE[min(column, len(DAMAGE) - 1)])
    shape = draw(st.sampled_from(["keep", "keep", "keep", "drop", "add"]))
    if shape == "drop":
        cells.pop(draw(st.integers(0, len(cells) - 1)))
    elif shape == "add":
        cells.append(draw(PORTS))
    cells = [draw(padded(st.just(cell))) for cell in cells]
    return ",".join(cells) + draw(st.sampled_from(["\n", "\r\n"]))


ODD_JSON = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3),
                     st.lists(st.integers(), max_size=2), TIMESTAMPS, PORTS)


@st.composite
def json_lines(draw):
    """A flow object with up to two fields missing or given an odd value."""
    start, end = draw(INTERVALS)
    obj = {"t_start": start, "t_end": end, "src_ip": draw(padded(CSV_ADDRESSES)),
           "dst_ip": draw(padded(CSV_ADDRESSES)), "src_port": draw(st.integers(-1, 65536)),
           "dst_port": draw(st.integers(0, 65535)), "proto": draw(PROTOS)}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(CSV_COLUMNS))
        if draw(st.booleans()):
            obj.pop(name, None)
        else:
            obj[name] = draw(ODD_JSON)
    return json.dumps(obj) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(csv_lines(), max_size=10), st.lists(json_lines(), max_size=10)),
       st.sampled_from(["", "t_start,t_end,src_ip,dst_ip,src_port,dst_port,proto\n", "\n"]),
       st.booleans())
def test_parse_matches_the_reference_parser(lines, head, biflows):
    # the same records, counters and (line, message) errors, message for message
    lines = [head, *lines] if head else lines
    assert parse_flows(lines, biflows) == reference_parse_flows(lines, biflows)


def test_flow_record_is_an_immutable_hashable_value():
    record = FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 5, 9)
    for name in CSV_COLUMNS:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 5, 9)
    assert twin == record and twin is not record and hash(twin) == hash(record)
    assert record != FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 5, 10)


def test_records_are_built_positionally_in_field_order():
    assert flow("10.0.0.1", "10.0.0.2", 5, 9, sport=3, dport=4, proto=Proto.UDP) == FlowRecord(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=3, dst_port=4, proto=Proto.UDP,
        t_start=5, t_end=9)
    _, rev = biflow_to_uniflows(BIFLOW, SplitMode.DISTINCT_TIMESTAMPS)
    assert rev == FlowRecord(src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=443, dst_port=50000,
                             proto=Proto.TCP, t_start=1, t_end=10)
    flows, _ = generate(ScenarioConfig(n_clients=2, duration=20.0, rng_seed=5))
    # synth's roles: a client's lookup goes from port 50053 to 53 over UDP,
    # its web request to 443 and the web server's call to 5432 over TCP
    assert {(f.src_port, f.dst_port, f.proto) for f in flows} == {
        (50053, 53, Proto.UDP), (53, 50053, Proto.UDP), (51000, 443, Proto.TCP),
        (52000, 5432, Proto.TCP)}
    assert all(isinstance(f.src_ip, str) and 0 <= f.t_start <= f.t_end for f in flows)


def test_flow_from_dict_takes_only_proto_values():
    # parsing maps "6", "tcp" and "ICMP" to a Proto; an artifact holds the value itself
    edge = flow_to_dict(FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 1, 2))
    for token in ("6", "tcp", "ICMP", " TCP", 6):
        with pytest.raises(ValueError, match="is not a valid Proto"):
            flow_from_dict({**edge, "proto": token}, {})
    assert flow_from_dict({**edge, "proto": "OTHER"}, {}).proto is Proto.OTHER


JSON_FLOW = ('{"t_start": 1, "t_end": 2, "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", '
             '"src_port": 1, "dst_port": 2, "proto": "UDP"}')


def test_jsonl_line_that_is_not_an_object_is_an_error_on_its_line():
    _, report = parse_text(JSON_FLOW + '\n5\n"t_start"\n[1, 2]\n')
    assert report.errors == [(2, "expected a JSON object, got int"),
                             (3, "expected a JSON object, got str"),
                             (4, "expected a JSON object, got list")]


def test_jsonl_object_without_a_field_names_the_first_missing_one():
    obj = json.loads(JSON_FLOW)
    del obj["src_ip"], obj["proto"]
    _, report = parse_text(json.dumps(obj) + "\n")
    assert report.errors == [(1, "missing field 'src_ip'")]


def test_jsonl_integer_fields_take_no_floats_or_booleans():
    lines = [json.dumps({**json.loads(JSON_FLOW), **change}) + "\n"
             for change in ({"src_port": 443.9}, {"dst_port": True},
                            {"t_start": 1.5}, {"t_end": 2.0}, {"src_port": "443"})]
    flows, report = parse_text("".join(lines))
    assert report.errors == [(1, "invalid src_port 443.9"), (2, "invalid dst_port True"),
                             (3, "invalid timestamp 1.5"), (4, "invalid timestamp 2.0")]
    assert [f.src_port for f in flows] == [443]  # a string of digits is a port, as in CSV


def test_format_is_read_from_the_first_record_line():
    flows, report = parse_text("\n  \n" + JSON_FLOW + "\n")
    assert report.ok and flows == [FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.UDP, 1, 2)]
    # a CSV file stays CSV: a JSON line after its first record is a bad row
    _, report = parse_text("t_start,t_end,src_ip,dst_ip,src_port,dst_port,proto\n"
                           "1,2,10.0.0.1,10.0.0.2,1,2,TCP\n" + JSON_FLOW + "\n")
    assert [lineno for lineno, _ in report.errors] == [3]


def test_input_order_preserved():
    text = "".join(f"{i},{i + 1},10.0.0.1,10.0.0.2,1,2,TCP\n" for i in range(5))
    flows, _ = parse_text(text)
    assert [f.t_start for f in flows] == list(range(5))


def test_header_line_skipped():
    flows, report = parse_text(
        "t_start,t_end,src_ip,dst_ip,src_port,dst_port,proto\n"
        "1,2,10.0.0.1,10.0.0.2,1,2,TCP\n")
    assert report.ok and len(flows) == 1


def test_self_loops_dropped_and_counted():
    flows, report = parse_text("1,2,10.0.0.1,10.0.0.1,1,2,TCP\n")
    assert flows == [] and report.ok
    assert report.dropped_self_loops == 1


def test_rfc3339_timestamps_converted():
    flows, report = parse_text(
        "1970-01-01T00:00:01Z,1970-01-01T00:00:02+00:00,10.0.0.1,10.0.0.2,1,2,TCP\n")
    assert report.ok
    assert flows[0].t_start == 1000 and flows[0].t_end == 2000


def test_port_out_of_range_rejected():
    _, report = parse_text("1,2,10.0.0.1,10.0.0.2,70000,2,TCP\n")
    assert len(report.errors) == 1 and "src_port" in report.errors[0][1]


def test_jsonl_parsing():
    text = ('{"t_start": 1, "t_end": 2, "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", '
            '"src_port": 1, "dst_port": 2, "proto": "UDP"}\n'
            '{"bad json\n')
    flows, report = parse_text(text)
    assert len(flows) == 1 and flows[0].proto is Proto.UDP
    assert [lineno for lineno, _ in report.errors] == [2]


def test_proto_numbers_and_unknown_tokens():
    flows, _ = parse_text(
        "1,2,10.0.0.1,10.0.0.2,1,2,6\n"
        "1,2,10.0.0.1,10.0.0.2,1,2,17\n"
        "1,2,10.0.0.1,10.0.0.2,1,2,ICMP\n")
    assert [f.proto for f in flows] == [Proto.TCP, Proto.UDP, Proto.OTHER]


def test_csv_round_trip_is_byte_identical():
    text = ("1000,2000,10.0.0.1,10.0.0.2,50000,443,TCP\n"
            "1,1,192.168.1.9,10.0.0.2,0,65535,UDP\n")
    flows, report = parse_text(text)
    assert report.ok
    assert "".join(flow_to_csv_line(f) + "\n" for f in flows) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(written_flows(), max_size=20))
def test_parse_flows_returns_the_records_write_flows_csv_wrote(flows):
    # what lets ingest keep the records it writes instead of reading them back
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        write_flows_csv(flows, path)
        with open(path, encoding="utf-8") as fh:
            assert parse_flows(fh) == (flows, ParseReport(errors=[]))


BIFLOW = FlowRecord("10.0.0.1", "10.0.0.2", 50000, 443, Proto.TCP, 0, 10)


def test_biflow_same_timestamps():
    fwd, rev = biflow_to_uniflows(BIFLOW, SplitMode.SAME_TIMESTAMPS)
    assert (fwd.src_ip, fwd.dst_ip, fwd.src_port, fwd.dst_port) == ("10.0.0.1", "10.0.0.2", 50000, 443)
    assert (rev.src_ip, rev.dst_ip, rev.src_port, rev.dst_port) == ("10.0.0.2", "10.0.0.1", 443, 50000)
    assert (fwd.t_start, fwd.t_end) == (0, 10) and (rev.t_start, rev.t_end) == (0, 10)


def test_biflow_distinct_timestamps():
    fwd, rev = biflow_to_uniflows(BIFLOW, SplitMode.DISTINCT_TIMESTAMPS)
    assert (fwd.t_start, fwd.t_end) == (0, 10)
    assert (rev.t_start, rev.t_end) == (1, 10)


def test_biflow_degenerate_duration():
    b = FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 5, 5)
    fwd, rev = biflow_to_uniflows(b, SplitMode.SAME_TIMESTAMPS)
    assert (fwd.t_start, fwd.t_end) == (5, 5) and (rev.t_start, rev.t_end) == (5, 5)
    # distinct mode clamps so the reverse interval stays valid
    _, rev = biflow_to_uniflows(b, SplitMode.DISTINCT_TIMESTAMPS)
    assert rev.t_start <= rev.t_end


def test_biflow_swap_is_an_involution(rng):
    for _ in range(50):
        b = FlowRecord(f"10.0.0.{rng.randrange(1, 50)}", f"10.0.1.{rng.randrange(1, 50)}",
                         rng.randrange(65536), rng.randrange(65536), Proto.TCP, 0, 10)
        _, rev = biflow_to_uniflows(b, SplitMode.SAME_TIMESTAMPS)
        back = FlowRecord(rev.src_ip, rev.dst_ip, rev.src_port, rev.dst_port, rev.proto, 0, 10)
        _, again = biflow_to_uniflows(back, SplitMode.SAME_TIMESTAMPS)
        assert (again.src_ip, again.dst_ip, again.src_port, again.dst_port) == \
            (b.src_ip, b.dst_ip, b.src_port, b.dst_port)


def test_biflow_row_with_counts_ingests_to_two_uniflows():
    records, report = parse_flows(io.StringIO("1,2,10.0.0.1,10.0.0.2,1,2,TCP,100,200,3,4\n"),
                                  biflows=True)
    assert report.ok
    assert records == [FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 1, 2)]
    assert list(biflow_to_uniflows(records[0], SplitMode.SAME_TIMESTAMPS)) == [
        FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, Proto.TCP, 1, 2),
        FlowRecord("10.0.0.2", "10.0.0.1", 2, 1, Proto.TCP, 1, 2)]


def test_biflow_non_integer_count_is_an_error_on_its_line():
    text = ("1,2,10.0.0.1,10.0.0.2,1,2,TCP\n"
            "1,2,10.0.0.1,10.0.0.2,1,2,TCP,100,2x0,3,4\n"
            "1,2,10.0.0.1,10.0.0.2,1,2,TCP,100,200,3\n")
    records, report = parse_flows(io.StringIO(text), biflows=True)
    assert len(records) == 1
    assert report.errors == [(2, "invalid rev_bytes '2x0'"),
                             (3, "expected 7 or 11 columns, got 10")]


def test_count_columns_are_rejected_without_biflows():
    _, report = parse_text("1,2,10.0.0.1,10.0.0.2,1,2,TCP,100,200,3,4\n")
    assert report.errors == [(1, "expected 7 columns, got 11")]


def mk(proto):
    return FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, proto, 0, 1)


def test_filter_tcp_udp():
    mixed = [mk(Proto.TCP), mk(Proto.UDP), mk(Proto.OTHER)]
    assert [f.proto for f in filter_tcp_udp(mixed)] == [Proto.TCP, Proto.UDP]
    assert filter_tcp_udp([mk(Proto.OTHER)] * 3) == []
    assert filter_tcp_udp([]) == []


def test_filter_conserves_totals(rng):
    flows = [mk(rng.choice([Proto.TCP, Proto.UDP, Proto.OTHER])) for _ in range(200)]
    kept = filter_tcp_udp(flows)
    rejected = sum(1 for f in flows if f.proto is Proto.OTHER)
    assert len(kept) + rejected == len(flows)
