"""Unidirectional IP flows, their columns, and their preprocessing.

Flow files come from external collectors as CSV or JSON-lines, told apart
by their first record.  The canonical CSV column order is
``t_start,t_end,src_ip,dst_ip,src_port,dst_port,proto`` with timestamps in
integer milliseconds since the epoch; RFC 3339 strings are accepted and
converted on read.  Parsing fills ``FlowColumns`` directly, so a flow file
never exists as one record per flow: only the sampled edges become
``FlowRecord``s.  Bidirectional records can be split into two
unidirectional flows, and traffic is filtered down to TCP/UDP before any
graph is built.  Self-loop flows (equal endpoints) are dropped during
parsing.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from ipaddress import ip_address
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

CSV_COLUMNS = ("t_start", "t_end", "src_ip", "dst_ip", "src_port", "dst_port", "proto")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)


class Proto(str, Enum):
    TCP = "TCP"
    UDP = "UDP"
    OTHER = "OTHER"

    @classmethod
    def from_token(cls, token: str) -> "Proto":
        return _PROTOS.get(token.strip().upper(), cls.OTHER)


_PROTOS = {"TCP": Proto.TCP, "6": Proto.TCP, "UDP": Proto.UDP, "17": Proto.UDP}
# a flow's ``proto`` column holds the index of its Proto in declaration order
_CODE = {proto: code for code, proto in enumerate(Proto)}
_VALUE = {proto: proto.value for proto in Proto}  # cheaper than ``proto.value``
_BLOCK = 4096  # rows of flow columns turned into Python values at a time


class SplitMode(str, Enum):
    SAME_TIMESTAMPS = "same"
    DISTINCT_TIMESTAMPS = "distinct"


class FlowRecord(NamedTuple):
    """One IP flow: 5-tuple plus start/end in milliseconds.  Flows are
    unidirectional except for biflows read before they are split.  A named
    tuple: immutable, hashable, and built in one call, not one per field."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: Proto
    t_start: int
    t_end: int


class FlowColumns:
    """Flows as read-only int64 columns, one row per flow in input order:
    ``src`` and ``dst`` index the tuple ``addresses``, then come the ports
    ``sport`` and ``dport``, the ``proto`` index into ``Proto`` and
    ``t_start``/``t_end``; ``len()`` is the flow count.  ``addresses`` may
    also name endpoints of dropped flows.  Two are equal when their rows name
    the same flows, however the addresses are numbered.

    :func:`parse_flows` fills them as it reads a flow file, so ingest hands
    them to sample and oracle without any record per flow;
    ``FlowColumns(records)`` builds them from records (``enumerate_all``
    given records, tests)."""

    def __init__(self, flows: Sequence[FlowRecord]):
        ids = dict.fromkeys(chain.from_iterable(map(attrgetter("src_ip", "dst_ip"), flows)))
        addresses = tuple(ids)
        ids.update(zip(addresses, range(len(ids))))
        codes = {"src_ip": ids.__getitem__, "dst_ip": ids.__getitem__, "proto": _CODE.__getitem__}
        columns = []
        for field in FlowRecord._fields:
            values = map(attrgetter(field), flows)
            columns.append(np.fromiter(map(codes[field], values) if field in codes else values,
                                       np.int64, len(flows)))
        self._set(addresses, columns)

    @classmethod
    def _of(cls, addresses: Sequence[str], columns: Sequence[np.ndarray]) -> FlowColumns:
        """The flows of ``columns``, in ``FlowRecord`` field order, whose
        address ids index ``addresses``."""
        flows = cls.__new__(cls)
        flows._set(addresses, columns)
        return flows

    def _set(self, addresses: Sequence[str], columns: Sequence[np.ndarray]) -> None:
        for column in columns:
            column.flags.writeable = False
        self.addresses, self._columns = tuple(addresses), tuple(columns)
        self.src, self.dst, self.sport, self.dport, self.proto, self.t_start, self.t_end = columns

    def __len__(self) -> int:
        return len(self.src)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowColumns):
            return NotImplemented
        return self.records() == other.records()

    __hash__ = None

    def __repr__(self) -> str:
        return f"FlowColumns({self.records()!r})"

    def rows(self, rows: Sequence[int] | None = None) -> Iterator[tuple]:
        """The flows of ``rows`` (all of them by default), in that order, as
        tuples in ``FlowRecord`` field order.  ``_BLOCK`` rows at a time are
        turned into Python values: those of all 96,000 flows of the ``scale``
        benchmark would take 17 MB."""
        names, protos = self.addresses, tuple(Proto)
        columns = self._columns if rows is None else [column[rows] for column in self._columns]
        for first in range(0, len(columns[0]), _BLOCK):
            src, dst, sport, dport, proto, start, end = (
                column[first:first + _BLOCK].tolist() for column in columns)
            yield from zip(map(names.__getitem__, src), map(names.__getitem__, dst), sport, dport,
                           map(protos.__getitem__, proto), start, end)

    def records(self, rows: Sequence[int] | None = None) -> list[FlowRecord]:
        """The flows of ``rows`` (all of them by default) as records, in that order."""
        return list(map(FlowRecord._make, self.rows(rows)))


@dataclass
class ParseReport:
    """Recoverable per-line errors and drop counters from one parse run."""

    errors: list[tuple[int, str]]
    dropped_self_loops: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def open_lines(path):
    """A text file to read line by line, where a byte that is not UTF-8 does
    not stop the read: it stays in its line, for :func:`utf8` to reject."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def utf8(line: str) -> str:
    """``line``, or a UnicodeDecodeError (a ValueError) naming the first
    byte of it that is not UTF-8.  Free for an ASCII line."""
    if not line.isascii():
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    return line


def _parse_timestamp(token) -> int:
    """Integer milliseconds, or an RFC 3339 datetime converted to them."""
    if isinstance(token, int) and not isinstance(token, bool):
        return token
    text = str(token).strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
    try:
        stamp = datetime.fromisoformat(iso)
    except ValueError:
        raise ValueError(f"invalid timestamp {token!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return (stamp - _EPOCH) // _MS


# A dotted quad of decimal octets without leading zeros is its own canonical
# text; matching it is several times cheaper than ``ip_address``.
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
CANONICAL_IPV4 = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}")


def parse_address(token, canonical: dict[str, str]) -> str:
    """Canonical text of an address token; only valid tokens are memoised."""
    if (text := str(token)) not in canonical:
        try:
            address = text if CANONICAL_IPV4.fullmatch(text) else str(ip_address(text.strip()))
        except ValueError:
            raise ValueError(f"invalid IP address {token!r}") from None
        if "%" in address:  # a scope ID names one host's interface, not a device
            raise ValueError(f"scoped IPv6 address {token!r}")
        canonical[text] = address
    return canonical[text]


def _parse_port(token, name: str) -> int:
    try:
        port = int(token)
    except (TypeError, ValueError):
        raise ValueError(f"invalid {name} {token!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{name} {port} out of range 0-65535")
    return port


def _check_interval(ts: int, te: int) -> None:
    if te < ts:
        raise ValueError(f"t_end {te} earlier than t_start {ts}")
    if ts < -2**63 or te >= 2**63 - 1:  # the oracle's int64 arrays keep int64 max as "never"
        raise ValueError(f"timestamps {ts}..{te} outside the signed 64-bit range")


def _make_flow(t_start, t_end, src, dst, src_port, dst_port, proto, canonical: dict[str, str]) -> FlowRecord | None:
    """Validated FlowRecord, or None for a dropped self-loop."""
    ts, te = _parse_timestamp(t_start), _parse_timestamp(t_end)
    _check_interval(ts, te)
    src_ip = parse_address(src, canonical)
    dst_ip = parse_address(dst, canonical)
    sp = _parse_port(src_port, "src_port")
    dp = _parse_port(dst_port, "dst_port")
    if src_ip == dst_ip:
        return None
    return FlowRecord(src_ip, dst_ip, sp, dp, Proto.from_token(str(proto)), ts, te)


class _PortMemo(dict):
    """Port token -> ``int(token)``; a token ``int`` rejects raises and is not kept."""

    def __missing__(self, token: str) -> int:
        port = self[token] = int(token)
        return port


class _AddressIds(dict):
    """Address token -> the index of its canonical text in ``addresses``; a
    token that is no address raises and is not kept.  ``canonical``
    memoises the checks of :func:`_make_flow`."""

    def __init__(self):
        super().__init__()
        self.addresses: list[str] = []
        self.canonical: dict[str, str] = {}

    def __missing__(self, token: str) -> int:
        address = parse_address(token.strip(), {})  # this dict is the memo
        if address not in self:
            self[address] = len(self.addresses)
            self.addresses.append(address)
        number = self[token] = self[address]
        return number


def _row(flow: FlowRecord | None, ids: _AddressIds) -> tuple[int, ...] | None:
    """The column values of a checked flow; None stays None (a self-loop)."""
    if flow is None:
        return None
    return (ids[flow.src_ip], ids[flow.dst_ip], flow.src_port, flow.dst_port, _CODE[flow.proto],
            flow.t_start, flow.t_end)


def _csv_row(cells: list[str], ids: _AddressIds, ports: _PortMemo) -> tuple[int, ...] | None:
    """:func:`_row` of :func:`_make_flow` of the seven cells of a CSV row,
    which may be padded.

    The common row (integer timestamps with ``t_start <= t_end`` in the
    int64 range, integer ports in range, valid addresses) is decoded here:
    ``int`` ignores the padding, and the memos key the cells as they are.
    Any other row goes through :func:`_make_flow` with stripped cells, which
    names its first bad field."""
    t_start, t_end, src, dst, src_port, dst_port, proto = cells
    try:
        ts, te, sp, dp = int(t_start), int(t_end), ports[src_port], ports[dst_port]
        if not (-2**63 <= ts <= te < 2**63 - 1 and 0 <= sp <= 65535 and 0 <= dp <= 65535):
            raise ValueError
        s, d = ids[src], ids[dst]
    except ValueError:
        return _row(_make_flow(*[c.strip() for c in cells], ids.canonical), ids)
    return None if s == d else (s, d, sp, dp, _CODE[_PROTOS.get(proto) or Proto.from_token(proto)],
                                ts, te)


_COUNT_COLUMNS = ("fwd_bytes", "rev_bytes", "fwd_packets", "rev_packets")


def _drop_counts(cells: list[str]) -> list[str]:
    """The seven flow cells of an 11-column biflow row, once its four
    byte/packet count cells are known to be integers."""
    if len(cells) != len(CSV_COLUMNS) + len(_COUNT_COLUMNS):
        raise ValueError(f"expected 7 or 11 columns, got {len(cells)}")
    for name, token in zip(_COUNT_COLUMNS, cells[len(CSV_COLUMNS):]):
        try:
            int(token)
        except ValueError:
            raise ValueError(f"invalid {name} {token!r}") from None
    return cells[:len(CSV_COLUMNS)]


def _json_flow(obj, canonical: dict[str, str]) -> FlowRecord | None:
    """:func:`_make_flow` of the ``CSV_COLUMNS`` fields of a JSON object.  A
    port may not be a float or a boolean, although ``int`` takes both."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name in ("src_port", "dst_port"):
        if isinstance(obj.get(name), (bool, float)):
            raise ValueError(f"invalid {name} {obj[name]!r}")
    try:
        return _make_flow(*[obj[name] for name in CSV_COLUMNS], canonical)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None


def parse_flows(lines: Iterable[str], biflows: bool = False) -> tuple[FlowColumns, ParseReport]:
    """Parse the flows of an iterable of text lines into columns.

    The first line that is neither blank nor a CSV header sets the format:
    JSON lines when it starts with ``{``, CSV otherwise.  Invalid lines,
    a line holding a byte that is not UTF-8 among them (see
    :func:`open_lines`), are collected in the report with their 1-based
    line number; valid flows keep the input order.  A leading BOM and an
    optional CSV header line are skipped.  Each distinct address token is
    validated once per call: a valid one is memoised, an invalid one is
    reported on every line it appears on.  CSV port tokens are memoised
    too, and range-checked on every line.  With ``biflows`` every flow is a
    bidirectional connection (split later by :func:`biflow_to_uniflows`)
    and a CSV row may carry four trailing byte/packet count columns, which
    must be integers and are then discarded.
    """
    ids, ports = _AddressIds(), _PortMemo()
    columns = [array("q") for _ in FlowRecord._fields]
    add_src, add_dst, add_sport, add_dport, add_proto, add_start, add_end = (
        column.append for column in columns)
    report = ParseReport(errors=[])
    jsonl = None
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = utf8(raw).rstrip("\r\n")
            if lineno == 1:
                line = line.removeprefix("\ufeff")
                if line.split(",", 1)[0].strip().lower() == "t_start":
                    continue
            if not line.strip():
                continue
            if jsonl is None:
                jsonl = line.lstrip().startswith("{")
            if jsonl:
                row = _row(_json_flow(json.loads(line), ids.canonical), ids)
            else:
                cells = line.split(",")
                if len(cells) != len(CSV_COLUMNS):
                    if not biflows:
                        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}")
                    cells = _drop_counts([c.strip() for c in cells])
                row = _csv_row(cells, ids, ports)
        except ValueError as exc:
            report.errors.append((lineno, str(exc)))
            continue
        if row is None:
            report.dropped_self_loops += 1
        else:
            src, dst, sport, dport, proto, start, end = row
            add_src(src)
            add_dst(dst)
            add_sport(sport)
            add_dport(dport)
            add_proto(proto)
            add_start(start)
            add_end(end)
    return FlowColumns._of(ids.addresses, [np.frombuffer(c, np.int64) for c in columns]), report


def biflow_to_uniflows(biflows: FlowColumns, mode: SplitMode) -> FlowColumns:
    """Split each biflow into its forward and then its reverse unidirectional flow.

    The forward flow is the biflow itself; the reverse swaps addresses and
    ports.  SAME_TIMESTAMPS copies the interval to both directions.
    DISTINCT_TIMESTAMPS starts the reverse 1 ms after the forward start, so
    the forward flow always sorts first; for sub-millisecond biflows the
    reverse start is clamped to t_end to keep the interval valid.
    """
    src, dst, sport, dport, proto, t_start, t_end = biflows._columns
    # t_end < int64 max, so t_start + 1 does not overflow
    rev_start = t_start if mode is SplitMode.SAME_TIMESTAMPS else np.minimum(t_start + 1, t_end)
    return FlowColumns._of(biflows.addresses, [
        np.stack([forward, reverse], 1).ravel() for forward, reverse in
        ((src, dst), (dst, src), (sport, dport), (dport, sport), (proto, proto),
         (t_start, rev_start), (t_end, t_end))])


def filter_tcp_udp(flows: FlowColumns) -> FlowColumns:
    """Keep only TCP and UDP flows, preserving order."""
    keep = flows.proto != _CODE[Proto.OTHER]
    return flows if keep.all() else FlowColumns._of(flows.addresses,
                                                    [column[keep] for column in flows._columns])


def write_flows_csv(flows: Iterable[tuple], path) -> None:
    """One ``CSV_COLUMNS`` line per flow, without a header.  ``flows`` are
    tuples in ``FlowRecord`` field order: records, or ``FlowColumns.rows()``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ts},{te},{src},{dst},{sport},{dport},{_VALUE[proto]}\n"
                      for src, dst, sport, dport, proto, ts, te in flows)


def read_flows_csv(path) -> tuple[FlowColumns, ParseReport]:
    with open_lines(path) as fh:
        return parse_flows(fh)


def flow_to_json(flow: FlowRecord) -> str:
    """A flow as the JSON object :func:`flow_from_dict` reads, with the bytes
    ``json.dumps(..., sort_keys=True)`` writes: one template, no dict."""
    return (f'{{"dst_ip": {_quote(flow.dst_ip)}, "dst_port": {flow.dst_port}, '
            f'"proto": {_quote(flow.proto.value)}, "src_ip": {_quote(flow.src_ip)}, '
            f'"src_port": {flow.src_port}, "t_end": {flow.t_end}, "t_start": {flow.t_start}}}')


def flow_from_dict(obj: dict, canonical: dict[str, str]) -> FlowRecord:
    """A flow written by :func:`flow_to_json`, decoded as JSON-lines input is
    (``canonical`` memoises the addresses); a self-loop, which parsing drops,
    is an error here, and so is a ``proto`` that is not a ``Proto`` value."""
    flow = _json_flow(obj, canonical)
    if flow is None:
        raise ValueError(f"self-loop flow {obj['src_ip']}->{obj['dst_ip']}")
    if flow.proto.value != obj["proto"]:
        raise ValueError(f"{obj['proto']!r} is not a valid Proto")
    return flow
