"""Unidirectional IP flow records and their preprocessing.

Flow files come from external collectors as CSV or JSON-lines, told apart
by their first record.  The canonical CSV column order is
``t_start,t_end,src_ip,dst_ip,src_port,dst_port,proto`` with timestamps in
integer milliseconds since the epoch; RFC 3339 strings are accepted and
converted on read.  Bidirectional records can be split into two
unidirectional flows, and traffic is filtered down to TCP/UDP before any
graph is built.  Self-loop flows (equal endpoints) are dropped during
parsing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from ipaddress import ip_address
from typing import Iterable, NamedTuple

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


@dataclass
class ParseReport:
    """Recoverable per-line errors and drop counters from one parse run."""

    errors: list[tuple[int, str]]
    dropped_self_loops: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


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
    """Port token -> ``int(token)``, so that all rows share one int object
    per token; a token ``int`` rejects raises and is not kept."""

    def __missing__(self, token: str) -> int:
        port = self[token] = int(token)
        return port


def _csv_flow(cells: list[str], canonical: dict[str, str], ports: _PortMemo) -> FlowRecord | None:
    """:func:`_make_flow` of the seven cells of a CSV row, which may be padded.

    The common row (integer timestamps with ``t_start <= t_end`` in the
    int64 range, integer ports in range, valid addresses) is decoded here:
    ``int`` ignores the padding, so only the addresses are stripped.  Any
    other row goes through :func:`_make_flow` with stripped cells, which
    names its first bad field."""
    t_start, t_end, src, dst, src_port, dst_port, proto = cells
    try:
        ts, te, sp, dp = int(t_start), int(t_end), ports[src_port], ports[dst_port]
        if not (-2**63 <= ts <= te < 2**63 - 1 and 0 <= sp <= 65535 and 0 <= dp <= 65535):
            raise ValueError
        src, dst = src.strip(), dst.strip()
        src_ip = canonical.get(src) or parse_address(src, canonical)
        dst_ip = canonical.get(dst) or parse_address(dst, canonical)
    except ValueError:
        return _make_flow(*[c.strip() for c in cells], canonical)
    if src_ip == dst_ip:
        return None
    return FlowRecord(src_ip, dst_ip, sp, dp, _PROTOS.get(proto) or Proto.from_token(proto), ts, te)


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


def parse_flows(lines: Iterable[str], biflows: bool = False) -> tuple[list[FlowRecord], ParseReport]:
    """Parse flow records from an iterable of text lines.

    The first line that is neither blank nor a CSV header sets the format:
    JSON lines when it starts with ``{``, CSV otherwise.  Invalid lines are
    collected in the report with their 1-based line number; valid records
    keep the input order.  A leading BOM and an optional CSV header line are
    skipped.  Each distinct address token is validated once per call: a valid
    one is memoised, an invalid one is reported on every line it appears on.
    CSV port tokens are memoised too, and range-checked on every line.
    With ``biflows`` every record is a bidirectional connection (split later
    by :func:`biflow_to_uniflows`) and a CSV row may carry four trailing
    byte/packet count columns, which must be integers and are then discarded.
    """
    canonical: dict[str, str] = {}
    ports = _PortMemo()
    flows: list[FlowRecord] = []
    report = ParseReport(errors=[])
    jsonl = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n") if lineno > 1 else raw.rstrip("\r\n").removeprefix("\ufeff")
        header = lineno == 1 and line.split(",", 1)[0].strip().lower() == "t_start"
        if header or not line.strip():
            continue
        if jsonl is None:
            jsonl = line.lstrip().startswith("{")
        try:
            if jsonl:
                flow = _json_flow(json.loads(line), canonical)
            else:
                cells = line.split(",")
                if len(cells) != len(CSV_COLUMNS):
                    if not biflows:
                        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}")
                    cells = _drop_counts([c.strip() for c in cells])
                flow = _csv_flow(cells, canonical, ports)
        except ValueError as exc:
            report.errors.append((lineno, str(exc)))
            continue
        if flow is None:
            report.dropped_self_loops += 1
        else:
            flows.append(flow)
    return flows, report


def biflow_to_uniflows(biflow: FlowRecord, mode: SplitMode) -> tuple[FlowRecord, FlowRecord]:
    """Split a biflow into forward and reverse unidirectional flows.

    The forward flow is the biflow record itself; the reverse swaps addresses
    and ports.  SAME_TIMESTAMPS copies the interval to both directions.
    DISTINCT_TIMESTAMPS starts the reverse 1 ms after the forward start, so
    the forward flow always sorts first; for sub-millisecond biflows the
    reverse start is clamped to t_end to keep the interval valid.
    """
    if mode is SplitMode.SAME_TIMESTAMPS:
        rev_start = biflow.t_start
    else:
        rev_start = min(biflow.t_start + 1, biflow.t_end)
    rev = FlowRecord(biflow.dst_ip, biflow.src_ip, biflow.dst_port, biflow.src_port,
                     biflow.proto, rev_start, biflow.t_end)
    return biflow, rev


def filter_tcp_udp(flows: Iterable[FlowRecord]) -> list[FlowRecord]:
    """Keep only TCP and UDP flows, preserving order."""
    return [f for f in flows if f.proto is not Proto.OTHER]


def flow_to_csv_line(flow: FlowRecord) -> str:
    return (f"{flow.t_start},{flow.t_end},{flow.src_ip},{flow.dst_ip},"
            f"{flow.src_port},{flow.dst_port},{flow.proto.value}")


def write_flows_csv(flows: Iterable[FlowRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for flow in flows:
            fh.write(flow_to_csv_line(flow) + "\n")


def read_flows_csv(path) -> tuple[list[FlowRecord], ParseReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_flows(fh)


def flow_to_dict(flow: FlowRecord) -> dict:
    return {**flow._asdict(), "proto": flow.proto.value}


def flow_from_dict(obj: dict, canonical: dict[str, str]) -> FlowRecord:
    """A flow written by :func:`flow_to_dict`, decoded as JSON-lines input is
    (``canonical`` memoises the addresses); a self-loop, which parsing drops,
    is an error here, and so is a ``proto`` that is not a ``Proto`` value."""
    flow = _json_flow(obj, canonical)
    if flow is None:
        raise ValueError(f"self-loop flow {obj['src_ip']}->{obj['dst_ip']}")
    if flow.proto.value != obj["proto"]:
        raise ValueError(f"{obj['proto']!r} is not a valid Proto")
    return flow
