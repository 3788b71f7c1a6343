"""Synthetic flow traces with planted dependency structure.

Clients run sessions against a fixed home web server.  When the scenario
has a name server, a session performs a name lookup first (request plus
port-swapped reply, with the web request following within half the
configured epsilon); when it has a database, the web server calls its home
database inside the client request's interval.
Source ports are fixed per role so repeated sessions share 5-tuples and
therefore materialise direct dependencies.  Noise flows use a disjoint
address block and fully random ports, so they never contaminate the planted
truth.
"""

from __future__ import annotations

import random
from collections import Counter

from .config import ScenarioConfig
from .flows import FlowRecord, Proto
from .oracle import DepKind, DependencyRecord

_CLIENT_WEB_SPORT = 51000
_WEB_DB_SPORT = 52000
_CLIENT_DNS_SPORT = 50053


def _block(prefix: int, count: int) -> list[str]:
    return [f"10.0.{prefix}.{i + 1}" for i in range(count)]


def generate(cfg: ScenarioConfig) -> tuple[list[FlowRecord], list[DependencyRecord]]:
    """Flows in session emission order followed by noise, plus the planted
    truth: sessions go round-robin to the clients, and a record's witness
    count is the number of sessions that plant it, summed over the clients
    (thresholds are the consumer's business)."""
    total_sessions = int(round(cfg.session_rate * cfg.duration))
    rng = random.Random(cfg.rng_seed)
    webs, dbs, dnss = _block(1, cfg.n_web), _block(2, cfg.n_db), _block(3, cfg.n_dns)

    duration_ms = int(cfg.duration * 1000)
    lat_lo, lat_hi = cfg.LATENCY_MS

    # per client with sessions: its web server, name server and database
    # (None when the scenario has none), and what one of its sessions plants
    roles = []
    planted: Counter = Counter()  # (kind, src, dst) -> sessions that plant it
    for ci, client in enumerate(_block(0, min(cfg.n_clients, total_sessions))):
        web = webs[ci % cfg.n_web]
        dns = dnss[ci % cfg.n_dns] if cfg.n_dns else None
        db = dbs[ci % cfg.n_web % cfg.n_db] if cfg.n_db else None
        roles.append((client, web, dns, db))
        records = [(DepKind.DD, client, web)]
        if dns:
            records += [(DepKind.DD, client, dns), (DepKind.DD, dns, client), (DepKind.RR, web, dns)]
        if db:
            records += [(DepKind.DD, web, db), (DepKind.TD, client, db)]
        planted.update(dict.fromkeys(records, len(range(ci, total_sessions, cfg.n_clients))))

    flows: list[FlowRecord] = []
    for s in range(total_sessions):
        client, web, dns, db = roles[s % cfg.n_clients]
        t0 = rng.randrange(0, max(1, duration_ms))
        t_web = t0
        if dns:
            lookup_ms = rng.randrange(lat_lo, lat_hi + 1)
            reply_delay = rng.randrange(0, 3)
            reply_skew = rng.randrange(0, 3)
            request = FlowRecord(client, dns, _CLIENT_DNS_SPORT, 53, Proto.UDP,
                                 t0, t0 + lookup_ms)
            reply = FlowRecord(dns, client, 53, _CLIENT_DNS_SPORT, Proto.UDP,
                               t0 + reply_delay, t0 + lookup_ms + reply_skew)
            flows += [request, reply]
            t_web = reply.t_end + rng.randrange(1, cfg.max_gap_ms + 1)
        service_ms = rng.randrange(lat_lo, lat_hi + 1)
        # with a database, the client's request encloses the web server's call
        lead, tail = (rng.randrange(1, 4), rng.randrange(1, 4)) if db else (0, 0)
        flows.append(FlowRecord(client, web, _CLIENT_WEB_SPORT, 443, Proto.TCP,
                                t_web, t_web + lead + service_ms + tail))
        if db:
            flows.append(FlowRecord(web, db, _WEB_DB_SPORT, 5432, Proto.TCP,
                                    t_web + lead, t_web + lead + service_ms))

    for _ in range(cfg.noise_flows):
        src = f"172.16.{rng.randrange(0, 256)}.{rng.randrange(1, 255)}"
        dst = src
        while dst == src:
            dst = f"172.16.{rng.randrange(0, 256)}.{rng.randrange(1, 255)}"
        t_start = rng.randrange(0, max(1, duration_ms))
        flows.append(FlowRecord(src, dst, rng.randrange(1024, 65536), rng.randrange(1, 65536),
                                rng.choice([Proto.TCP, Proto.UDP]),
                                t_start, t_start + rng.randrange(1, cfg.NOISE_MS + 1)))

    return flows, sorted(DependencyRecord(*key, k) for key, k in planted.items())
