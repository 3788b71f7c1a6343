from collections import Counter

import pytest

import refimpl
from test_acceptance import E2E_CONFIG
from depwalk.errors import ConfigError
from depwalk.flows import Proto
from depwalk.oracle import (DepKind, DependencyRecord, FlowColumns, OracleConfig, enumerate_all,
                            enumerate_rr)
from depwalk.synth import ScenarioConfig, generate
from depwalk.walks import cond_lr_open, cond_rev_return


def scenario(**kwargs):
    defaults = dict(n_clients=1, n_web=1, n_db=1, n_dns=0, session_rate=1.0,
                    duration=20.0, noise_flows=0, epsilon_ms=1000, rng_seed=3)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(duration=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(n_clients=300)
    with pytest.raises(ConfigError):
        ScenarioConfig(epsilon_ms=11)


def test_the_latest_timestamp_synth_can_write_stays_below_the_int64_maximum():
    # one session within 1 s: a start up to 999 ms, a lookup of up to 50 ms
    # whose reply ends up to 2 ms late, the gap of up to epsilon_ms // 2 - 4,
    # and a web request of up to 50 ms, 3 ms either side of its database call
    edge = 2 * (2**63 - 2 - (999 + 50 + 2 + 50 + 6) + 4)
    assert ScenarioConfig(duration=1.0, epsilon_ms=edge).max_gap_ms == 2**63 - 2 - 1107
    with pytest.raises(ConfigError, match=f"as late as {2**63 - 1} ms"):
        ScenarioConfig(duration=1.0, epsilon_ms=edge + 2)
    # without a name server the gap is not drawn
    ScenarioConfig(duration=1.0, n_dns=0, epsilon_ms=edge + 2)


def test_lr_scenario_yields_td_and_both_dd():
    flows, truth = generate(scenario(duration=20.0))  # 20 sessions, one client
    records = enumerate_all(FlowColumns(flows), OracleConfig(n_t_dd=10, n_t_rr=10, epsilon=1000))
    kinds = {(r.kind, r.src, r.dst) for r in records}
    assert (DepKind.DD, "10.0.0.1", "10.0.1.1") in kinds
    assert (DepKind.DD, "10.0.1.1", "10.0.2.1") in kinds
    assert (DepKind.TD, "10.0.0.1", "10.0.2.1") in kinds


def test_sessions_plant_only_dd_without_db_and_dns_and_nothing_without_sessions():
    flows, truth = generate(scenario(n_db=0, n_dns=0))
    assert {(f.src_ip, f.dst_ip) for f in flows} == {("10.0.0.1", "10.0.1.1")}
    assert truth == [DependencyRecord(DepKind.DD, "10.0.0.1", "10.0.1.1", 20)]
    assert generate(scenario(session_rate=0.0)) == ([], [])


@pytest.mark.parametrize("n_db,n_dns", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_the_plants_follow_the_roles(n_db, n_dns):
    # every session asks its web server; it looks up a name server when there
    # is one, and its web server calls a database when there is one
    flows, truth = generate(scenario(n_clients=2, n_db=n_db, n_dns=n_dns))
    kinds = {kind for kind, *_ in truth}
    assert {(DepKind.DD, client, "10.0.1.1") for client in ("10.0.0.1", "10.0.0.2")} <= \
        {rec[:3] for rec in truth}
    assert (DepKind.TD in kinds, DepKind.RR in kinds) == (n_db > 0, n_dns > 0)
    oracle_cfg = OracleConfig(n_t_dd=5, n_t_rr=5, epsilon=1000)
    found = enumerate_all(FlowColumns(flows), oracle_cfg)
    assert {rec for rec in truth if reaches_threshold(rec, oracle_cfg)} <= set(found)


def test_rr_not_found_when_epsilon_below_gap():
    flows, _ = generate(scenario(n_db=0, n_dns=1, duration=20.0))
    rr, _ = enumerate_rr(FlowColumns(flows), OracleConfig(n_t_dd=10, n_t_rr=10, epsilon=0))
    assert rr == []
    rr, _ = enumerate_rr(FlowColumns(flows), OracleConfig(n_t_dd=10, n_t_rr=10, epsilon=1000))
    assert rr == [DependencyRecord(DepKind.RR, "10.0.1.1", "10.0.3.1", 20)]


def reaches_threshold(rec: DependencyRecord, cfg: OracleConfig) -> bool:
    threshold = cfg.n_t_rr if rec.kind in (DepKind.RR, DepKind.RR3) else cfg.n_t_dd
    return rec.witness_count >= threshold


def test_planted_truth_subset_of_oracle_output():
    cfg = scenario(n_clients=4, n_web=2, n_db=1, n_dns=1,
                   session_rate=4.0, duration=12.0, noise_flows=25)
    flows, truth = generate(cfg)
    oracle_cfg = OracleConfig(n_t_dd=5, n_t_rr=5, epsilon=1000)
    # a record is one (kind, src, dst): its first three fields
    found = {r[:3]: r.witness_count for r in enumerate_all(FlowColumns(flows), oracle_cfg)}
    for rec in truth:
        if not reaches_threshold(rec, oracle_cfg):
            continue
        assert rec[:3] in found, rec
        assert found[rec[:3]] >= rec.witness_count


def test_planted_counts_equal_the_emitted_flows_when_sessions_do_not_divide_evenly():
    # 7 sessions over 3 clients: clients 0, 1 and 2 run 3, 2 and 2 of them,
    # and clients 0 and 2 share web server 0
    flows, truth = generate(scenario(n_clients=3, n_web=2, n_dns=1, duration=7.0))
    count = Counter((f.src_ip, f.dst_ip) for f in flows)
    assert [count[(f"10.0.0.{i}", web)] for i, web in ((1, "10.0.1.1"), (2, "10.0.1.2"),
                                                         (3, "10.0.1.1"))] == [3, 2, 2]
    for kind, src, dst, witnesses in truth:
        if kind is DepKind.DD:
            expected = count[(src, dst)]
        elif kind is DepKind.TD:  # client -> web server -> database
            expected = sum(n for (a, web), n in count.items() if a == src and count[(web, dst)])
        else:  # RR: the clients that look up the name server, then call the web server
            assert kind is DepKind.RR
            expected = sum(n for (client, web), n in count.items()
                           if web == src and count[(client, dst)])
        assert witnesses == expected, (kind, src, dst)
    assert DependencyRecord(DepKind.DD, "10.0.1.1", "10.0.2.1", 5) in truth
    assert DependencyRecord(DepKind.RR, "10.0.1.1", "10.0.3.1", 5) in truth


@pytest.mark.parametrize("seed", range(1, 6))
def test_oracle_recovers_the_planted_truth_exactly(seed):
    # on the acceptance scenario the oracle finds each planted record that
    # reaches its threshold, with the session count as its witness count,
    # and nothing else
    flows, truth = generate(ScenarioConfig(**E2E_CONFIG["synth"], rng_seed=seed))
    oracle_cfg = OracleConfig(**E2E_CONFIG["oracle"])
    expected = [rec for rec in truth if reaches_threshold(rec, oracle_cfg)]
    assert expected
    assert sorted(enumerate_all(FlowColumns(flows), oracle_cfg)) == expected


def test_planted_flows_satisfy_their_conditions():
    cfg = scenario(n_dns=1, duration=15.0)
    flows, _ = generate(cfg)
    assert len(flows) % 4 == 0
    for i in range(0, len(flows), 4):
        dns_req, dns_rep, web, db = flows[i:i + 4]
        assert cond_rev_return(dns_req, dns_rep, cfg.epsilon_ms)
        assert refimpl.rr_open(dns_req, web, cfg.epsilon_ms)
        assert cond_lr_open(web, db)


def test_noise_uses_disjoint_addresses():
    flows, _ = generate(scenario(noise_flows=50))
    noise = [f for f in flows if f.src_ip.startswith("172.16.")]
    assert len(noise) == 50
    planted = [f for f in flows if not f.src_ip.startswith("172.16.")]
    planted_addrs = {f.src_ip for f in planted} | {f.dst_ip for f in planted}
    noise_addrs = {f.src_ip for f in noise} | {f.dst_ip for f in noise}
    assert planted_addrs.isdisjoint(noise_addrs)
    for f in noise:
        assert f.proto in (Proto.TCP, Proto.UDP)
        assert f.t_start <= f.t_end


def test_generation_deterministic():
    cfg = scenario(n_dns=1, noise_flows=30)
    assert generate(cfg) == generate(cfg)
    assert generate(cfg) != generate(scenario(n_dns=1, noise_flows=30, rng_seed=4))
