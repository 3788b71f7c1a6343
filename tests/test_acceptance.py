"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets: the walk
soundness sweep stays under a minute, the oracle equivalence sweep under two,
and the five-seed end-to-end run under ten.
"""

import json
import math
import random
import shutil

import pytest
import yaml

import refimpl
from test_oracle import random_fixture
from depwalk.cli import main as cli_main
from depwalk.config import load_config
from depwalk.contexts import split_walk
from depwalk.embedding import load_embedding, pair_loss_and_grads, save_embedding, train_embedding
from depwalk.evaluation import compute_metrics
from depwalk.flows import filter_tcp_udp
from depwalk.graph import SamplerConfig, reservoir_sample_edges, select_top_addresses
from depwalk.oracle import FlowColumns, OracleConfig, enumerate_all
from depwalk.simindex import kendall_tau, spearman
from depwalk.synth import ScenarioConfig, generate
from depwalk.walks import RandomWalk, WalkConfig, WalkLabel, generate_walks

E2E_CONFIG = {
    "sampler": {"n_internal": 60, "m_external": 20, "k_edges": 20000,
                "internal_prefixes": ["10.0.0.0/16"]},
    # ten walks per vertex, five-vertex walks, context four, 64 dims, five epochs
    "walks": {"walk_length": 5, "walks_per_vertex": 10, "epsilon": 1000, "n_t": 10},
    "context": {"size": 4},
    "embedding": {"dims": 64, "epochs": 5},
    "forest": {"n_trees": 100},
    "oracle": {"n_t_dd": 10, "n_t_rr": 10, "epsilon": 1000},
    "evaluation": {"n_splits": 15},
    # 40 clients, 3 web, 2 db, 1 dns; 800 sessions -> 3200 planted flows,
    # 640 noise flows = 20%
    "synth": {"n_clients": 40, "n_web": 3, "n_db": 2, "n_dns": 1,
              "session_rate": 1.0, "duration": 800, "noise_flows": 640,
              "epsilon_ms": 1000},
}

E2E_SEEDS = (1000, 1001, 1002, 1003, 1004)


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    """Full pipeline on the synthetic scenario for five master seeds."""
    base = tmp_path_factory.mktemp("e2e")
    cfg_path = base / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(E2E_CONFIG))
    runs = {}
    for seed in E2E_SEEDS:
        workdir = base / f"seed{seed}"
        status = cli_main(["-c", str(cfg_path), "-w", str(workdir), "-s", str(seed),
                           "pipeline", "--synth"])
        assert status == 0, f"pipeline failed for master seed {seed}"
        runs[seed] = workdir
    return runs


def test_criterion_1_condition_soundness():
    scenario = ScenarioConfig(n_clients=12, n_web=2, n_db=1, n_dns=1,
                              session_rate=0.8, duration=120.0, noise_flows=0,
                              epsilon_ms=500, rng_seed=5)
    flows = filter_tcp_udp(FlowColumns(generate(scenario)[0]))
    sampler = SamplerConfig(n_internal=20, m_external=0, k_edges=10000,
                            internal_prefixes=("10.0.0.0/16",), rng_seed=1)
    graph = reservoir_sample_edges(flows, select_top_addresses(flows, sampler), sampler)
    walk_cfg = WalkConfig(walk_length=5, walks_per_vertex=800, epsilon=500,
                          n_t=5, rng_seed=9)
    walks = generate_walks(graph, walk_cfg)
    assert len(walks) >= 10_000
    violations = []
    for walk in walks:
        problems = refimpl.check_positive_walk(graph, walk, walk_cfg)
        if problems:
            violations.append((walk.vertices, problems))
    assert violations == [], violations[:3]
    print(f"\nACCEPTANCE 1 PASS: {len(walks)} walks, 100% of recorded condition ids confirmed")


def test_criterion_2_oracle_equivalence():
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        flows = random_fixture(rng, rng.randint(60, 200))
        cfg = OracleConfig(n_t_dd=rng.randint(2, 5), n_t_rr=rng.randint(2, 5),
                           epsilon=rng.choice([200, 400, 800]))
        got = refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg))
        want = refimpl.reference_dependencies(flows, cfg)
        assert got == want, f"fixture seed {seed}"
    print("\nACCEPTANCE 2 PASS: optimized oracle == exhaustive reference on 100 fixtures")


def test_criterion_3_splitting_fidelity():
    walk = RandomWalk(("11", "12", "13", "16"), (), WalkLabel.POSITIVE, ())
    assert split_walk(walk, 3) == [("11", "12"), ("11", "13"), ("12", "13"), ("12", "16")]
    print("\nACCEPTANCE 3 PASS: context splitting reproduces the documented four pairs")


def test_criterion_4_reservoir_uniformity():
    from scipy.stats import chi2

    from conftest import flow

    n_flows, k, seeds = 10_000, 1_000, 50
    stream = FlowColumns([flow("10.0.0.1", "10.0.0.2", i, i + 1) for i in range(n_flows)])
    selected = {"10.0.0.1", "10.0.0.2"}
    counts = [0] * n_flows
    for seed in range(seeds):
        cfg = SamplerConfig(n_internal=2, m_external=0, k_edges=k,
                            internal_prefixes=("10.0.0.0/16",), rng_seed=seed)
        graph = reservoir_sample_edges(stream, selected, cfg)
        for inst in graph.edge_instances("10.0.0.1", "10.0.0.2"):
            counts[inst.t_start] += 1
    expected = seeds * k / n_flows
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    p_value = float(chi2.sf(statistic, n_flows - 1))
    assert p_value >= 0.01, f"chi-square p={p_value}"
    print(f"\nACCEPTANCE 4 PASS: retention uniform (chi-square p={p_value:.3f} >= 0.01)")


def test_criterion_5_gradient_check():
    import numpy as np

    step = 1e-5
    worst = 0.0
    for trial in range(20):
        gen = np.random.default_rng(trial)
        n = int(gen.integers(3, 11))
        dims = int(gen.integers(2, 7))
        target = gen.uniform(-0.5, 0.5, (n, dims))
        context = gen.uniform(-0.5, 0.5, (n, dims))
        m = int(gen.integers(2, 15))
        heads = gen.integers(0, n, m)
        ctxs = gen.integers(0, n, m)
        signs = gen.choice([-1, 1], m)
        _, (t_rows, t_grad), (c_rows, c_grad) = pair_loss_and_grads(target, context, heads, ctxs, signs)
        d_target, d_context = np.zeros_like(target), np.zeros_like(context)
        d_target[t_rows], d_context[c_rows] = t_grad, c_grad  # untouched rows: zero
        for mat, grad in ((target, d_target), (context, d_context)):
            for i in range(n):
                for j in range(dims):
                    mat[i, j] += step
                    up = pair_loss_and_grads(target, context, heads, ctxs, signs)[0]
                    mat[i, j] -= 2 * step
                    down = pair_loss_and_grads(target, context, heads, ctxs, signs)[0]
                    mat[i, j] += step
                    fd = (up - down) / (2 * step)
                    rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6)
                    worst = max(worst, rel)
                    assert rel < 1e-4
    print(f"\nACCEPTANCE 5 PASS: gradients match finite differences (worst rel err {worst:.2e})")


def test_criterion_6_metric_oracles():
    rng = random.Random(777)
    for _ in range(100):
        n = 50
        scores = [rng.choice([0.0, 0.2, 0.5, 0.8, 1.0, rng.random()]) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if any(labels) and not all(labels):
            report = compute_metrics(scores, labels)
            assert report.roc_auc == refimpl.pairwise_auc(scores, labels)
        xs = [rng.choice([0.0, 1.0, 2.0, 3.5, rng.random()]) for _ in range(n)]
        ys = [rng.choice([0.0, 1.0, 2.0, 3.5, rng.random()]) for _ in range(n)]
        assert spearman(xs, ys) == refimpl.spearman_reference(xs, ys)
        assert kendall_tau(xs, ys) == refimpl.kendall_reference(xs, ys)
    print("\nACCEPTANCE 6 PASS: AUC, Spearman, Kendall equal their references exactly")


def test_criterion_7_end_to_end_detection(e2e_runs):
    aucs, aps, chances = [], [], []
    for seed, workdir in e2e_runs.items():
        report = json.loads((workdir / "eval_report.json").read_text())
        assert report["roc_auc"] is not None
        aucs.append(report["roc_auc"])
        aps.append(report["average_precision"])
        chances.append(report["chance_level"])
    mean_auc = sum(aucs) / len(aucs)
    mean_ap = sum(aps) / len(aps)
    mean_chance = sum(chances) / len(chances)
    assert mean_auc >= 0.75, f"mean AUC {mean_auc:.3f} over seeds {list(e2e_runs)}"
    assert mean_ap >= mean_chance + 0.10, f"mean AP {mean_ap:.3f} vs chance {mean_chance:.3f}"
    print(f"\nACCEPTANCE 7 PASS: mean AUC {mean_auc:.3f} >= 0.75, "
          f"mean AP {mean_ap:.3f} >= chance {mean_chance:.3f} + 0.10 (5 seeds)")


def test_criterion_8_baseline_report_emitted(e2e_runs):
    workdir = e2e_runs[E2E_SEEDS[0]]
    baseline = (workdir / "baseline.csv").read_text().splitlines()
    assert baseline[0] == "src,dst,AA,CN,PA,RA,model_probability"
    assert len(baseline) > 1
    summary = json.loads((workdir / "baseline_summary.json").read_text())
    for kind in ("AA", "CN", "PA", "RA"):
        stats = summary["correlations"][kind]
        for name in ("spearman", "kendall"):
            value = stats[name]
            assert value is None or (math.isfinite(value) and -1.0 <= value <= 1.0)
    print("\nACCEPTANCE 8 PASS: baseline indices and correlation report emitted "
          f"({summary['n_pairs']} pairs)")


def test_criterion_9_determinism(tmp_path):
    cfg_doc = dict(E2E_CONFIG)
    cfg_doc["synth"] = {"n_clients": 12, "n_web": 2, "n_db": 1, "n_dns": 1,
                        "session_rate": 0.8, "duration": 150, "noise_flows": 90,
                        "epsilon_ms": 1000}
    cfg_doc["walks"] = {"walk_length": 5, "walks_per_vertex": 10,
                        "epsilon": 1000, "n_t": 5}
    cfg_doc["oracle"] = {"n_t_dd": 5, "n_t_rr": 5, "epsilon": 1000}
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg_doc))
    reports = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        status = cli_main(["-c", str(cfg_path), "-w", str(workdir), "-s", "42",
                           "pipeline", "--synth"])
        assert status == 0
        reports.append((workdir / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]
    print("\nACCEPTANCE 9 PASS: identical master seed gives byte-identical eval reports")


def test_criterion_10_embedding_training_lifts_auc(e2e_runs, tmp_path):
    # the same labelled pairs evaluated on the vectors training starts from:
    # a trainer that does not move them scores a margin near 0
    trained, initial = [], []
    for seed, workdir in e2e_runs.items():
        cfg_path = workdir.parent / "config.yaml"
        vertices = load_embedding(workdir / "embedding.bin").vertex_index
        # with no pairs to train on, training returns its initial vectors
        start = train_embedding([], [], vertices, load_config(cfg_path, master_seed=seed).embedding)
        fresh = tmp_path / f"seed{seed}"
        fresh.mkdir()
        save_embedding(start, fresh / "embedding.bin", fresh / "embedding.json")
        shutil.copyfile(workdir / "labels.csv", fresh / "labels.csv")
        assert cli_main(["-c", str(cfg_path), "-w", str(fresh), "-s", str(seed), "eval"]) == 0
        trained.append(json.loads((workdir / "eval_report.json").read_text())["roc_auc"])
        initial.append(json.loads((fresh / "eval_report.json").read_text())["roc_auc"])
    margin = (sum(trained) - sum(initial)) / len(trained)
    assert margin >= 0.06, f"trained AUC {trained} vs initial vectors {initial}"
    print(f"\nACCEPTANCE 10 PASS: mean AUC {sum(trained) / len(trained):.3f} trained vs "
          f"{sum(initial) / len(initial):.3f} on the initial vectors (margin {margin:.3f} >= 0.06)")
