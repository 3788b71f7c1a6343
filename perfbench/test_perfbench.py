"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the repository root.
"""

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pace
import run
import tracing

REPO = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(sid, name, parent, start, end, **counters):
    span = {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
    if counters:
        span["counters"] = counters
    return span


# stage.eval [0, 10] > repeated_eval [1, 9] > train_forest [2, 5] and
# compute_metrics [5, 6], with 1.5 s of predict_proba calls under repeated_eval.
TRACE = {
    "spans": [
        _span(0, "stage.eval", None, 0.0, 10.0),
        _span(1, "evaluation.repeated_eval", 0, 1.0, 9.0),
        _span(2, "forest.train_forest", 1, 2.0, 5.0, rows=40, nodes=7),
        _span(3, "evaluation.compute_metrics", 1, 5.0, 6.0),
    ],
    "aggregates": [{"name": "forest.predict_proba", "parent": 1, "count": 30, "total": 1.5}],
}


def test_self_time_subtracts_direct_children():
    assert tracing.self_time(TRACE, 0) == pytest.approx(2.0)
    assert tracing.self_time(TRACE, 1) == pytest.approx(8.0 - 3.0 - 1.0 - 1.5)


def test_self_time_against_a_layer_counts_nested_descendants_once():
    assert tracing.self_time(TRACE, 0, ("forest",)) == pytest.approx(10.0 - 3.0 - 1.5)
    assert tracing.covered(TRACE, None, ("stage", "forest")) == pytest.approx(10.0)
    assert tracing.covered(TRACE, None, ("forest.train_forest",)) == pytest.approx(3.0)


def test_layer_metrics_from_a_trace():
    m = tracing.layer_metrics([TRACE], TRACE, 20.0)
    assert m["eval.self_s"] == pytest.approx(5.5)
    assert m["forest.fit_s"] == pytest.approx(3.0)
    assert (m["forest.fits"], m["forest.fit_rows"], m["forest.nodes"]) == (1, 40, 7)
    assert (m["forest.predict_rows"], m["forest.predict_s"]) == (30, pytest.approx(1.5))
    assert m["eval.metrics_s"] == pytest.approx(1.0)
    assert m["stage.eval.s"] == pytest.approx(10.0)
    assert m["share.forest_fit"] == pytest.approx(3.0 / 20.0)
    assert m["share.forest_predict"] == pytest.approx(1.5 / 20.0)
    assert set(m) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_tracer_records_nesting_and_restores_the_modules():
    pytest.importorskip("depwalk")
    from depwalk import oracle
    from depwalk.flows import FlowRecord, Proto

    original = oracle.enumerate_dd
    flows = [FlowRecord("10.0.0.1", "10.0.0.2", 4000, 80, Proto.TCP, 10 * i, 10 * i + 5)
             for i in range(12)]
    with tracing.Tracer() as tracer:
        records = oracle.enumerate_all(flows, oracle.OracleConfig(n_t_dd=10))
    assert oracle.enumerate_dd is original
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "oracle.enumerate_all"
    assert set(names[1:]) == {"oracle.enumerate_dd", "oracle.enumerate_rr", "oracle.enumerate_td"}
    assert all(s["parent"] == 0 for s in tracer.spans[1:])
    assert tracer.spans[0]["counters"] == {"DD": len(records)}


def test_a_failing_child_and_a_digest_mismatch_count_as_failed(tmp_path):
    attempts = run.Attempts()
    reference = {}
    failing = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"],
                            tmp_path / "log", timeout=60)
    attempts.add("exit", run.judge(failing, [], reference, {}))
    ok = run.Child(0, 1.0, 10.0)
    attempts.add("first", run.judge(ok, [], reference, {"model.json": "aa"}))
    attempts.add("mismatch", run.judge(ok, [], reference, {"model.json": "bb"}))
    attempts.add("check", run.judge(ok, ["missing eval_report.json"], reference, {}))
    assert failing.status == 3
    assert attempts.attempted == 4
    assert [label for label, _ in attempts.failures] == ["exit", "mismatch", "check"]
    assert attempts.failed_share == pytest.approx(0.75)
    assert reference == {"model.json": "aa"}


def test_a_child_past_its_timeout_is_killed_and_fails(tmp_path):
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path / "log", timeout=1.0)
    assert child.timed_out and child.wall < 20
    assert run.judge(child, [], {}, {}) == ["timed out"]


def test_paced_seconds_scales_running_time_by_the_reference_speed():
    nominal = pace.NOMINAL_CHUNK_S * pace.BURST_CHUNKS
    assert pace.paced_seconds(10.0, 3, 3 * nominal) == pytest.approx(10.0)
    # The reference ran at half speed, so the child's 10 s are 5 nominal ones.
    assert pace.paced_seconds(10.0, 4, 8 * nominal) == pytest.approx(5.0)


def test_a_paced_child_is_stopped_for_bursts_and_they_are_not_its_time(tmp_path):
    busy = "import time\nend = time.process_time() + 2.5\nwhile time.process_time() < end: pass"
    started = time.perf_counter()
    child = run.run_child([sys.executable, "-c", busy], tmp_path / "log", timeout=60,
                          reference=pace.Reference())
    elapsed = time.perf_counter() - started
    assert child.status == 0 and not child.timed_out
    assert child.bursts >= 3  # before, at least one while it runs, after
    assert child.wall < elapsed
    assert child.paced > 0


def test_ranking_quality_matches_depwalk_evaluation():
    pytest.importorskip("depwalk")
    from depwalk.evaluation import compute_metrics

    rng = random.Random(7)
    labels = [rng.random() < 0.3 for _ in range(500)]
    scores = [round(rng.random() * 0.5 + 0.4 * y, 1) for y in labels]  # many ties
    report = compute_metrics(scores, labels)
    auc, ap = run.ranking_quality(scores, labels)
    assert auc == pytest.approx(report.roc_auc, abs=1e-12)
    assert ap == pytest.approx(report.average_precision, abs=1e-12)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.fullmatch(u) for u in units)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
