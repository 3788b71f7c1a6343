"""Spans around depwalk's public functions, and the per-layer metrics made from them.

A traced run patches the module attributes through which the stages look up
each layer's functions, records one span per call (name, start, end, parent)
in memory, and writes them out once the command has finished.  Calls made
once per pair or per walk are aggregated per parent span as a count and a
total, which keeps the overhead down.  The pure functions at the bottom turn
a written trace into the per-layer metrics; they do not import depwalk.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

STAGES = ("ingest", "sample", "walks", "embed", "oracle", "train", "predict", "eval", "simindex")


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _fit(args, kwargs, result):
    return {"rows": len(args[0]), "nodes": sum(len(t.feature) for t in result.trees)}


def _parsed(args, kwargs, result):
    return {"records": len(result[0])}


def _graph(args, kwargs, result):
    return {"vertices": len(result.vertices), "edges": result.n_edges}


def _positive_walks(args, kwargs, result):
    graph, cfg = args[0], args[1]
    starts = sum(1 for v in graph.vertices if graph.out_degree(v) > 0)
    steps = sum(len(w.condition_trace) for w in result)
    fallback = sum(1 for w in result for conds in w.condition_trace
                   if any(c.value.startswith("FALLBACK") for c in conds))
    return {"walks": len(result), "attempted": starts * cfg.walks_per_vertex,
            "steps": steps, "fallback_steps": fallback}


def _embedding(args, kwargs, result):
    return {"pairs": len(args[0]) + len(args[1]), "epochs": args[3].epochs}


def _oracle_records(args, kwargs, result):
    return dict(Counter(r.kind.value for r in result))


def _td_flows(args, kwargs, result):
    return {"flows": len(args[0])}


def _pairs(args, kwargs, result):
    return {"pairs": len(args[1])}


# (module, attribute, span name, aggregate per parent, counter extractor).
# A function imported by name into another module is patched where the
# caller looks it up, under the span name of the module that defines it.
TARGETS = (
    *(("depwalk.pipeline", f"stage_{s}", f"stage.{s}", False, None) for s in STAGES),
    ("depwalk.pipeline", "parse_flows", "flows.parse_flows", False, _parsed),
    ("depwalk.flows", "parse_flows", "flows.parse_flows", False, _parsed),
    ("depwalk.pipeline", "read_flows_csv", "flows.read_flows_csv", False, None),
    ("depwalk.pipeline", "write_flows_csv", "flows.write_flows_csv", False, None),
    ("depwalk.pipeline", "select_top_addresses", "graph.select_top_addresses", False, None),
    ("depwalk.pipeline", "reservoir_sample_edges", "graph.reservoir_sample_edges", False, _graph),
    ("depwalk.pipeline", "read_graph_jsonl", "graph.read_graph_jsonl", False, None),
    ("depwalk.walks", "generate_walks", "walks.generate_walks", False, _positive_walks),
    ("depwalk.walks", "generate_negative_walks", "walks.generate_negative_walks", False, None),
    ("depwalk.walks", "write_walks_jsonl", "walks.write_walks_jsonl", False, None),
    ("depwalk.walks", "read_walks_jsonl", "walks.read_walks_jsonl", False, None),
    ("depwalk.contexts", "split_walk", "contexts.split_walk", True, None),
    ("depwalk.embedding", "train_embedding", "embedding.train_embedding", False, _embedding),
    ("depwalk.embedding", "load_embedding", "embedding.load_embedding", False, None),
    ("depwalk.oracle", "enumerate_all", "oracle.enumerate_all", False, _oracle_records),
    ("depwalk.oracle", "enumerate_dd", "oracle.enumerate_dd", False, None),
    ("depwalk.oracle", "enumerate_rr", "oracle.enumerate_rr", False, None),
    ("depwalk.oracle", "enumerate_td", "oracle.enumerate_td", False, _td_flows),
    ("depwalk.forest", "train_forest", "forest.train_forest", False, _fit),
    ("depwalk.evaluation", "train_forest", "forest.train_forest", False, _fit),
    ("depwalk.forest", "predict_proba", "forest.predict_proba", True, None),
    ("depwalk.evaluation", "predict_proba", "forest.predict_proba", True, None),
    ("depwalk.forest", "load_forest", "forest.load_forest", False, None),
    ("depwalk.evaluation", "repeated_eval", "evaluation.repeated_eval", False, None),
    ("depwalk.evaluation", "compute_metrics", "evaluation.compute_metrics", False, None),
    ("depwalk.simindex", "baseline_report", "simindex.baseline_report", False, _pairs),
)


class Tracer:
    """Patches TARGETS while entered; spans and aggregates stay in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name, aggregate, counters in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapper = self._aggregated(name, fn) if aggregate else self._spanned(name, fn, counters)
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _spanned(self, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(args, kwargs, result)
            return result
        return wrapper

    def _aggregated(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self._stack[-1] if self._stack else None)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = self.aggregates.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [{"name": name, "parent": parent, "count": c, "total": t}
                           for (name, parent), (c, t) in self.aggregates.items()],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


# ---------------------------------------------------------------- arithmetic

def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _matches(name: str, names) -> bool:
    return names is None or any(name == n or name.startswith(n + ".") for n in names)


def covered(trace: dict, root: int | None, names=None) -> float:
    """Time under ``root`` (the whole trace for None) spent in spans or
    aggregates matching ``names`` (a name or a layer prefix; None matches
    all).  Only the topmost match on each path counts, so nested matches
    are not counted twice; with ``names`` None this is the direct children."""
    spans = trace["spans"]
    children: dict[int | None, list[int]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span["id"])
    total = 0.0
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for agg in trace["aggregates"]:
            if agg["parent"] == parent and _matches(agg["name"], names):
                total += agg["total"]
        for sid in children.get(parent, ()):
            if _matches(spans[sid]["name"], names):
                total += duration(spans[sid])
            else:
                frontier.append(sid)
    return total


def self_time(trace: dict, sid: int, names=None) -> float:
    """A span's duration minus the time its matching descendants cover
    (its direct children when ``names`` is None)."""
    return duration(trace["spans"][sid]) - covered(trace, sid, names)


def _named(trace: dict, name: str) -> list[dict]:
    return [s for s in trace["spans"] if s["name"] == name]


def _total(traces, name: str) -> float:
    return sum(duration(s) for t in traces for s in _named(t, name))


def _count(traces, name: str) -> int:
    return sum(len(_named(t, name)) for t in traces)


def _counter(traces, name: str, key: str):
    return sum(s.get("counters", {}).get(key, 0) for t in traces for s in _named(t, name))


def _aggregate(traces, name: str) -> tuple[int, float]:
    count, total = 0, 0.0
    for t in traces:
        for agg in t["aggregates"]:
            if agg["name"] == name:
                count += agg["count"]
                total += agg["total"]
    return count, total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


DATA_LAYERS = ("oracle", "flows", "graph", "walks")


def layer_metrics(traces: list[dict], timed: dict, timed_wall: float) -> dict[str, float]:
    """Per-layer metrics summed over every traced command of one run.

    ``timed`` is the trace of the workload's timed command and ``timed_wall``
    that command's wall time; the ``share.*`` metrics are taken on it alone.
    """
    m: dict[str, float] = {}
    m["forest.fit_s"] = _total(traces, "forest.train_forest")
    m["forest.fits"] = _count(traces, "forest.train_forest")
    m["forest.fit_rows"] = _counter(traces, "forest.train_forest", "rows")
    m["forest.nodes"] = _counter(traces, "forest.train_forest", "nodes")
    m["forest.predict_rows"], m["forest.predict_s"] = _aggregate(traces, "forest.predict_proba")
    m["forest.model_load_s"] = _total(traces, "forest.load_forest")

    m["oracle.dd_s"] = _total(traces, "oracle.enumerate_dd")
    m["oracle.rr_s"] = _total(traces, "oracle.enumerate_rr")
    m["oracle.td_s"] = _total(traces, "oracle.enumerate_td")
    m["oracle.td_s_per_kflow"] = _ratio(m["oracle.td_s"],
                                        _counter(traces, "oracle.enumerate_td", "flows") / 1000)
    for kind in ("DD", "RR", "RR3", "TD", "TD3"):
        m[f"oracle.records.{kind}"] = _counter(traces, "oracle.enumerate_all", kind)

    m["flows.parse_s"] = _total(traces, "flows.parse_flows")
    m["flows.parse_calls"] = _count(traces, "flows.parse_flows")
    m["flows.records_per_s"] = _ratio(_counter(traces, "flows.parse_flows", "records"),
                                      m["flows.parse_s"])
    m["flows.write_s"] = _total(traces, "flows.write_flows_csv")

    m["graph.select_s"] = _total(traces, "graph.select_top_addresses")
    m["graph.reservoir_s"] = _total(traces, "graph.reservoir_sample_edges")
    m["graph.read_s"] = _total(traces, "graph.read_graph_jsonl")
    m["graph.read_calls"] = _count(traces, "graph.read_graph_jsonl")
    m["graph.vertices"] = _counter(traces, "graph.reservoir_sample_edges", "vertices")
    m["graph.edges"] = _counter(traces, "graph.reservoir_sample_edges", "edges")

    m["walks.positive_s"] = _total(traces, "walks.generate_walks")
    m["walks.negative_s"] = _total(traces, "walks.generate_negative_walks")
    m["walks.io_s"] = (_total(traces, "walks.write_walks_jsonl")
                       + _total(traces, "walks.read_walks_jsonl"))
    m["walks.steps"] = _counter(traces, "walks.generate_walks", "steps")
    m["walks.fallback_share"] = _ratio(_counter(traces, "walks.generate_walks", "fallback_steps"),
                                       m["walks.steps"])
    m["walks.kept_share"] = _ratio(_counter(traces, "walks.generate_walks", "walks"),
                                   _counter(traces, "walks.generate_walks", "attempted"))

    m["embed.contexts_s"] = _aggregate(traces, "contexts.split_walk")[1]
    m["embed.train_s"] = _total(traces, "embedding.train_embedding")
    m["embed.epoch_s"] = _ratio(m["embed.train_s"],
                                _counter(traces, "embedding.train_embedding", "epochs"))
    m["embed.pairs"] = _counter(traces, "embedding.train_embedding", "pairs")
    m["embed.load_s"] = _total(traces, "embedding.load_embedding")
    m["embed.load_calls"] = _count(traces, "embedding.load_embedding")

    m["eval.self_s"] = sum(self_time(t, s["id"], ("forest",))
                           for t in traces for s in _named(t, "stage.eval"))
    m["eval.metrics_s"] = _total(traces, "evaluation.compute_metrics")
    m["simindex.s"] = _total(traces, "simindex.baseline_report")
    m["simindex.pairs"] = _counter(traces, "simindex.baseline_report", "pairs")
    for stage in STAGES:
        m[f"stage.{stage}.s"] = _total(traces, f"stage.{stage}")

    m["share.forest_fit"] = _ratio(covered(timed, None, ("forest.train_forest",)), timed_wall)
    m["share.forest_predict"] = _ratio(covered(timed, None, ("forest.predict_proba",)), timed_wall)
    m["share.data_layers"] = _ratio(covered(timed, None, DATA_LAYERS), timed_wall)
    return m
