"""Stage orchestration shared by the CLI subcommands.

Every stage reads its inputs from files and writes its artifacts back to the
work directory, so running the stages one by one is equivalent to running
``pipeline`` (feature vectors are always rebuilt from the on-disk embedding,
never from in-memory training state).  ``predict`` is the only stage that
scores pairs with the model; ``simindex`` ranks its ``predictions.csv``.
``STAGES`` at the end of this module is the one list of stages: the CLI
subcommands, the prerequisite checks, the ``pipeline`` order and
``--resume`` all derive from it.  Every CSV artifact is written by
``_write_rows`` and read back by ``_read_rows``.

Within one ``run_pipeline`` call a stage hands what it has just written on
to the stages that read it next, keyed by the artifact's name and the sha256
of the file's bytes: ``ingest`` its ``FlowColumns`` to ``sample`` and
``oracle``, ``sample`` its ``CommGraph`` to ``walks`` and the graph's
``Neighbours`` to ``simindex``, and ``walks`` the graph's vertices and its
walks to ``embed``.  A reader takes its value only while the file's bytes
hash to the kept digest; any other file (edited, damaged, written by
another program) is decoded with every check.  So a run parses flow text
once and reads back none of the flows, graph or walks it writes.  The flows
are int64 columns from the parse on: no record per flow exists, and only the
edges ``sample`` keeps become ``FlowRecord``s.  The cost is a sha256 pass
per hand-off and per take (about 5 ms for the 4.8 MB ``flows.csv`` of
96,000 flows) and the values: each reader drops its own, so the columns
(5.4 MB for those flows, with 1.8 MB of address strings) live until
``oracle``, the graph until ``walks`` and the walks until ``embed``.  Only
the neighbour sets live through ``train`` and ``eval`` (13 KB with their
address strings on the ``readme`` benchmark, 56 KB on ``scale``).  A stage
skipped by ``--resume`` hands on nothing; stages run outside
``run_pipeline`` decode every input.
Written flows read back unchanged (the round-trip tests pin this, and
ingest rejects the scoped IPv6 addresses whose text the CSV writer could not
carry), so stage-by-stage runs write the same bytes as ``pipeline``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# Unused here, but imported ahead of the stage modules: importing it later shifts
# the heap layout and raised the readme pipeline's peak RSS by about 0.15 MB.
import numpy  # noqa: F401

from . import contexts, embedding, evaluation, forest, oracle, simindex, synth, walks
from .config import PipelineConfig
from .errors import DepwalkError, StageError
from .flows import (FlowColumns, biflow_to_uniflows, filter_tcp_udp, open_lines, parse_flows,
                    read_flows_csv, write_flows_csv)
from .graph import (read_graph_jsonl, reservoir_sample_edges, select_top_addresses,
                    write_graph_jsonl)
from .walks import WalkLabel

log = logging.getLogger(__name__)


def artifact(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.workdir) / name


# The decoded values one ``run_pipeline`` call hands from the stage that writes
# an artifact to the stages that read it: artifact name -> (sha256 of the
# file's bytes, reader stage name -> its value).  None outside such a call.
# Readers may share a value, so none may change it: the flows' columns are
# read-only arrays, the walks a tuple, and nothing changes a CommGraph or its
# Neighbours once built.
_handoff: dict[str, tuple[bytes, dict[str, object]]] | None = None


def _sha256(path: Path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _hand_off(path: Path, **readers) -> None:
    """Within a pipeline run, hand each named reader stage its value: what
    that stage's decode of ``path``'s bytes gives."""
    if _handoff is not None:
        _handoff[path.name] = (_sha256(path), readers)


def _decode(path: Path, reader: str, decode: Callable[[Path], object]):
    """The value handed on to stage ``reader`` for ``path`` when the file's
    bytes still hash to the kept digest, otherwise ``decode(path)``.  The
    reader drops its value as it takes it, so that it does not outlive its
    use."""
    if _handoff is None:
        return decode(path)
    digest, values = _handoff.get(path.name, (None, {}))
    value = values.pop(reader, None)
    if value is not None and digest == _sha256(path):
        return value
    return decode(path)


def stage_synth(cfg: PipelineConfig) -> Path:
    flows, truth = synth.generate(cfg.synth)
    out = artifact(cfg, "synth_flows.csv")
    write_flows_csv(flows, out)
    _write_dependencies(artifact(cfg, "planted_truth.csv"), truth)
    log.info("synth: %d flows, %d planted records", len(flows), len(truth))
    return out


def stage_ingest(cfg: PipelineConfig, flows_in) -> Path:
    """Parse, optionally split biflows, filter to TCP/UDP, write flows.csv.
    A line that is not UTF-8 is a bad line like any other: warned and skipped."""
    path = Path(flows_in)
    if not path.exists():
        raise FileNotFoundError(None, "input flow file not found", str(path))
    with open_lines(path) as fh:
        parsed, report = parse_flows(fh, biflows=cfg.ingest.biflows)
    for lineno, message in report.errors:
        log.warning("%s:%d: %s", path, lineno, message)
    if report.dropped_self_loops:
        log.info("dropped %d self-loop records", report.dropped_self_loops)
    flows = biflow_to_uniflows(parsed, cfg.ingest.split_mode) if cfg.ingest.biflows else parsed
    kept = filter_tcp_udp(flows)
    log.info("ingest: %d records parsed, %d TCP/UDP flows kept", len(parsed), len(kept))
    out = artifact(cfg, "flows.csv")
    write_flows_csv(kept.rows(), out)
    _hand_off(out, sample=kept, oracle=kept)
    return out


def _checked_flows(path: Path) -> FlowColumns:
    flows, report = read_flows_csv(path)
    if not report.ok:
        (lineno, message), n = report.errors[0], len(report.errors)
        raise DepwalkError(f"{path}:{lineno}: {message}; {n} invalid "
                           f"{'line' if n == 1 else 'lines'} in a pipeline artifact")
    return flows


def stage_sample(cfg: PipelineConfig) -> Path:
    flows = _decode(artifact(cfg, "flows.csv"), "sample", _checked_flows)
    selected = select_top_addresses(flows, cfg.sampler)
    graph = reservoir_sample_edges(flows, selected, cfg.sampler)
    out = artifact(cfg, "graph.jsonl")
    write_graph_jsonl(graph, out)
    _hand_off(out, walks=graph, simindex=graph.neighbours)
    log.info("sample: %d vertices, %d edges", len(graph.vertices), graph.n_edges)
    return out


def stage_walks(cfg: PipelineConfig) -> Path:
    graph = _decode(artifact(cfg, "graph.jsonl"), "walks", read_graph_jsonl)
    positives = walks.generate_walks(graph, cfg.walks)
    negatives = walks.generate_negative_walks(graph, positives, cfg.walks)
    out = artifact(cfg, "walks.jsonl")
    all_walks = tuple(positives + negatives)
    walks.write_walks_jsonl(graph.vertices, all_walks, out)
    _hand_off(out, embed=(graph.vertices, all_walks))
    log.info("walks: %d positive, %d negative", len(positives), len(negatives))
    return out


def stage_embed(cfg: PipelineConfig) -> Path:
    vertices, all_walks = _decode(artifact(cfg, "walks.jsonl"), "embed", walks.read_walks_jsonl)
    pos_pairs = []
    neg_pairs = []
    for walk in all_walks:
        pairs = contexts.split_walk(walk, cfg.context.size)
        (pos_pairs if walk.label is WalkLabel.POSITIVE else neg_pairs).extend(pairs)
    emb = embedding.train_embedding(pos_pairs, neg_pairs, vertices, cfg.embedding)
    out = artifact(cfg, "embedding.bin")
    embedding.save_embedding(emb, out, artifact(cfg, "embedding.json"))
    log.info("embed: %d vertices x %d dims from %d/%d context pairs",
             len(emb.vertex_index), emb.dims, len(pos_pairs), len(neg_pairs))
    return out


def stage_oracle(cfg: PipelineConfig) -> Path:
    flows = _decode(artifact(cfg, "flows.csv"), "oracle", _checked_flows)
    records = oracle.enumerate_all(flows, cfg.oracle)
    out = artifact(cfg, "ground_truth.csv")
    _write_dependencies(out, records)
    log.info("oracle: %d dependency records", len(records))
    return out


def _label(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {cell!r}")
    return cell == "1"


def _probability(cell: str) -> float:
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {cell!r}")
    return value


def _read_rows(path, **columns: Callable[[str], object]) -> list[tuple]:
    """The rows of a CSV file as tuples, one cell per key of ``columns``
    converted by its function, without the header (a row that starts with
    the column names) and blank lines.  A short row, or a cell its function
    rejects, is an error naming its line."""
    names = list(columns)
    rows = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[:len(names)] == names:
                continue
            try:
                if len(row) < len(names):
                    raise ValueError(f"expected {','.join(names)} columns")
                rows.append(tuple(convert(cell) for convert, cell in zip(columns.values(), row)))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def _write_rows(path, columns: tuple[str, ...], rows) -> None:
    """A CSV file of a ``columns`` header and then ``rows``; a float cell is
    written as its ``repr``, which reads back to the same value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_dependencies(path, records) -> None:
    """Dependency records as ``ground_truth.csv`` holds them, a row of its fields each."""
    _write_rows(path, oracle.DependencyRecord._fields, records)


def _read_pairs(vertices, path, **columns: Callable[[str], object]) -> list[tuple]:
    """:func:`_read_rows` of ``src``, ``dst`` and ``columns``, where an
    address not in ``vertices`` is an error naming its line."""
    def address(cell: str) -> str:
        if cell not in vertices:
            raise ValueError(f"unknown address: {cell}")
        return cell
    return _read_rows(path, src=address, dst=address, **columns)


def stage_train(cfg: PipelineConfig) -> Path:
    emb = embedding.load_embedding(artifact(cfg, "embedding.bin"))
    path = artifact(cfg, "ground_truth.csv")
    records = _read_rows(path, kind=oracle.DepKind, src=str, dst=str, witness_count=int)
    for _, src, dst, _ in records:
        if src == dst:
            raise ValueError(f"{path}: self pair in ground truth: {src}")
    known = set(emb.vertex_index)
    gt_pairs = sorted({(src, dst) for _, src, dst, _ in records
                       if src in known and dst in known})
    labels = forest.build_label_set(gt_pairs, known, cfg.seed_for("labels"))
    _write_rows(artifact(cfg, "labels.csv"), ("src", "dst", "label"),
                ((src, dst, int(label)) for src, dst, label in labels))
    model = forest.train_forest(embedding.dependency_vectors(emb, labels),
                                [label for *_, label in labels], cfg.forest)
    out = artifact(cfg, "model.json")
    forest.save_forest(model, out)
    log.info("train: %d labelled pairs, %d trees", len(labels), len(model.trees))
    return out


# Pairs per block of predict's feature matrix, so that the matrix of a large
# pairs file (all 55,460 ordered pairs of 236 vertices: 14 MB at 64 float32
# dimensions) is never held whole.
_PREDICT_ROWS = 1024


def stage_predict(cfg: PipelineConfig, pairs_path=None) -> Path:
    """Score the pairs of ``pairs_path``, by default those of labels.csv; an
    embedding width other than the model's feature count names both files."""
    emb_path, model_path = artifact(cfg, "embedding.bin"), artifact(cfg, "model.json")
    emb = embedding.load_embedding(emb_path)
    model = forest.load_forest(model_path)
    if emb.dims != model.n_features:
        raise DepwalkError(f"{model_path} takes {model.n_features} features, but the vectors of "
                           f"{emb_path} have {emb.dims} dimensions")
    pairs = _read_pairs(emb.vertex_index, pairs_path or artifact(cfg, "labels.csv"))
    blocks = (pairs[start:start + _PREDICT_ROWS] for start in range(0, len(pairs), _PREDICT_ROWS))
    out = artifact(cfg, "predictions.csv")
    _write_rows(out, ("src", "dst", "probability"),
                ((src, dst, forest.predict_proba(model, x)) for block in blocks
                 for (src, dst), x in zip(block, embedding.dependency_vectors(emb, block))))
    log.info("predict: %d pairs scored", len(pairs))
    return out


def stage_eval(cfg: PipelineConfig) -> Path:
    emb = embedding.load_embedding(artifact(cfg, "embedding.bin"))
    labels = _read_pairs(emb.vertex_index, artifact(cfg, "labels.csv"), label=_label)
    summary = evaluation.repeated_eval(embedding.dependency_vectors(emb, labels),
                                       [label for *_, label in labels], cfg.forest,
                                       seed=cfg.seed_for("evaluation"),
                                       n_splits=cfg.evaluation.n_splits,
                                       fractions=cfg.evaluation.fractions)
    out = artifact(cfg, "eval_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(summary.to_json())
    log.info("eval: auc=%s ap=%s chance=%.3f",
             summary.roc_auc, summary.average_precision, summary.chance_level)
    return out


def stage_simindex(cfg: PipelineConfig) -> Path:
    """The similarity indices of the pairs predict scored, next to the model's
    probabilities."""
    neighbours = _decode(artifact(cfg, "graph.jsonl"), "simindex",
                         lambda path: read_graph_jsonl(path).neighbours)
    scored = _read_pairs(set(neighbours.vertices), artifact(cfg, "predictions.csv"),
                         probability=_probability)
    rows, correlations = simindex.baseline_report(neighbours, scored)
    out = artifact(cfg, "baseline.csv")
    _write_rows(out, ("src", "dst", *simindex.INDICES, "model_probability"), rows)
    with open(artifact(cfg, "baseline_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"correlations": correlations, "n_pairs": len(rows)}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
    log.info("simindex: %d pairs scored", len(rows))
    return out


@dataclass(frozen=True)
class Stage:
    """One stage: its subcommand, the work-directory files it reads and
    writes, how to run it from parsed CLI arguments, and the subcommand's
    own arguments as ``(flag, argparse keywords)``."""

    name: str
    help: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    run: Callable[[PipelineConfig, object], object]
    options: tuple[tuple[str, dict], ...] = ()


# In pipeline order.  ``run`` looks ``stage_<name>`` up when it is called, so
# anything that replaces a module attribute (a tracer, a test) is honoured.
STAGES = (
    Stage("synth", "generate a synthetic flow trace with planted structure",
          (), ("synth_flows.csv", "planted_truth.csv"),
          lambda cfg, args: stage_synth(cfg)),
    Stage("ingest", "parse and preprocess a flow file",
          (), ("flows.csv",),
          lambda cfg, args: stage_ingest(cfg, args.flows),
          (("--flows", {"required": True, "help": "input flow file (CSV or JSON lines)"}),)),
    Stage("sample", "select top addresses and reservoir-sample the graph",
          ("flows.csv",), ("graph.jsonl",),
          lambda cfg, args: stage_sample(cfg)),
    Stage("walks", "generate constrained random walks plus negatives",
          ("graph.jsonl",), ("walks.jsonl",),
          lambda cfg, args: stage_walks(cfg)),
    Stage("embed", "train the node embedding from walk contexts",
          ("walks.jsonl",), ("embedding.bin", "embedding.json"),
          lambda cfg, args: stage_embed(cfg)),
    Stage("oracle", "enumerate ground-truth dependencies from the flows",
          ("flows.csv",), ("ground_truth.csv",),
          lambda cfg, args: stage_oracle(cfg)),
    Stage("train", "build the label set and train the classifier",
          ("ground_truth.csv", "embedding.bin"), ("labels.csv", "model.json"),
          lambda cfg, args: stage_train(cfg)),
    Stage("predict", "score address pairs with the trained model",
          ("embedding.bin", "model.json", "labels.csv"), ("predictions.csv",),
          lambda cfg, args: stage_predict(cfg, args.pairs),
          (("--pairs", {"default": None,
                        "help": "CSV of src,dst pairs (defaults to labels.csv)"}),)),
    Stage("eval", "repeated train/test evaluation",
          ("embedding.bin", "labels.csv"), ("eval_report.json",),
          lambda cfg, args: stage_eval(cfg)),
    Stage("simindex", "baseline similarity indices and correlations",
          ("graph.jsonl", "predictions.csv"), ("baseline.csv", "baseline_summary.json"),
          lambda cfg, args: stage_simindex(cfg)),
)
STAGE = {stage.name: stage for stage in STAGES}
PRODUCER = {name: stage.name for stage in STAGES for name in stage.outputs}


def run_stage(cfg: PipelineConfig, stage: Stage, args) -> None:
    """Run one stage once its inputs exist.  A missing input raises
    FileNotFoundError naming the stage that produces it, and so does a
    missing file the stage is given.  Any other failure inside the stage
    first deletes the stage's outputs, so that ``--resume`` cannot take a
    partial artifact for a finished one; a DepwalkError, ValueError or
    OSError is then re-raised as StageError naming the stage."""
    Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
    for name in stage.inputs:
        path = artifact(cfg, name)
        if not path.exists():
            raise FileNotFoundError(None, f"{name} not found (run {PRODUCER[name]} first)", str(path))
    try:
        stage.run(cfg, args)
    except FileNotFoundError:
        raise
    except BaseException as exc:  # an interrupt too may leave a partial output
        for name in stage.outputs:
            artifact(cfg, name).unlink(missing_ok=True)
        if isinstance(exc, (DepwalkError, ValueError, OSError)):
            raise StageError(stage.name, exc) from exc
        raise


def run_pipeline(cfg: PipelineConfig, flows_input=None, resume: bool = False) -> None:
    """Run the stages in table order on the flow file ``flows_input``, or,
    when it is None, from ``synth`` on; with ``resume`` a stage whose outputs
    all exist is skipped."""
    synth_flows = artifact(cfg, "synth_flows.csv")
    args = SimpleNamespace(flows=synth_flows if flows_input is None else flows_input, pairs=None)
    global _handoff
    _handoff = {}
    try:
        for stage in STAGES:
            if stage.name == "synth" and flows_input is not None:
                continue
            if resume and all(artifact(cfg, name).exists() for name in stage.outputs):
                log.info("%s: outputs exist, skipped", stage.name)
                continue
            run_stage(cfg, stage, args)
    finally:
        _handoff = None
