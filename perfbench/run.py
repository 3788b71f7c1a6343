"""End-to-end benchmark of the depwalk pipeline.

Usage:

    python3 perfbench/run.py --workload {readme,scale,score} --seed N \
        --seconds S --trace {0,1}

Each workload generates its flow file from the seed with ``depwalk synth``
(set-up), then runs the command a user runs as a child process, once and
then again while the next run is expected to end within ``--seconds``:
``depwalk -c <cfg> -w <dir> pipeline --flows <file>``, or for ``score``
``depwalk -c <cfg> -w <dir> predict --pairs <file>``.  Every run's outputs
are checked and their sha256 digests must agree across all runs of one
seed.
With ``--trace 1`` one more run of the same command records spans around
each layer (perfbench/traced.py) and the per-layer metrics are printed
instead of the end-to-end ones.

Times are paced (perfbench/pace.py): the benchmark and its children share
one CPU, and short bursts of a fixed reference workload, run while the
child is stopped, turn its running time into seconds at a nominal host
speed.  The raw running time goes to stderr and to the record.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table goes to stderr
and a full record (digests, machine, inputs) to .perfbench/results/.  The
exit status is 1 when any output check failed, 2 on a usage error or when
the depwalk sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import pace
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A run must end well inside three minutes; children get what is left.
DEADLINE_S = 165.0
SETUP_REPEATS = 5

END_TO_END = {
    "paced_wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "roc_auc": "ratio",
    "average_precision": "ratio",
}

PER_LAYER_NAMES = (
    "forest.fit_s", "forest.fits", "forest.fit_rows", "forest.nodes",
    "forest.predict_s", "forest.predict_rows", "forest.model_load_s",
    "oracle.dd_s", "oracle.rr_s", "oracle.td_s", "oracle.td_s_per_kflow",
    "oracle.records.DD", "oracle.records.RR", "oracle.records.RR3",
    "oracle.records.TD", "oracle.records.TD3",
    "flows.parse_s", "flows.parse_calls", "flows.records_per_s", "flows.write_s",
    "graph.select_s", "graph.reservoir_s", "graph.read_s", "graph.read_calls",
    "graph.vertices", "graph.edges",
    "walks.positive_s", "walks.negative_s", "walks.io_s", "walks.steps",
    "walks.fallback_share", "walks.kept_share",
    "embed.contexts_s", "embed.train_s", "embed.epoch_s", "embed.pairs",
    "embed.load_s", "embed.load_calls",
    "eval.self_s", "eval.metrics_s", "simindex.s", "simindex.pairs",
    *(f"stage.{s}.s" for s in tracing.STAGES),
    "share.forest_fit", "share.forest_predict", "share.data_layers",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_kflow"):
        return "s/kflow"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.startswith("share.") or name.endswith("_share"):
        return "ratio"
    return "count"


PER_LAYER = {name: unit_of(name) for name in PER_LAYER_NAMES}

# The acceptance scenario of the test suite (E2E_CONFIG in
# tests/test_acceptance.py): 3,840 flows, 100 trees, 15 splits at 0.25 and
# 0.5, so forest fitting is nearly all of a run.
README = {
    "sampler": {"n_internal": 60, "m_external": 20, "k_edges": 20000,
                "internal_prefixes": ["10.0.0.0/16"]},
    "walks": {"walk_length": 5, "walks_per_vertex": 10, "epsilon": 1000, "n_t": 10},
    "context": {"size": 4},
    "embedding": {"dims": 64, "epochs": 5},
    "forest": {"n_trees": 100},
    "oracle": {"n_t_dd": 10, "n_t_rr": 10, "epsilon": 1000},
    "evaluation": {"n_splits": 15},
    "synth": {"n_clients": 40, "n_web": 3, "n_db": 2, "n_dns": 1,
              "session_rate": 1.0, "duration": 800, "noise_flows": 640,
              "epsilon_ms": 1000},
}
# 96,000 flows with a light forest and one split, so the data layers
# (oracle, flow parsing, sampling, walks) do most of the work.
SCALE = {
    **README,
    "sampler": {**README["sampler"], "n_internal": 250},
    "forest": {"n_trees": 10},
    "evaluation": {"n_splits": 1, "fractions": [0.5]},
    "synth": {"n_clients": 200, "n_web": 10, "n_db": 4, "n_dns": 2,
              "session_rate": 4.0, "duration": 5000, "noise_flows": 16000,
              "epsilon_ms": 1000},
}
# The scale scenario over a quarter of its duration, with a 100-tree model.
# It samples the same 236 vertices from a quarter of the flows, which keeps
# set-up short; the timed command scores all 55,460 ordered pairs of them,
# so prediction is nearly all of a run.
SCORE = {**SCALE, "forest": {"n_trees": 100},
         "synth": {**SCALE["synth"], "duration": 1250, "noise_flows": 4000}}

PIPELINE_ARTIFACTS = ("flows.csv", "graph.jsonl", "walks.jsonl", "embedding.bin",
                      "embedding.json", "ground_truth.csv", "labels.csv", "model.json",
                      "predictions.csv", "eval_report.json", "baseline.csv",
                      "baseline_summary.json")
PREP_STAGES = ("ingest", "sample", "walks", "embed", "oracle", "train")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    command: str  # "pipeline" or "predict"


WORKLOADS = {w.name: w for w in (Workload("readme", README, "pipeline"),
                                 Workload("scale", SCALE, "pipeline"),
                                 Workload("score", SCORE, "predict"))}


# ------------------------------------------------------------ child processes

@dataclass
class Child:
    status: int
    wall: float  # the child's running time: wall time less the pauses
    maxrss_mb: float
    timed_out: bool = False
    cpu: float = 0.0
    paced: float = 0.0  # ``wall`` in paced seconds (perfbench/pace.py)
    bursts: int = 0


def run_child(argv: list[str], log_path: Path, timeout: float,
              reference: pace.Reference | pace.Pacer | None = None) -> Child:
    """Run one child to completion; its running time and its own peak RSS
    (wait4).  With a ``reference`` the child is stopped every
    ``pace.INTERVAL_S`` while the reference runs one burst, and one more
    burst runs before and after it, so that its running time can be paced
    (perfbench/pace.py).  The child is killed at ``timeout`` and on any
    error here, and always waited for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    bursts, burst_s = 0, 0.0
    if reference:
        bursts, burst_s = 1, reference.burst()
    paused = 0.0
    timed_out = False
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        deadline = start + max(timeout, 1.0)
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                now = time.perf_counter()
                wait = deadline - now if reference is None else min(pace.INTERVAL_S, deadline - now)
                if select.select([pidfd], [], [], max(wait, 0.0))[0]:
                    break
                if time.perf_counter() >= deadline:
                    timed_out = True
                    proc.kill()
                    break
                stopped = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if info.si_code != os.CLD_STOPPED:
                    break  # it ended first
                burst_s += reference.burst()
                bursts += 1
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        _, wait_status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    if reference:
        bursts, burst_s = bursts + 1, burst_s + reference.burst()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    wall = end - start - paused
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, timed_out,
                 usage.ru_utime + usage.ru_stime,
                 pace.paced_seconds(wall, bursts, burst_s) if reference else wall, bursts)


def depwalk(*args: str) -> list[str]:
    return [sys.executable, "-m", "depwalk.cli", *args]


def traced(spans: Path, *args: str) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(spans), "--", *args]


@dataclass
class Timed:
    """One timed command and the (ROC-AUC, AP) its outputs show."""
    child: Child
    quality: tuple


# --------------------------------------------------------------- output checks

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(workdir: Path, names) -> dict[str, str]:
    return {name: sha256(workdir / name) for name in names if (workdir / name).is_file()}


def compare_digests(reference: dict[str, str], found: dict[str, str]) -> list[str]:
    """Problems for artifacts whose digest differs from the reference; new
    artifacts join the reference."""
    problems = [f"{name}: sha256 {found[name][:12]} differs from {reference[name][:12]}"
                for name in sorted(found) if name in reference and reference[name] != found[name]]
    for name, value in found.items():
        reference.setdefault(name, value)
    return problems


def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_pipeline(workdir: Path) -> tuple[list[str], dict]:
    """Problems with a pipeline run's artifacts, and its eval report."""
    problems = [f"missing {name}" for name in PIPELINE_ARTIFACTS
                if not (workdir / name).is_file()]
    report = {}
    try:
        report = json.loads((workdir / "eval_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"eval_report.json unreadable: {exc}")
    for key in ("roc_auc", "average_precision"):
        if report and not _unit_interval(report.get(key)):
            problems.append(f"eval_report.json {key}={report.get(key)!r} not in [0, 1]")
    return problems, report


def check_predictions(workdir: Path, pairs: list[tuple[str, str]]) -> tuple[list[str], list[float]]:
    """Problems with predictions.csv for ``pairs``, and the probabilities."""
    path = workdir / "predictions.csv"
    if not path.is_file():
        return ["missing predictions.csv"], []
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    if len(rows) != len(pairs):
        return [f"predictions.csv has {len(rows)} rows for {len(pairs)} pairs"], []
    scores = []
    for row, pair in zip(rows, pairs):
        try:
            prob = float(row[2])
        except (IndexError, ValueError):
            return [f"predictions.csv: malformed row {row!r}"], []
        if tuple(row[:2]) != pair or not _unit_interval(prob):
            return [f"predictions.csv: row {row!r} does not score {pair}"], []
        scores.append(prob)
    return [], scores


def ranking_quality(scores: list[float], labels: list[bool]) -> tuple[float, float]:
    """ROC-AUC (ties count half) and average precision (step-wise over
    distinct scores), computed independently of depwalk.evaluation."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if not n_pos or not n_neg:
        raise ValueError("ranking quality needs both classes")
    ranked = sorted(zip(scores, labels), key=lambda t: -t[0])
    tp = fp = 0
    auc = ap = 0.0
    i = 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            j += 1
        group_tp = sum(label for _, label in ranked[i:j])
        group_fp = (j - i) - group_tp
        auc += group_fp * (tp + group_tp / 2)
        tp += group_tp
        fp += group_fp
        ap += group_tp / n_pos * tp / (tp + fp)
        i = j
    return auc / (n_pos * n_neg), ap


def ground_truth_pairs(workdir: Path) -> set[tuple[str, str]]:
    with open(workdir / "ground_truth.csv", encoding="utf-8") as fh:
        next(fh)
        return {tuple(line.split(",")[1:3]) for line in fh if line.strip()}


# -------------------------------------------------------------------- runs

@dataclass
class Attempts:
    """Every checked command of a run; ``failed_share`` = failed / attempted."""
    attempted: int = 0
    failures: list[tuple[str, list[str]]] = field(default_factory=list)

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def judge(child: Child, problems: list[str], reference: dict[str, str],
          found: dict[str, str]) -> list[str]:
    """Every reason one command failed: its exit, its output checks
    (``problems``) and digests that differ from earlier runs of the seed."""
    if child.timed_out:
        problems = ["timed out", *problems]
    elif child.status != 0:
        problems = [f"exit status {child.status}", *problems]
    return problems + compare_digests(reference, found)


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared, so nothing was measured."""


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {k: v for k, v in os.environ.items()
                       if re.fullmatch(r"(OMP|OPENBLAS|MKL|BLIS|VECLIB|NUMEXPR)_\w+", k)},
        "git_commit": commit,
    }


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.dir = STATE / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.log = self.dir / "children.log"
        self.attempts = Attempts()
        self.code = code_hash()
        self.store = STATE / "digests" / self.code[:16] / f"{workload.name}-{seed}.json"
        self.expected: dict[str, str] = {}
        self.traces: list[dict] = []
        self.pacer = None
        if self.store.is_file():
            self.expected = json.loads(self.store.read_text(encoding="utf-8"))
        self.record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                             "trace": int(trace), "code_sha256": self.code}

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], paced: bool = True) -> Child:
        return run_child(argv, self.log, self.time_left(), self.pacer if paced else None)

    def config_path(self) -> Path:
        path = self.dir / "config.json"  # JSON is YAML; the CLI reads it as such
        if not path.exists():
            path.write_text(json.dumps({**self.workload.config, "master_seed": self.seed},
                                       indent=1, sort_keys=True), encoding="utf-8")
        return path

    def setup(self) -> Path:
        """Generate the flow file SETUP_REPEATS times; set-up time is the median."""
        walls, shas = [], set()
        for i in range(SETUP_REPEATS):
            out = self.dir / f"setup{i}"
            child = self.child(depwalk("-c", str(self.config_path()), "-w", str(out), "synth"))
            if child.status != 0:
                raise SetupError(f"depwalk synth exited {child.status}")
            walls.append(child.paced)
            shas.add(sha256(out / "synth_flows.csv"))
        if len(shas) != 1:
            raise SetupError(f"depwalk synth is not deterministic: {sorted(shas)}")
        flows = self.dir / "input_flows.csv"
        (self.dir / "setup0" / "synth_flows.csv").replace(flows)
        for i in range(SETUP_REPEATS):
            shutil.rmtree(self.dir / f"setup{i}")
        with open(flows, "rb") as fh:
            self.n_flows = sum(1 for _ in fh)
        self.record["setup_paced_s"] = walls
        self.record["input_sha256"] = shas.pop()
        self.record["input_flows"] = self.n_flows
        return flows

    def check(self, label: str, child: Child, problems: list[str], found: dict[str, str]) -> bool:
        problems = judge(child, problems, self.expected, found)
        self.attempts.add(label, problems)
        self.record.setdefault("commands", []).append(
            {"label": label, "wall_s": child.wall, "paced_s": child.paced, "cpu_s": child.cpu,
             "peak_rss_mb": child.maxrss_mb,
             "status": child.status, "problems": problems})
        return not problems

    def measure(self, argv_for, check_for, reserve: float) -> list[Timed]:
        """Run the timed command once, then again while the next run is
        expected to end within ``seconds`` of the first one's start."""
        runs: list[Timed] = []
        began = time.perf_counter()
        while True:
            argv, workdir = argv_for(len(runs))
            child = self.child(argv)
            problems, found, quality = check_for(workdir)
            self.check(f"timed{len(runs)}", child, problems, found)
            runs.append(Timed(child, quality))
            if self.workload.command == "pipeline":
                shutil.rmtree(workdir, ignore_errors=True)
            if time.perf_counter() - began + child.wall > self.seconds:
                break
            if self.time_left() < 1.5 * child.wall + reserve * child.wall:
                break
        return runs

    def pipeline_check(self, workdir: Path):
        problems, report = check_pipeline(workdir)
        quality = (report.get("roc_auc"), report.get("average_precision"))
        return problems, digests(workdir, PIPELINE_ARTIFACTS), quality

    def traced_command(self, label: str, workdir: Path, args: tuple, check_for,
                       skip: tuple = ()) -> Child:
        """Run the command once more under perfbench/traced.py; its outputs
        must match the untraced runs'."""
        spans = self.dir / f"{label}.json"
        # Not paced: a pause would fall inside the spans.
        child = self.child(traced(spans, "-c", self.cfg, "-w", str(workdir), *args), paced=False)
        problems, found, _ = check_for(workdir)
        for name in skip:
            found.pop(name, None)
        if self.check(label, child, problems, found):
            self.traces.append(json.loads(spans.read_text(encoding="utf-8")))
        return child

    def execute(self) -> dict:
        self.dir.mkdir(parents=True)
        self.cfg = cfg = str(self.config_path())
        self.pacer = pace.Pacer()
        flows = self.setup()
        reserve = 1.3 if self.trace else 0.0
        if self.workload.command == "pipeline":
            n_inputs = self.n_flows
            args = ("pipeline", "--flows", str(flows))
            timed = self.measure(
                lambda i: (depwalk("-c", cfg, "-w", str(self.dir / f"run{i}"), *args),
                           self.dir / f"run{i}"),
                self.pipeline_check, reserve)
            if self.trace:
                traced_child = self.traced_command("traced", self.dir / "traced", args,
                                                   self.pipeline_check)
        else:
            prep = self.dir / "prep"
            if self.trace:
                # The traced preparation is a whole pipeline, so that every
                # layer, eval and simindex too, shows in the trace; its
                # predictions.csv scores the label set, not the pairs.
                child = self.traced_command("traced_prep", prep, ("pipeline", "--flows", str(flows)),
                                            self.pipeline_check, skip=("predictions.csv",))
                if child.status != 0:
                    raise SetupError(f"traced depwalk pipeline exited {child.status}")
            else:
                stages = []
                for stage in PREP_STAGES:
                    argv = depwalk("-c", cfg, "-w", str(prep), stage,
                                   *(("--flows", str(flows)) if stage == "ingest" else ()))
                    stages.append(self.child(argv))
                    if stages[-1].status != 0:
                        raise SetupError(f"depwalk {stage} exited {stages[-1].status}")
                prep_run = Child(0, sum(c.wall for c in stages), max(c.maxrss_mb for c in stages),
                                 cpu=sum(c.cpu for c in stages))
                self.check("prep", prep_run, [], digests(prep, PIPELINE_ARTIFACTS[:8]))
            with open(prep / "graph.jsonl", encoding="utf-8") as fh:
                vertices = json.loads(fh.readline())["vertices"]
            pairs = [(a, b) for a in vertices for b in vertices if a != b]
            pairs_path = self.dir / "pairs.csv"
            with open(pairs_path, "w", encoding="utf-8") as fh:
                fh.write("src,dst\n")
                fh.writelines(f"{a},{b}\n" for a, b in pairs)
            truth = ground_truth_pairs(prep)
            labels = [pair in truth for pair in pairs]
            n_inputs = len(pairs)

            def predict_check(workdir: Path):
                problems, scores = check_predictions(workdir, pairs)
                quality = ranking_quality(scores, labels) if scores else (None, None)
                return problems, digests(workdir, ("predictions.csv",)), quality

            args = ("predict", "--pairs", str(pairs_path))
            timed = self.measure(lambda i: (depwalk("-c", cfg, "-w", str(prep), *args), prep),
                                 predict_check, reserve)
            if self.trace:
                traced_child = self.traced_command("traced", prep, args, predict_check)

        walls = [t.child.wall for t in timed]
        wall = statistics.median(walls)
        paced = [t.child.paced for t in timed]
        auc, ap = timed[0].quality
        metrics = {
            "paced_wall_s": statistics.median(paced),
            "peak_rss_mb": statistics.median(t.child.maxrss_mb for t in timed),
            "setup_s": statistics.median(self.record["setup_paced_s"]),
            "roc_auc": auc if auc is not None else 0.0,
            "average_precision": ap if ap is not None else 0.0,
        }
        self.record.update(inputs=n_inputs, end_to_end=metrics, wall_s=wall,
                           inputs_per_s=statistics.median(n_inputs / w for w in walls))
        if not self.trace:
            return metrics
        layers = dict.fromkeys(PER_LAYER, 0.0)
        if len(self.traces) == (2 if self.workload.command == "predict" else 1):
            layers.update(tracing.layer_metrics(self.traces, self.traces[-1], traced_child.wall))
            layers["trace.overhead_s"] = traced_child.wall - wall
        self.record["per_layer"] = layers
        return layers

    def finish(self, metrics: dict) -> dict:
        if not self.attempts.failed and not self.store.exists():
            self.store.parent.mkdir(parents=True, exist_ok=True)
            self.store.write_text(json.dumps(self.expected, indent=1, sort_keys=True),
                                  encoding="utf-8")
        self.record.update(digests=self.expected, failed_share=self.attempts.failed_share)
        return {"correct": not self.attempts.failed, "attempted": self.attempts.attempted,
                "failed": self.attempts.failed,
                "metrics": {name: {"value": value, "unit": (END_TO_END | PER_LAYER)[name]}
                            for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "depwalk" / "cli.py").is_file():
        print(f"perfbench: no depwalk sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    machine = machine_info()
    # The children inherit this CPU, so the reference bursts run where they do.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.record["machine"] = {**machine, "pinned_cpu": max(os.sched_getaffinity(0))}
    run.record["loadavg_before"] = os.getloadavg()
    results = STATE / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        metrics = run.execute()
    except SetupError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        if run.pacer is not None:
            run.pacer.close()
        if run.log.is_file():
            results.mkdir(parents=True, exist_ok=True)
            run.log.replace(results / f"{stem}.log")
        shutil.rmtree(run.dir, ignore_errors=True)
    result = run.finish(metrics)
    run.record["loadavg_after"] = os.getloadavg()
    out = results / f"{stem}.json"
    out.write_text(json.dumps(run.record, indent=1, sort_keys=True), encoding="utf-8")

    for name, entry in result["metrics"].items():
        print(f"{args.workload:>7} {name:<24} {entry['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>7} {'wall_s':<24} {run.record['wall_s']:>14.6g} s", file=sys.stderr)
    print(f"{args.workload:>7} {'inputs_per_s':<24} {run.record['inputs_per_s']:>14.6g} 1/s",
          file=sys.stderr)
    print(f"{args.workload:>7} {'failed_share':<24} {run.attempts.failed_share:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})", file=sys.stderr)
    for label, problems in run.attempts.failures:
        print(f"perfbench: {label} failed: {'; '.join(problems)}", file=sys.stderr)
    print(f"perfbench: record written to {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
