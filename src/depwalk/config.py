"""Pipeline configuration: one YAML document with a section per stage.

Every key, type, default and bound of the config file is declared once,
here.  A section is a frozen dataclass whose fields are its keys; its
unannotated class attributes ``_MIN``, ``_ABOVE`` and ``_MAX`` map a key to
its bound (``>=``, ``>``, ``<=``), a float key must be finite, and its
``_problems`` hook holds its other checks.  Building a section, directly or
through :func:`load_config`, raises one :class:`ConfigError` listing every
violation, so an out-of-bound or non-finite value or a failed scenario
check is a config error (the CLI exits 2).  The fields of
:class:`PipelineConfig` other than ``master_seed`` and ``workdir`` are the
sections; the stage modules import theirs from here.  A section with an
``rng_seed`` gets a seed derived from ``master_seed`` via the documented
SHA-256 fan-out (see :mod:`depwalk.seeds`); the config file does not expose
per-stage seeds.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, fields, replace
from ipaddress import ip_network
from typing import get_args, get_type_hints

import yaml

from .errors import ConfigError
from .seeds import derive_seed


class _Section:
    """The one check of every section: every float finite, the bounds of
    the other keys, then its ``_problems``."""

    _MIN = _ABOVE = _MAX = {}

    def __post_init__(self):
        nonfinite = [key for key, value in vars(self).items()
                     if isinstance(value, float) and not math.isfinite(value)]
        problems = [f"{key} must be finite" for key in nonfinite]
        problems += [f"{key} must be {sign} {bound}"
                     for bounds, sign, holds in ((self._MIN, ">=", operator.ge),
                                                 (self._ABOVE, ">", operator.gt),
                                                 (self._MAX, "<=", operator.le))
                     for key, bound in bounds.items()
                     if key not in nonfinite and not holds(getattr(self, key), bound)]
        problems += self._problems()
        if problems:
            raise ConfigError("; ".join(problems))

    def _problems(self) -> list[str]:
        return []


@dataclass(frozen=True)
class IngestSettings(_Section):
    biflows: bool = False


@dataclass(frozen=True)
class SamplerConfig(_Section):
    """Vertex selection and edge reservoir parameters.

    Addresses inside ``internal_prefixes`` count as internal; everything else
    (including unparseable tokens) is external.
    """

    n_internal: int = 100
    m_external: int = 20
    k_edges: int = 20000
    internal_prefixes: tuple[str, ...] = ("10.0.0.0/16",)
    rng_seed: int = 0

    _MIN = dict(n_internal=0, m_external=0, k_edges=1)

    def _problems(self):
        problems = []
        for prefix in self.internal_prefixes:
            try:
                ip_network(prefix, strict=False)
            except ValueError:
                problems.append(f"invalid CIDR prefix {prefix!r}")
        return problems


@dataclass(frozen=True)
class WalkConfig(_Section):
    walk_length: int = 5
    walks_per_vertex: int = 10
    epsilon: int = 1000
    n_t: int = 10
    rng_seed: int = 0

    _MIN = dict(walk_length=3, walks_per_vertex=1, epsilon=0, n_t=1)


@dataclass(frozen=True)
class ContextSettings(_Section):
    size: int = 4

    _MIN = dict(size=2)


@dataclass(frozen=True)
class EmbeddingConfig(_Section):
    dims: int = 64
    epochs: int = 5
    learning_rate: float = 0.1
    neg_samples_per_positive: int = 1
    rng_seed: int = 0

    _MIN = dict(dims=1, epochs=1, neg_samples_per_positive=0)
    _ABOVE = dict(learning_rate=0)


@dataclass(frozen=True)
class ForestConfig(_Section):
    n_trees: int = 100
    rng_seed: int = 0

    _MIN = dict(n_trees=1)


@dataclass(frozen=True)
class OracleConfig(_Section):
    """Thresholds: ``n_t_dd`` covers DD and TD records, ``n_t_rr`` covers RR
    and RR3; ``epsilon`` bounds the request gap in milliseconds."""

    n_t_dd: int = 10
    n_t_rr: int = 10
    epsilon: int = 1000

    _MIN = dict(n_t_dd=1, n_t_rr=1, epsilon=0)
    _MAX = dict(epsilon=2**63 - 1)  # the oracle's int64 time columns


@dataclass(frozen=True)
class EvalSettings(_Section):
    n_splits: int = 15
    fractions: tuple[float, ...] = (0.25, 0.5)

    _MIN = dict(n_splits=1)

    def _problems(self):
        return [f"fractions entry {fraction} must be in (0, 1)"
                for fraction in self.fractions if not 0.0 < fraction < 1.0]


@dataclass(frozen=True)
class ScenarioConfig(_Section):
    n_clients: int = 10
    n_web: int = 1
    n_db: int = 1
    n_dns: int = 1
    session_rate: float = 1.0          # sessions per simulated second
    # simulated seconds; the default gives each default client 20 sessions,
    # twice the default oracle threshold, so the bare default run labels 84 pairs
    duration: float = 200.0
    noise_flows: int = 0
    epsilon_ms: int = 1000
    rng_seed: int = 0

    # epsilon_ms >= 12 leaves room for the reply gap
    _MIN = dict(n_clients=0, n_web=0, n_db=0, n_dns=0, session_rate=0, noise_flows=0,
                epsilon_ms=12)
    _ABOVE = dict(duration=0)
    _MAX = dict(n_clients=250, n_web=250, n_db=250, n_dns=250)

    # ms: the range a lookup or service call takes, and a noise flow's longest
    LATENCY_MS = (5, 50)
    NOISE_MS = 5000

    @property
    def max_gap_ms(self) -> int:
        """The longest wait between a lookup's reply and the web request."""
        return max(1, self.epsilon_ms // 2 - 4)

    def _problems(self):
        """The session count (the rounded ``session_rate * duration``) must
        be finite; planted sessions, when at least one is planted, need
        clients and web servers; and no flow may end at the int64 maximum or
        later, which ingest rejects."""
        count = self.session_rate * self.duration
        sessions = count > 0.5
        # a session's lookup reply ends up to 2 ms after its latency, and its
        # web request up to 3 ms either side of the database call
        lookup = self.LATENCY_MS[1] + 2 + self.max_gap_ms if self.n_dns else 0
        spans = [lookup + self.LATENCY_MS[1] + 6 * (self.n_db > 0)] * sessions
        spans += [self.NOISE_MS] * (self.noise_flows > 0)
        latest = (max(1, int(self.duration * 1000)) - 1 + max(spans)
                  if spans and math.isfinite(self.duration) else 0)
        return [problem for met, problem in (
            # a non-finite key is reported as such already
            (math.isfinite(count) or not all(map(math.isfinite, (self.session_rate, self.duration))),
             "session_rate * duration, the planted session count, must be finite"),
            (self.n_clients and self.n_web or not sessions,
             "planted sessions need clients and web servers"),
            (latest < 2**63 - 1,
             f"flows would end as late as {latest} ms, but ingest reads timestamps below {2**63 - 1}"),
        ) if not met]


@dataclass(frozen=True)
class PipelineConfig:
    master_seed: int = 0
    workdir: str = "out"
    ingest: IngestSettings = field(default_factory=IngestSettings)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    walks: WalkConfig = field(default_factory=WalkConfig)
    context: ContextSettings = field(default_factory=ContextSettings)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    evaluation: EvalSettings = field(default_factory=EvalSettings)
    synth: ScenarioConfig = field(default_factory=ScenarioConfig)

    def seed_for(self, stage: str) -> int:
        return derive_seed(self.master_seed, stage)


def _fits(value, hint) -> bool:
    """Whether a YAML value has the field type ``hint``; a float field takes
    an integer, and a tuple field a list."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if isinstance(hint, type):
        return isinstance(value, hint)
    item, _ = get_args(hint)  # tuple[item, ...]
    return isinstance(value, list) and all(_fits(entry, item) for entry in value)


def _convert(value, hint):
    """A YAML value as the field type ``hint``, where a list becomes a tuple;
    a TypeError names the expected type."""
    if not _fits(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        raise TypeError(f"expected {expected}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _build_section(name: str, default, data: dict, seed: int, problems: list[str]):
    """``default`` with the keys of ``data`` applied and, when the section has
    an ``rng_seed``, the seed derived for it; the seed is not a key."""
    hints = get_type_hints(type(default))
    allowed = set(hints) - {"rng_seed"}
    problems += [f"{name}: unknown key {key!r}" for key in sorted(set(data) - allowed)]
    kwargs = {"rng_seed": seed} if "rng_seed" in hints else {}
    for key in sorted(set(data) & allowed):
        try:
            kwargs[key] = _convert(data[key], hints[key])
        except TypeError as exc:
            problems.append(f"{name}.{key}: {exc}")
    try:
        return replace(default, **kwargs)
    except ConfigError as exc:
        problems.append(f"{name}: {exc}")
        return default


class _Loader(yaml.SafeLoader):
    """``yaml.safe_load``'s YAML 1.1 with YAML 1.2's floats added: an
    exponent needs neither a sign nor a dot, so ``2e2`` is 200.0, as in JSON."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                              re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                              list("-+.0123456789"))


def load_config(path=None, master_seed: int | None = None,
                workdir: str | None = None) -> PipelineConfig:
    """Load and validate the pipeline config; missing sections take their
    defaults.  ``master_seed`` / ``workdir`` arguments override file values.
    """
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")

    problems = [f"unknown section {key!r}"
                for key in sorted(set(raw) - {f.name for f in fields(PipelineConfig)})]

    top = {}
    for key, override in (("master_seed", master_seed), ("workdir", workdir)):
        if override is not None:
            top[key] = override
        elif key in raw:
            try:
                top[key] = _convert(raw[key], get_type_hints(PipelineConfig)[key])
            except TypeError as exc:
                problems.append(f"{key}: {exc}")
    cfg = PipelineConfig(**top)
    sections = {}
    for f in fields(PipelineConfig):
        if f.name in ("master_seed", "workdir"):
            continue
        data = {} if raw.get(f.name) is None else raw[f.name]
        if not isinstance(data, dict):
            problems.append(f"{f.name}: section must be a mapping")
            data = {}
        sections[f.name] = _build_section(f.name, getattr(cfg, f.name), data,
                                          cfg.seed_for(f.name), problems)
    cfg = replace(cfg, **sections)

    if cfg.context.size > cfg.walks.walk_length:
        problems.append(
            f"context.size ({cfg.context.size}) must not exceed walks.walk_length "
            f"({cfg.walks.walk_length})")

    if problems:
        raise ConfigError("\n".join(problems))
    return cfg
