"""Pipeline configuration: one YAML document with a section per stage.

The fields of :class:`PipelineConfig` other than ``master_seed`` and
``workdir`` are the sections.  A section with an ``rng_seed`` gets a seed
derived from ``master_seed`` via the documented SHA-256 fan-out (see
:mod:`depwalk.seeds`); the config file does not expose per-stage seeds.
Every value is checked against its field's annotation, and validation
collects every violated constraint before raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import yaml

from .embedding import EmbeddingConfig
from .errors import ConfigError
from .flows import SplitMode
from .forest import ForestConfig
from .graph import SamplerConfig
from .oracle import OracleConfig
from .seeds import derive_seed
from .synth import ScenarioConfig
from .walks import WalkConfig


@dataclass(frozen=True)
class IngestSettings:
    biflows: bool = False
    split_mode: SplitMode = SplitMode.SAME_TIMESTAMPS


@dataclass(frozen=True)
class ContextSettings:
    size: int = 4


@dataclass(frozen=True)
class EvalSettings:
    n_splits: int = 15
    fractions: tuple[float, ...] = (0.25, 0.5)


@dataclass(frozen=True)
class PipelineConfig:
    master_seed: int = 0
    workdir: str = "out"
    ingest: IngestSettings = field(default_factory=IngestSettings)
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(
        n_internal=100, m_external=20, k_edges=20000, internal_prefixes=("10.0.0.0/16",)))
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
    args = get_args(hint)
    if get_origin(hint) is not tuple:  # a union such as int | None
        return any(_fits(value, arg) for arg in args)
    if isinstance(value, list) and args[-1] is Ellipsis:
        args = args[:1] * len(value)
    return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))


def _convert(value, hint):
    """A YAML value as the field type ``hint``: a list becomes a tuple, a
    string an enum member.  TypeError or ValueError names the expected type."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if not _fits(value, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        raise TypeError(f"expected {expected}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _build_section(name: str, default, data: dict, seed: int, problems: list[str]):
    """``default`` with the keys of ``data`` applied and, when the section has
    an ``rng_seed``, the seed derived for it; the seed is not a key."""
    hints = get_type_hints(type(default))
    allowed = set(hints) - {"rng_seed"}
    for key in sorted(set(data) - allowed):
        problems.append(f"{name}: unknown key {key!r}")
    kwargs = {"rng_seed": seed} if "rng_seed" in hints else {}
    for key in sorted(set(data) & allowed):
        try:
            kwargs[key] = _convert(data[key], hints[key])
        except (TypeError, ValueError) as exc:
            problems.append(f"{name}.{key}: {exc}")
    try:
        return replace(default, **kwargs)
    except (ConfigError, ValueError, TypeError) as exc:
        problems.append(f"{name}: {exc}")
        return default


def load_config(path=None, master_seed: int | None = None,
                workdir: str | None = None) -> PipelineConfig:
    """Load and validate the pipeline config; missing sections take their
    defaults.  ``master_seed`` / ``workdir`` arguments override file values.
    """
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")

    problems: list[str] = []
    for key in sorted(set(raw) - {f.name for f in fields(PipelineConfig)}):
        problems.append(f"unknown section {key!r}")

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
        data = raw.get(f.name, {})
        if data is None:
            data = {}
        if not isinstance(data, dict):
            problems.append(f"{f.name}: section must be a mapping")
            data = {}
        sections[f.name] = _build_section(f.name, getattr(cfg, f.name), data,
                                          cfg.seed_for(f.name), problems)
    cfg = replace(cfg, **sections)

    # cross-field constraints
    if cfg.context.size < 2:
        problems.append("context.size must be >= 2")
    if cfg.context.size > cfg.walks.walk_length:
        problems.append(
            f"context.size ({cfg.context.size}) must not exceed walks.walk_length "
            f"({cfg.walks.walk_length})")
    for fraction in cfg.evaluation.fractions:
        if not 0.0 < fraction < 1.0:
            problems.append(f"evaluation.fractions entry {fraction} must be in (0, 1)")
    if cfg.evaluation.n_splits < 1:
        problems.append("evaluation.n_splits must be >= 1")

    if problems:
        raise ConfigError("\n".join(problems))
    return cfg
