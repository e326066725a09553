"""Experiment configuration: a validated mapping with YAML round-trip."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import yaml

from .gauges import GaugeError, gauge_from_config

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "dump_config"]

DEFAULT_SEED = 20260825

_KNOWN_KEYS = ("experiment", "seed", "replicates", "grid_n", "params")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


def _validate_gauge_entries(params: Mapping) -> None:
    """Eagerly parse any gauge-shaped sub-config so errors name the field."""

    def check(path: str, value) -> None:
        if isinstance(value, Mapping) and "family" in value:
            try:
                gauge_from_config(dict(value))
            except GaugeError as err:
                raise ConfigError(f"{path}: {err}") from err
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                check(f"{path}[{i}]", item)

    for key, value in params.items():
        check(f"params.{key}", value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request: name, seed, sampling knobs, free-form params.

    ``replicates`` and ``grid_n`` are optional; experiments resolve their own
    defaults when these are absent.  ``params`` carries experiment-specific
    knobs (horizons, levels, lambda grids, gauge configs, weights).
    """

    experiment: str
    seed: int = DEFAULT_SEED
    replicates: int | None = None
    grid_n: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or not self.experiment:
            raise ConfigError("experiment: must be a non-empty string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed!r}")
        if self.replicates is not None:
            if not isinstance(self.replicates, int) or isinstance(self.replicates, bool):
                raise ConfigError(f"replicates: must be an integer, got {self.replicates!r}")
            if self.replicates < 100:
                raise ConfigError(
                    f"replicates: Monte Carlo runs need at least 100, got {self.replicates}"
                )
        if self.grid_n is not None:
            if not isinstance(self.grid_n, int) or isinstance(self.grid_n, bool):
                raise ConfigError(f"grid_n: must be an integer, got {self.grid_n!r}")
            if self.grid_n < 2:
                raise ConfigError(f"grid_n: need at least 2 steps, got {self.grid_n}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"params: must be a mapping, got {type(self.params).__name__}")
        object.__setattr__(self, "params", dict(self.params))
        _validate_gauge_entries(self.params)

    @staticmethod
    def from_mapping(data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"config root: expected a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_KNOWN_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config field {unknown[0]!r}; known fields: {', '.join(_KNOWN_KEYS)}"
            )
        if "experiment" not in data:
            raise ConfigError("missing required config field 'experiment'")
        kwargs = {k: data[k] for k in _KNOWN_KEYS if k in data}
        return ExperimentConfig(**kwargs)

    def to_mapping(self) -> dict:
        out = {"experiment": self.experiment, "seed": self.seed}
        if self.replicates is not None:
            out["replicates"] = self.replicates
        if self.grid_n is not None:
            out["grid_n"] = self.grid_n
        out["params"] = dict(self.params)
        return out


def load_config(path) -> ExperimentConfig:
    """Read a YAML experiment config from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            mark = getattr(err, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            problem = getattr(err, "problem", None) or "not valid YAML"
            raise ConfigError(f"config file {path}{where}: {problem}") from err
    if data is None:
        raise ConfigError(f"config file {path} is empty")
    return ExperimentConfig.from_mapping(data)


def dump_config(cfg: ExperimentConfig, path) -> None:
    """Write a config back to YAML; ``load_config`` restores an equal config."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_mapping(), fh, sort_keys=True)
