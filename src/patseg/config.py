"""Run configuration: a flat key-value file with one section per concern.

CLI flags override file values.

The settings of every layer live here, below all of them: the feature
groups, the training regimes and the CRF's :class:`TrainConfig`.  This
module imports nothing of the package but the line reader, so a command
can read its configuration without loading the CRF.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import read_lines

FEATURE_GROUPS = ("CF", "LNG", "PKL", "PMI", "C_POS", "DICT", "SIM")
# the groups read from a knowledge archive
EXTERNAL_GROUPS = frozenset({"C_POS", "DICT", "SIM"})

# Training regimes; see the adaptation module.
MODES = ("target", "all", "transit", "easy")


class ConfigError(ValueError):
    """The configuration, an override, or a mode's inputs are invalid."""


class TrainingError(RuntimeError):
    """Training produced a non-finite objective or was misconfigured
    (raised by :mod:`patseg.crf`)."""


def normalize_groups(groups: Iterable[str]) -> tuple[str, ...]:
    """Validate group names and force the CF baseline on, spec order."""
    requested = set(groups)
    unknown = requested - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    requested.add("CF")
    return tuple(g for g in FEATURE_GROUPS if g in requested)


@dataclass(frozen=True)
class TrainConfig:
    """The CRF's training settings; see :func:`patseg.crf.train`."""

    l2: float = 0.1
    max_iterations: int = 300
    tolerance: float = 1e-6
    feature_cutoff: int = 1

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for key in ("l2", "tolerance"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be a finite number >= 0, got {value!r}")
        if self.feature_cutoff < 1:
            raise ValueError("feature_cutoff must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    source: str = ""
    target_train: str = ""
    target_dev: str = ""
    source_format: str = "tagged"  # tagged (word_TAG tokens) or plain
    groups: tuple[str, ...] = ("CF",)
    mode: str = "target"
    l2: float = TrainConfig.l2
    max_iterations: int = TrainConfig.max_iterations
    tolerance: float = TrainConfig.tolerance
    feature_cutoff: int = TrainConfig.feature_cutoff
    sim_k: int = 50
    curve_sizes: tuple[int, ...] = ()
    curve_modes: tuple[str, ...] = ("target",)
    knowledge: str = ""
    model: str = ""
    report: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", normalize_groups(self.groups))
        if self.mode not in MODES:
            raise ConfigError(f"unknown adaptation mode {self.mode!r}")
        for m in self.curve_modes:
            if m not in MODES:
                raise ConfigError(f"unknown curve mode {m!r}")
        if self.source_format not in ("tagged", "plain"):
            raise ConfigError(f"unknown source format {self.source_format!r}")
        if self.sim_k < 1:
            raise ConfigError("sim_k must be >= 1")
        try:
            self.train_config
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def train_config(self) -> TrainConfig:
        return TrainConfig(self.l2, self.max_iterations, self.tolerance, self.feature_cutoff)


_SCHEMA: dict[str, dict[str, str]] = {
    "data": {
        "source": "source",
        "target_train": "target_train",
        "target_dev": "target_dev",
        "source_format": "source_format",
    },
    "features": {"groups": "groups"},
    "knowledge": {"archive": "knowledge", "sim_k": "sim_k"},
    "train": {
        "mode": "mode",
        "l2": "l2",
        "max_iterations": "max_iterations",
        "tolerance": "tolerance",
        "feature_cutoff": "feature_cutoff",
    },
    "curve": {"sizes": "curve_sizes", "modes": "curve_modes"},
    "output": {"model": "model", "report": "report"},
}


def _parse_value(attr: str, raw: str):
    raw = raw.strip()
    try:
        if attr in ("l2", "tolerance"):
            return float(raw)
        if attr in ("max_iterations", "feature_cutoff", "sim_k"):
            return int(raw)
        if attr == "groups":
            return tuple(g.strip() for g in raw.split(",") if g.strip())
        if attr == "curve_modes":
            return tuple(m.strip() for m in raw.split(",") if m.strip())
        if attr == "curve_sizes":
            return tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {attr}: {raw!r}") from exc
    return raw


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse config text; ``overrides`` maps "section.key" to raw values."""
    # values are literal: no %-interpolation, so "%" needs no escape
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if parser.defaults():
        # configparser copies [DEFAULT]'s keys into every section, and reads
        # none of them when no other section is present
        raise ConfigError(
            f"config section [{parser.default_section}] is not supported; "
            f"move its keys ({', '.join(parser.defaults())}) into their sections"
        )
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            attr = _SCHEMA[section][key]
            values[attr] = _parse_value(attr, raw)
    for dotted, raw in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config override {dotted!r}")
        attr = _SCHEMA[section][key]
        values[attr] = _parse_value(attr, raw)
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file; bytes that are not UTF-8 raise
    :class:`~patseg.corpus.ParseError` naming the file and line."""
    # a byte-order mark, as some editors save one, is not text
    text = "\n".join(read_lines(path)).removeprefix("\ufeff")
    return parse_config(text, overrides)
