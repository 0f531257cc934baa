"""Run configuration: a flat key-value file with one section per concern.

CLI flags override file values.

The settings of every layer live here, below all of them: the feature
groups, the training regimes and the CRF's :class:`TrainConfig`.  This
module imports nothing of the package but the line reader, so a command
can read its configuration without loading the CRF.

Each key has one row in ``_SCHEMA``: the attribute it sets and the parser
of its text.  ``[train]``'s numbers are :class:`TrainConfig`'s fields, held
whole in ``RunConfig.train``, so a new ``[train]`` number takes a
``TrainConfig`` field and one schema row.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable

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
    train: TrainConfig = TrainConfig()
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


def _words(raw: str) -> tuple[str, ...]:
    return tuple(w.strip() for w in raw.split(",") if w.strip())


def _integers(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _words(raw))


# section -> key -> (attribute, parser of the key's text)
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "data": {
        "source": ("source", str),
        "target_train": ("target_train", str),
        "target_dev": ("target_dev", str),
        "source_format": ("source_format", str),
    },
    "features": {"groups": ("groups", _words)},
    "knowledge": {"archive": ("knowledge", str), "sim_k": ("sim_k", int)},
    "train": {
        "mode": ("mode", str),
        "l2": ("l2", float),
        "max_iterations": ("max_iterations", int),
        "tolerance": ("tolerance", float),
        "feature_cutoff": ("feature_cutoff", int),
    },
    "curve": {"sizes": ("curve_sizes", _integers), "modes": ("curve_modes", _words)},
    "output": {"model": ("model", str), "report": ("report", str)},
}


def parse_config(text: str, overrides: dict[str, str] | None = None, source: str = "<string>") -> RunConfig:
    """Parse config text; ``overrides`` maps "section.key" to raw values.
    ``source`` names the text in the message of a syntax error."""
    # values are literal: no %-interpolation, so "%" needs no escape
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        # configparser spreads some messages over several lines
        raise ConfigError(" ".join(line.strip() for line in str(exc).splitlines())) from exc
    if parser.defaults():
        # configparser copies [DEFAULT]'s keys into every section, and reads
        # none of them when no other section is present
        raise ConfigError(
            f"config section [{parser.default_section}] is not supported; "
            f"move its keys ({', '.join(parser.defaults())}) into their sections"
        )
    # (section, key, raw value, the message if the key is unknown)
    settings = []
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        settings += [
            (section, key, raw, f"unknown config key {key!r} in section [{section}]")
            for key, raw in parser.items(section)
        ]
    for dotted, raw in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        settings.append((section, key, raw, f"unknown config override {dotted!r}"))
    values = {}
    for section, key, raw, unknown in settings:
        if key not in _SCHEMA.get(section, {}):
            raise ConfigError(unknown)
        attr, parse = _SCHEMA[section][key]
        raw = raw.strip()
        try:
            values[attr] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {attr}: {raw!r}") from exc
    train = {f.name: values.pop(f.name) for f in fields(TrainConfig) if f.name in values}
    try:
        return RunConfig(**values, train=TrainConfig(**train))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file; bytes that are not UTF-8 raise
    :class:`~patseg.corpus.ParseError` naming the file and line."""
    # a byte-order mark, as some editors save one, is not text
    text = "\n".join(read_lines(path)).removeprefix("\ufeff")
    return parse_config(text, overrides, str(path))
