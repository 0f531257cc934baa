"""Run configuration: a flat key-value file with one section per concern.

The canonical serialization always writes every key, so parsing and
re-serializing a config is idempotent and a run's exact configuration can
be archived next to its outputs.  CLI flags override file values.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .pipeline import normalize_groups

# Training regimes; see the adaptation module.
MODES = ("target", "all", "transit", "easy")


class ConfigError(ValueError):
    """The configuration, an override, or a mode's inputs are invalid."""


@dataclass(frozen=True)
class RunConfig:
    source: str = ""
    target_train: str = ""
    target_dev: str = ""
    target_test: str = ""
    source_format: str = "tagged"  # tagged (word_TAG tokens) or plain
    groups: tuple[str, ...] = ("CF",)
    mode: str = "target"
    l2: float = 0.1
    max_iterations: int = 300
    tolerance: float = 1e-6
    feature_cutoff: int = 1
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
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        for key in ("l2", "tolerance"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")
        if self.feature_cutoff < 1:
            raise ConfigError("feature_cutoff must be >= 1")


_SCHEMA: dict[str, dict[str, str]] = {
    "data": {
        "source": "source",
        "target_train": "target_train",
        "target_dev": "target_dev",
        "target_test": "target_test",
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


def _format_value(attr: str, value) -> str:
    if attr in ("groups", "curve_modes"):
        return ",".join(value)
    if attr == "curve_sizes":
        return ",".join(str(s) for s in value)
    if attr == "tolerance":
        return repr(value)
    return str(value)


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse config text; ``overrides`` maps "section.key" to raw values."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
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
    return parse_config(Path(path).read_text(encoding="utf-8"), overrides)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form: every key, in schema order."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, attr in keys.items():
            out.write(f"{key} = {_format_value(attr, getattr(config, attr))}\n")
        out.write("\n")
    return out.getvalue()
