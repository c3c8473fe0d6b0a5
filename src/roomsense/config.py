"""Plain-text `key = value` configuration files for the CLI stages.

List values are comma-separated, distributions are `key:weight` pairs
separated by commas, and an empty `room_ap_counts` is unset. Command-line flags
override file values; the effective configuration is echoed into the output
directory for provenance, and the echo reads back to it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .mapping import ALGORITHMS, DEFAULT_RESAMPLE_LEN, DEFAULT_RESOLUTION, MAX_RESAMPLE_LEN
from .records import ConfigError
from .simulate import SimConfig
from .store import write_key_values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _parse_tuple(text: str, cast):
    return tuple(cast(part.strip()) for part in text.split(",") if part.strip())


def _parse_weights(text: str, key_cast):
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, weight = part.partition(":")
        if not sep:
            raise ConfigError(f"bad weight entry {part!r}, expected key:weight")
        out[key_cast(key.strip())] = float(weight.strip())
    return out


@dataclass
class PipelineConfig:
    """Everything one end-to-end run needs; seed is mandatory for any stochastic stage."""

    sessions: str = ""
    timetable: str = ""
    rosters: str = ""
    inventory: str = ""
    ground_truth_counts: str = ""
    output_dir: str = "out"
    resolution: int = DEFAULT_RESOLUTION
    algorithm: str = "kmeans"
    resample_len: int = DEFAULT_RESAMPLE_LEN
    seed: int = 0
    train_ratio: float = 0.7
    adjacency: bool = True
    use_room_aps: bool = False
    delimiter: str = ","

    def validate(self, require_truth: bool = True, require_corpus: bool = True) -> None:
        needed = ["sessions", "timetable", "rosters"] if require_corpus else []
        if require_truth:
            needed.append("ground_truth_counts")
        for name in needed:
            if not getattr(self, name):
                raise ConfigError(f"config is missing required path {name!r}")
        for name in ("sessions", "timetable", "rosters", "inventory", "ground_truth_counts"):
            path = getattr(self, name)
            if path and not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError("train_ratio must lie strictly between 0 and 1")
        if self.resolution < 1 or self.resample_len < 1:
            raise ConfigError("resolution and resample_len must be positive")
        if self.resample_len > MAX_RESAMPLE_LEN:
            raise ConfigError(f"resample_len {self.resample_len} exceeds {MAX_RESAMPLE_LEN}")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}, expected one of {', '.join(ALGORITHMS)}"
            )
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter {self.delimiter!r} is not a single character")
        if self.use_room_aps and not self.inventory:
            raise ConfigError("use_room_aps requires an inventory file")


def _config_from(config, kind: str, parsers: dict, values: dict, overrides: dict | None):
    """`config` with the file `values` parsed onto it, then the non-None `overrides`.

    `values` maps each key to its (line number, text) from `read_key_values`.
    A key without a `parsers` entry is parsed by the type of its default.
    """
    known = {f.name for f in fields(config)}
    for key, (_, raw) in values.items():
        if key not in known:
            raise ConfigError(f"unknown {kind} config key {key!r}")
        default = getattr(config, key)
        parser = parsers.get(key) or (_parse_bool if isinstance(default, bool) else type(default))
        try:
            setattr(config, key, parser(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config


def pipeline_config_from(values: dict, overrides: dict | None = None) -> PipelineConfig:
    return _config_from(PipelineConfig(), "pipeline", {}, values, overrides)


_SIM_PARSERS = {
    "room_capacities": lambda t: _parse_tuple(t, int),
    "room_ap_counts": lambda t: _parse_tuple(t, int) or None,  # empty: derived from capacity
    "churn_gap_minutes": lambda t: _parse_tuple(t, int),
    "enrollment_ratio": lambda t: _parse_tuple(t, float),
    "attendance_ratio": lambda t: _parse_tuple(t, float),
    "duration_weights": lambda t: _parse_weights(t, int),
    "device_count_weights": lambda t: _parse_weights(t, int),
}


def sim_config_from(values: dict, overrides: dict | None = None) -> SimConfig:
    config = _config_from(SimConfig(), "simulator", _SIM_PARSERS, values, overrides)
    config.validate()
    return config


def echo_config(path, config) -> None:
    """Write the effective configuration as a `key = value` file that reads back to it."""
    pairs = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, dict):
            value = ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
        elif isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        pairs.append((f.name, "" if value is None else value))
    write_key_values(path, pairs)
