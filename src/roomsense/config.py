"""Plain-text `key = value` configuration files for the CLI stages.

Lines starting with `#` are comments. List values are comma-separated,
distributions are `key:weight` pairs separated by commas. Command-line flags
override file values; the effective configuration is echoed into the output
directory for provenance.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .mapping import DEFAULT_RESAMPLE_LEN, DEFAULT_RESOLUTION
from .records import ConfigError
from .simulate import SimConfig


def read_config_file(path) -> dict[str, str]:
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{no}: expected 'key = value'")
        values[key.strip()] = val.strip()
    return values


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

    def validate(self, require_truth: bool = True) -> None:
        needed = {"sessions": self.sessions, "timetable": self.timetable, "rosters": self.rosters}
        if require_truth:
            needed["ground_truth_counts"] = self.ground_truth_counts
        for name, path in needed.items():
            if not path:
                raise ConfigError(f"config is missing required path {name!r}")
            if not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")
        for name, path in (("inventory", self.inventory),
                           ("ground_truth_counts", self.ground_truth_counts)):
            if path and not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError("train_ratio must lie strictly between 0 and 1")
        if self.resolution < 1 or self.resample_len < 1:
            raise ConfigError("resolution and resample_len must be positive")
        if self.use_room_aps and not self.inventory:
            raise ConfigError("use_room_aps requires an inventory file")


_PIPELINE_PARSERS = {
    "resolution": int,
    "resample_len": int,
    "seed": int,
    "train_ratio": float,
    "adjacency": _parse_bool,
    "use_room_aps": _parse_bool,
}


def pipeline_config_from(values: dict[str, str], overrides: dict | None = None) -> PipelineConfig:
    config = PipelineConfig()
    known = {f.name for f in fields(PipelineConfig)}
    for key, raw in values.items():
        if key not in known:
            raise ConfigError(f"unknown pipeline config key {key!r}")
        parser = _PIPELINE_PARSERS.get(key, str)
        try:
            setattr(config, key, parser(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config


_SIM_PARSERS = {
    "seed": int,
    "weeks": int,
    "days_per_week": int,
    "corridor_aps_per_room": int,
    "walkway_ap_count": int,
    "classes_per_room_per_week": int,
    "early_arrival_limit": int,
    "report_hour": int,
    "room_capacities": lambda t: _parse_tuple(t, int),
    "room_ap_counts": lambda t: _parse_tuple(t, int),
    "churn_gap_minutes": lambda t: _parse_tuple(t, int),
    "enrollment_ratio": lambda t: _parse_tuple(t, float),
    "attendance_ratio": lambda t: _parse_tuple(t, float),
    "duration_weights": lambda t: _parse_weights(t, int),
    "device_count_weights": lambda t: _parse_weights(t, int),
}


def sim_config_from(values: dict[str, str], overrides: dict | None = None) -> SimConfig:
    config = SimConfig()
    known = {f.name for f in fields(SimConfig)}
    for key, raw in values.items():
        if key not in known:
            raise ConfigError(f"unknown simulator config key {key!r}")
        parser = _SIM_PARSERS.get(key, float)
        try:
            setattr(config, key, parser(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config


def echo_config(path, config) -> None:
    """Write the effective configuration as a key = value file."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, dict):
            value = ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
        elif isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
