"""Experiment configuration (JSON document) and CSV emission.

Configs are flat JSON objects. Unknown keys are rejected rather than
silently absorbed, and a seed is mandatory: reproducibility is part of the
contract, so there is no entropy default. Each failure mode carries its own
exit code for the CLI.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ConfigError",
    "MalformedConfigError",
    "MissingFieldError",
    "UnknownKeyError",
    "UnwritablePathError",
    "CheckFailure",
    "EXPERIMENTS",
    "ExperimentConfig",
    "config_from_dict",
    "format_csv_value",
    "emit_csv",
]


class ConfigError(Exception):
    exit_code = 2


class MalformedConfigError(ConfigError):
    exit_code = 2


class MissingFieldError(ConfigError):
    exit_code = 3


class UnknownKeyError(ConfigError):
    exit_code = 4


class UnwritablePathError(ConfigError):
    exit_code = 5


class CheckFailure(Exception):
    """A self-verifying experiment found a violated tolerance."""

    exit_code = 7


EXPERIMENTS = (
    "single-step-low",
    "single-step-high",
    "histogram",
    "speedup",
    "moments-check",
    "constants-check",
)

_LOG_DT_GRID = [0.01, 0.0178, 0.0316, 0.0562, 0.1, 0.178, 0.316, 0.562, 1.0]
_COLLISIONALITY_GRID = [2.5, 4.0, 6.3, 10.0, 15.8, 25.0, 63.0, 158.0, 398.0, 1000.0]
_SPEEDUP_GRID = [0.01, 1.0, 10.0, 100.0, 1000.0]

_DEFAULT_PARTICLES = {
    "single-step-low": 200_000,
    "single-step-high": 400_000,
    "histogram": 100_000,
    "speedup": 50_000,
    "moments-check": 1_000_000,
    "constants-check": 0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    seed: int
    particles: int = 0
    out: str | None = None
    threads: int = 1
    sigma: float = 1.0
    u: float = 0.0
    temperature: float = 1.0
    eps: float = 1.0
    dt: float = 1.0
    t_end: float = 1.0
    dt_grid: tuple = ()
    collisionality_grid: tuple = ()
    eps_list: tuple = (0.1, 1.0, 10.0)
    v0: float = 2.0
    v_final_std: float | None = None
    velocity_bins: int = 64
    bootstrap_reps: int = 16
    histogram_lo: float = -15.0
    histogram_hi: float = 15.0
    histogram_bins: int = 100
    measure_time: bool = True
    timing_reps: int = 5
    quadrature_points: int = 4096

    def to_dict(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_FIELD_TYPES = {
    "experiment": str,
    "seed": int,
    "particles": int,
    "out": str,
    "threads": int,
    "sigma": float,
    "u": float,
    "temperature": float,
    "eps": float,
    "dt": float,
    "t_end": float,
    "dt_grid": list,
    "collisionality_grid": list,
    "eps_list": list,
    "v0": float,
    "v_final_std": float,
    "velocity_bins": int,
    "bootstrap_reps": int,
    "histogram_lo": float,
    "histogram_hi": float,
    "histogram_bins": int,
    "measure_time": bool,
    "timing_reps": int,
    "quadrature_points": int,
}

_NULLABLE = {"out", "v_final_std"}


def _coerce(key, value):
    want = _FIELD_TYPES[key]
    if value is None:
        if key in _NULLABLE:
            return None
        raise MalformedConfigError(f"field '{key}' must not be null")
    if want is bool:
        if not isinstance(value, bool):
            raise MalformedConfigError(f"field '{key}' must be a boolean, got {value!r}")
        return value
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MalformedConfigError(f"field '{key}' must be an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedConfigError(f"field '{key}' must be a number, got {value!r}")
        if not math.isfinite(value):
            raise MalformedConfigError(f"field '{key}' must be finite, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise MalformedConfigError(f"field '{key}' must be a string, got {value!r}")
        return value
    if want is list:
        if not isinstance(value, list):
            raise MalformedConfigError(f"field '{key}' must be a list, got {value!r}")
        items = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise MalformedConfigError(f"field '{key}' must hold numbers, got {item!r}")
            items.append(float(item))
        return tuple(items)
    raise AssertionError(key)


def _validate(cfg):
    if cfg.experiment not in EXPERIMENTS:
        raise MalformedConfigError(
            f"unknown experiment '{cfg.experiment}'; choose one of {', '.join(EXPERIMENTS)}"
        )
    if not 0 <= cfg.seed < 2**64:
        # the seed keys a uint64 hash; anything else fails only mid-run
        raise MalformedConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")
    if cfg.experiment != "constants-check" and cfg.particles <= 0:
        raise MalformedConfigError(f"particles must be positive, got {cfg.particles}")
    if cfg.threads < 1:
        raise MalformedConfigError(f"threads must be >= 1, got {cfg.threads}")
    for name in ("sigma", "temperature", "eps", "dt", "t_end"):
        if getattr(cfg, name) <= 0:
            raise MalformedConfigError(f"{name} must be positive")
    for name in ("dt_grid", "collisionality_grid", "eps_list"):
        grid = getattr(cfg, name)
        if any(g <= 0 for g in grid):
            raise MalformedConfigError(f"{name} entries must be positive")
        if list(grid) != sorted(grid):
            raise MalformedConfigError(f"{name} must be sorted ascending")
    needs = {
        "single-step-low": "dt_grid",
        "single-step-high": "collisionality_grid",
        "speedup": "collisionality_grid",
        "histogram": "eps_list",
    }
    grid_field = needs.get(cfg.experiment)
    if grid_field and not getattr(cfg, grid_field):
        raise MalformedConfigError(f"{cfg.experiment} needs a nonempty {grid_field}")
    if cfg.experiment in ("histogram", "speedup"):
        n = round(cfg.t_end / cfg.dt)
        if n < 1 or abs(n * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
            raise MalformedConfigError(
                f"t_end {cfg.t_end} is not a positive multiple of dt {cfg.dt}"
            )
    if cfg.velocity_bins < 1 or cfg.bootstrap_reps < 1 or cfg.timing_reps < 1:
        raise MalformedConfigError("bin and repetition counts must be >= 1")
    if cfg.histogram_hi <= cfg.histogram_lo or cfg.histogram_bins < 1:
        raise MalformedConfigError("bad histogram range")
    if cfg.quadrature_points < 64 or cfg.quadrature_points % 2:
        raise MalformedConfigError("quadrature_points must be even and >= 64")
    return cfg


def config_from_dict(doc):
    """Validate a raw mapping into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise MalformedConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELD_TYPES))
    if unknown:
        raise UnknownKeyError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("experiment", "seed"):
        if required not in doc or doc[required] is None:
            raise MissingFieldError(f"config is missing required field '{required}'")
    values = {key: _coerce(key, value) for key, value in doc.items()}
    experiment = values["experiment"]
    if experiment in _DEFAULT_PARTICLES:
        values.setdefault("particles", _DEFAULT_PARTICLES[experiment])
    if experiment == "single-step-low":
        values.setdefault("dt_grid", tuple(_LOG_DT_GRID))
        values.setdefault("u", 1.0)
    elif experiment == "single-step-high":
        values.setdefault("collisionality_grid", tuple(_COLLISIONALITY_GRID))
    elif experiment == "speedup":
        values.setdefault("collisionality_grid", tuple(_SPEEDUP_GRID))
    return _validate(ExperimentConfig(**values))


def format_csv_value(value):
    """Full-precision, round-trippable text for one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # shortest round-trip form; repr of a bare numpy scalar carries a
        # type wrapper
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def emit_csv(rows, path, header):
    """Write rows (sequences matching header) deterministically and
    atomically: the file at `path` is either the old one or the whole new
    one."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(format_csv_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    # write a sibling file and rename it over the target, so a failed write
    # leaves the target as it was: absent, or the previous complete CSV
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise UnwritablePathError(f"cannot write output {path}: {exc}") from exc
