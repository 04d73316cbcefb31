"""Experiment configuration (JSON document) and CSV emission.

Configs are flat JSON objects. Unknown keys are rejected rather than
silently absorbed, and a seed is mandatory: reproducibility is part of the
contract, so there is no entropy default. Each failure mode carries its own
exit code for the CLI.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import typing
from dataclasses import dataclass, fields

import numpy as np

from .core import step_count

__all__ = [
    "ConfigError",
    "MalformedConfigError",
    "MissingFieldError",
    "UnknownKeyError",
    "UnwritablePathError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "config_from_dict",
    "format_csv_value",
    "emit_csv",
]


_POINT_STRIDE = 1 << 34  # grid point i draws from streams [i, i + 1) * _POINT_STRIDE
# a fixed cap, not the machine's core count, so a config's validity is portable
_MAX_THREADS = 64


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


# each experiment's swept grid field (None if it sweeps none) and its
# defaults over those of ExperimentConfig
_EXPERIMENTS = {
    "single-step-low": ("dt_grid", {
        "particles": 200_000,
        "u": 1.0,
        "dt_grid": (0.01, 0.0178, 0.0316, 0.0562, 0.1, 0.178, 0.316, 0.562, 1.0),
    }),
    "single-step-high": ("collisionality_grid", {
        "particles": 400_000,
        "collisionality_grid": (2.5, 4.0, 6.3, 10.0, 15.8, 25.0, 63.0, 158.0, 398.0, 1000.0),
    }),
    "histogram": ("eps_list", {"particles": 100_000}),
    "speedup": ("collisionality_grid", {
        "particles": 50_000,
        "collisionality_grid": (0.01, 1.0, 10.0, 100.0, 1000.0),
    }),
    "moments-check": (None, {"particles": 1_000_000}),
    "constants-check": (None, {"particles": 0}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run; its annotations are
    the config schema (`X | None` is nullable, `tuple` a list of numbers)."""

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
    velocity_bins: int = 64
    bootstrap_reps: int = 16
    histogram_lo: float = -15.0
    histogram_hi: float = 15.0
    histogram_bins: int = 100
    measure_time: bool = True
    timing_reps: int = 5
    quadrature_points: int = 4096


_HINTS = typing.get_type_hints(ExperimentConfig)
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _coerce(key, value):
    hint = _HINTS[key]
    # `X | None` is a nullable X: its args are X and NoneType
    args = typing.get_args(hint)
    if value is None:
        if type(None) in args:
            return None
        raise MalformedConfigError(f"field '{key}' must not be null")
    want = args[0] if args else hint
    if want is tuple:
        if not isinstance(value, list):
            raise MalformedConfigError(f"field '{key}' must be a list, got {value!r}")
        return tuple(_scalar(key, float, item) for item in value)
    return _scalar(key, want, value)


def _scalar(key, want, value):
    # JSON true and false are bools, a subclass of int: an int or a float
    # field takes no bool, and a float field takes an int
    if not isinstance(value, (int, float) if want is float else want) or (
        isinstance(value, bool) and want is not bool
    ):
        raise MalformedConfigError(f"field '{key}' must be {_KINDS[want]}, got {value!r}")
    if want is float:
        if not math.isfinite(value):
            raise MalformedConfigError(f"field '{key}' must be finite, got {value!r}")
        return float(value)
    return value


def _validate(cfg):
    if not 0 <= cfg.seed < 2**64:
        # the seed keys a uint64 hash; anything else fails only mid-run
        raise MalformedConfigError(f"seed must be in [0, 2**64), got {cfg.seed}")
    if cfg.experiment != "constants-check" and cfg.particles <= 0:
        raise MalformedConfigError(f"particles must be positive, got {cfg.particles}")
    if cfg.particles > _POINT_STRIDE:  # one stream each, inside one grid point's window
        raise MalformedConfigError(f"particles must be at most {_POINT_STRIDE}, got {cfg.particles}")
    if not 1 <= cfg.threads <= _MAX_THREADS:
        raise MalformedConfigError(f"threads must be in [1, {_MAX_THREADS}], got {cfg.threads}")
    for name in ("sigma", "temperature", "eps", "dt", "t_end"):
        if getattr(cfg, name) <= 0:
            raise MalformedConfigError(f"{name} must be positive")
    for name in ("dt_grid", "collisionality_grid", "eps_list"):
        grid = getattr(cfg, name)
        if any(g <= 0 for g in grid):
            raise MalformedConfigError(f"{name} entries must be positive")
        if list(grid) != sorted(grid):
            raise MalformedConfigError(f"{name} must be sorted ascending")
    grid_field = _EXPERIMENTS[cfg.experiment][0]
    if grid_field and not getattr(cfg, grid_field):
        raise MalformedConfigError(f"{cfg.experiment} needs a nonempty {grid_field}")
    if cfg.experiment in ("histogram", "speedup"):
        try:
            step_count(cfg.t_end, cfg.dt)
        except ValueError as exc:
            raise MalformedConfigError(str(exc)) from exc
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
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise UnknownKeyError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("experiment", "seed"):
        if required not in doc or doc[required] is None:
            raise MissingFieldError(f"config is missing required field '{required}'")
    values = {key: _coerce(key, value) for key, value in doc.items()}
    if values["experiment"] not in _EXPERIMENTS:
        raise MalformedConfigError(
            f"unknown experiment '{values['experiment']}'; choose one of {', '.join(EXPERIMENTS)}"
        )
    defaults = _EXPERIMENTS[values["experiment"]][1]
    return _validate(ExperimentConfig(**{**defaults, **values}))


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
