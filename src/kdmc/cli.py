"""Command-line entry point.

    kdmc <experiment> --config <path> [--particles N] [--seed S]
         [--out PATH] [--threads K]

Flags override config fields. Exit codes: 0 success, 2 malformed config,
3 missing required field, 4 unknown config key, 5 unwritable output path,
6 runtime failure, 7 self-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    EXPERIMENTS,
    ConfigError,
    MalformedConfigError,
    UnwritablePathError,
    config_from_dict,
)

EXIT_RUNTIME = 6
EXIT_CHECK = 7


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kdmc",
        description="Kinetic-diffusion Monte Carlo experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--particles", type=int, help="override particle count")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument("--out", help="override output CSV path")
    parser.add_argument("--threads", type=int, help="override worker thread count")
    return parser


def _load_document(args):
    import json

    doc = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise MalformedConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MalformedConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedConfigError("config document must be a JSON object")
        if "experiment" in doc and doc["experiment"] != args.experiment:
            raise MalformedConfigError(
                f"config experiment '{doc.get('experiment')}' does not match "
                f"requested '{args.experiment}'"
            )
    doc["experiment"] = args.experiment
    for key in ("particles", "seed", "out", "threads"):
        value = getattr(args, key)
        if value is not None:
            doc[key] = value
    return doc


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_dict(_load_document(args))
    except ConfigError as exc:
        print(f"kdmc: config error: {exc}", file=sys.stderr)
        return exc.exit_code

    from .experiments import run_experiment

    out_path = config.out if config.out is not None else f"{config.experiment}.csv"
    out_dir = os.path.dirname(out_path) or "."
    # fail before any compute if no file can be created at the output path
    if os.path.isdir(out_path) or not os.access(out_dir, os.W_OK | os.X_OK):
        print(f"kdmc: cannot write output {out_path}", file=sys.stderr)
        return UnwritablePathError.exit_code
    try:
        result = run_experiment(config)
        result.write(out_path)
    except UnwritablePathError as exc:
        print(f"kdmc: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - distinct runtime exit code is contractual
        print(f"kdmc: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"kdmc: wrote {out_path} ({len(result.rows)} rows)")
    if result.ok is False:
        print(f"kdmc: check failed: {result.message}", file=sys.stderr)
        return EXIT_CHECK
    if result.ok:
        print(f"kdmc: {result.message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
