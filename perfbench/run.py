"""kdmc end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each iteration calls `kdmc.cli.main` in
this process on a config file generated from the workload seed, so argument
parsing, config validation, the experiment and the CSV write are all timed.
The loop is closed: one client, iterations back to back for about
`--seconds` (and at least three). The first iteration is cold, as every CLI
run is, and is timed like the rest; it also counts the simulated paths and
sets the reference digest. With `--trace 1` traced and untraced iterations
alternate and the per-layer metrics are reported instead of the end-to-end
ones.

An iteration fails on a nonzero exit code, an exception, or a CSV whose
sha256 differs from the reference: the golden digest in golden.json at the
golden seed, otherwise the digest of the run's first iteration. The last
line of standard output is the result as JSON; the line before it is the
run record (machine, versions, source, samples per metric). Outputs go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    COUNT_METRICS, ENSEMBLE_SITES, Tracer, layer_metrics, paths, span_records)
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_TIMED = 3
SETUP_PROBES = 3


def _benchmark():
    """BENCHMARK.json: workload reasons and metric units are declared there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def probe_setup(count):
    """Seconds to import kdmc and kdmc.cli in each of `count` fresh
    interpreters, after one unmeasured import that compiles the bytecode."""
    code = ("import time; t = time.perf_counter(); import kdmc, kdmc.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(count + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def _digest(path):
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, None, 0
    lines = data.decode("utf-8", "replace").splitlines()
    return hashlib.sha256(data).hexdigest(), lines[0] if lines else "", len(lines) - 1


def iterate(experiment, cfg_path, csv_path, tracer=None):
    """One CLI run; the timed region is the `kdmc.cli.main` call alone."""
    import kdmc.cli

    argv = [experiment, "--config", str(cfg_path), "--out", str(csv_path)]
    csv_path.unlink(missing_ok=True)
    log = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
    try:
        with redirect_stdout(log), redirect_stderr(log):
            t0, c0 = perf_counter(), process_time()
            try:
                rc = kdmc.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - an exception fails the iteration, not the run
                rc, error = None, traceback.format_exc()
            wall, cpu = perf_counter() - t0, process_time() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    sha, header, rows = _digest(csv_path)
    return {"wall_s": wall, "cpu_s": cpu, "rc": rc,
            "sha256": sha, "header": header, "rows": rows, "error": error,
            "log": log.getvalue()[-2000:]}


def _judge(it, reference, golden):
    shape_ok = golden is None or (it["header"], it["rows"]) == (golden["header"], golden["rows"])
    it["ok"] = it["rc"] == 0 and it["error"] is None and it["sha256"] == reference and shape_ok
    return it["ok"]


def summary(values):
    """Median, quartiles, extremes, and the highest percentile with at least
    ten samples above it when there are enough samples for one past 50."""
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n > 1 else (s[0], None, s[0])
    out = {"n": n, "median": statistics.median(s), "q1": q1, "q3": q3, "min": s[0], "max": s[-1]}
    p = math.floor(100 * (n - 10) / n)
    out["tail"] = {"percentile": p, "value": s[n - 11]} if p > 50 else None
    return out


def _machine():
    import numpy
    import scipy

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _source():
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "kdmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_kdmc_sha256": h.hexdigest()}


def measure(name, seed, seconds, trace, golden, particles=None, out_dir=None,
            setup_probes=SETUP_PROBES):
    """Run one workload; returns (result JSON, run record).

    `golden` holds the workload's golden digest, seed, header and row count;
    `particles` shrinks the workload for self-tests."""
    workload = WORKLOADS[name]
    bench = _benchmark()
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out_dir = out_dir or HERE / "out" / f"{name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path, csv_path = out_dir / "config.json", out_dir / "out.csv"
    cfg_path.write_text(json.dumps(workload.document(seed, particles), indent=2) + "\n")
    golden_sha = golden["sha256"] if golden and golden["seed"] == seed else None

    setup = [] if trace else probe_setup(setup_probes)
    iterations, traces = [], []

    def run(tracer, traced):
        it = iterate(workload.experiment, cfg_path, csv_path, tracer)
        it["traced"] = traced
        iterations.append(it)
        if traced:
            traces.append((tracer.spans, it["wall_s"]))

    # the first iteration is cold, as every CLI run is; it counts the paths
    # at the four ensemble entry points, a few dozen calls
    counter = Tracer(ENSEMBLE_SITES)
    start = perf_counter()
    run(counter, traced=False)
    path_count = paths(counter.spans)
    reference = golden_sha or iterations[0]["sha256"]
    while True:
        timed = [it for it in iterations if not it["traced"]]
        traced = [it for it in iterations if it["traced"]]
        enough = bool(timed and traced) if trace else len(timed) >= MIN_TIMED
        # stop where the next iteration would end further past the deadline
        # than the run already is short of it
        typical = statistics.median(it["wall_s"] for it in iterations)
        if enough and perf_counter() - start + typical / 2 >= seconds:
            break
        full = trace and len(traced) < len(timed)
        run(Tracer() if full else None, traced=full)

    failed = sum(not _judge(it, reference, golden) for it in iterations)
    attempted = len(iterations)
    walls = [it["wall_s"] for it in timed]
    record = {
        "workload": name, "why": whys[name], "seed": seed, "seconds": seconds,
        "trace": int(trace), "particles_override": particles,
        "machine": _machine(), "source": _source(),
        "reference": "golden" if golden_sha else "first iteration",
        "reference_sha256": reference, "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted, "paths_per_iteration": path_count,
        "wall_s": summary(walls), "cpu_s": summary([it["cpu_s"] for it in timed]),
        "iterations": [{k: it[k] for k in ("traced", "wall_s", "cpu_s", "rc", "sha256", "ok")}
                       for it in iterations],
        "failures": [{k: it[k] for k in ("rc", "sha256", "error", "log")}
                     for it in iterations if not it["ok"]][:3],
    }
    correct = failed == 0
    if trace:
        per_iteration = [layer_metrics(spans, wall) for spans, wall in traces]
        mismatched = [k for k in COUNT_METRICS if len({m[k] for m in per_iteration}) > 1]
        metrics = {k: v if k in COUNT_METRICS else statistics.median(m[k] for m in per_iteration)
                   for k, v in per_iteration[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                       - statistics.median(walls))
        record["traced_wall_s"] = summary([it["wall_s"] for it in traced])
        record["count_mismatches"] = mismatched
        correct = correct and not mismatched
        record["samples"] = {k: len(per_iteration) for k in metrics}
    else:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(it["cpu_s"] for it in timed),
            "paths_per_s": path_count / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
            "ok_fraction": 1 - failed / attempted,
        }
        record["setup_s"] = summary(setup)
        record["samples"] = {"wall_s": len(walls), "cpu_s": len(walls), "paths_per_s": len(walls),
                             "peak_rss_mb": 1, "setup_s": len(setup), "ok_fraction": attempted}
    record["metrics"] = metrics
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if traces:
        (out_dir / "trace.json").write_text(json.dumps(
            [{"wall_s": wall, "spans": span_records(spans)} for spans, wall in traces]))
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kdmc" / "__init__.py").is_file():
        print(f"perfbench: no kdmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kdmc

    if Path(kdmc.__file__).resolve().parent != SRC / "kdmc":
        print(f"perfbench: imported kdmc from {kdmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    print(json.dumps({k: record[k] for k in record if k not in ("iterations", "metrics")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
