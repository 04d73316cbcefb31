"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` in a fresh process per seed, one after another, for
the `run_seconds` of BENCHMARK.json. For each metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the interquartile
range as a share of the median, next to the metric's bound. This is how a
baseline is taken and how the benchmark's own steadiness is checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(json.dumps({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "bound": bounds.get(name),
            "values": values,
        }
    out = {"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
           "run_seconds": bench["run_seconds"], "all_correct": all(r["correct"] for r in runs),
           "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:48s} median {s['median']:.6g}  spread {spread}  bound {s['bound']}")
    return 0 if out["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
