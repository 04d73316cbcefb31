"""Self-tests of the benchmark at reduced particle counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import COUNT_METRICS, SITES  # noqa: E402

sys.path.insert(0, str(run.SRC))

SMALL = {"kinetic-stiff": 2000, "kd-multistep": 2000, "lowcoll-rejection": 2000,
         "moments-gate": 4000}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _globals():
    import importlib

    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in SITES}


def _names(kind):
    return {m["name"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    before = _globals()
    results = []
    for i in range(2):
        result, record = run.measure(name, 5, 0, True, None, particles=SMALL[name],
                                     out_dir=tmp_path / str(i))
        assert result["correct"], record["failures"]
        assert record["count_mismatches"] == []
        # traced and untraced iterations wrote the same CSV bytes
        kinds = {(it["traced"], it["sha256"]) for it in record["iterations"]}
        assert {k for k, _ in kinds} == {True, False} and len({s for _, s in kinds}) == 1
        assert all(after is before[key] for key, after in _globals().items())
        results.append(result["metrics"])
    for key in COUNT_METRICS:
        assert results[0][key]["value"] == results[1][key]["value"], key
    assert set(results[0]) == _names("per_layer")


def test_changed_golden_digest_makes_iterations_fail(tmp_path):
    name, n = "kinetic-stiff", SMALL["kinetic-stiff"]
    _, record = run.measure(name, 1, 0, False, None, particles=n, out_dir=tmp_path,
                            setup_probes=1)
    lines = (tmp_path / "out.csv").read_text().splitlines()
    golden = {"seed": 1, "sha256": record["reference_sha256"], "header": lines[0],
              "rows": len(lines) - 1}

    result, record = run.measure(name, 1, 0, False, golden, particles=n, out_dir=tmp_path,
                                 setup_probes=1)
    assert result["correct"] and record["failed_fraction"] == 0
    assert set(result["metrics"]) == _names("end_to_end")

    changed = dict(golden, sha256="0" * 64)
    result, record = run.measure(name, 1, 0, False, changed, particles=n, out_dir=tmp_path,
                                 setup_probes=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and record["failed_fraction"] == 1
    assert result["metrics"]["ok_fraction"]["value"] == 0
