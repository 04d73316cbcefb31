"""The benchmark's workloads: one kdmc CLI experiment each, built from the
workload seed. Every workload runs in one process with at most 2 threads.
Why each was chosen is stated in BENCHMARK.json and perfbench/README.md."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: dict

    def document(self, seed, particles=None):
        """The JSON config the CLI reads; `particles` shrinks it for self-tests."""
        doc = dict(self.config, experiment=self.experiment, seed=seed)
        if particles is not None:
            doc["particles"] = particles
        return doc


WORKLOADS = {
    "kinetic-stiff": Workload(
        "speedup",
        {"particles": 50_000, "sigma": 1.0, "u": 0.0, "temperature": 1.0, "dt": 1.0,
         "t_end": 1.0, "collisionality_grid": [10.0, 100.0, 1000.0], "measure_time": False,
         "threads": 1},
    ),
    "kd-multistep": Workload(
        "histogram",
        {"particles": 100_000, "sigma": 1.0, "u": 0.0, "temperature": 1.0,
         "eps_list": [0.1, 0.3, 1.0], "dt": 0.01, "t_end": 1.0, "histogram_lo": -15.0,
         "histogram_hi": 15.0, "histogram_bins": 100, "threads": 1},
    ),
    "lowcoll-rejection": Workload(
        "single-step-low",
        # the physics of configs/single_step_low.json, at 100,000 accepted paths
        {"particles": 100_000, "sigma": 1.0, "u": 1.0, "temperature": 1.0, "eps": 1.0,
         "v0": 2.0, "dt_grid": [0.01, 0.0178, 0.0316, 0.0562, 0.1, 0.178, 0.316, 0.562, 1.0],
         "velocity_bins": 64, "threads": 1},
    ),
    "moments-gate": Workload(
        "moments-check",
        {"particles": 131_072, "dt": 1.0, "threads": 2},
    ),
}
