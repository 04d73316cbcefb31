"""Kinetic-diffusion Monte Carlo for the Boltzmann-BGK velocity-jump process.

A particle simulation toolkit: the reference kinetic (velocity-jump)
scheme, the asymptotic-preserving kinetic-diffusion hybrid, the limiting
random walk, closed-form moments of the positional increments, error-bound
evaluators, Wasserstein-1 validation metrics, and an experiment harness.
"""

from .config import ExperimentConfig, config_from_dict, emit_csv
from .core import (
    BackgroundParams,
    ParticleState,
    RngStream,
    sample_maxwellian,
)
from .experiments import run_experiment
from .kd import (
    KdStepRecord,
    diffusive_substep,
    kd_ensemble,
    random_walk_ensemble,
    simulate_kd,
    simulate_random_walk,
)
from .kinetic import KineticStepRecord, kinetic_ensemble, sample_collision_time, simulate_kinetic
from .metrics import HistogramSpec, fit_order, w1_sorted
from .moments import (
    bound_high_collisional,
    bound_low_conditioned,
    final_flight_moments,
    mean_unconditioned,
    var_unconditioned,
    verify_paper_constants,
)
from .oracles import conditioned_increment_ensemble

__version__ = "0.1.0"

__all__ = [
    "BackgroundParams",
    "ExperimentConfig",
    "HistogramSpec",
    "KdStepRecord",
    "KineticStepRecord",
    "ParticleState",
    "RngStream",
    "bound_high_collisional",
    "bound_low_conditioned",
    "conditioned_increment_ensemble",
    "config_from_dict",
    "diffusive_substep",
    "emit_csv",
    "final_flight_moments",
    "fit_order",
    "kd_ensemble",
    "kinetic_ensemble",
    "mean_unconditioned",
    "random_walk_ensemble",
    "run_experiment",
    "sample_collision_time",
    "sample_maxwellian",
    "simulate_kd",
    "simulate_kinetic",
    "simulate_random_walk",
    "var_unconditioned",
    "verify_paper_constants",
    "w1_sorted",
]
