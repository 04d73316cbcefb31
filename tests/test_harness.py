import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kdmc import BackgroundParams, RngStream, sample_maxwellian
from kdmc import config as config_module
from kdmc import experiments as experiments_module
from kdmc import oracles as oracles_module
from kdmc.config import (
    EXPERIMENTS,
    ExperimentConfig,
    MalformedConfigError,
    MissingFieldError,
    UnknownKeyError,
    UnwritablePathError,
    config_from_dict,
    emit_csv,
    format_csv_value,
)
from kdmc.core import normal_from_counter, uniform_open_closed
from kdmc.experiments import run_experiment
from kdmc.kinetic import kinetic_ensemble
from kdmc.moments import conditioned_mean_var
from kdmc.oracles import conditioned_increment_ensemble, sample_moments
from kdmc import cli
from conftest import ROUND_ZERO_POPULATIONS, round_zero_inputs, same_bits
from test_golden import MULTISTEP


class TestConfig:
    def test_minimal_histogram_round_trip(self, tmp_path):
        cfg = config_from_dict({"experiment": "histogram", "seed": 1})
        assert cfg.particles == 100_000
        assert cfg.eps_list == (0.1, 1.0, 10.0)
        text = json.dumps(dataclasses.asdict(cfg))
        assert config_from_dict(json.loads(text)) == cfg
        path = tmp_path / "h.json"
        path.write_text(text)
        args = cli.build_parser().parse_args(["histogram", "--config", str(path)])
        assert config_from_dict(cli._load_document(args)) == cfg

    def test_missing_seed_rejected(self):
        with pytest.raises(MissingFieldError):
            config_from_dict({"experiment": "histogram"})

    def test_missing_experiment_rejected(self):
        with pytest.raises(MissingFieldError):
            config_from_dict({"seed": 1})

    def test_unknown_key_rejected(self):
        for key in ("particels", "v_final_std"):  # a typo, and a removed field
            with pytest.raises(UnknownKeyError):
                config_from_dict({"experiment": "single-step-high", "seed": 1, key: 10})

    @pytest.mark.parametrize(
        "patch",
        [
            {"experiment": "bogus"},
            {"particles": 0},
            {"particles": 2.5},
            {"sigma": -1.0},
            {"threads": 0},
            {"seed": "one"},
            {"dt_grid": [0.1, "x"]},
            {"eps_list": []},
            {"t_end": 1.5},  # not a multiple of dt for a stepping experiment
        ],
    )
    def test_bad_values_rejected(self, patch):
        doc = {"experiment": "histogram", "seed": 1}
        doc.update(patch)
        with pytest.raises(MalformedConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed, tmp_path):
        with pytest.raises(MalformedConfigError):
            config_from_dict({"experiment": "histogram", "seed": seed})
        out = tmp_path / "h.csv"
        argv = ["histogram", "--seed", str(seed), "--particles", "100", "--out", str(out)]
        assert cli.main(argv) == MalformedConfigError.exit_code
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_bounds_accepted(self, seed, tmp_path):
        cfg = small_config("histogram", tmp_path, seed=seed, particles=200)
        assert cfg.seed == seed
        run_experiment(cfg).write(cfg.out)
        assert len(Path(cfg.out).read_text().splitlines()) > 1

    def test_defaults_follow_experiment(self):
        low = config_from_dict({"experiment": "single-step-low", "seed": 2})
        assert low.u == 1.0 and low.particles == 200_000
        assert low.dt_grid[0] == 0.01 and low.dt_grid[-1] == 1.0
        high = config_from_dict({"experiment": "single-step-high", "seed": 2})
        assert high.u == 0.0 and high.particles == 400_000
        speedup = config_from_dict({"experiment": "speedup", "seed": 2})
        assert speedup.collisionality_grid == (0.01, 1.0, 10.0, 100.0, 1000.0)

    def test_every_experiment_has_a_runner(self):
        assert set(experiments_module._RUNNERS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_field_type_checked(self, field):
        # a field takes JSON values of its own kind only (a float field takes
        # an integer too), and null only if it defaults to None; a null
        # experiment or seed counts as missing (exit 3)
        kind = {"experiment": str, "seed": int, "out": str}.get(field.name, type(field.default))
        samples = {str: "x", int: 3, float: 2.5, bool: True, tuple: [1.0], dict: {"x": 1}}
        wrong = [v for k, v in samples.items() if k is not kind and (k, kind) != (int, float)]
        if field.default is not None and field.name not in ("experiment", "seed"):
            wrong.append(None)
        for value in wrong:
            with pytest.raises(MalformedConfigError) as err:
                config_from_dict({"experiment": "histogram", "seed": 1, field.name: value})
            assert err.value.exit_code == 2, value

    def test_malformed_json_file(self, tmp_path):
        out = tmp_path / "h.csv"
        for name, text in (("bad.json", "{not json"), ("list.json", "[1, 2]")):
            path = tmp_path / name
            path.write_text(text)
            argv = ["histogram", "--config", str(path), "--out", str(out)]
            assert cli.main(argv) == MalformedConfigError.exit_code
        argv = ["histogram", "--config", str(tmp_path / "absent.json"), "--out", str(out)]
        assert cli.main(argv) == MalformedConfigError.exit_code
        assert not out.exists()


class TestCsv:
    def test_full_precision_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # classic non-representable sum
        path = tmp_path / "out.csv"
        emit_csv([(value, 1, "x", None, True)], path, ("a", "b", "c", "d", "e"))
        text = path.read_text()
        assert text.splitlines()[0] == "a,b,c,d,e"
        cell = text.splitlines()[1].split(",")[0]
        assert float(cell) == value
        assert text.splitlines()[1].endswith("x,,true")

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([(1.0,)], tmp_path / "w.csv", ("a", "b"))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(UnwritablePathError):
            emit_csv([(1.0,)], tmp_path / "nodir" / "out.csv", ("a",))

    def test_failed_write_keeps_existing_output(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        emit_csv([(1.0,)], path, ("a",))
        before = path.read_bytes()

        def open_then_fail(file, mode="r", *args, **kwargs):
            # a device that fills up after the first bytes of the write
            fh = open(file, mode, *args, **kwargs)
            if "w" in mode:
                fh.write("a\n2.")
                fh.close()
                raise OSError(28, "No space left on device")
            return fh

        monkeypatch.setattr(config_module, "open", open_then_fail, raising=False)
        with pytest.raises(UnwritablePathError):
            emit_csv([(2.0,)] * 10, path, ("a",))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_format_values(self):
        assert format_csv_value(1.5) == "1.5"
        assert format_csv_value(True) == "true"
        assert format_csv_value(None) == ""
        assert format_csv_value(7) == "7"


class TestOracle:
    def test_deterministic_flight_surrogate(self):
        # vanishing collisionality: the whole step flies at the pinned value
        p = BackgroundParams(1e-12, 0.0, 1.0, 1.0)
        res = sample_moments(conditioned_increment_ensemble(p, 0.5, 2.0, n=10_000, seed=1))
        assert res.mean == pytest.approx(1.0, abs=1e-12)
        assert res.variance == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_forms(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        res = sample_moments(conditioned_increment_ensemble(p, 1.0, 1.0, n=200_000, seed=7))
        mean, var = conditioned_mean_var(p, 1.0, 1.0)
        assert abs(res.mean - mean) <= 4 * res.se_mean
        assert abs(res.variance - var) <= 4 * res.se_variance

    @pytest.mark.parametrize("durations", [math.nan, math.inf, -0.5, [1.0, math.nan, 0.5],
                                           [1.0, 1.0, 1.0], np.full(3, 0.5), np.ones(1)])
    def test_rejects_bad_durations(self, monkeypatch, durations):
        # one finite value >= 0 for all paths, checked before any chunk runs
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle started before its duration was checked")

        monkeypatch.setattr(oracles_module, "lockstep", refuse)
        monkeypatch.setattr(oracles_module, "map_chunked", refuse)
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^duration must be finite, >= 0 and one value"):
            conditioned_increment_ensemble(p, durations, 0.5, n=3, seed=1)

    def test_chunking_and_threads_bit_identical(self):
        p = BackgroundParams(1.0, 0.3, 1.0, 0.5)
        n = 3000
        rng = np.random.default_rng(5)
        v_final = rng.normal(size=n)
        ctr0 = rng.integers(0, 2**62, n, dtype=np.uint64)
        kwargs = dict(n=n, seed=4, stream_lo=11, ctr0=ctr0)
        # the compiled draws run outside the GIL, so chunks draw concurrently;
        # more threads than cores and a short switch interval interleave them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for duration in (0.0, 0.7, 2.0):
                ref = conditioned_increment_ensemble(p, duration, v_final, **kwargs)
                for threads in (1, 2, 4):
                    got = conditioned_increment_ensemble(
                        p, duration, v_final, threads=threads, chunk=7, **kwargs)
                    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("duration,least,most", ROUND_ZERO_POPULATIONS)
    def test_round_zero_finishers(self, duration, least, most):
        p, _, v_final, ctr0 = round_zero_inputs()
        kwargs = dict(n=len(v_final), seed=12, stream_lo=7, ctr0=ctr0)
        dx = conditioned_increment_ensemble(p, duration, v_final, **kwargs)
        for threads in (1, 2):
            got = conditioned_increment_ensemble(p, duration, v_final, threads=threads, chunk=7,
                                                 **kwargs)
            assert same_bits(got, dx)
        collided = 0
        for i, vf in enumerate(v_final):
            rng_i = RngStream(12, 7 + i, counter=int(ctr0[i]))
            ref, collisions = scalar_conditioned_increment(p, duration, vf, rng_i)
            assert ref == dx[i]
            collided += collisions > 0
        assert least <= collided <= most


def scalar_conditioned_increment(params, duration, v_final, rng):
    """One oracle path, particle by particle: each flight moves at the
    Maxwellian drawn at the collision that ends it, the last one at v_final.
    Returns (increment, collisions)."""
    x, rem, collisions = 0.0, duration, 0
    while True:
        dtau = rng.exponential() * (params.eps * params.eps / params.sigma)
        if dtau >= rem:
            return x + (v_final / params.eps) * rem, collisions
        x = x + (sample_maxwellian(params, rng) / params.eps) * dtau
        rem = rem - dtau
        collisions += 1


def small_config(experiment, tmp_path, **extra):
    doc = {"experiment": experiment, "seed": 20, "out": str(tmp_path / f"{experiment}.csv")}
    doc.update(extra)
    return config_from_dict(doc)


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment,extra",
        [
            ("histogram", dict(particles=4000)),
            ("single-step-low", dict(particles=4000, dt_grid=[0.1, 0.5, 1.0])),
            # 70,000 particles make two chunks, 65,536 + 4,464, so threads=3
            # runs them on two threads: here the oracle's increments and the
            # kinetic and KD collision totals, below the moments' ensembles
            # and 100 KD and random-walk steps
            ("single-step-high", dict(particles=70_000, collisionality_grid=[4.0, 25.0],
                                      bootstrap_reps=4)),
            ("speedup", dict(particles=70_000, collisionality_grid=[1.0, 10.0],
                             measure_time=False)),
            ("constants-check", dict()),
            # about 115k candidates at dt = 0.01: more than one 2**16 slice
            # of the rejection sampler at 1 thread, one 3 << 16 slice at 3
            ("single-step-low", dict(particles=1000, dt_grid=[0.01, 0.1])),
            ("moments-check", dict(particles=70_000)),
            ("histogram", dict(particles=70_000, **MULTISTEP[1])),
        ],
    )
    def test_replay_and_threads_byte_identical(self, tmp_path, experiment, extra):
        cfg1 = small_config(experiment, tmp_path, **extra)
        res1 = run_experiment(cfg1)
        res1.write(cfg1.out)
        first = Path(cfg1.out).read_bytes()
        res2 = run_experiment(cfg1)
        res2.write(cfg1.out)
        assert Path(cfg1.out).read_bytes() == first
        threaded = dataclasses.replace(cfg1, threads=3)
        res3 = run_experiment(threaded)
        res3.write(cfg1.out)
        assert Path(cfg1.out).read_bytes() == first


class TestGridMemory:
    @pytest.mark.parametrize("experiment,grid,point", [("single-step-low", "dt_grid", 0.1),
                                                       ("histogram", "eps_list", 1.0)])
    def test_one_grid_point_alive_at_a_time(self, tmp_path, experiment, grid, point):
        # a grid point's arrays die before the next point starts, so three
        # equal points peak as high as one
        def peak(points):
            cfg = small_config(experiment, tmp_path, particles=20_000, **{grid: [point] * points})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) <= 1.05 * peak(1)


class TestEnsembleMemory:
    @pytest.mark.parametrize("name", ["kinetic-x-only", "oracle-scalar"])
    def test_peak_within_six_n_doubles(self, name):
        # at 1 thread and collisionality 100 nearly every particle collides
        # again and again; an ensemble that records x alone, or the oracle on
        # one duration and one final velocity, peaks at no more than 6 n doubles
        n = 1 << 17
        p = BackgroundParams(1.0, 0.5, 1.0, 0.1)  # sigma dt / eps^2 = 100 at dt = 1
        x0, v0 = np.zeros(n), np.ones(n)
        tracemalloc.start()
        try:
            if name == "kinetic-x-only":
                kinetic_ensemble(p, x0, v0, 1.0, 3, out=(np.empty(n),))
            else:
                conditioned_increment_ensemble(p, 1.0, 0.5, n=n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * n, peak / (8 * n)


class TestSources:
    def test_maxwellian_draws_into_its_output(self):
        # 2**17 velocities peak at little more than their one n-sized result;
        # drawn through stream ids, keys and a counter column they took 4 n
        n, lo, p = 1 << 17, 2**64 - (1 << 17), BackgroundParams(1.0, 0.5, 2.0, 0.1)
        tracemalloc.start()
        try:
            v = experiments_module._maxwellian(p, 7, lo, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n, peak / (8 * n)
        z = normal_from_counter(7, np.uint64(lo) + np.arange(n, dtype=np.uint64), np.uint64(0))
        assert same_bits(v, p.eps * p.u + math.sqrt(p.temperature) * z)

    def test_bimodal_source_keeps_the_bits(self):
        n, lo = 1000, 5 << 40
        x0, v0 = experiments_module._bimodal_source(n, 7, lo)
        streams = lo + np.arange(n, dtype=np.uint64)
        sign = np.where(uniform_open_closed(7, streams, np.uint64(0)) <= 0.5, -10.0, 10.0)
        assert same_bits(x0, np.zeros(n))
        assert same_bits(v0, sign + normal_from_counter(7, streams, np.uint64(1)))


class TestCli:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = cli.main(["constants-check", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = out.read_text().splitlines()
        assert text[0] == "name,computed,target,tolerance,ok,note"
        assert len(text) == 4

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "histogram", "seed": 1, "particles": 2000}))
        out = tmp_path / "h.csv"
        code = cli.main(
            ["histogram", "--config", str(cfg_path), "--particles", "1000",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_exit_codes_distinct(self, monkeypatch, tmp_path):
        from kdmc import experiments as exps

        # malformed document -> 2
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert cli.main(["histogram", "--config", str(bad)]) == 2
        # experiment mismatch -> 2
        mism = tmp_path / "m.json"
        mism.write_text(json.dumps({"experiment": "speedup", "seed": 1}))
        assert cli.main(["histogram", "--config", str(mism)]) == 2
        # missing seed -> 3
        noseed = tmp_path / "n.json"
        noseed.write_text(json.dumps({"experiment": "histogram"}))
        assert cli.main(["histogram", "--config", str(noseed)]) == 3
        # unknown key -> 4
        unk = tmp_path / "u.json"
        unk.write_text(json.dumps({"experiment": "histogram", "seed": 1, "bogus": 2}))
        assert cli.main(["histogram", "--config", str(unk)]) == 4
        # unwritable output path -> 5, found before any compute starts
        def no_compute(config):
            raise AssertionError("the experiment ran before the output path was checked")

        monkeypatch.setattr(exps, "run_experiment", no_compute)
        for out in (tmp_path / "no" / "x.csv", tmp_path):
            assert cli.main(["constants-check", "--seed", "1", "--out", str(out)]) == 5

    def test_particles_beyond_a_stream_window_fail_first(self, monkeypatch, tmp_path):
        from kdmc import experiments as exps

        # more particles than the 2**34 streams of one grid point would
        # overlap the next point's streams: exit 2 before any compute
        def no_compute(config):
            raise AssertionError("the experiment ran before particles were checked")

        monkeypatch.setattr(exps, "run_experiment", no_compute)
        out = str(tmp_path / "x.csv")
        for experiment in EXPERIMENTS:
            argv = [experiment, "--seed", "1", "--out", out, "--particles"]
            assert cli.main([*argv, str(2**34 + 1)]) == 2
            assert cli.main([*argv, str(2**34)]) == cli.EXIT_RUNTIME  # valid: it reaches the run
        with pytest.raises(MalformedConfigError, match="at most"):
            config_from_dict({"experiment": "histogram", "seed": 1, "particles": 2**40})

    def test_threads_beyond_the_cap_fail_first(self, monkeypatch, tmp_path):
        import concurrent.futures

        from kdmc import experiments as exps

        # a thread count past the cap exits 2 before any pool or compute starts
        def refuse(*args, **kwargs):
            raise AssertionError("a pool or the experiment started before threads were checked")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(exps, "run_experiment", refuse)
        out = str(tmp_path / "x.csv")
        assert cli.main(["histogram", "--seed", "1", "--out", out, "--threads", "65"]) == 2
        with pytest.raises(MalformedConfigError, match="threads"):
            config_from_dict({"experiment": "histogram", "seed": 1, "threads": 65})
        assert config_from_dict({"experiment": "histogram", "seed": 1, "threads": 64}).threads == 64

    def test_self_check_failure_exit_code(self, monkeypatch, tmp_path):
        from kdmc import experiments as exps

        def fake(config):
            return exps.ExperimentResult(("a",), [(1.0,)], ok=False, message="forced")

        monkeypatch.setattr(exps, "run_experiment", fake)
        code = cli.main(["constants-check", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 7

    def test_rejection_stays_in_its_stream_window(self, monkeypatch, tmp_path):
        from kdmc import experiments as exps

        # about 1% of candidates collide at dt = 0.01, so 50 paths need
        # about 5000 candidate streams
        cfg = tmp_path / "low.json"
        cfg.write_text(json.dumps({"experiment": "single-step-low", "seed": 1, "particles": 50,
                                   "dt_grid": [0.01], "velocity_bins": 4}))

        def run(stride):
            monkeypatch.setattr(exps, "_POINT_STRIDE", stride)
            out = tmp_path / f"low{stride}.csv"
            return cli.main(["single-step-low", "--config", str(cfg), "--out", str(out)]), out

        code, wide = run(1 << 34)
        assert code == 0
        # a window that cuts the first batch short still yields the same paths
        code, clipped = run(5500)
        assert code == 0 and clipped.read_bytes() == wide.read_bytes()
        code, out = run(1000)
        assert code == cli.EXIT_RUNTIME and not out.exists()

    def test_console_script_subprocess(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "kdmc.cli", "constants-check", "--seed", "3",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
