"""The compiled draws: bit parity with scipy's ndtri and ndtr and across
optimisation levels, the build on import (compiler errors, concurrent first
builds, cache hits), and a run without scipy."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri

import kdmc
from kdmc import cli, core
from kdmc.core import (
    _draws,
    _load_draws,
    exponential_keyed,
    normal_keyed,
    stream_keys,
    uniform_open_closed,
)
from conftest import same_bits

EXPM2 = math.exp(-2.0)


def c_ndtri(u, lib=_draws):
    x = np.array(u, dtype=np.float64)
    lib.ndtri(x.ctypes.data, x.size)
    return x


def c_ndtr(a, lib=_draws):
    x = np.array(a, dtype=np.float64)
    lib.ndtr(x.ctypes.data, x.size)
    return x


def lattice(k):
    """The uniforms (k + 0.5) 2**-53 of normal_keyed, before rounding."""
    return (np.asarray(k, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53


def neighbours(x, steps=4):
    """x and the `steps` doubles on either side of it."""
    out = [x]
    for direction in (0.0, 1.0):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.array(out)


class TestNdtriParity:
    def test_random_lattice(self):
        k = np.random.default_rng(11).integers(0, 2**53, 1_000_000, dtype=np.uint64)
        u = lattice(k)
        assert same_bits(c_ndtri(u), scipy_ndtri(u))

    def test_lattice_ends(self):
        k = np.arange(2**16, dtype=np.uint64)
        for u in (lattice(k), lattice(np.uint64(2**53 - 1) - k)):
            assert same_bits(c_ndtri(u), scipy_ndtri(u))
        # the top lattice point rounds up to 1, which maps to +inf
        assert c_ndtri([lattice(2**53 - 1)])[0] == np.inf

    def test_branch_points(self):
        # the central interval (e^-2, 1 - e^-2] and the switch of the tail
        # rational at x = sqrt(-2 ln y) = 8, i.e. y = e^-32, on both sides
        y32 = math.exp(-32.0)
        u = np.concatenate([neighbours(EXPM2), neighbours(1.0 - EXPM2), neighbours(y32),
                            neighbours(1.0 - y32), np.linspace(0.5, 2.0, 4001) * y32,
                            [0.0, 1.0, 2.0**-54, 1.0 - 2.0**-54, 2.0**-53, 0.5]])
        assert (u < y32).any() and (u > y32).any()
        assert same_bits(c_ndtri(u), scipy_ndtri(u))


class TestNdtrParity:
    def test_random(self):
        rng = np.random.default_rng(12)
        a = np.concatenate([rng.normal(size=400_000), 5.0 * rng.normal(size=300_000),
                            rng.uniform(-40.0, 40.0, 300_000)])
        assert same_bits(c_ndtr(a), scipy_ndtr(a))

    def test_branch_points(self):
        # on x = a / sqrt 2: erf below |x| = 1/sqrt 2 (|a| = 1), then erfc's
        # switches at x = 1 and x = 8, and its underflow at x^2 > MAXLOG
        maxlog = 7.09782712893383996843e2
        sqrt1_2 = math.sqrt(0.5)
        edges = {1.0: sqrt1_2, math.sqrt(2.0): 1.0, 8.0 * math.sqrt(2.0): 8.0,
                 math.sqrt(2.0 * maxlog): math.sqrt(maxlog)}
        for a, x_switch in edges.items():
            near = neighbours(a, steps=16)
            x = near * sqrt1_2
            below = x * x <= maxlog if x_switch * x_switch == maxlog else x < x_switch
            assert below.any() and not below.all(), a  # the doubles straddle the switch
            near = np.concatenate([near, -near])
            assert same_bits(c_ndtr(near), scipy_ndtr(near)), a

    def test_specials(self):
        tiny = np.finfo(np.float64).tiny
        a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny, -tiny,
                      tiny / 3.0, -tiny / 3.0, 38.0, -38.0, 40.0, -40.0, 1e300, -1e300])
        payload = np.array([0x7FF8000000000123, 0xFFF4000000000001], dtype=np.uint64)
        a = np.concatenate([a, payload.view(np.float64)])
        got = c_ndtr(a)
        assert same_bits(got, scipy_ndtr(a))  # any NaN gives scipy's one NaN
        assert got[2] == 1.0 and got[3] == 0.0 and np.isnan(got[4])

    def test_wrapper_returns_a_new_array(self):
        a = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        view = a.T[::-1]
        before = a.copy()
        got = core.ndtr(view)
        assert got.shape == (4, 3) and same_bits(got, scipy_ndtr(view))
        assert same_bits(a, before)
        assert core.ndtr(0.5) == scipy_ndtr(0.5) and core.ndtr(0.5).ndim == 0


def lib_draws(lib, seed, streams, counters):
    """Stream keys, both uniform maps and the normals of one library build."""
    n = streams.size
    keys = np.empty(n, dtype=np.uint64)
    lib.stream_keys(seed, 0, streams.ctypes.data, keys.ctypes.data, n)
    out = {"keys": keys}
    for offset in (0.5, 1.0):
        out[offset] = np.empty(n)
        lib.uniforms(keys.ctypes.data, 0, 0, counters.ctypes.data, 1, offset,
                     out[offset].ctypes.data, n)
    out["normal"] = c_ndtri(out[0.5], lib)
    out["ndtr"] = c_ndtr(6.0 * out["normal"], lib)  # |a| up to about 55: every branch
    return out


def test_unoptimised_build_matches(tmp_path):
    # an -O0 build rounds every operation as written; any contraction or
    # fast-math reassociation in the cached build would show here
    src = tmp_path / "_draws.c"
    shutil.copy(Path(core.__file__).with_name("_draws.c"), src)
    slow = _load_draws(str(src), flags=("-O0", "-ffp-contract=off"))
    rng = np.random.default_rng(3)
    streams = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    counters = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    want, got = lib_draws(_draws, 19, streams, counters), lib_draws(slow, 19, streams, counters)
    for name in want:
        assert same_bits(got[name], want[name]), name
    # and the public draws are the cached build's
    keys = stream_keys(19, streams)
    assert np.array_equal(keys, want["keys"])
    assert same_bits(normal_keyed(keys, counters), want["normal"])
    assert same_bits(uniform_open_closed(19, streams, counters), want[1.0])
    assert same_bits(core.ndtr(6.0 * want["normal"]), want["ndtr"])
    assert same_bits(want["ndtr"], scipy_ndtr(6.0 * want["normal"]))


def test_broadcast_and_strided_inputs():
    keys = stream_keys(2, np.arange(6, dtype=np.uint64))
    ctr = np.arange(4, dtype=np.uint64)
    # 2-d broadcasting draws what the 1-d rows draw
    grid = normal_keyed(keys[:, None], ctr)
    assert grid.shape == (6, 4)
    for i in range(6):
        assert same_bits(grid[i], normal_keyed(keys[i], ctr))
    # strided views draw what their copies draw; keys keep the streams' shape
    assert same_bits(exponential_keyed(keys[::2], ctr[:3]),
                     exponential_keyed(keys[::2].copy(), ctr[:3]))
    streams = np.arange(12, dtype=np.uint64)
    assert np.array_equal(stream_keys(2, streams[::2]), stream_keys(2, streams[::2].copy()))
    assert np.array_equal(stream_keys(2, streams[:6].reshape(2, 3)), keys.reshape(2, 3))


# ---------------------------------------------------------------------------
# the build on import, each on a fresh copy of the package with an empty cache

SPEEDUP = {"experiment": "speedup", "seed": 5, "particles": 2000, "dt": 1.0, "t_end": 1.0,
           "collisionality_grid": [1.0, 10.0], "measure_time": False}


def package_copy(tmp_path):
    root = tmp_path / "pkg"
    src = Path(kdmc.__file__).parent
    shutil.copytree(src, root / "kdmc", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run_python(root, args, cc=None, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop("CC", None)
    if cc is not None:
        env["CC"] = str(cc)
    return subprocess.Popen([sys.executable, *args], env=env, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def finish(proc):
    out, err = proc.communicate(timeout=300)
    return proc.returncode, out, err


def test_missing_compiler_fails_import(tmp_path):
    root = package_copy(tmp_path)
    missing = tmp_path / "no-such-dir" / "cc"
    rc, _, err = finish(run_python(root, ["-c", "import kdmc"], cc=missing))
    assert rc != 0
    assert "ImportError" in err and str(missing) in err
    assert not list((root / "kdmc" / "__pycache__").glob("*.so"))


def test_concurrent_first_imports(tmp_path):
    root = package_copy(tmp_path)
    cfg = tmp_path / "speedup.json"
    cfg.write_text(json.dumps(SPEEDUP))
    outs = [tmp_path / f"out{i}.csv" for i in range(2)]
    procs = [run_python(root, ["-m", "kdmc.cli", "speedup", "--config", str(cfg), "--out",
                               str(out)]) for out in outs]
    for proc in procs:
        rc, _, err = finish(proc)
        assert rc == 0, err
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(list((root / "kdmc" / "__pycache__").glob("_draws-*.so"))) == 1
    # and the same bytes as this process, whose library came from another build
    here = tmp_path / "here.csv"
    assert cli.main(["speedup", "--config", str(cfg), "--out", str(here)]) == 0
    assert here.read_bytes() == outs[0].read_bytes()


def test_cache_hit_runs_no_compiler(tmp_path):
    root = package_copy(tmp_path)
    rc, _, err = finish(run_python(root, ["-c", "import kdmc"]))
    assert rc == 0, err
    marker = tmp_path / "compiler-ran"
    trap = tmp_path / "trap-cc"
    trap.write_text(f"#!/bin/sh\ntouch {marker}\nexit 1\n")
    trap.chmod(0o755)
    rc, _, err = finish(run_python(root, ["-c", "import kdmc"], cc=trap))
    assert rc == 0, err
    assert not marker.exists()


def test_runs_without_scipy(tmp_path):
    # scipy is only the tests' reference: with it blocked, kdmc imports and
    # single-step-low, the one experiment that takes a normal CDF, writes
    # the bytes of an unblocked run
    cfg = str(Path(__file__).resolve().parent.parent / "configs" / "single_step_low.json")
    args = ["single-step-low", "--config", cfg, "--particles", "300"]
    blocked = tmp_path / "blocked.csv"
    script = ("import sys; sys.modules['scipy'] = None; from kdmc import cli; "
              f"sys.exit(cli.main({[*args, '--out', str(blocked)]!r}))")
    rc, _, err = finish(run_python(Path(kdmc.__file__).parent.parent, ["-c", script]))
    assert rc == 0, err
    here = tmp_path / "here.csv"
    assert cli.main([*args, "--out", str(here)]) == 0
    assert blocked.read_bytes() == here.read_bytes()
