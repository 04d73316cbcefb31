"""The compiled draws: bit parity with scipy's ndtri and across optimisation
levels, and the build on import (compiler errors, concurrent first builds,
cache hits)."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def lib_draws(lib, seed, streams, counters):
    """Stream keys, both uniform maps and the normals of one library build."""
    n = streams.size
    keys = np.empty(n, dtype=np.uint64)
    lib.stream_keys(seed, streams.ctypes.data, keys.ctypes.data, n)
    out = {"keys": keys}
    for offset in (0.5, 1.0):
        out[offset] = np.empty(n)
        lib.uniforms(keys.ctypes.data, counters.ctypes.data, offset, out[offset].ctypes.data, n)
    out["normal"] = c_ndtri(out[0.5], lib)
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
