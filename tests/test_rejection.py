"""The single-step-low rejection sampler against the whole-batch algorithm
it replaced: the same candidates, the same accepted paths, bit for bit, and
memory that does not grow with the number of candidates."""

import tracemalloc

import numpy as np
import pytest

from kdmc import BackgroundParams
from kdmc import experiments as exps
from kdmc.experiments import _rejection_kinetic_paths
from kdmc.kinetic import kinetic_ensemble
from kdmc.moments import _kernel_table
from conftest import same_bits

# the physics of configs/single_step_low.json; about 1% of candidates
# collide at dt = 0.01
PARAMS = BackgroundParams(1.0, 1.0, 1.0, 1.0)
V0, DT, SEED = 2.0, 0.01, 1
# the second grid point's window, so stream ids carry an offset
STREAM_LO = 1 << 34
# the 1500th path with a collision is candidate 152,450: three 2**16
# slices at one thread
N = 1500
# cuts the one batch of N at 160,000 candidates, inside a slice at 1, 2
# and 3 threads, and still holds N accepted paths at this seed
CLIP = 160_000


def whole_batch_paths(n, stride, threads):
    """The sampler as it was before slicing: one kinetic_ensemble per
    batch, then flatnonzero. Returns its five arrays and the batch sizes."""
    accept_p = max(float(_kernel_table(PARAMS.collisionality(DT))[1]), 1e-12)
    kept, wants = [], []
    got = next_candidate = 0
    while got < n:
        want = int((n - got) / accept_p * 1.15) + 64
        want = min(want, 1 << 21, stride - next_candidate)
        assert want > 0
        first = STREAM_LO + next_candidate
        next_candidate += want
        wants.append(want)
        ens = kinetic_ensemble(PARAMS, np.zeros(want), np.full(want, V0), DT, SEED,
                               stream_lo=first, threads=threads)
        keep = np.flatnonzero(ens.collisions)
        kept.append((np.uint64(first) + keep.astype(np.uint64), ens.x[keep],
                     ens.first_overlap[keep], ens.last_overlap[keep], ens.v[keep]))
        got += keep.size
    return [np.concatenate([k[i] for k in kept])[:n] for i in range(5)], wants


def sliced_paths(monkeypatch, n, stride, threads):
    monkeypatch.setattr(exps, "_POINT_STRIDE", stride)
    return _rejection_kinetic_paths(PARAMS, V0, DT, n, SEED, STREAM_LO, threads=threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("stride", [1 << 34, CLIP], ids=["window", "clipped"])
def test_same_paths_as_whole_batches(monkeypatch, threads, stride):
    expected, wants = whole_batch_paths(N, stride, threads)
    assert sum(wants) > 2 * (1 << 16)
    if stride == CLIP:
        assert wants == [CLIP]
    got = sliced_paths(monkeypatch, N, stride, threads)
    assert got[0].dtype == np.uint64 and np.array_equal(got[0], expected[0])
    for a, b in zip(got[1:], expected[1:]):
        assert a.shape == (N,) and same_bits(a, b)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n, stride", [(N, 1 << 34), (N, CLIP), (5000, 1 << 34)],
                         ids=["window", "clipped", "5000"])
def test_slices_run_in_stream_order_to_the_nth_path(monkeypatch, threads, n, stride):
    calls = []

    def recording(params, x0, v0, duration, seed, stream_lo=0, **kw):
        calls.append((stream_lo, len(x0)))
        return kinetic_ensemble(params, x0, v0, duration, seed, stream_lo=stream_lo, **kw)

    expected, _ = whole_batch_paths(n, stride, threads)
    monkeypatch.setattr(exps, "kinetic_ensemble", recording)
    sliced_paths(monkeypatch, n, stride, threads)
    width = threads << 16
    # consecutive slices of `width` from the window's first stream; the
    # sizes sum to the candidate count, the benchmark's path count
    assert calls == [(STREAM_LO + lo, min(width, stride - lo))
                     for lo in range(0, len(calls) * width, width)]
    # the last holds the n-th accepted stream: no candidate runs past its slice
    first, size = calls[-1]
    assert first <= int(expected[0][-1]) < first + size
    if stride == CLIP:
        # clipped at the end of a window that the width does not divide
        assert first + size == STREAM_LO + CLIP and size == CLIP % width


def test_memory_does_not_grow_with_candidates():
    def peak(n):
        tracemalloc.start()
        try:
            _rejection_kinetic_paths(PARAMS, V0, DT, n, SEED, STREAM_LO, threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # about 350k and 3.5M candidates; whole batches peaked at 27 and 158 MiB
    small, large = peak(3000), peak(30_000)
    assert large < 2 * small
