"""Span tracing of kdmc from outside the package.

`Tracer.install()` replaces module globals of `kdmc` with timing wrappers,
at the names the callers look them up (for example `kdmc.kinetic.
exponential_keyed`, which `_kinetic_chunk` resolves on every round), and
`Tracer.restore()` puts the originals back and checks each by identity.
Nothing under `src/` is edited.

Each `Span` records the module whose lookup was wrapped (`site`), the work
count at that boundary (`n`: draws, elements, particles) and counts read
from the result or the arguments (`extra`: collisions, steps, threads).
Span stacks are thread-local, because `map_chunked` runs chunks on pool
threads; a chunk span names the `map_chunked` span of the calling thread as
its parent. Spans stay in memory until the benchmark writes them out at the
end.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from time import perf_counter
from typing import NamedTuple

import numpy as np

RNG_DRAWS = ("exponential_keyed", "normal_keyed", "normal_from_counter", "uniform_open_closed")
RNG = RNG_DRAWS + ("stream_keys",)
ENSEMBLES = (
    "kinetic.kinetic_ensemble",
    "kd.kd_ensemble",
    "kd.random_walk_ensemble",
    "oracles.conditioned_increment_ensemble",
)


class Span(NamedTuple):
    id: int
    name: str
    site: str
    parent: int | None
    thread: int
    start: float
    end: float
    n: int | None
    extra: dict | None

    @property
    def seconds(self):
        return self.end - self.start


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _counts(kind, fn):
    """Return (out, args, kwargs) -> (n, extra) for one wrapped target."""
    if kind == "size":  # draws, keys or paths returned
        return lambda out, args, kwargs: (int(np.size(out)), None)
    if kind == "first":  # (mean, var) elements; accepted rejection paths
        return lambda out, args, kwargs: (int(np.size(out[0])), None)
    if kind == "none":
        return lambda out, args, kwargs: (None, None)
    bind = _bound(fn)  # ensemble entry points are called a few times per grid point
    if kind == "kinetic":
        return lambda out, args, kwargs: (
            len(bind(args, kwargs)["x0"]), {"collisions": out.total_collisions})
    if kind == "kd":
        def kd(out, args, kwargs):
            a = bind(args, kwargs)
            return len(a["x0"]), {"steps": int(a["n_steps"]), "collisions": out.total_collisions}
        return kd
    if kind == "walk":
        def walk(out, args, kwargs):
            a = bind(args, kwargs)
            return len(a["x0"]), {"steps": int(a["n_steps"])}
        return walk
    raise AssertionError(kind)


_RNG_SITES = {
    "kdmc.kinetic": ("exponential_keyed", "normal_keyed", "stream_keys"),
    "kdmc.kd": ("exponential_keyed", "normal_keyed", "normal_from_counter", "stream_keys"),
    "kdmc.oracles": ("exponential_keyed", "normal_keyed", "stream_keys"),
    "kdmc.experiments": ("normal_from_counter", "uniform_open_closed"),
}
# (module, attribute, span name, count kind); "map" marks map_chunked
SITES = (
    [(mod, attr, f"core.{attr}", "size") for mod, attrs in _RNG_SITES.items() for attr in attrs]
    + [(mod, "map_chunked", "core.map_chunked", "map")
       for mod in ("kdmc.kinetic", "kdmc.kd", "kdmc.oracles")]
    + [
        ("kdmc.kd", "conditioned_mean_var", "moments.conditioned_mean_var", "first"),
        ("kdmc.experiments", "conditioned_mean_var", "moments.conditioned_mean_var", "first"),
        ("kdmc.experiments", "kinetic_ensemble", "kinetic.kinetic_ensemble", "kinetic"),
        ("kdmc.experiments", "kd_ensemble", "kd.kd_ensemble", "kd"),
        ("kdmc.experiments", "random_walk_ensemble", "kd.random_walk_ensemble", "walk"),
        ("kdmc.experiments", "conditioned_increment_ensemble",
         "oracles.conditioned_increment_ensemble", "size"),
        ("kdmc.experiments", "sample_moments", "oracles.sample_moments", "none"),
        ("kdmc.experiments", "w1_sorted", "metrics.w1_sorted", "none"),
        ("kdmc.experiments", "emit_csv", "config.emit_csv", "none"),
        ("kdmc.experiments", "_rejection_kinetic_paths", "experiments.rejection", "first"),
        ("kdmc.experiments", "run_experiment", "experiments.run_experiment", "none"),
    ]
)


ENSEMBLE_SITES = [site for site in SITES if site[2] in ENSEMBLES]


class Tracer:
    """Records spans around the wrapped kdmc globals while installed."""

    def __init__(self, sites=SITES):
        self.sites = sites
        # pool threads share these: list.append and next() on a count are
        # single atomic steps in CPython
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, site, fn, args, kwargs, count, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        n, extra = count(out, args, kwargs)
        self.spans.append(Span(sid, name, site, parent, threading.get_ident(), t0, t1, n, extra))
        return out

    def _wrap(self, orig, name, site, kind):
        if kind == "map":
            return self._wrap_map(orig, site)
        count = _counts(kind, orig)

        def wrapper(*args, **kwargs):
            return self._call(name, site, orig, args, kwargs, count)

        return wrapper

    def _wrap_map(self, orig, site):
        bind = _bound(orig)
        no_count = _counts("none", None)

        def wrapper(*args, **kwargs):
            a = bind(args, kwargs)
            fn = a.pop("fn")
            chunks = -(-a["n"] // a.get("chunk", 1 << 16))
            # map_chunked runs a single chunk inline, whatever the thread count
            workers = min(a.get("threads", 1), chunks)
            stack = self._stack()
            owner = stack[-1][1] if stack else site
            map_sid = []

            def chunk_fn(lo, hi):
                # pool threads start with an empty stack; the parent is the
                # map_chunked span of the calling thread
                return self._call(f"{owner}.chunk", site, fn, (lo, hi), {}, no_count,
                                  parent=map_sid[0])

            def mapped(**kw):
                map_sid.append(self._stack()[-1][0])
                return orig(chunk_fn, **kw)

            return self._call("core.map_chunked", site, mapped, (), a,
                              lambda out, _a, _k: (chunks, {"threads": workers}))

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, kind in self.sites:
            module = importlib.import_module(mod_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, mod_name.split(".")[-1], kind))

    def restore(self):
        """Put every original back, then check each one by identity."""
        saved, self._saved = self._saved, []
        for module, attr, orig in saved:
            setattr(module, attr, orig)
        wrong = [f"{m.__name__}.{a}" for m, a, o in saved if getattr(m, a) is not o]
        if wrong:
            raise RuntimeError(f"globals not restored: {', '.join(wrong)}")


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - _union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


# counts that must repeat exactly between traced runs of one seed
COUNT_METRICS = (
    "core.draws",
    "core.map_chunked.chunks",
    "kinetic.rounds",
    "kinetic.collisions",
    "kd.rounds",
    "kd.collisions",
    "moments.conditioned_mean_var.elems",
    "metrics.w1_sorted.calls",
    "experiments.rejection.candidates",
)


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced iteration of `wall` seconds.

    A metric of a layer the workload never reaches reads 0.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def work(name):
        return sum(s.n for s in by_name.get(name, ()))

    def extra(name, key):
        return sum(s.extra[key] for s in by_name.get(name, ()))

    def self_of(*names):
        return sum(selfs[s.id] for name in names for s in by_name.get(name, ()))

    def rounds(site):
        return [s for s in by_name.get("core.exponential_keyed", ()) if s.site == site]

    def steps(name):
        return sum(s.n * s.extra["steps"] for s in by_name.get(name, ()))

    m = {}
    for fn in ("exponential_keyed", "normal_keyed", "normal_from_counter"):
        m[f"core.{fn}.ns_per_draw"] = _ratio(dur(f"core.{fn}"), work(f"core.{fn}"), 1e9)
    m["core.stream_keys.ns_per_key"] = _ratio(dur("core.stream_keys"), work("core.stream_keys"), 1e9)
    m["core.draws"] = sum(work(f"core.{fn}") for fn in RNG_DRAWS)
    m["core.rng_share"] = _ratio(sum(dur(f"core.{fn}") for fn in RNG), wall)
    chunk_spans = [s for name, group in by_name.items() if name.endswith(".chunk") for s in group]
    m["core.map_chunked.chunks"] = len(chunk_spans)
    capacity = sum(s.seconds * s.extra["threads"] for s in by_name.get("core.map_chunked", ()))
    m["core.map_chunked.parallel_efficiency"] = _ratio(sum(s.seconds for s in chunk_spans), capacity)

    kinetic_self = self_of("kinetic.kinetic_ensemble", "kinetic.kinetic_ensemble.chunk")
    m["kinetic.kinetic_ensemble.self_s"] = kinetic_self
    m["kinetic.self_ns_per_particle_round"] = _ratio(
        kinetic_self, sum(s.n for s in rounds("kinetic")), 1e9)
    m["kinetic.rounds"] = len(rounds("kinetic"))
    m["kinetic.collisions"] = extra("kinetic.kinetic_ensemble", "collisions")
    m["kinetic.ns_per_collision"] = _ratio(
        dur("kinetic.kinetic_ensemble"), m["kinetic.collisions"], 1e9)

    m["kd.kd_ensemble.self_s"] = self_of("kd.kd_ensemble", "kd.kd_ensemble.chunk")
    m["kd.kd_ensemble.ns_per_particle_step"] = _ratio(
        dur("kd.kd_ensemble"), steps("kd.kd_ensemble"), 1e9)
    m["kd.rounds"] = len(rounds("kd"))
    m["kd.collisions"] = extra("kd.kd_ensemble", "collisions")
    m["kd.random_walk_ensemble.ns_per_particle_step"] = _ratio(
        dur("kd.random_walk_ensemble"), steps("kd.random_walk_ensemble"), 1e9)

    m["moments.conditioned_mean_var.ns_per_elem"] = _ratio(
        dur("moments.conditioned_mean_var"), work("moments.conditioned_mean_var"), 1e9)
    m["moments.conditioned_mean_var.elems"] = work("moments.conditioned_mean_var")

    oracle_self = self_of("oracles.conditioned_increment_ensemble",
                          "oracles.conditioned_increment_ensemble.chunk")
    m["oracles.conditioned_increment_ensemble.self_s"] = oracle_self
    m["oracles.self_ns_per_particle_round"] = _ratio(
        oracle_self, sum(s.n for s in rounds("oracles")), 1e9)
    m["oracles.sample_moments.s"] = dur("oracles.sample_moments")

    m["metrics.w1_sorted.s"] = dur("metrics.w1_sorted")
    m["metrics.w1_sorted.calls"] = len(by_name.get("metrics.w1_sorted", ()))

    m["experiments.self_s"] = self_of("experiments.run_experiment", "experiments.rejection")
    rejection_ids = {s.id for s in by_name.get("experiments.rejection", ())}
    candidates = sum(s.n for s in by_name.get("kinetic.kinetic_ensemble", ())
                     if s.parent in rejection_ids)
    m["experiments.rejection.candidates"] = candidates
    m["experiments.rejection.acceptance"] = _ratio(work("experiments.rejection"), candidates)
    m["config.emit_csv.s"] = dur("config.emit_csv")
    return m


def paths(spans):
    """Simulated particle paths: particles x grid points x schemes, with the
    candidates that rejection discards."""
    return sum(s.n for s in spans if s.name in ENSEMBLES)


def span_records(spans):
    """JSON-ready form of the spans, in start order."""
    return [s._asdict() for s in sorted(spans, key=lambda s: s.start)]
