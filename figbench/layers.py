"""The traced run's seams: wrappers around each layer's public calls.

Every seam patches attributes from outside the program and is undone
after each traced sample.  Three properties of the program shape how:

* Telemetry stays off: enabling ``repro.telemetry`` makes the sweep
  turn the batch engine off, so the traced run would measure a
  different program.
* ``Simulator.run`` and each policy's ``select_speed`` are wrapped as
  class attributes, never by subclassing: fastcore's exact-type check
  would send a subclassed simulator to the interpreted engine, and the
  compiled core captures ``policy.select_speed`` when a run starts.
* Module-level functions are wrapped where their caller binds them
  (``sweep`` in the figure module, ``exact_slack`` in the lpSTA module).

A seam whose target no longer exists is *absent*: its metrics are left
out of the result and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable

from tracer import Tracer

#: Policies reported one by one (the rest only in the policy totals).
NAMED_POLICIES = ("clairvoyant", "feedback", "laEDF", "DRA", "lpSEH",
                  "lpSTA")


def _span(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    lid = tracer.layer_id(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)

    return traced


class _Patcher:
    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self.undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


def _runner(t: Tracer, p: _Patcher) -> None:
    figures = importlib.import_module("repro.experiments.figures")
    p.set(figures, "sweep", _span(t, "runner", figures.sweep))


def _tasks(t: Tracer, p: _Patcher) -> None:
    figures = importlib.import_module("repro.experiments.figures")
    for name in ("standard_taskset", "bcwc_model"):
        p.set(figures, name, _span(t, "tasks", getattr(figures, name)))


def _batch(t: Tracer, p: _Patcher) -> None:
    runner = importlib.import_module("repro.experiments.runner")
    batch = importlib.import_module("repro.sim.batch")
    original = batch.run_batch_suites
    lid = t.layer_id("batch")

    @functools.wraps(original)
    def traced(x, seeds, **kwargs):
        t.count("batch.cells")
        t.count("batch.seeds", len(seeds))
        idx = t.begin(lid)
        rows = None
        try:
            rows = original(x, seeds, **kwargs)
            return rows
        finally:
            t.finish(idx)
            fallback = (len(seeds) if rows is None
                        else sum(row is None for row in rows))
            t.count("batch.fallback_seeds", fallback)

    # The serial sweep binds the function at import; the parallel
    # worker path imports it from the batch module at call time.
    p.set(runner, "run_batch_suites", traced)
    p.set(batch, "run_batch_suites", traced)


def _engine(t: Tracer, p: _Patcher) -> None:
    engine = importlib.import_module("repro.sim.engine")
    counts = importlib.import_module("repro.sim.fastcore").RUN_COUNTS
    if "compiled" not in counts:
        raise KeyError("RUN_COUNTS has no 'compiled' entry")
    run = engine.Simulator.__dict__["run"]
    interp = t.layer_id("engine.interp")
    compiled = t.layer_id("engine.compiled")

    @functools.wraps(run)
    def traced(self):
        before = counts["compiled"]
        idx = t.begin(interp)
        try:
            return run(self)
        finally:
            t.finish(idx, compiled if counts["compiled"] != before
                     else None)

    p.set(engine.Simulator, "run", traced)


def _policies(t: Tracer, p: _Patcher) -> None:
    registry = importlib.import_module("repro.policies.registry")
    for name, cls in registry.POLICY_FACTORIES.items():
        if isinstance(cls, type) and "select_speed" in cls.__dict__:
            p.set(cls, "select_speed",
                  _span(t, f"policy.{name}", cls.__dict__["select_speed"]))


def _slack(t: Tracer, p: _Patcher) -> None:
    sta = importlib.import_module("repro.policies.slack_sta")
    seh = importlib.import_module("repro.policies.slack_seh")
    p.set(sta, "exact_slack", _span(t, "slack.exact", sta.exact_slack))
    p.set(seh, "heuristic_slack",
          _span(t, "slack.heuristic", seh.heuristic_slack))


def _cache(t: Tracer, p: _Patcher) -> None:
    cls = importlib.import_module("repro.experiments.cache").SuiteCache
    get, put = cls.__dict__["get"], cls.__dict__["put"]
    traced_put = _span(t, "cache.put", put)
    lid = t.layer_id("cache.get")

    @functools.wraps(get)
    def traced_get(self, digest):
        t.count("cache.lookups")
        idx = t.begin(lid)
        try:
            found = get(self, digest)
        finally:
            t.finish(idx)
        if found is not None:
            t.count("cache.hits")
        return found

    @functools.wraps(put)
    def counted_put(self, *args, **kwargs):
        t.count("cache.writes")
        return traced_put(self, *args, **kwargs)

    p.set(cls, "get", traced_get)
    p.set(cls, "put", counted_put)


def _parallel(t: Tracer, p: _Patcher) -> None:
    par = importlib.import_module("repro.experiments.parallel")
    getattr(par, "shutdown_pool")  # the benchmark calls it per sample
    acquire = par.WorkerPool.__dict__["acquire"].__func__
    p.set(par.WorkerPool, "acquire",
          classmethod(_span(t, "parallel.pool_start", acquire)))
    p.set(par, "run_cells", _span(t, "parallel.run_cells", par.run_cells))
    run_chunk = par._run_chunk

    # Only the parent's calls are counted (workers record nothing), and
    # the parent only runs the serial-first inline chunk itself.  No
    # span: the chunk's plumbing stays in run_cells' self time.
    @functools.wraps(run_chunk)
    def counted(units, *args, **kwargs):
        t.count("parallel.inline_units", len(units))
        return run_chunk(units, *args, **kwargs)

    p.set(par, "_run_chunk", counted)


#: Seam name -> (installer, the per-layer metrics it feeds).
SEAMS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "runner": (_runner, ("runner.self_s", "rerun.runner.self_s")),
    "tasks": (_tasks, ("tasks.self_s",)),
    "batch": (_batch, ("batch.self_s", "batch.cells", "batch.seeds",
                       "batch.fallback_seeds")),
    "engine": (_engine, ("engine.compiled_runs", "engine.compiled.self_s",
                         "engine.interp_runs", "engine.interp.self_s")),
    "policy": (_policies, ("policy.decisions", "policy.self_s")
               + tuple(f"policy.{name}.{what}" for name in NAMED_POLICIES
                       for what in ("calls", "self_s"))),
    "slack": (_slack, ("slack.exact.calls", "slack.exact.self_s",
                       "slack.heuristic.calls", "slack.heuristic.self_s")),
    "cache": (_cache, ("cache.lookups", "cache.get.self_s",
                       "cache.writes", "cache.put.self_s", "cache.bytes",
                       "cache.hit_ratio", "rerun.cache.get.self_s")),
    "parallel": (_parallel, ("parallel.pool_start_s", "parallel.wait_s",
                             "parallel.worker_cpu_s",
                             "parallel.worker_util",
                             "parallel.inline_units",
                             "parallel.worker_peak_rss_mb",
                             "rerun.parallel.wait_s")),
}


#: Per-layer metrics that need no seam: the root span is the
#: benchmark's own call of the figure driver.
ROOT_METRICS = ("trace.overhead", "trace.sweep_s", "driver.self_s",
                "rerun.wall_s")


def per_layer_metrics() -> list[str]:
    """Every per-layer metric, in report order."""
    return list(ROOT_METRICS) + [metric for _, metrics in SEAMS.values()
                                 for metric in metrics]


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("ratio", "util", "overhead")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


class Seams:
    """Installs every available seam around one traced sample."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: dict[str, str] = {}
        self._patcher = _Patcher()
        # Probe each seam once; the ones that fail stay out for good.
        for name in SEAMS:
            try:
                self._install(name)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[name] = f"{type(exc).__name__}: {exc}"
            finally:
                self._patcher.restore()

    def _install(self, name: str) -> None:
        installer, _ = SEAMS[name]
        installer(self.tracer, self._patcher)

    def __enter__(self) -> "Seams":
        for name in SEAMS:
            if name not in self.absent:
                self._install(name)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def absent_metrics(self) -> set[str]:
        return {metric for name in self.absent
                for metric in SEAMS[name][1]}


def sample_metrics(tracer: Tracer, summary=None) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced sample."""
    if summary is None:
        summary = tracer.summary()
    counters = tracer.counters

    def calls(layer: str) -> float:
        return float(summary.get(layer, (0, 0.0))[0])

    def self_s(layer: str) -> float:
        return summary.get(layer, (0, 0.0))[1]

    metrics = {
        "driver.self_s": self_s("driver"),
        "runner.self_s": self_s("runner"),
        "tasks.self_s": self_s("tasks"),
        "batch.self_s": self_s("batch"),
        "batch.cells": counters.get("batch.cells", 0.0),
        "batch.seeds": counters.get("batch.seeds", 0.0),
        "batch.fallback_seeds": counters.get("batch.fallback_seeds", 0.0),
        "engine.compiled_runs": calls("engine.compiled"),
        "engine.compiled.self_s": self_s("engine.compiled"),
        "engine.interp_runs": calls("engine.interp"),
        "engine.interp.self_s": self_s("engine.interp"),
        "policy.decisions": float(tracer.top_level("policy.")),
        "policy.self_s": sum(s for layer, (_, s) in summary.items()
                             if layer.startswith("policy.")),
        "slack.exact.calls": calls("slack.exact"),
        "slack.exact.self_s": self_s("slack.exact"),
        "slack.heuristic.calls": calls("slack.heuristic"),
        "slack.heuristic.self_s": self_s("slack.heuristic"),
        "cache.lookups": counters.get("cache.lookups", 0.0),
        "cache.hits": counters.get("cache.hits", 0.0),
        "cache.get.self_s": self_s("cache.get"),
        "cache.writes": counters.get("cache.writes", 0.0),
        "cache.put.self_s": self_s("cache.put"),
        "parallel.pool_start_s": self_s("parallel.pool_start"),
        "parallel.wait_s": self_s("parallel.run_cells"),
        "parallel.inline_units": counters.get("parallel.inline_units", 0.0),
    }
    for name in NAMED_POLICIES:
        metrics[f"policy.{name}.calls"] = calls(f"policy.{name}")
        metrics[f"policy.{name}.self_s"] = self_s(f"policy.{name}")
    return metrics
