"""Run one workload in this interpreter and print its result as JSON.

``run.py`` starts this script in a fresh interpreter per run, with the
backend environment already set, so that this process's peak RSS and
its children's rusage belong to the figure drivers alone.  Usage::

    python3 figbench/measure.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--fastcore PATH]

Timing design: host speed swings by up to 2x for seconds at a time, so
every timing is built from short samples taken in rotation and
estimated by a low quantile (``stats.low_quantile``).  For the serial
workloads a sample is one figure cell (the driver called with a
one-value grid, which keeps the sweep path and batch routing); for the
parallel workload it is one whole-figure call, because every call forks
its own warm pool.  A fixed pure-Python reference computation is timed
before and after each sample; its run median normalises ``sweep_s``
for host speed and is reported as a diagnostic.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import build
import layers
from check import OutputCheck, load_reference
from stats import low_quantile, low_quantile_index
from tracer import Tracer
from workloads import N_TASKSETS, REFERENCE_SEED, WORKLOADS, master_seed

HERE = Path(__file__).resolve().parent
#: Warm re-runs after each cold pass of a cached workload.
N_RERUNS = 10
#: Cold passes a cached workload always takes, whatever ``--seconds``.
MIN_FIGURE_SAMPLES = 3
#: Reference probes timed right before and right after every sample.
PROBES = 3
#: ``sweep_s`` is scaled towards a host on which the run's median
#: reference probe takes this long (see README.md, "Timing on a noisy
#: host").
REF_NOMINAL_S = 0.010


def reference_probe(loops: int = 100_000) -> float:
    """Seconds for a fixed pure-Python loop: the host-speed diagnostic."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - start


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _tree_files(path: Path) -> list[str]:
    return sorted(str(f) for f in path.rglob("*") if f.is_file())


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> None:
        self.wl = workload
        self.master_seed = master_seed(seed)
        self.trace = trace
        self.scratch = scratch
        self.deadline = time.perf_counter() + seconds
        figures = importlib.import_module("repro.experiments.figures")
        self.driver = getattr(figures, workload.driver)
        self.run_counts = importlib.import_module(
            "repro.sim.fastcore").RUN_COUNTS
        reference = (load_reference(HERE / "reference" / workload.reference)
                     if self.master_seed == REFERENCE_SEED else None)
        self.check = OutputCheck(N_TASKSETS, reference)
        self.problems: list[str] = []
        #: (seconds, probes before, probes after, cell x or None).
        self.log: list[tuple] = []
        #: Most threads alive at a probe; more than one would slow the
        #: probe and so bias the host normalisation.
        self.threads = 0
        self.tracer = Tracer() if trace else None
        self.seams = layers.Seams(self.tracer) if trace else None
        self.root = self.tracer.layer_id("driver") if trace else None

    # -- one sample ---------------------------------------------------

    def call(self, xs, cache_dir: Path | None = None):
        kwargs = {self.wl.grid_kw: tuple(xs), "n_tasksets": N_TASKSETS,
                  "master_seed": self.master_seed, "workers": self.wl.workers}
        if cache_dir is not None:
            kwargs["cache_dir"] = str(cache_dir)
        return self.driver(**kwargs)

    def sample(self, xs, traced: bool, cache_dir: Path | None = None,
               probes: int = PROBES):
        """Time one driver call between *probes* reference probes on
        each side; returns (seconds, layer metrics)."""
        before = self._probe(probes)
        result = self._sample(xs, traced, cache_dir)
        if probes:
            self.log.append((result[0], before, self._probe(probes),
                             xs[0] if len(xs) == 1 else None))
        return result

    def _probe(self, n: int) -> list[float]:
        self.threads = max(self.threads, threading.active_count())
        return [reference_probe() for _ in range(n)]

    def _sample(self, xs, traced, cache_dir):
        if not traced:
            start = time.perf_counter()
            figure = self.call(xs, cache_dir)
            elapsed = time.perf_counter() - start
            self.check.record(xs, figure.to_rows())
            return elapsed, None
        t = self.tracer
        t.reset()
        with self.seams:
            root = t.begin(self.root)
            try:
                figure = self.call(xs, cache_dir)
            finally:
                t.finish(root)
        elapsed = t.end[root] - t.start[root]
        self.check.record(xs, figure.to_rows())
        summary = t.summary()
        self_total = sum(self_s for _, self_s in summary.values())
        if abs(self_total - t.root_seconds()) > 1e-6 * max(1.0, elapsed):
            self.problems.append(
                f"self times sum to {self_total!r}, root spans to "
                f"{t.root_seconds()!r}")
        return elapsed, layers.sample_metrics(t, summary)

    def _past_deadline(self, estimate: float) -> bool:
        return time.perf_counter() + estimate > self.deadline

    # -- serial workloads: one cell per sample -------------------------

    def run_cells(self) -> dict:
        grid = [float(x) for x in self.wl.grid]
        plain = {x: [] for x in grid}
        traced = {x: [] for x in grid}
        per_layer = {x: [] for x in grid}
        last: dict[float, float] = {}
        rnd = 0
        while True:
            order = grid if rnd % 2 == 0 else grid[::-1]
            for pos, x in enumerate(order):
                if rnd > 0 and self._past_deadline(last[x]):
                    return self._cell_result(plain, traced, per_layer)
                # Traced and untraced samples of a cell alternate which
                # goes first, so drift does not bias the overhead.
                modes = ((True, False) if (rnd + pos) % 2 == 0
                         else (False, True)) if self.trace else (False,)
                spent = 0.0
                for mode in modes:
                    elapsed, metrics = self.sample([x], mode)
                    spent += elapsed
                    (traced if mode else plain)[x].append(elapsed)
                    if metrics is not None:
                        per_layer[x].append(metrics)
                last[x] = spent
            rnd += 1

    def _cell_result(self, plain, traced, per_layer) -> dict:
        result = {"sweep_s": sum(low_quantile(v) for v in plain.values()),
                  "samples": sum(map(len, plain.values()))}
        if self.trace:
            # Each cell contributes the traced sample its estimate picks,
            # so the layers' self times add up to trace.sweep_s.
            picked = [per_layer[x][low_quantile_index(traced[x])]
                      for x in traced]
            traced_s = sum(low_quantile(v) for v in traced.values())
            result["layers"] = {name: sum(m[name] for m in picked)
                                for name in picked[0]}
            result["layers"].update({
                "trace.sweep_s": traced_s,
                "trace.overhead": traced_s / result["sweep_s"]})
        return result

    # -- the cached parallel workload: one figure per sample -----------

    def _stop_pool(self) -> None:
        """Shut the warm pool down and reap its workers (for rusage)."""
        importlib.import_module("repro.experiments.parallel").shutdown_pool()
        for child in multiprocessing.active_children():
            child.join(60)
            if child.is_alive():
                child.kill()
                child.join()

    def run_figure(self) -> dict:
        grid = list(self.wl.grid)
        plain, traced, reruns = [], [], []
        per_layer, rerun_layers = [], []
        worker_cpu = []
        last = 0.0
        k = 0
        # Traced runs alternate traced and untraced passes: two of each.
        minimum = MIN_FIGURE_SAMPLES + self.trace
        while k < minimum or not self._past_deadline(last):
            mode = self.trace and k % 2 == 0
            cache_dir = self.scratch / f"cache-{k}"
            cpu_before = _children_cpu()
            try:
                elapsed, metrics = self.sample(grid, mode, cache_dir)
            finally:
                self._stop_pool()
            cpu = _children_cpu() - cpu_before
            worker_cpu.append(cpu)
            (traced if mode else plain).append(elapsed)
            if metrics is not None:
                metrics["parallel.worker_cpu_s"] = cpu
                metrics["parallel.worker_util"] = cpu / (
                    self.wl.workers * elapsed)
                metrics["cache.bytes"] = _tree_bytes(cache_dir)
                per_layer.append(metrics)
            entries = _tree_files(cache_dir)
            rerun_start = time.perf_counter()
            for _ in range(N_RERUNS):
                counts = dict(self.run_counts)
                r_elapsed, r_metrics = self.sample(grid, mode, cache_dir,
                                                   probes=0)
                if dict(self.run_counts) != counts:
                    self.problems.append("a warm re-run simulated")
                if r_metrics is not None:
                    r_metrics["rerun.wall_s"] = r_elapsed
                    rerun_layers.append(r_metrics)
                else:
                    reruns.append(r_elapsed)
            if _tree_files(cache_dir) != entries:
                self.problems.append("a warm re-run wrote to the cache")
            shutil.rmtree(cache_dir)
            last = elapsed + time.perf_counter() - rerun_start
            k += 1
        result = {"sweep_s": low_quantile(plain), "samples": len(plain),
                  "rerun_s": statistics.median(reruns) if reruns else None,
                  "worker_cpu_s": statistics.median(worker_cpu),
                  "worker_peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
        if self.trace:
            layers = dict(per_layer[low_quantile_index(traced)])
            lookups = sum(m["cache.lookups"] for m in rerun_layers)
            hits = sum(m["cache.hits"] for m in rerun_layers)
            layers.update({
                "trace.sweep_s": low_quantile(traced),
                "trace.overhead": low_quantile(traced) / result["sweep_s"],
                "rerun.wall_s": statistics.median(
                    m["rerun.wall_s"] for m in rerun_layers),
                "rerun.cache.get.self_s": statistics.fmean(
                    m["cache.get.self_s"] for m in rerun_layers),
                "rerun.runner.self_s": statistics.fmean(
                    m["runner.self_s"] for m in rerun_layers),
                "rerun.parallel.wait_s": statistics.fmean(
                    m["parallel.wait_s"] for m in rerun_layers),
                "cache.hit_ratio": hits / lookups if lookups else 0.0,
            })
            if layers["cache.hit_ratio"] != 1.0 and lookups:
                self.problems.append(
                    f"warm re-run hit ratio {layers['cache.hit_ratio']}")
            result["layers"] = layers
        return result

    # -- engagement ----------------------------------------------------

    def check_engagement(self) -> None:
        compiled = self.run_counts["compiled"]
        interpreted = self.run_counts["interpreted"]
        if self.wl.compiled and not (compiled > 0 and interpreted == 0):
            self.problems.append(
                f"compiled core not engaged: RUN_COUNTS {self.run_counts}")
        if not self.wl.compiled and compiled != 0:
            self.problems.append(
                f"compiled runs under REPRO_COMPILED=0: {self.run_counts}")


def _layer_report(bench: Bench, result: dict) -> dict[str, float]:
    values = dict(result["layers"])
    values.setdefault("rerun.wall_s", 0.0)
    for name in ("cache.bytes", "cache.hit_ratio", "rerun.cache.get.self_s",
                 "rerun.runner.self_s", "rerun.parallel.wait_s",
                 "parallel.worker_cpu_s",
                 "parallel.worker_util"):
        values.setdefault(name, 0.0)
    values["parallel.worker_peak_rss_mb"] = result.get(
        "worker_peak_rss_mb", 0.0)
    absent = bench.seams.absent_metrics()
    return {name: values[name] for name in layers.per_layer_metrics()
            if name not in absent}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fastcore", type=Path)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if wl.compiled:
        if args.fastcore is None:
            parser.error(f"{wl.name} needs --fastcore")
        build.install_finder(args.fastcore)
    sys.path.insert(0, "src")
    fastcore = importlib.import_module("repro.sim.fastcore")
    if wl.compiled:
        # Fail loudly: a missing extension must not fall back.
        importlib.import_module(build.MODULE)
        if not fastcore.compiled_enabled():
            raise RuntimeError("compiled core loaded but not enabled")
    elif fastcore.compiled_enabled():
        raise RuntimeError("REPRO_COMPILED=0 did not disable the core")

    scratch = build.BUILD_ROOT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(wl, args.seed, args.seconds, bool(args.trace),
                      scratch)
        result = bench.run_cells() if wl.per_cell else bench.run_figure()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bench.check_engagement()

    refs = [r for _, before, after, _ in bench.log for r in before + after]
    # The probe runs on one vCPU.  A serial sweep follows it one for one;
    # a sweep spread over two workers followed it with exponent ~0.5.
    host_factor = (REF_NOMINAL_S
                   / statistics.median(refs)) ** (1 / wl.workers)
    if args.trace:
        metrics = _layer_report(bench, result)
    else:
        metrics = {
            "sweep_s": result["sweep_s"] * host_factor,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    diagnostics = {
        "master_seed": bench.master_seed,
        "samples": result["samples"],
        "sweep_raw_s": result["sweep_s"],
        "host_factor": host_factor,
        "ref_probe_ms": 1000 * statistics.median(refs),
        "ref_probe_max_over_min": max(refs) / min(refs),
        "threads_at_probes": bench.threads,
        "log": [[round(e, 5), [round(r * 1000, 3) for r in b],
                 [round(r * 1000, 3) for r in a], x]
                for e, b, a, x in bench.log],
        "rerun_s": result.get("rerun_s"),
        "worker_cpu_s": result.get("worker_cpu_s"),
        "worker_peak_rss_mb": result.get("worker_peak_rss_mb"),
        "run_counts": dict(bench.run_counts),
        "absent_seams": bench.seams.absent if bench.seams else {},
    }
    print(json.dumps({
        "correct": not (bench.problems or bench.check.problems),
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": metrics,
        "problems": bench.problems + bench.check.problems,
        "diagnostics": diagnostics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
