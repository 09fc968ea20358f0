"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest figbench``.
"""

from __future__ import annotations

import copy
import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
from check import OutputCheck, load_reference  # noqa: E402
from stats import low_quantile, spread  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MASTER_SEEDS,
    N_TASKSETS,
    REFERENCE_SEED,
    master_seed,
)


def _clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_times_telescope_on_a_synthetic_nest():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    t = Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    root, a, b, c = (t.layer_id(n) for n in ("root", "a", "b", "c"))
    r = t.begin(root)
    i = t.begin(a)
    j = t.begin(b)
    t.finish(j)
    t.finish(i)
    k = t.begin(c)
    t.finish(k)
    t.finish(r)
    summary = t.summary()
    assert summary == {"root": (1, 3.0), "a": (1, 2.0), "b": (1, 1.0),
                       "c": (1, 4.0)}
    assert sum(s for _, s in summary.values()) == t.root_seconds() == 10.0


def test_relabelled_span_and_nested_policy_count():
    t = Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]))
    outer = t.begin(t.layer_id("policy.laEDF"))
    inner = t.begin(t.layer_id("policy.ccEDF"))
    t.finish(inner)
    engine = t.begin(t.layer_id("engine.interp"))
    t.finish(engine, t.layer_id("engine.compiled"))
    t.finish(outer)
    summary = t.summary()
    assert summary["engine.compiled"] == (1, 1.0)
    assert "engine.interp" not in summary
    # A policy that delegates to another is one decision.
    assert t.top_level("policy.") == 1
    t.reset()
    assert t.summary() == {} and not t.counters


def test_low_quantile_small_and_empty():
    assert low_quantile([3.0, 1.0, 2.0]) == 1.0
    assert low_quantile([4.0, 2.0, 3.0, 5.0, 1.0, 6.0]) == 2.0
    with pytest.raises(ValueError):
        low_quantile([])


def test_low_quantile_is_steadier_than_the_median_on_noisy_series():
    # A cost of 1.0 s observed on a host that slows down in phases:
    # each sample is stretched by a random factor in [1, 2], with slow
    # phases lasting several consecutive samples.
    rng = random.Random(7)

    def run():
        samples, slow = [], 0
        for _ in range(40):
            if slow == 0 and rng.random() < 0.15:
                slow = rng.randint(3, 8)
            factor = rng.uniform(1.3, 2.0) if slow else rng.uniform(1.0, 1.1)
            slow = max(0, slow - 1)
            samples.append(1.0 * factor)
        return samples

    runs = [run() for _ in range(30)]
    lows = [low_quantile(r) for r in runs]
    medians = [statistics.median(r) for r in runs]
    assert all(1.0 <= v < 1.1 for v in lows)
    assert spread(lows) < spread(medians)
    assert spread(lows) < 0.05


def _f4_rows():
    return load_reference(HERE / "reference" / "exp_f4.json")


def _cell(rows, x):
    return [row for row in rows if row["x"] == x]


def test_checker_accepts_the_reference_and_rejects_a_perturbed_row():
    rows = _f4_rows()
    check = OutputCheck(10, rows)
    assert check.record([2.0], _cell(rows, 2.0))
    assert check.record(sorted({r["x"] for r in rows}), rows)
    assert check.failed == 0

    perturbed = copy.deepcopy(_cell(rows, 4.0))
    perturbed[-1]["mean"] = perturbed[-1]["mean"] * (1 + 2 ** -52)
    assert not check.record([4.0], perturbed)
    assert check.failed == 10
    assert check.attempted == 10 + 70 + 10
    assert "reference" in check.problems[0]


def test_checker_without_reference_needs_repeatable_clean_rows():
    rows = _cell(_f4_rows(), 0.0)
    check = OutputCheck(10)
    assert check.record([0.0], rows)
    changed = copy.deepcopy(rows)
    changed[0]["ci95"] += 1e-9
    assert not check.record([0.0], changed)
    missed = copy.deepcopy(rows)
    missed[1]["misses"] = 1
    assert not check.record([0.0], missed)
    short = copy.deepcopy(rows)
    short[2]["count"] = 9
    assert not check.record([0.0], short)
    assert not check.record([0.0, 2.0], rows)  # a cell with no rows
    assert check.failed == 40


def test_missing_seam_reports_absent_metrics_not_a_failed_run(monkeypatch):
    from repro.experiments import figures

    # The batch engine is slated for deletion: simulate it gone.
    monkeypatch.setitem(sys.modules, "repro.sim.batch", None)
    tracer = Tracer()
    seams = layers.Seams(tracer)
    assert set(seams.absent) == {"batch"}
    assert seams.absent_metrics() == {"batch.self_s", "batch.cells",
                                      "batch.seeds", "batch.fallback_seeds"}
    originals = (figures.sweep, figures.standard_taskset)
    root = tracer.layer_id("driver")
    with seams:
        span = tracer.begin(root)
        figure = figures.energy_vs_levels(level_counts=(0,), n_tasksets=2,
                                          policies=("lpSTA",))
        tracer.finish(span)
    assert figure.to_rows()
    metrics = layers.sample_metrics(tracer)
    assert metrics["slack.exact.calls"] > 0
    assert metrics["policy.lpSTA.calls"] == metrics["slack.exact.calls"]
    assert metrics["batch.cells"] == 0
    # Every seam is undone after the sample.
    assert (figures.sweep, figures.standard_taskset) == originals


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["per_layer"]] == \
        layers.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_master_seeds_give_figures_of_equal_size():
    from repro.experiments.config import EXPERIMENT_HORIZON
    from repro.experiments.runner import standard_taskset, taskset_seeds

    def jobs(master):
        return sum(EXPERIMENT_HORIZON / task.period
                   for seed in taskset_seeds(master, N_TASKSETS)
                   for task in standard_taskset(8, 0.5, seed).tasks)

    reference = jobs(REFERENCE_SEED)
    for master in MASTER_SEEDS:
        assert abs(jobs(master) / reference - 1) <= 0.003, master
    assert master_seed(REFERENCE_SEED) == REFERENCE_SEED
    assert {master_seed(s) for s in range(len(MASTER_SEEDS))} == \
        set(MASTER_SEEDS)
