"""Compiled engine core: backend routing and byte identity (DESIGN.md §13).

The contract under test: the compiled core is purely an execution
strategy.  When the C extension is present and enabled, every eligible
run produces a :class:`SimulationResult` **bitwise identical** to the
interpreted engine's — including fault notes, governor interventions
and traces; anything the core cannot reproduce exactly (subclassed
simulators, non-EDF schedulers) falls through to the interpreted loop;
and a plain install (no extension, or ``REPRO_COMPILED=0`` /
``--no-compiled``) runs exactly as before with zero new dependencies.
The native decision kernels (clairvoyant, feedback, laEDF, lpSEH) are
held to the same contract, including the policy state tests read
after a run, and every configuration they do not reproduce must fall
back to the Python callback.  ``scripts/compiled_gate.py`` enforces
the same contract on whole sweep fingerprints in CI.

Every test here runs against ``_fastcore.c`` built once per session by
the ``fastcore_extension`` fixture (``tests/conftest.py``); without a
C compiler they skip with a loud reason.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.profiles import (generic4_processor, ideal_processor,
                                xscale_processor)
from repro.experiments.config import DEFAULT_POLICIES
from repro.experiments.runner import bcwc_model, standard_taskset
from repro.faults import FaultPlan
from repro.faults.plan import OverrunFault, TransitionFault
from repro.policies.laedf import LaEdfPolicy
from repro.policies.registry import make_policy
from repro.sim import fastcore
from repro.sim.engine import Simulator, simulate
from repro.sim.scheduler import EDFScheduler
from repro.tasks.execution import UniformExecution
from repro.tasks.generators import generate_taskset
from repro.telemetry import TELEMETRY
from tests.test_property_engine import workload as engine_workload

pytestmark = pytest.mark.compiled

HORIZON = 400.0
SEED = 42


def _workload(n_tasks=6, utilization=0.7, seed=SEED):
    return standard_taskset(n_tasks, utilization, seed), \
        bcwc_model(0.5, seed)


def _fault_plan(seed=SEED):
    return FaultPlan(
        seed=seed,
        overrun=OverrunFault(factor=1.3, probability=0.3),
        transition=TransitionFault(stuck_probability=0.2))


def assert_results_identical(a, b):
    """Bitwise equality, with traces compared by content.

    ``TraceRecorder`` has no ``__eq__`` (dataclass equality would
    compare recorder objects by identity), so the trace field is
    compared segment-by-segment and note-by-note instead.
    """
    assert dataclasses.replace(a, trace=None) \
        == dataclasses.replace(b, trace=None)
    assert (a.trace is None) == (b.trace is None)
    if a.trace is not None:
        assert list(a.trace.segments) == list(b.trace.segments)
        assert list(a.trace.notes) == list(b.trace.notes)


def _run(policy_name, *, backend, faults=None, governed=False,
         processor=None, record_trace=False, seed=SEED, policy=None):
    taskset, model = _workload(seed=seed)
    if policy is None:
        policy = make_policy(policy_name, governed=governed,
                             governor_margin=1.3 if governed else 1.0)
    with fastcore.forced(backend):
        return simulate(taskset, processor or ideal_processor(), policy,
                        model, horizon=HORIZON, faults=faults,
                        allow_misses=faults is not None,
                        record_trace=record_trace)


# ----------------------------------------------------------------------
# Routing: fallback, env override, eligibility
# ----------------------------------------------------------------------

def test_interpreted_fallback_without_extension(monkeypatch):
    """A plain install (extension absent) must run unchanged."""
    monkeypatch.setattr(fastcore, "_EXT", None)
    assert not fastcore.compiled_available()
    assert not fastcore.compiled_enabled()
    assert fastcore.slack_kernels() is None
    before = fastcore.RUN_COUNTS["interpreted"]
    result = _run("lpSTA", backend=None)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["interpreted"] == before + 1


def test_env_override_disables_compiled(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert not fastcore.compiled_enabled()
    before = dict(fastcore.RUN_COUNTS)
    result = _run("ccEDF", backend=None)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before["compiled"]
    assert fastcore.RUN_COUNTS["interpreted"] \
        == before["interpreted"] + 1
    monkeypatch.setenv("REPRO_COMPILED", "1")
    assert fastcore.compiled_enabled()


def test_forced_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "0")
    with fastcore.forced(True):
        assert fastcore.compiled_enabled()
    with fastcore.forced(False):
        assert not fastcore.compiled_enabled()
    assert not fastcore.compiled_enabled()


def test_compiled_core_engages():
    before = fastcore.RUN_COUNTS["compiled"]
    result = _run("lpSEH", backend=True)
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before + 1


def test_subclassed_simulator_stays_interpreted():
    """Exact-type eligibility: a subclass may override anything the C
    core inlines, so it must never be routed to the compiled loop."""

    class LoggingSimulator(Simulator):
        pass

    taskset, model = _workload()
    sim = LoggingSimulator(taskset, ideal_processor(),
                           make_policy("static"), model, horizon=HORIZON)
    assert fastcore._ineligible_reason(sim) is not None
    before = fastcore.RUN_COUNTS["compiled"]
    with fastcore.forced(True):
        result = sim.run()
    assert result.jobs_completed > 0
    assert fastcore.RUN_COUNTS["compiled"] == before


def test_core_info_shape():
    info = fastcore.core_info()
    assert set(info) == {"available", "enabled", "backend", "runs",
                         "native_kernels"}
    assert set(info["runs"]) == {"compiled", "interpreted",
                                 "native_decisions"}
    # Flat ints: external readers copy RUN_COUNTS shallowly.
    assert all(type(v) is int for v in info["runs"].values())
    assert info["native_kernels"] == ("clairvoyant", "feedback", "laEDF",
                                      "lpSEH")
    if info["available"]:
        assert info["backend"] == "c-extension"


# ----------------------------------------------------------------------
# Byte identity: compiled == interpreted
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_results_identical_plain(policy):
    interpreted = _run(policy, backend=False)
    compiled = _run(policy, backend=True)
    assert_results_identical(interpreted, compiled)


# ----------------------------------------------------------------------
# Native decision kernels
# ----------------------------------------------------------------------

def assert_policy_state_identical(a, b):
    """The post-run policy state tests read: the feedback predictor
    and lpSEH's analysis count."""
    assert type(a) is type(b)
    if a.name == "feedback":
        for task in a.taskset:
            assert a.prediction(task.name) == b.prediction(task.name)
            assert a._pid[task.name] == b._pid[task.name]
    if a.name == "lpSEH":
        assert a.analysis_calls == b.analysis_calls


def _native_delta(fn):
    before = fastcore.RUN_COUNTS["native_decisions"]
    out = fn()
    return out, fastcore.RUN_COUNTS["native_decisions"] - before


@pytest.mark.parametrize("processor", [generic4_processor, xscale_processor,
                                       ideal_processor])
@pytest.mark.parametrize("name", fastcore.NATIVE_KERNELS)
def test_kernel_results_identical(name, processor):
    """Each kernel policy, on continuous and discrete-level parts, with
    the trace recorded: same result, same post-run policy state, and
    every decision taken natively."""
    p_i, p_c = make_policy(name), make_policy(name)
    interpreted = _run(name, backend=False, policy=p_i,
                       processor=processor(), record_trace=True)
    compiled, native = _native_delta(lambda: _run(
        name, backend=True, policy=p_c, processor=processor(),
        record_trace=True))
    assert_results_identical(interpreted, compiled)
    assert_policy_state_identical(p_i, p_c)
    assert native == compiled.dispatches > 0


kernel_workload = st.tuples(engine_workload,
                            st.sampled_from(fastcore.NATIVE_KERNELS),
                            st.booleans(), st.booleans())


@settings(max_examples=100, deadline=None)
@given(case=kernel_workload)
def test_kernels_match_interpreted_property(case):
    """Generated task sets x kernel policies x {continuous, discrete}:
    compiled results (and traces) equal the interpreted ones bitwise."""
    params, name, discrete, record_trace = case
    taskset = generate_taskset(params["n"], params["u"],
                               np.random.default_rng(params["seed"]))
    horizon = min(taskset.default_horizon(min_jobs_per_task=5), 1500.0)

    def run(backend):
        policy = make_policy(name)
        model = UniformExecution(low=params["low"], high=1.0,
                                 seed=params["seed"])
        processor = generic4_processor() if discrete else ideal_processor()
        with fastcore.forced(backend):
            return simulate(taskset, processor, policy, model,
                            horizon=horizon,
                            record_trace=record_trace), policy

    interpreted, p_i = run(False)
    (compiled, p_c), native = _native_delta(lambda: run(True))
    assert_results_identical(interpreted, compiled)
    assert_policy_state_identical(p_i, p_c)
    assert native == compiled.dispatches


@pytest.mark.parametrize("make, processor, faults", [
    (lambda: LaEdfPolicy(safe=False), ideal_processor, None),
    (lambda: make_policy("feedback", governed=True, governor_margin=1.3),
     ideal_processor, None),
    (lambda: make_policy("lpSEH", overhead_aware=True), xscale_processor,
     None),
    (lambda: make_policy("clairvoyant"), ideal_processor, _fault_plan),
], ids=["laEDF-raw", "governed", "overhead-aware", "faults"])
def test_kernel_fallbacks_identical(make, processor, faults):
    """Configurations the kernels do not reproduce take the Python
    callback (no native decision) and stay byte-identical."""

    def run(backend):
        return _run(None, backend=backend, policy=make(),
                    processor=processor(), record_trace=True,
                    faults=faults() if faults else None)

    interpreted = run(False)
    compiled, native = _native_delta(lambda: run(True))
    assert native == 0
    assert_results_identical(interpreted, compiled)


def test_kernel_fallback_with_telemetry(monkeypatch):
    """Telemetry-on runs need the observe hooks, so they stay Python:
    same results and the same recorded decisions and slack estimates."""
    monkeypatch.setattr(TELEMETRY, "enabled", True)

    def run(backend):
        before = TELEMETRY.snapshot()
        result = _run("lpSEH", backend=backend)
        delta = TELEMETRY.delta_since(before)
        # Histogram totals are float differences of running sums, so
        # compare the exact parts: counters, counts and buckets.
        return result, (delta["counters"],
                        {name: (h["count"], h["buckets"])
                         for name, h in delta["histograms"].items()})

    interpreted, tele_i = run(False)
    (compiled, tele_c), native = _native_delta(lambda: run(True))
    assert native == 0
    assert_results_identical(interpreted, compiled)
    assert tele_i == tele_c
    assert tele_c[1]["policy.lpSEH.slack"][0] > 0


def test_results_identical_faults_governor_trace():
    """The acceptance cell: seeded faults + safety governor + trace."""
    kwargs = dict(faults=_fault_plan(), governed=True, record_trace=True)
    interpreted = _run("lpSEH", backend=False, **kwargs)
    compiled = _run("lpSEH", backend=True, **kwargs)
    assert interpreted.overrun_jobs > 0  # the faults actually fired
    assert_results_identical(interpreted, compiled)


def test_results_identical_discrete_scale_with_overhead():
    """Quantized speed levels + transition overhead (xscale profile)."""
    interpreted = _run("ccEDF", backend=False,
                       processor=xscale_processor())
    compiled = _run("ccEDF", backend=True, processor=xscale_processor())
    assert interpreted.switch_count > 0
    assert_results_identical(interpreted, compiled)


def test_slack_kernels_identical():
    from repro.analysis.slack import (ActiveJob, SystemState, exact_slack,
                                      heuristic_slack, scale_tasks)
    taskset, _ = _workload()
    tasks = scale_tasks(taskset.tasks,
                        max(taskset.utilization, 1e-9))
    time = 23.0
    state = SystemState.build(
        time=time,
        active=tuple(
            ActiveJob(deadline=time + task.deadline - idx,
                      remaining_wcet=task.wcet * 0.4)
            for idx, task in enumerate(tasks[:3])),
        tasks=tasks,
        next_release={task.name: time + 1.0 + idx
                      for idx, task in enumerate(tasks)})
    with fastcore.forced(False):
        exact_i = exact_slack(state, window_cap_periods=2.0)
        heur_i = heuristic_slack(state)
    with fastcore.forced(True):
        exact_c = exact_slack(state, window_cap_periods=2.0)
        heur_c = heuristic_slack(state)
    assert exact_i == exact_c  # bitwise, not approx
    assert heur_i == heur_c


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_doctor_reports_backends(capsys):
    from repro.cli import main
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "numpy:" in out
    assert "batch engine:" in out
    assert "compiled core:" in out
    assert "default workers:" in out
    if fastcore.compiled_available():
        assert "c-extension" in out
        assert "native decision kernels: clairvoyant, feedback, laEDF, " \
            "lpSEH" in out
    else:
        assert "not built" in out


def test_simulate_no_compiled_flag(capsys):
    from repro.cli import main
    before = fastcore.RUN_COUNTS["compiled"]
    try:
        assert main(["simulate", "--policy", "static", "--tasks", "3",
                     "--horizon", "50", "--no-compiled"]) == 0
    finally:
        fastcore.set_compiled_default(None)
    assert fastcore.RUN_COUNTS["compiled"] == before
    assert "policy=static" in capsys.readouterr().out
