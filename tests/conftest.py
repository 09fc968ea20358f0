"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.power import PolynomialPowerModel
from repro.cpu.processor import Processor
from repro.cpu.profiles import ideal_processor
from repro.cpu.speed import ContinuousScale
from repro.sim import fastcore
from repro.tasks.execution import UniformExecution, WorstCaseExecution
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@pytest.fixture
def two_task_set() -> TaskSet:
    """A tiny hand-analysable set: U = 0.5, hyperperiod 20."""
    return TaskSet([
        PeriodicTask("A", wcet=1.0, period=4.0),
        PeriodicTask("B", wcet=2.5, period=10.0),
    ])


@pytest.fixture
def three_task_set() -> TaskSet:
    """U = 0.75 with a long task; hyperperiod 40."""
    return TaskSet([
        PeriodicTask("A", wcet=1.0, period=5.0),
        PeriodicTask("B", wcet=2.0, period=8.0),
        PeriodicTask("C", wcet=12.0, period=40.0),
    ])


@pytest.fixture
def saturated_task_set() -> TaskSet:
    """Exactly U = 1.0 — the tightest feasible implicit-deadline set."""
    return TaskSet([
        PeriodicTask("A", wcet=2.0, period=4.0),
        PeriodicTask("B", wcet=5.0, period=10.0),
    ])


@pytest.fixture
def processor() -> Processor:
    """Continuous ideal processor with cubic power."""
    return ideal_processor(min_speed=0.05)


@pytest.fixture
def cubic_processor() -> Processor:
    """Continuous processor with an explicit very low floor."""
    return Processor(scale=ContinuousScale(min_speed=0.01),
                     power_model=PolynomialPowerModel(alpha=3.0))


@pytest.fixture
def worst_case_model() -> WorstCaseExecution:
    return WorstCaseExecution()


@pytest.fixture
def half_model() -> UniformExecution:
    """Uniform demand in [0.5, 1.0] x WCET, fixed seed."""
    return UniformExecution(low=0.5, high=1.0, seed=42)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# The compiled core, built once per session for `compiled` tests
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent
FASTCORE_MODULE = "repro.sim._fastcore"


@pytest.fixture(scope="session")
def fastcore_extension(tmp_path_factory):
    """``_fastcore.c`` from this checkout, compiled into a tmp dir.

    Built by the repo's own ``REPRO_COMPILE=1 setup.py build_ext``, so
    the flags match an installed user's and the source tree is never
    written to.  Skips (loudly) when no C toolchain can build it.
    """
    out = tmp_path_factory.mktemp("fastcore")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "tmp")],
        cwd=REPO_ROOT, env={**os.environ, "REPRO_COMPILE": "1"},
        capture_output=True, text=True, check=False)
    path = (out / "repro" / "sim"
            / f"_fastcore{sysconfig.get_config_var('EXT_SUFFIX')}")
    if proc.returncode != 0 or not path.exists():
        pytest.skip("COMPILED CORE UNTESTED: building _fastcore.c failed "
                    "(no working C compiler?):\n"
                    + (proc.stderr or proc.stdout)[-1500:])
    loader = importlib.machinery.ExtensionFileLoader(FASTCORE_MODULE,
                                                     str(path))
    spec = importlib.util.spec_from_file_location(FASTCORE_MODULE, path,
                                                  loader=loader)
    previous = sys.modules.get(FASTCORE_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Loading registers the module; keep the process-wide import state
    # as the install left it, so only `compiled` tests see this build.
    if previous is None:
        sys.modules.pop(FASTCORE_MODULE, None)
    else:
        sys.modules[FASTCORE_MODULE] = previous
    return module


@pytest.fixture(autouse=True)
def _compiled_backend(request):
    """Serve the session build to `compiled`-marker tests only; every
    other test keeps the backend the install provides."""
    if request.node.get_closest_marker("compiled") is not None:
        request.getfixturevalue("monkeypatch").setattr(
            fastcore, "_EXT", request.getfixturevalue("fastcore_extension"))
