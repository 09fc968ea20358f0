"""The benchmark's workloads: which figure driver, grid and backend.

Every workload calls a figure driver in ``repro.experiments.figures``
with nothing but the keyword arguments later code is expected to keep
(the grid, ``n_tasksets``, ``master_seed``, ``workers``,
``cache_dir``) and selects the backend only through the documented
``REPRO_COMPILED`` switch.  See README.md for why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Task sets per cell.  Must stay >= the batch engine's auto threshold
#: (8 seeds) or fig1 would quietly bypass the batch engine.
N_TASKSETS = 10

#: Master seed the recorded reference figures were produced with.
REFERENCE_SEED = 2002

#: Master seeds whose figures are as big as the reference seed's: all
#: 10 task sets per cell release the same number of jobs over the
#: horizon (within 0.3%) and make the same number of ccEDF and lpSTA
#: speed decisions (within 1%).  Across arbitrary master seeds the job
#: count varies by 9.6% (coefficient of variation), because every cell
#: of a figure reuses the same 10 task-set seeds; that alone would
#: swamp the run-to-run comparison this benchmark exists for.
MASTER_SEEDS = (REFERENCE_SEED, 96, 193, 274, 284, 301, 382, 518, 585,
                767, 833, 969, 980)


def master_seed(seed: int) -> int:
    """The figure drivers' ``master_seed`` for benchmark seed *seed*."""
    if seed == REFERENCE_SEED:
        return REFERENCE_SEED
    return MASTER_SEEDS[seed % len(MASTER_SEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Function name in ``repro.experiments.figures``.
    driver: str
    #: The driver keyword that carries the x grid.
    grid_kw: str
    grid: tuple
    #: Reference figure (under ``figbench/reference/``) for seed 2002.
    reference: str
    #: Load the compiled core (else run with ``REPRO_COMPILED=0``).
    compiled: bool
    #: ``True``: a timing sample is one cell (the driver called with a
    #: one-value grid).  ``False``: a sample is one whole-figure call,
    #: which forks a fresh worker pool and fills a fresh cache.
    per_cell: bool
    workers: int = 1

    def env(self) -> dict[str, str]:
        """Environment overrides for every process that imports repro."""
        return {} if self.compiled else {"REPRO_COMPILED": "0"}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig1-compiled",
        driver="energy_vs_utilization", grid_kw="utilizations",
        grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        reference="exp_f1.json", compiled=True, per_cell=True),
    Workload(
        name="fig4-interp",
        driver="energy_vs_levels", grid_kw="level_counts",
        grid=(2, 3, 4, 6, 8, 16, 0),
        reference="exp_f4.json", compiled=False, per_cell=True),
    Workload(
        name="fig2-cache-parallel",
        driver="energy_vs_bcwc", grid_kw="ratios",
        grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        reference="exp_f2.json", compiled=True, per_cell=False,
        workers=2),
)}
