"""Estimators for timings taken on a host whose speed drifts.

Host noise only ever adds time, and slow phases last seconds, so a
timing is estimated from many short samples by a low quantile rather
than by the mean or one long measurement.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Quantile the per-sample estimator reports.  With four or fewer
#: samples it is their minimum.
LOW_Q = 0.2


def low_quantile_index(samples: Sequence[float], q: float = LOW_Q) -> int:
    """Index in *samples* of the value :func:`low_quantile` returns."""
    if not samples:
        raise ValueError("low_quantile needs at least one sample")
    order = sorted(range(len(samples)), key=samples.__getitem__)
    return order[math.floor(q * (len(samples) - 1))]


def low_quantile(samples: Sequence[float], q: float = LOW_Q) -> float:
    """The nearest-rank ``q``-quantile of *samples* (rounded down)."""
    return samples[low_quantile_index(samples, q)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the rule the benchmark
    is judged by; ``0.0`` for fewer than two values.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
