"""Throughput metrics and normalization (paper Section V-A).

The paper's headline metric is the mix-average throughput
``T = (1/M) * sum_i INF_i/sec`` and everything in Fig. 5 is reported
*normalized* to the GPU-only baseline of the same mix.  The SLO
layer's attainment percentiles (:func:`attainment_percentiles`) live
here too, so the timeline report and the autoscaler's sliding window
share one order statistic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

__all__ = [
    "average_throughput",
    "normalized",
    "speedup",
    "geometric_mean",
    "attainment_percentiles",
]


def average_throughput(rates: Sequence[float]) -> float:
    """The paper's ``T``: mean per-DNN inferences/second of a mix."""
    rates = np.asarray(list(rates), dtype=float)
    if rates.size == 0:
        raise ValueError("cannot average an empty rate vector")
    if (rates < 0).any():
        raise ValueError("rates must be non-negative")
    return float(rates.mean())


def normalized(value: float, baseline: float) -> float:
    """``value / baseline`` with a defensive check on the denominator."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return value / baseline


def speedup(value: float, reference: float) -> float:
    """Alias of :func:`normalized` with speedup naming."""
    return normalized(value, reference)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (for cross-mix speedup summaries)."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("cannot take the geometric mean of nothing")
    if (values <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(values).mean()))


def attainment_percentiles(
    ratios: Iterable[float], percentiles: Sequence[int]
) -> Dict[int, float]:
    """pP attainment: the worst ratio among the best P% of outcomes.

    Exact order statistics, no interpolation: ``p95 >= 1.0`` means 95%
    of the outcomes met their floor.  The rank ``ceil(P * n / 100)`` is
    computed in integers, because the float expression lands one rank
    too deep for some P and n (P=7, n=100 gives 7.000000000000001).
    Empty when there are no ratios.
    """
    ordered = sorted(ratios, reverse=True)
    result: Dict[int, float] = {}
    for percentile in percentiles:
        if not 0 < percentile <= 100:
            raise ValueError(
                f"percentiles must be in (0, 100], got {percentile}"
            )
        if ordered:
            rank = -(-percentile * len(ordered) // 100)
            result[percentile] = ordered[rank - 1]
    return result
