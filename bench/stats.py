"""Order statistics used for every figure the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating between ranks.

    Rank position is q/100 * (n - 1) over the sorted values, the same rule
    as `statistics.quantiles(..., method="inclusive")` and NumPy's default.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
