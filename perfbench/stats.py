"""Order statistics for the benchmark's timings.

Every timing is reported as a median plus a tail percentile.  The tail is
only meaningful when enough samples lie beyond it, so
:func:`tail_percentile` picks the highest candidate percentile that still
has at least :data:`MIN_BEYOND` samples above it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(count: int, q: float) -> int:
    """Nearest rank of percentile ``q`` among ``count`` samples (rounded
    before the ceiling, so 99.9% of 10000 is rank 9990, not 9991)."""
    return math.ceil(round(q * count / 100.0, 9))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return sorted_values[max(0, _rank(len(sorted_values), q) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - _rank(count, q)


def tail_percentile(
    sorted_values: Sequence[float], candidates: Sequence[float] = TAIL_CANDIDATES
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest ``q`` with at least :data:`MIN_BEYOND`
    samples beyond it; None when even the lowest candidate has too few."""
    count = len(sorted_values)
    for q in sorted(candidates, reverse=True):
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q, percentile(sorted_values, q)
    return None


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0

