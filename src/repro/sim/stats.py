"""Summary statistics used by every experiment.

The paper reports means, tail percentiles (99th / 99.9th) and
bandwidth. :func:`summarize` reduces raw latency samples to those
statistics and :func:`gbps` converts byte rates to the paper's unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["LatencySummary", "gbps", "summarize"]


@dataclass
class LatencySummary:
    """Summary statistics over a latency sample set (all in seconds)."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    minimum: float
    maximum: float
    stddev: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
        }


def summarize(samples) -> LatencySummary:
    """Compute a :class:`LatencySummary` from an iterable of samples."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p99=float(np.percentile(arr, 99)),
        p999=float(np.percentile(arr, 99.9)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        stddev=float(arr.std()),
    )


def gbps(bytes_per_second: float) -> float:
    """Convert bytes/s to gigabits/s (decimal gigabits, as in the paper)."""
    return bytes_per_second * 8.0 / 1e9
