"""Distances between truly connected gates (paper Table 1 / Fig. 4).

The distance values come out of the layout's columnar connection-pair arrays
(one vectorized ``|dx| + |dy|`` pass, bit-exact with the historical per-pair
loop); the summary statistics and histograms are single NumPy reductions over
that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.layout.layout import Layout


@dataclass
class DistanceStats:
    """Mean / median / standard deviation of driver→sink gate distances (µm)."""

    mean: float
    median: float
    std_dev: float
    count: int
    values: List[float]


def distance_stats(layout: Layout, nets: Optional[Set[str]] = None) -> DistanceStats:
    """Compute distance statistics for ``layout``.

    Args:
        layout: The layout to measure (its ``netlist`` holds the *true*
            connectivity, so for protected layouts this measures exactly what
            the paper's Table 1 reports: how far apart truly connected gates
            ended up when the erroneous netlist was placed).
        nets: Restrict to these nets (e.g. the randomized set); default all.
    """
    values = layout.connected_gate_distance_array(nets)
    if values.size == 0:
        return DistanceStats(0.0, 0.0, 0.0, 0, [])
    return DistanceStats(
        mean=float(np.mean(values)),
        median=float(np.median(values)),
        std_dev=float(np.std(values)) if values.size > 1 else 0.0,
        count=int(values.size),
        values=values.tolist(),
    )


def distance_histogram(values: Sequence[float], num_bins: int = 20) -> List[int]:
    """Simple fixed-width histogram of distance values (plot-free Fig. 4 aid)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return [0] * num_bins
    top = float(array.max()) or 1.0
    # Same float ops as the legacy loop: int(num_bins * value / top), clipped.
    index = np.minimum((num_bins * array / top).astype(np.int64), num_bins - 1)
    return np.bincount(index, minlength=num_bins).tolist()
