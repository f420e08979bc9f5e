"""Routing-centric ``crouting`` attack (Magaña et al., ICCAD'16 / TVLSI'17).

Unlike the network-flow attack, ``crouting`` does not commit to a recovered
netlist.  For every *vpin* (open via/pin in the topmost FEOL layer) it builds
the list of candidate nets whose own vpins fall inside a bounding box around
it, measured in global-routing-cell (gcell) units.  The paper (and Magaña et
al.) then report:

* **#VPins** — the number of open pins the attacker must reconnect;
* **E[LS]** — the expected (average) candidate-list size for a given bounding
  box (15, 30 and 45 gcells in the paper's Table 3);
* **match in list** — for how many vpins the *correct* partner is inside the
  candidate list (100 % means the search is sound; anything lower means the
  true netlist is not even contained in the reduced solution space).

Large E[LS] and many vpins mean a polynomially larger solution space for any
follow-up attack, which is how the paper argues the superiority of its
defense on the superblue benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sm.split import FEOLView


@dataclass
class CRoutingAttackConfig:
    """Knobs of the crouting attack."""

    #: Side length of one global-routing cell in µm.  Magaña et al. work in
    #: gcell units of the academic routers' grid; 2 µm per gcell keeps the
    #: scaled superblue designs comparable.
    gcell_um: float = 2.0
    #: Bounding-box sizes (in gcells) to evaluate.
    bounding_boxes: Tuple[int, ...] = (15, 30, 45)


@dataclass
class CRoutingAttackResult:
    """Candidate-list statistics per bounding box."""

    num_vpins: int
    #: bounding box (gcells) → expected candidate-list size.
    expected_list_size: Dict[int, float] = field(default_factory=dict)
    #: bounding box (gcells) → fraction of vpins whose true partner is in the list.
    match_in_list: Dict[int, float] = field(default_factory=dict)
    #: bounding box (gcells) → per-vpin candidate counts (driver+sink vpins).
    candidate_counts: Dict[int, List[int]] = field(default_factory=dict)


#: Sink rows per Chebyshev-distance block.
_BLOCK_ROWS = 64


def crouting_attack(view: FEOLView,
                    config: Optional[CRoutingAttackConfig] = None) -> CRoutingAttackResult:
    """Run the crouting candidate-list analysis on a FEOL view.

    Every vpin's candidates are the vpins of the *opposite* kind (drivers for
    a sink, sinks for a driver) within a square bounding box of the given
    size centred on the vpin.  A pair is inside a box of half-width *r* iff
    its Chebyshev distance ``max(|dx|, |dy|)`` is at most *r*, and that
    distance is symmetric, so one sink x driver distance block serves every
    box and both sides: sink counts are its row counts, driver counts its
    column counts.  Match-in-list reads the distances of the true pairs.
    """
    config = config if config is not None else CRoutingAttackConfig()
    arrays = view.columns
    num_drivers, num_sinks = len(arrays.driver_ids), len(arrays.sink_ids)
    result = CRoutingAttackResult(num_vpins=num_drivers + num_sinks)
    if not num_drivers or not num_sinks:
        for box in config.bounding_boxes:
            result.expected_list_size[box] = 0.0
            result.match_in_list[box] = 0.0
            result.candidate_counts[box] = []
        return result

    driver_x, driver_y = arrays.driver_xy[:, 0], arrays.driver_xy[:, 1]
    sink_x, sink_y = arrays.sink_xy[:, 0], arrays.sink_xy[:, 1]

    def pair_distance(sink_rows: np.ndarray, driver_cols: np.ndarray) -> np.ndarray:
        return np.maximum(
            np.abs(driver_x[driver_cols] - sink_x[sink_rows]),
            np.abs(driver_y[driver_cols] - sink_y[sink_rows]),
        )

    # The true pairs whose vpins are both listed.
    known = (arrays.conn_sink >= 0) & (arrays.conn_driver >= 0)
    pair_sinks = arrays.conn_sink[known]
    pair_drivers = arrays.conn_driver[known]
    # Sinks with a true driver (the last connection naming the sink), and
    # the distance to it.
    true_driver = np.full(num_sinks, -1, dtype=np.int64)
    true_driver[pair_sinks] = pair_drivers
    sink_truth_rows = np.flatnonzero(true_driver >= 0)
    sink_truth_distance = pair_distance(sink_truth_rows, true_driver[sink_truth_rows])
    # Drivers with true sinks, and the distance to the nearest of them.
    driver_truth_distance = np.full(num_drivers, np.inf)
    np.minimum.at(
        driver_truth_distance, pair_drivers, pair_distance(pair_sinks, pair_drivers)
    )
    driver_has_truth = np.zeros(num_drivers, dtype=bool)
    driver_has_truth[pair_drivers] = True
    driver_truth_distance = driver_truth_distance[driver_has_truth]
    total_with_truth = len(sink_truth_rows) + int(driver_has_truth.sum())

    radii = [box * config.gcell_um / 2.0 for box in config.bounding_boxes]
    sink_counts = np.zeros((len(radii), num_sinks), dtype=np.int64)
    driver_counts = np.zeros((len(radii), num_drivers), dtype=np.int64)
    for lo in range(0, num_sinks, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, num_sinks)
        chebyshev = np.maximum(
            np.abs(sink_x[lo:hi, None] - driver_x),
            np.abs(sink_y[lo:hi, None] - driver_y),
        )
        for b, radius in enumerate(radii):
            inside = chebyshev <= radius
            sink_counts[b, lo:hi] = np.count_nonzero(inside, axis=1)
            driver_counts[b] += np.count_nonzero(inside, axis=0)

    for b, (box, radius) in enumerate(zip(config.bounding_boxes, radii)):
        counts = np.concatenate((sink_counts[b], driver_counts[b]))
        matches = (
            int(np.count_nonzero(sink_truth_distance <= radius))
            + int(np.count_nonzero(driver_truth_distance <= radius))
        )
        result.candidate_counts[box] = counts.tolist()
        result.expected_list_size[box] = float(np.mean(counts))
        result.match_in_list[box] = (
            100.0 * matches / total_with_truth if total_with_truth else 0.0
        )
    return result
