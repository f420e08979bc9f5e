"""Security metrics: CCR, OER and HD (paper Sec. 2).

* **CCR** (correct connection rate): the ratio of successfully recovered
  driver→sink connections over all connections the attack had to recover.
  The paper reports CCR over the *protected* (randomized) nets for its own
  scheme and over all cut nets for unprotected layouts; both variants are
  supported via the ``restrict_to_protected`` flag.
* **OER** (output error rate): probability that the recovered netlist
  produces at least one wrong output bit for a random pattern.
* **HD** (Hamming distance): average fraction of output bits that differ
  between the original and the recovered netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.netlist.engine import PlanSource
from repro.netlist.simulate import error_rate_and_hamming
from repro.sm.split import FEOLView, feol_arrays


@dataclass
class SecurityReport:
    """CCR / OER / HD of one attack run, all in percent."""

    ccr_percent: float
    oer_percent: float
    hd_percent: float
    num_connections_scored: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "ccr_percent": self.ccr_percent,
            "oer_percent": self.oer_percent,
            "hd_percent": self.hd_percent,
            "num_connections_scored": self.num_connections_scored,
        }


def _scored_connections(view: FEOLView, restrict_to_protected: bool) -> np.ndarray:
    """Rows of the ground-truth connections a CCR scores."""
    protected = feol_arrays(view).conn_protected
    if restrict_to_protected and protected.any():
        return np.flatnonzero(protected)
    return np.arange(len(protected))


def correct_connection_rate(view: FEOLView, assignment: Mapping[int, int],
                            restrict_to_protected: bool = False) -> float:
    """CCR (in percent) of a sink→driver assignment against the ground truth.

    Args:
        view: The attacked FEOL view (carries the ground truth).
        assignment: Mapping sink-vpin id → driver-vpin id chosen by the attack.
        restrict_to_protected: Score only the connections belonging to nets
            the defense randomized (the paper's headline CCR for its scheme);
            when the layout has no protected nets all cut connections are
            scored regardless of this flag.
    """
    scored = _scored_connections(view, restrict_to_protected)
    if not scored.size:
        return 0.0
    arrays = feol_arrays(view)
    sink_ids = arrays.sink_ids.tolist()
    driver_ids = arrays.driver_ids.tolist()
    driver_nets = dict(zip(driver_ids, arrays.driver_net_idx.tolist()))
    correct = 0
    for sink, driver, net in zip(arrays.conn_sink[scored].tolist(),
                                 arrays.conn_driver[scored].tolist(),
                                 arrays.conn_net_idx[scored].tolist()):
        assigned = assignment.get(sink_ids[sink]) if sink >= 0 else None
        if assigned is None:
            continue
        # A connection is recovered when the sink is attached to the right
        # *net*; multi-fanout nets expose several driver-side vias and any of
        # them restores the correct connectivity.
        if ((driver >= 0 and assigned == driver_ids[driver])
                or driver_nets.get(assigned, -1) == net):
            correct += 1
    return 100.0 * correct / scored.size


def evaluate_attack(view: FEOLView, assignment: Mapping[int, int],
                    recovered_netlist: Optional[PlanSource],
                    restrict_to_protected: bool = False,
                    num_patterns: int = 2048,
                    seed: int = 0) -> SecurityReport:
    """Compute the full CCR / OER / HD report for one attack run.

    The OER and HD compare the layout's true netlist against the attacker's
    recovered netlist, a :class:`~repro.netlist.netlist.Netlist` or a
    :class:`~repro.netlist.arrays.NetlistOverlay` (simulated without
    building the netlist); when none is available (e.g. the routing-centric
    attack) they are reported as 0.
    """
    ccr = correct_connection_rate(view, assignment, restrict_to_protected)
    oer = 0.0
    hd = 0.0
    if recovered_netlist is not None:
        oer, hd = error_rate_and_hamming(
            view.layout.netlist, recovered_netlist, num_patterns, seed
        )
    return SecurityReport(
        ccr_percent=ccr,
        oer_percent=oer,
        hd_percent=hd,
        num_connections_scored=len(
            _scored_connections(view, restrict_to_protected)
        ),
    )
