"""Plain proximity attack: connect every open sink to the nearest open driver.

This is the simplest member of the proximity-attack family and serves as a
baseline/ablation for the full network-flow attack: no load, direction or
loop reasoning, no global assignment — each sink vpin independently picks the
closest driver vpin.  On well-placed unprotected layouts it already recovers
a large fraction of the missing BEOL connections, which is precisely the
observation that motivated split-manufacturing attacks in the first place.

Tie-breaking is explicitly deterministic: when several drivers are at the
same (minimal) Manhattan distance from a sink, the **first driver in
``view.driver_vpins`` order wins** — i.e. the driver vpin with the lowest
list position, which for FEOL views produced by :func:`~repro.sm.split.
extract_feol` is also the lowest vpin identifier.  The attack (a batched
nearest-driver query against the shared
:class:`~repro.layout.arrays.UniformGridIndex` of the FEOL view) and the
historical per-pair double loop, kept as the test oracle
``proximity_attack_reference`` in ``tests/attack_oracle.py``, both implement
exactly this rule, so their assignments are bit-exact equal (see
``tests/test_layout_arrays.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sm.split import FEOLView, feol_arrays


@dataclass
class ProximityAttackResult:
    """Sink-vpin → driver-vpin assignment produced by the attack."""

    assignment: Dict[int, int] = field(default_factory=dict)
    num_sinks: int = 0
    num_drivers: int = 0

    def recovered_pairs(self) -> Dict[int, int]:
        return dict(self.assignment)


def proximity_attack(view: FEOLView) -> ProximityAttackResult:
    """Assign every open sink to its geometrically nearest open driver.

    Sinks on the same gate as a candidate driver are not excluded and no
    consistency constraints are enforced — this is deliberately the naive
    attack.  Distance ties resolve to the first driver in
    ``view.driver_vpins`` order (see the module docstring).

    The computation is a batched nearest-neighbor query over the columnar
    vpin arrays: a uniform-grid spatial index over the driver positions
    answers all sink queries at once, replacing the historical
    O(sinks x drivers) Python double loop with identical results.
    """
    result = ProximityAttackResult(
        num_sinks=len(view.sink_vpins), num_drivers=len(view.driver_vpins)
    )
    if not view.driver_vpins or not view.sink_vpins:
        return result
    arrays = feol_arrays(view)
    nearest, _distances = arrays.driver_grid().nearest(arrays.sink_xy)
    driver_ids = arrays.driver_ids[nearest]
    result.assignment = {
        int(sink_id): int(driver_id)
        for sink_id, driver_id in zip(arrays.sink_ids, driver_ids)
    }
    return result
