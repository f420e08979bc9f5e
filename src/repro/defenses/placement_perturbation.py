"""Selective gate-level placement perturbation (defense of Wang et al. [5]).

Wang et al. pair their network-flow attack with a defense that perturbs the
placement of selected gates so that proximity no longer identifies the true
partner.  The re-implementation here:

1. places the original netlist normally;
2. selects a fraction of gates (preferring gates on cut-prone, longer nets);
3. displaces each selected gate by a bounded random offset and re-legalizes;
4. re-routes the design on the perturbed placement.

Because the perturbation is bounded by a PPA budget (the paper notes such
schemes offer only marginal protection once splitting happens above the
lowest layers), the resulting layouts remain highly attackable — which is
exactly the comparison point of the paper's Table 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def placement_perturbation_defense(
    netlist: Netlist,
    perturb_fraction: float = 0.10,
    max_displacement_fraction: float = 0.15,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by selective placement perturbation.

    Args:
        netlist: Design to protect.
        perturb_fraction: Fraction of gates whose position is perturbed.
        max_displacement_fraction: Maximum displacement per axis, as a
            fraction of the die width/height (the implicit PPA budget).
        floorplan / utilization / seed: Physical-design knobs.

    Returns:
        A routed :class:`Layout` named ``<design>_placement_perturbed``.
    """
    if not (0.0 <= perturb_fraction <= 1.0):
        raise ValueError("perturb_fraction must be in [0, 1]")
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placer_config = PlacerConfig(seed=seed)
    placement = place(netlist, floorplan, utilization, placer_config)
    rng = make_rng(seed, "placement_perturbation", netlist.name)

    gate_names = list(placement.gate_positions)
    row_of = {name: row for row, name in enumerate(gate_names)}
    rng.shuffle(gate_names)
    num_perturbed = int(len(gate_names) * perturb_fraction)
    die = floorplan.die
    max_dx = die.width * max_displacement_fraction
    max_dy = die.height * max_displacement_fraction
    gate_x = placement.gate_x.copy()
    gate_y = placement.gate_y.copy()
    selected = gate_names[:num_perturbed]
    if selected:
        # The random offsets keep the legacy draw order (x then y per gate);
        # displacement, die clamping and row snapping happen in one pass over
        # the coordinate columns — the same clip/round-half-even operations
        # the per-gate Point loop performed, so the result is bit-identical.
        rows = np.asarray([row_of[gate] for gate in selected], dtype=np.intp)
        offsets = np.asarray(
            [(rng.uniform(-max_dx, max_dx), rng.uniform(-max_dy, max_dy))
             for _gate in selected],
            dtype=np.float64,
        )
        gate_x[rows] = np.clip(gate_x[rows] + offsets[:, 0], die.x_min, die.x_max)
        snapped_y = np.clip(gate_y[rows] + offsets[:, 1], die.y_min, die.y_max)
        gate_y[rows] = floorplan.row_ys(floorplan.nearest_rows(snapped_y))
    placement.set_coordinates(gate_x=gate_x, gate_y=gate_y)

    routing = route(netlist, placement, RouterConfig())
    return Layout(
        name=f"{netlist.name}_placement_perturbed",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "placement_perturbation",
            "perturb_fraction": perturb_fraction,
            "num_perturbed": num_perturbed,
            "seed": seed,
        },
    )
