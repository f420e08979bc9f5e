"""Routing perturbation (Wang et al., ASP-DAC'17, [12]).

The scheme re-routes selected nets with deliberate detours so that the
dangling-wire directions and routed FEOL geometry stop pointing at the true
partner, without touching the netlist or the placement.  Because it is a
post-processing step on a finished layout it is constrained by routing
resources and the PPA budget — the paper quotes ~72 % CCR remaining.

Re-implementation: a fraction of nets is selected; each selected connection
is lifted one layer pair and its FEOL stub hints are re-aimed at a *decoy*
point a bounded distance away from the true partner.  The placement (and
therefore raw proximity) is unchanged, so an attacker ignoring the stub
directions still succeeds on most nets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def routing_perturbation_defense(
    netlist: Netlist,
    perturb_fraction: float = 0.3,
    decoy_distance_fraction: float = 0.25,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    lift_layer: int = 5,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by routing perturbation.

    Args:
        netlist: Design to protect.
        perturb_fraction: Fraction of nets whose routing is detoured.
        decoy_distance_fraction: How far (as a fraction of the die
            half-perimeter) the decoy direction points away from the true
            partner.
        lift_layer: Layer floor applied to detoured nets.
        floorplan / utilization / seed: Physical-design knobs.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "routing_perturbation", netlist.name)

    net_names = netlist_arrays(netlist).driven_loaded_nets()
    rng.shuffle(net_names)
    perturbed = set(net_names[: int(len(net_names) * perturb_fraction)])
    min_layer = {name: lift_layer for name in perturbed}

    routing = route(netlist, placement, RouterConfig(), min_layer)

    # Re-aim the FEOL stub hints of perturbed connections at decoy points.
    # Nets are visited in sorted order (the historical set iteration depended
    # on string-hash randomization across processes); the random offsets keep
    # one draw order per connection while the anchor + offset computation and
    # die clamping run in a single pass over the coordinate arrays.
    die = floorplan.die
    decoy_reach = floorplan.half_perimeter_um * decoy_distance_fraction
    # Gather the perturbed connection indices from the CSR, compute anchors
    # from the coordinate columns and write the decoys back through
    # override_hints.
    conn_idx = routing.connection_indices(sorted(perturbed))
    if conn_idx.size:
        anchors = np.column_stack((
            routing.tx[conn_idx], routing.ty[conn_idx],
            routing.sx[conn_idx], routing.sy[conn_idx],
        ))
        offsets = np.asarray(
            [[rng.uniform(-decoy_reach, decoy_reach) for _ in range(4)]
             for _i in range(conn_idx.size)],
            dtype=np.float64,
        )
        decoys = anchors + offsets
        decoys[:, 0::2] = np.clip(decoys[:, 0::2], die.x_min, die.x_max)
        decoys[:, 1::2] = np.clip(decoys[:, 1::2], die.y_min, die.y_max)
        routing.override_hints(
            conn_idx, decoys[:, 0], decoys[:, 1],
            decoys[:, 2], decoys[:, 3],
        )

    return Layout(
        name=f"{netlist.name}_routing_perturbed",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "routing_perturbation",
            "perturbed_nets": len(perturbed),
            "seed": seed,
        },
    )
