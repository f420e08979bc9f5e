"""Routing-blockage defense (Magaña et al., ICCAD'16 / TVLSI'17, [6, 7]).

Magaña et al. protect layouts by inserting routing blockages in intermediate
layers, which *implicitly* forces the router to move wiring upwards and
thereby increases the number of vias/vpins above the split layer.  The
paper's Table 6 compares against their reported ΔV67/ΔV78 on the superblue
suite.

Re-implementation: blockages are modelled as a per-net probability of being
displaced one layer pair upwards (nets that would have routed across a
blocked region must climb over it).  Connectivity and placement are
untouched; only the layer assignment shifts.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def routing_blockage_defense(
    netlist: Netlist,
    blockage_probability: float = 0.25,
    promote_layers: int = 2,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by (modelled) routing blockages.

    Args:
        netlist: Design to protect.
        blockage_probability: Probability that a net's routing has to climb
            over a blockage and is promoted ``promote_layers`` layers up.
        promote_layers: How many layers a blocked net is promoted.
        floorplan / utilization / seed: Physical-design knobs.
    """
    if not (0.0 <= blockage_probability <= 1.0):
        raise ValueError("blockage_probability must be in [0, 1]")
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "routing_blockage", netlist.name)
    config = RouterConfig()
    half_perimeter = floorplan.half_perimeter_um

    # Decide per net whether a blockage forces it upwards; implemented as a
    # per-net minimum layer equal to its natural layer + promotion.
    min_layer: Dict[str, int] = {}
    baseline = route(netlist, placement, config)
    h_layers = baseline.h_layer.tolist()
    starts = baseline.conn_starts.tolist()
    for index, net_name in enumerate(baseline):
        if rng.random() >= blockage_probability:
            continue
        natural_top = max(h_layers[starts[index]:starts[index + 1]], default=2)
        min_layer[net_name] = min(natural_top + promote_layers, 8)

    routing = route(netlist, placement, config, min_layer)
    return Layout(
        name=f"{netlist.name}_routing_blockage",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "routing_blockage",
            "blocked_nets": len(min_layer),
            "seed": seed,
        },
    )
