"""Synergistically secure split fabrication (Feng et al., ICCAD'17, [9]).

Feng et al. combine placement-aware net selection with aggressive routing
detours so that both the proximity and the routing hints degrade together;
the paper quotes ~21 % CCR remaining — the strongest prior art in Table 5,
still far from the proposed scheme's 0 %.

Re-implementation: the defense perturbs the placement of the gates on the
selected nets *and* detours those nets' routing with decoy stub directions
(the combination of the two weaker baselines), under one displacement budget.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def synergistic_defense(
    netlist: Netlist,
    protect_fraction: float = 0.35,
    displacement_fraction: float = 0.35,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    lift_layer: int = 5,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by the combined placement+routing scheme.

    Args:
        netlist: Design to protect.
        protect_fraction: Fraction of nets selected for protection.
        displacement_fraction: Displacement budget per protected gate, as a
            fraction of the die half-perimeter.
        lift_layer: Layer floor applied to protected nets.
        floorplan / utilization / seed: Physical-design knobs.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "synergistic", netlist.name)
    die = floorplan.die

    net_names = [name for name, net in netlist.nets.items() if net.sinks and net.has_driver()]
    rng.shuffle(net_names)
    protected: Set[str] = set(net_names[: int(len(net_names) * protect_fraction)])

    # Placement component: displace the sink gates of protected nets.  Nets
    # are visited in sorted order so the RNG stream (and therefore the
    # layout) is independent of string-hash randomization across processes.
    reach = floorplan.half_perimeter_um * displacement_fraction
    row_of = {name: row for row, name in enumerate(placement.gate_positions)}
    xs = placement.gate_x.tolist()
    ys = placement.gate_y.tolist()
    for net_name in sorted(protected):
        for sink_gate, _pin in netlist.nets[net_name].sinks:
            r = row_of.get(sink_gate)
            if r is None:
                continue
            candidate = Point(
                xs[r] + rng.uniform(-reach, reach),
                ys[r] + rng.uniform(-reach, reach),
            )
            snapped = die.clamp(candidate)
            xs[r] = snapped.x
            ys[r] = floorplan.row_y(floorplan.nearest_row(snapped.y))
    placement.set_coordinates(gate_x=xs, gate_y=ys)

    # Routing component: lift protected nets and aim their stubs at decoys.
    min_layer = {name: lift_layer for name in protected}
    # The decoys are written into the hint columns of the fresh routing
    # (one (source x, source y, target x, target y) draw per connection,
    # nets in sorted order).
    routing = route(netlist, placement, RouterConfig(), min_layer)
    conn_idx = routing.connection_indices(sorted(protected))
    decoys = np.asarray(
        [[rng.uniform(die.x_min, die.x_max), rng.uniform(die.y_min, die.y_max),
          rng.uniform(die.x_min, die.x_max), rng.uniform(die.y_min, die.y_max)]
         for _ci in range(conn_idx.size)],
        dtype=np.float64,
    ).reshape(-1, 4)
    routing.override_hints(
        conn_idx, decoys[:, 0], decoys[:, 1], decoys[:, 2], decoys[:, 3],
    )

    return Layout(
        name=f"{netlist.name}_synergistic",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "synergistic",
            "protected_nets": len(protected),
            "seed": seed,
        },
    )
