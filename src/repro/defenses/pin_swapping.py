"""Block-pin swapping (Rajendran et al., DATE'13, [3]).

The original scheme targets hierarchical SoCs: the pins of IP blocks are
swapped and the system-level interconnect re-routed through the BEOL so that
an attacker at the FEOL foundry cannot tell which block pin carries which
signal.  The paper points out two limitations it inherits: only the
system-level (here: I/O-adjacent) interconnect is covered, and the solution
space is small — on average 87 % of connections can still be recovered.

The flat re-implementation treats the primary I/O ports as the "block pins":
a fraction of port positions are swapped pairwise, the nets attached to them
are lifted one layer pair and re-routed, and everything else is untouched.
Gate-level nets gain no protection, matching the scheme's known weakness.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def pin_swapping_defense(
    netlist: Netlist,
    swap_fraction: float = 0.5,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    lift_layer: int = 4,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by I/O (block-) pin swapping.

    Args:
        netlist: Design to protect.
        swap_fraction: Fraction of I/O ports participating in pairwise swaps.
        lift_layer: Layer floor for nets attached to swapped pins (their
            re-routing through the BEOL).
        floorplan / utilization / seed: Physical-design knobs.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "pin_swapping", netlist.name)

    row_of = {name: row for row, name in enumerate(placement.port_names)}
    ports = list(placement.port_names)
    rng.shuffle(ports)
    participating = ports[: int(len(ports) * swap_fraction)]
    swapped_ports = []
    xs = placement.port_x.tolist()
    ys = placement.port_y.tolist()
    for first, second in zip(participating[0::2], participating[1::2]):
        a, b = row_of[first], row_of[second]
        xs[a], xs[b] = xs[b], xs[a]
        ys[a], ys[b] = ys[b], ys[a]
        swapped_ports.extend((first, second))
    placement.set_coordinates(port_x=xs, port_y=ys)

    # Nets attached to swapped ports are re-routed through higher layers.
    min_layer: Dict[str, int] = {}
    net_id = netlist_arrays(netlist).net_id
    for port in swapped_ports:
        if port in net_id:
            min_layer[port] = lift_layer
        if port in netlist.output_nets:
            min_layer[netlist.output_nets[port]] = lift_layer

    routing = route(netlist, placement, RouterConfig(), min_layer)
    return Layout(
        name=f"{netlist.name}_pin_swapped",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "pin_swapping",
            "swapped_ports": swapped_ports,
            "seed": seed,
        },
    )
