"""Net selection and the naive-lifting baseline.

The paper's comparative baseline, *naive lifting*, applies the same flow as
the protection scheme — the same set of nets is lifted to M6/M8 via custom
cells — but **without** randomizing the netlist first, i.e. with the true
connectivity.  This isolates the benefit of the misleading placement/routing
from the benefit of merely moving wires into the BEOL.

:func:`select_nets_for_lifting` picks the nets (either the nets a
randomization run perturbed — for a fair comparison on "the same set of
nets", as the paper does in Table 2 — or a random selection), and
:func:`build_naive_lifted_layout` runs the physical-design flow with those
nets constrained to the lift layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.correction_cells import (
    CorrectionCellInstance,
    legalize_correction_cells,
    place_correction_cells,
)
from repro.layout.arrays import routing_columns
from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Point
from repro.layout.layout import Layout, build_layout
from repro.layout.placer import PlacerConfig
from repro.layout.router import RouterConfig
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def select_nets_for_lifting(netlist: Netlist, count: int, seed: int = 0,
                            exclude: Optional[Set[str]] = None) -> List[str]:
    """Randomly select ``count`` liftable nets.

    Only nets driven by a gate or primary input and having at least one gate
    sink are eligible (the same eligibility rule as the randomizer's).
    """
    exclude = exclude or set()
    eligible = [
        net.name
        for net in netlist.nets.values()
        if net.has_driver() and net.sinks and net.name not in exclude
    ]
    rng = make_rng(seed, "lift_selection", netlist.name)
    rng.shuffle(eligible)
    return sorted(eligible[:count])


def build_naive_lifted_layout(
    netlist: Netlist,
    lifted_nets: Sequence[str],
    lift_layer: int,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    placer_config: Optional[PlacerConfig] = None,
    router_config: Optional[RouterConfig] = None,
    seed: int = 0,
) -> Layout:
    """Build the naive-lifting baseline layout.

    The original netlist is placed exactly like the unprotected layout (same
    seed, same floorplan) and the listed nets are routed with the lift layer
    as a floor, mimicking the naive-lifting cells.  Correction-cell-style
    lifting cells are placed and legalized for completeness and recorded in
    the layout metadata.

    Returns:
        A :class:`Layout` named ``<design>_lifted`` with ``lift_layer`` set
        (its ``protected_nets`` stays empty — connectivity is untouched).
    """
    min_layer = {net: lift_layer for net in lifted_nets}
    layout = build_layout(
        netlist,
        name=f"{netlist.name}_lifted",
        utilization=utilization,
        floorplan=floorplan,
        placer_config=placer_config,
        router_config=router_config,
        min_layer_per_net=min_layer,
        seed=seed,
    )
    layout.lift_layer = lift_layer
    layout.metadata["lifted_nets"] = list(lifted_nets)

    # Place one lifting cell per lifted connection endpoint (driver + sink),
    # read from the routing columns so the layout's backing stays clean.
    routing = routing_columns(layout.routing)
    position = {name: index for index, name in enumerate(routing.net_names)}
    anchors = []
    connection_id = 0
    for net_name in lifted_nets:
        index = position.get(net_name)
        if index is None or routing.driver_points[index] is None:
            continue
        driver_point = routing.driver_points[index]
        net = netlist.nets[net_name]
        driver_gate = net.driver[0] if net.driver is not None else None
        for ci in range(int(routing.conn_starts[index]),
                        int(routing.conn_starts[index + 1])):
            anchors.append((connection_id, "driver", driver_gate, driver_point))
            sink = routing.sink_refs[ci]
            sink_gate = sink[0] if sink[0] != "PO" else None
            target = (routing.target_points[ci]
                      if routing.target_points is not None
                      else Point(float(routing.tx[ci]), float(routing.ty[ci])))
            anchors.append((connection_id, "sink", sink_gate, target))
            connection_id += 1
    cells = place_correction_cells(anchors, lift_layer, naive=True)
    cells = legalize_correction_cells(cells, layout.floorplan)
    layout.metadata["lifting_cells"] = cells
    return layout
