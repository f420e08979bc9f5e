"""Net selection and the naive-lifting baseline.

The paper's comparative baseline, *naive lifting*, applies the same flow as
the protection scheme — the same set of nets is lifted to M6/M8 via custom
cells — but **without** randomizing the netlist first, i.e. with the true
connectivity.  This isolates the benefit of the misleading placement/routing
from the benefit of merely moving wires into the BEOL.

:func:`select_nets_for_lifting` picks the nets (either the nets a
randomization run perturbed — for a fair comparison on "the same set of
nets", as the paper does in Table 2 — or a random selection), and
:func:`build_naive_lifted_layout` routes the original netlist over the
unprotected layout's placement with those nets constrained to the lift
layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.core.correction_cells import place_correction_cells
from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.placer import PlacementResult
from repro.layout.router import RouterConfig, route
from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def select_nets_for_lifting(netlist: Netlist, count: int, seed: int = 0,
                            exclude: Optional[Set[str]] = None) -> List[str]:
    """Randomly select ``count`` liftable nets.

    Only nets driven by a gate or primary input and having at least one gate
    sink are eligible (the same eligibility rule as the randomizer's).
    """
    exclude = exclude or set()
    eligible = [name for name in netlist_arrays(netlist).driven_loaded_nets()
                if name not in exclude]
    rng = make_rng(seed, "lift_selection", netlist.name)
    rng.shuffle(eligible)
    return sorted(eligible[:count])


def build_naive_lifted_layout(
    original: Layout,
    lifted_nets: Sequence[str],
    lift_layer: int,
    router_config: Optional[RouterConfig] = None,
) -> Layout:
    """Build the naive-lifting baseline layout over ``original``'s placement.

    The original netlist keeps the unprotected layout's placement: the new
    layout's :class:`~repro.layout.placer.PlacementResult` shares
    ``original``'s read-only columns (moving one placement's cells with
    ``set_coordinates`` leaves the other as it is), so nothing is placed
    again.  The listed nets are routed with the lift layer as a floor,
    mimicking the naive-lifting cells.  Correction-cell-style lifting cells
    are placed and legalized for completeness and recorded in the layout
    metadata.

    Returns:
        A :class:`Layout` named ``<design>_lifted`` with ``lift_layer`` set
        (its ``protected_nets`` stays empty — connectivity is untouched).
    """
    netlist = original.netlist
    shared = original.placement
    placement = PlacementResult(
        shared.floorplan, shared.gate_names, shared.gate_index, shared.gate_x,
        shared.gate_y, shared.port_names, shared.port_x, shared.port_y, shared.config,
    )
    routing = route(netlist, placement, router_config,
                    {net: lift_layer for net in lifted_nets})
    layout = Layout(
        name=f"{netlist.name}_lifted",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={key: original.metadata[key] for key in ("utilization", "seed")
                  if key in original.metadata},
    )
    layout.lift_layer = lift_layer
    layout.metadata["lifted_nets"] = list(lifted_nets)
    layout.metadata["lifting_cells"] = place_correction_cells(
        lifting_cell_anchors(layout, lifted_nets), lift_layer, layout.floorplan,
        naive=True)
    return layout


def lifting_cell_anchors(layout: Layout, lifted_nets: Sequence[str]
                         ) -> List[Tuple[int, str, Optional[str], Point]]:
    """One lifting-cell anchor per lifted connection endpoint (driver and
    sink), read from ``layout``'s routing columns, in
    :func:`~repro.core.correction_cells.place_correction_cells` form."""
    arrays = netlist_arrays(layout.netlist)
    routing = layout.routing
    position = routing.positions()
    anchors = []
    connection_id = 0
    for net_name in lifted_nets:
        index = position.get(net_name)
        if index is None or not routing.has_driver[index]:
            continue
        driver_point = Point(float(routing.driver_x[index]),
                             float(routing.driver_y[index]))
        driver = arrays.net_driver[arrays.net_id[net_name]]
        driver_gate = arrays.gate_names[driver] if driver >= 0 else None
        for ci in range(int(routing.conn_starts[index]),
                        int(routing.conn_starts[index + 1])):
            anchors.append((connection_id, "driver", driver_gate, driver_point))
            sink_gate = int(routing.sink_gate[ci])
            target = Point(float(routing.tx[ci]), float(routing.ty[ci]))
            anchors.append((connection_id, "sink",
                            routing.gate_names[sink_gate] if sink_gate >= 0
                            else None, target))
            connection_id += 1
    return anchors
