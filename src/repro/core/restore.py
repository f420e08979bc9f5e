"""Protected-layout construction: place the erroneous netlist, restore the
true functionality through the BEOL (paper Sec. 4, steps (ii)–(iii)).

The construction mirrors the paper's flow:

1. the **erroneous** netlist (output of :mod:`repro.core.randomizer`) is
   placed — every placement decision, and therefore every proximity hint,
   reflects the wrong connectivity;
2. connections that were *not* swapped are routed normally (they are
   identical in the original and erroneous netlists);
3. every swapped connection is restored **only in the BEOL**: a correction
   cell is dropped at the driver side and at the sink side, both with pins in
   the lift layer (M6/M8), and the true driver→sink wiring runs between the
   two cells above the split layer.  The FEOL stubs that remain under those
   cells still carry the *erroneous* dangling directions — the via stack at a
   swapped driver points towards the erroneous sink it used to drive, and the
   stack at a swapped sink points towards its erroneous driver.

The returned :class:`~repro.layout.layout.Layout` therefore implements the
original netlist (``layout.netlist`` is the original), while its placement
and FEOL routing artefacts describe the erroneous one — exactly the situation
an attacker faces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.correction_cells import legalize_correction_cells, place_correction_cells
from repro.core.randomizer import RandomizationResult
from repro.layout.arrays import RoutingArrays
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.placer import PlacementResult, PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.netlist import Netlist, PinRef


def _terminal_position(netlist: Netlist, placement: PlacementResult,
                       net_name: str) -> Optional[Point]:
    net = netlist.nets[net_name]
    if net.driver is not None:
        return placement.gate_positions.get(net.driver[0])
    if net.is_primary_input:
        return placement.port_positions.get(net_name)
    return None


def _sink_position(placement: PlacementResult, sink: PinRef) -> Optional[Point]:
    if sink[0] == "PO":
        return placement.port_positions.get(sink[1])
    return placement.gate_positions.get(sink[0])


def _restore_swapped_connections(
    randomization: RandomizationResult,
    placement: PlacementResult,
    routing: RoutingArrays,
) -> List[Tuple[int, str, Optional[str], Point]]:
    """Mark the swapped connections of ``routing`` as restored through the
    BEOL and re-aim their FEOL stubs at the erroneous partners.

    The driver stub heads towards the first placed sink the randomizer moved
    onto the net, the sink stub towards its erroneous driver; a partner that
    is not placed keeps the router's default hint.  Returns the
    correction-cell anchors ``(connection id, side, gate, point)``, two per
    swapped connection in routing order.
    """
    swapped = randomization.swapped_sinks()
    #: erroneous net name -> first placed sink moved *onto* it
    decoy_sinks: Dict[str, Point] = {}
    for record in randomization.swaps:
        if record.erroneous_net not in decoy_sinks:
            position = _sink_position(placement, record.sink)
            if position is not None:
                decoy_sinks[record.erroneous_net] = position
    swapped_nets = {record.original_net for record in randomization.swaps}

    anchors: List[Tuple[int, str, Optional[str], Point]] = []
    overridden: List[int] = []
    hints: List[Tuple[float, float, float, float]] = []
    conn_starts = routing.conn_starts.tolist()
    for index, net_name in enumerate(routing):
        if net_name not in swapped_nets:
            continue
        driver = randomization.original.nets[net_name].driver
        for ci in range(conn_starts[index], conn_starts[index + 1]):
            sink = routing.sink_ref(ci)
            record = swapped.get(sink)
            if record is None or record.original_net != net_name:
                continue
            routing.protected[ci] = 1
            source = Point(float(routing.sx[ci]), float(routing.sy[ci]))
            target = Point(float(routing.tx[ci]), float(routing.ty[ci]))
            source_hint = decoy_sinks.get(net_name)
            target_hint = _terminal_position(
                randomization.erroneous, placement, record.erroneous_net
            )
            if source_hint is not None or target_hint is not None:
                source_hint = source_hint if source_hint is not None else target
                target_hint = target_hint if target_hint is not None else source
                overridden.append(ci)
                hints.append((source_hint.x, source_hint.y,
                              target_hint.x, target_hint.y))
            connection_id = len(anchors) // 2
            anchors.append((connection_id, "driver",
                            driver[0] if driver is not None else None, source))
            anchors.append((connection_id, "sink", sink[0], target))
    if overridden:
        hint_sx, hint_sy, hint_tx, hint_ty = np.asarray(hints, dtype=np.float64).T
        routing.override_hints(
            np.asarray(overridden, dtype=np.int64),
            hint_sx, hint_sy, hint_tx, hint_ty,
        )
    return anchors


def build_protected_layout(
    randomization: RandomizationResult,
    lift_layer: int,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    router_config: Optional[RouterConfig] = None,
    seed: int = 0,
) -> Layout:
    """Assemble the protected layout for a randomization result.

    Args:
        randomization: Output of :func:`repro.core.randomizer.randomize_netlist`.
        lift_layer: Correction-cell pin layer (6 for ISCAS-85, 8 for superblue
            in the paper's setup).
        floorplan: Floorplan to reuse (pass the original layout's floorplan to
            guarantee zero die-area overhead, as the paper does).
        utilization: Used only when ``floorplan`` is None.
        router_config: Router knobs (same default as the unprotected flow
            so comparisons are fair).
        seed: Placement seed (the placer's only knob).

    Returns:
        The protected :class:`Layout`; ``layout.netlist`` is the *original*
        netlist, ``layout.protected_nets`` the randomized nets, and
        ``layout.metadata["correction_cells"]`` the legalized correction
        cells.
    """
    original = randomization.original
    erroneous = randomization.erroneous
    router_config = router_config if router_config is not None else RouterConfig()
    if floorplan is None:
        floorplan = build_floorplan(original, utilization)

    # Step (ii): place the erroneous, misleading netlist.  Only the placement
    # is kept; the routing below implements the original nets.
    placement = place(erroneous, floorplan, utilization, PlacerConfig(seed=seed))

    # Step (iii): route the original netlist over that placement with every
    # randomized net lifted to the correction-cell layer.  Every swapped
    # sink's original net is randomized, and the paper lifts the whole net
    # (its honest sinks too), so a per-net lift floor is exact.
    routing = route(
        original, placement, router_config,
        {net: lift_layer for net in randomization.protected_nets},
    )
    correction_anchors = _restore_swapped_connections(
        randomization, placement, routing
    )
    correction_cells = place_correction_cells(correction_anchors, lift_layer)
    correction_cells = legalize_correction_cells(correction_cells, floorplan)

    layout = Layout(
        name=f"{original.name}_protected",
        netlist=original,
        placement=placement,
        routing=routing,
        protected_nets=set(randomization.protected_nets),
        lift_layer=lift_layer,
        metadata={
            "correction_cells": correction_cells,
            "num_swaps": randomization.num_swaps,
            "oer_percent": randomization.oer_percent,
            "erroneous_netlist": erroneous.name,
            "seed": seed,
        },
    )
    return layout
