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

from repro.core.correction_cells import (
    CorrectionCellInstance,
    legalize_correction_cells,
    place_correction_cells,
)
from repro.core.randomizer import RandomizationResult
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point, manhattan
from repro.layout.layout import Layout
from repro.layout.placer import PlacementResult, PlacerConfig, place
from repro.layout.router import ConnectionRequest, RouterConfig, route_requests
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


def build_protected_layout(
    randomization: RandomizationResult,
    lift_layer: int,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    placer_config: Optional[PlacerConfig] = None,
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
        placer_config / router_config: Tool knobs (same defaults as the
            unprotected flow so comparisons are fair).
        seed: Placement seed.

    Returns:
        The protected :class:`Layout`; ``layout.netlist`` is the *original*
        netlist, ``layout.protected_nets`` the randomized nets, and
        ``layout.metadata["correction_cells"]`` the legalized correction
        cells.
    """
    original = randomization.original
    erroneous = randomization.erroneous
    placer_config = placer_config if placer_config is not None else PlacerConfig(seed=seed)
    router_config = router_config if router_config is not None else RouterConfig()
    if floorplan is None:
        floorplan = build_floorplan(original, utilization)

    # Step (ii): place and route the erroneous, misleading netlist.  Only the
    # placement is kept; routing is assembled below against the original nets.
    placement = place(erroneous, floorplan, utilization, placer_config)
    half_perimeter = floorplan.half_perimeter_um

    swapped = randomization.swapped_sinks()
    #: erroneous net name -> sinks that were moved *onto* it by the randomizer
    moved_onto: Dict[str, List[PinRef]] = {}
    for record in randomization.swaps:
        moved_onto.setdefault(record.erroneous_net, []).append(record.sink)

    correction_anchors: List[Tuple[int, str, Optional[str], Point]] = []
    connection_id = 0

    # Pass 1: per-connection policy (lift floors, misleading FEOL hints,
    # correction anchors) gathered as plain connection requests; the actual
    # segment/via geometry is array-built in one batch below.
    requests: List[ConnectionRequest] = []
    protected_flags: List[bool] = []
    net_starts: List[int] = []  # first request of each routed net

    for net_name, net in original.nets.items():
        source = _terminal_position(original, placement, net_name)
        if source is None:
            continue
        targets: List[Tuple[PinRef, Point, bool]] = []  # (sink, position, is_swapped)
        for sink in net.sinks:
            pos = _sink_position(placement, sink)
            if pos is None:
                continue
            targets.append((sink, pos, sink in swapped and swapped[sink].original_net == net_name))
        for po in net.primary_outputs:
            pos = placement.port_positions.get(po)
            if pos is not None:
                targets.append((("PO", po), pos, False))
        if not targets:
            continue

        driver_gate = net.driver[0] if net.driver is not None else None
        net_starts.append(len(requests))

        for sink, target, is_swapped in targets:
            length = manhattan(source, target)
            source_hint: Optional[Point] = None
            target_hint: Optional[Point] = None
            if is_swapped:
                record = swapped[sink]
                pair = router_config.pair_for_lifted(length, half_perimeter, lift_layer)
                # Misleading FEOL hints: the driver stub was routed towards the
                # erroneous sink that replaced this one; the sink stub was
                # routed towards its erroneous driver.
                erroneous_sinks = moved_onto.get(net_name, [])
                for err_sink in erroneous_sinks:
                    hint_pos = _sink_position(placement, err_sink)
                    if hint_pos is not None:
                        source_hint = hint_pos
                        break
                target_hint = _terminal_position(erroneous, placement, record.erroneous_net)
                correction_anchors.append((connection_id, "driver", driver_gate, source))
                sink_gate = sink[0] if sink[0] != "PO" else None
                correction_anchors.append((connection_id, "sink", sink_gate, target))
                connection_id += 1
            elif net_name in randomization.protected_nets:
                # The paper lifts the whole randomized net: its honest sinks
                # also route through the correction-cell layer (true hints).
                pair = router_config.pair_for_lifted(length, half_perimeter, lift_layer)
            else:
                pair = router_config.pair_for_length(length, half_perimeter)
            requests.append((net_name, sink, source, target, pair,
                             source_hint, target_hint))
            protected_flags.append(is_swapped)

    # Pass 2: batched geometry construction, kept in column form behind lazy
    # RoutedNet shells (bit-exact with the per-connection route_connection
    # oracle in tests/build_oracle.py).
    routing = route_requests(
        requests, router_config, half_perimeter,
        net_starts=net_starts, protected=protected_flags,
    ).lazy_nets()

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
