"""Per-object place-and-route: test oracles for ``repro.layout``.

These are the placer and router implementations the column builders
replaced.  :func:`place_reference` orders gates by a DFS over gate-name
strings (:func:`ordering_ranks_reference` is that ordering alone, the
oracle of the placer's integer walk), then folds, spreads into rows and
legalizes with per-gate Python loops; :func:`route_reference` picks each
2-pin connection's layer pair with the scalar policy functions
(:func:`pair_for_length`, :func:`pair_for_lifted`, :func:`num_jogs`), calls
:func:`route_connection` once per connection and assembles eager
``RoutedNet`` object graphs, which :func:`routing_from_nets` turns into
the ``RoutingArrays`` columns a layout holds.
:func:`protected_routing_reference` is the protected layout's
per-connection restore loop (lift floors, misleading stub hints, protected
flags) on the same primitives, and
:func:`routing_perturbation_reference` replays the routing-perturbation
defense's hint re-aiming as an object walk over a materialized ``route()``
result.  :func:`legalize_correction_cells_reference` is the correction-cell
legalizer that re-scanned every spiral from its home slot, applied to cells
built at their anchors (:func:`correction_cells_at_anchors`).  Tests assert
that :func:`repro.layout.placer.place`,
:func:`repro.layout.router.route` (and their seed-batched twins),
:func:`repro.core.restore.build_protected_layout` and
:func:`repro.defenses.routing_perturbation.routing_perturbation_defense`
produce the same gate positions, the same segment/via graphs, the same
stub hints and the same pickle bytes, and that
:func:`repro.core.correction_cells.place_correction_cells` returns the
same instances.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.correction_cells import CorrectionCellInstance, correction_cell_name
from repro.core.randomizer import RandomizationResult
from repro.layout.arrays import RoutingArrays
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point, manhattan
from repro.layout.layout import Layout
from repro.layout.placer import (
    MAX_ORDERING_FANOUT,
    PlacementResult,
    PlacerConfig,
    place,
)
from repro.layout.router import (
    RoutedConnection,
    RoutedNet,
    RouterConfig,
    Segment,
    SinkRef,
    Via,
    _connection_columns,
    _new_segments,
    _new_vias,
    route,
)
from repro.netlist.arrays import csr
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng

# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def _adjacency(netlist: Netlist, max_fanout: int) -> Dict[str, List[str]]:
    """Undirected gate adjacency (both fan-in and fan-out), high-fanout nets cut."""
    adjacency: Dict[str, List[str]] = {name: [] for name in netlist.gates}
    for net in netlist.nets.values():
        members: List[str] = []
        if net.driver is not None:
            members.append(net.driver[0])
        members.extend(sink for sink, _pin in net.sinks)
        if len(members) < 2 or len(members) > max_fanout:
            continue
        driver = members[0]
        for sink in members[1:]:
            adjacency[driver].append(sink)
            adjacency[sink].append(driver)
    return adjacency


def _dfs_starts(netlist: Netlist, gate_names: List[str]) -> List[str]:
    """DFS start order: gates driven by primary inputs first (deduplicated,
    natural left-to-right flow), then every gate as a fallback start."""
    start_candidates: List[str] = []
    for pi in netlist.primary_inputs:
        net = netlist.nets.get(pi)
        if net is None:
            continue
        start_candidates.extend(sink for sink, _pin in net.sinks)
    seen_start: Set[str] = set()
    starts = [g for g in start_candidates
              if not (g in seen_start or seen_start.add(g))]
    starts.extend(gate_names)
    return starts


def _rotated_adjacency(adjacency: Dict[str, List[str]], netlist_name: str,
                       seed: int) -> Dict[str, List[str]]:
    """Seed-rotated copy of an adjacency structure.

    A small seed-dependent rotation of each adjacency list makes distinct
    seeds explore distinct (equally good) orderings while staying
    deterministic for a given seed: one draw per multi-neighbour list, in
    dict order.
    """
    rng = make_rng(seed, "placer_order", netlist_name)
    rotated: Dict[str, List[str]] = {}
    for name, neighbours in adjacency.items():
        if len(neighbours) > 1:
            offset = rng.randrange(len(neighbours))
            rotated[name] = neighbours[offset:] + neighbours[:offset]
        else:
            rotated[name] = neighbours
    return rotated


def _dfs_walk(adjacency: Dict[str, List[str]], gate_names: List[str],
              starts: List[str]) -> List[str]:
    """The iterative DFS traversal over a (rotated) adjacency structure."""
    remaining: Set[str] = set(gate_names)
    order: List[str] = []
    empty: List[str] = []
    for start in starts:
        if start not in remaining:
            continue
        stack = [start]
        while stack:
            gate = stack.pop()
            if gate not in remaining:
                continue
            remaining.remove(gate)
            order.append(gate)
            # Reverse so the first neighbour is processed next (LIFO stack).
            stack.extend(reversed(adjacency.get(gate, empty)))
    # Any stragglers (isolated gates) in deterministic order.
    for gate in gate_names:
        if gate in remaining:
            order.append(gate)
            remaining.remove(gate)
    return order


def ordering_ranks_reference(netlist: Netlist, seed: int,
                             max_fanout: int = MAX_ORDERING_FANOUT
                             ) -> np.ndarray:
    """The DFS placement ordering by the string walk: gate index per rank."""
    gate_index = {name: i for i, name in enumerate(netlist.gates)}
    return np.asarray(
        [gate_index[name] for name in _dfs_ordering(netlist, max_fanout, seed)],
        dtype=np.int64,
    )


def _dfs_ordering(netlist: Netlist, max_fanout: int, seed: int) -> List[str]:
    """Order gates by iterative DFS over the connectivity graph.

    Connected gates end up adjacent in the ordering; disconnected components
    are appended one after another.  The traversal is deterministic for a
    given seed.
    """
    adjacency = _adjacency(netlist, max_fanout)
    gate_names = list(netlist.gates.keys())
    return _dfs_walk(
        _rotated_adjacency(adjacency, netlist.name, seed),
        gate_names,
        _dfs_starts(netlist, gate_names),
    )


def _io_positions(netlist: Netlist, floorplan: Floorplan) -> Dict[str, Point]:
    """Step 1: primary inputs, then ``PO::``-keyed outputs, evenly on the
    boundary; the visible port names drop the ``PO::`` prefix."""
    port_names = list(netlist.primary_inputs) + [f"PO::{po}" for po in netlist.primary_outputs]
    boundary = floorplan.boundary_positions(len(port_names))
    port_positions = {name: pos for name, pos in zip(port_names, boundary)}
    return {
        (name if not name.startswith("PO::") else name[4:]): pos
        for name, pos in port_positions.items()
    }


def place_reference(netlist: Netlist, floorplan: Optional[Floorplan] = None,
                    utilization: float = 0.70,
                    config: Optional[PlacerConfig] = None) -> PlacementResult:
    """The seed placer (per-gate Python loops)."""
    config = config if config is not None else PlacerConfig()
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)

    gate_names = list(netlist.gates.keys())
    n = len(gate_names)

    # --- 1. I/O assignment -------------------------------------------------
    visible_ports = _io_positions(netlist, floorplan)
    if n == 0:
        return PlacementResult.from_positions(floorplan, {}, visible_ports, config)

    # --- 2. Connectivity-driven ordering on a serpentine curve -------------
    ordering = _dfs_ordering(netlist, MAX_ORDERING_FANOUT, config.seed)
    order_index = {name: i for i, name in enumerate(ordering)}
    gate_index = {name: i for i, name in enumerate(gate_names)}

    num_rows = floorplan.num_rows
    cells_per_row = int(np.ceil(n / num_rows))
    x = np.empty(n)
    y = np.empty(n)
    row_pitch = floorplan.row_height_um
    for name, rank in order_index.items():
        row = min(rank // cells_per_row, num_rows - 1)
        pos_in_row = rank - row * cells_per_row
        frac = (pos_in_row + 0.5) / cells_per_row
        if row % 2 == 1:
            frac = 1.0 - frac  # serpentine: alternate direction per row
        i = gate_index[name]
        x[i] = floorplan.die.x_min + frac * floorplan.die.width
        y[i] = floorplan.die.y_min + (row + 0.5) * row_pitch

    # --- 3. Rank-based row assignment: the y-sorted cells fill the rows ------
    order_y = np.argsort(y, kind="stable")
    row_of = np.empty(n, dtype=np.int64)
    for rank, cell in enumerate(order_y):
        row_of[cell] = min(rank // cells_per_row, num_rows - 1)

    # --- 4. Row legalization (pack by x order, scaled to fit) ----------------
    widths = np.array([netlist.gates[name].cell.width_um for name in gate_names])
    row_width = floorplan.die.width
    gate_positions: Dict[str, Point] = {}
    for row in range(num_rows):
        members = np.where(row_of == row)[0]
        if len(members) == 0:
            continue
        members = members[np.argsort(x[members], kind="stable")]
        total_width = widths[members].sum()
        slack = max(row_width - total_width, 0.0)
        gap = slack / (len(members) + 1)
        scale = min(1.0, row_width / total_width) if total_width > 0 else 1.0
        cursor = floorplan.die.x_min + gap
        row_y = floorplan.die.y_min + row * floorplan.row_height_um
        for cell in members:
            width = widths[cell] * scale
            pos_x = min(cursor, floorplan.die.x_max - width)
            gate_positions[gate_names[cell]] = Point(float(pos_x), float(row_y))
            cursor = pos_x + width + gap

    return PlacementResult.from_positions(
        floorplan, gate_positions, visible_ports, config
    )


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def pair_for_length(config: RouterConfig, length: float,
                    half_perimeter: float) -> Tuple[int, int]:
    """The (H, V) pair of an unconstrained connection: the first pair whose
    threshold the length ratio is below, else the last pair."""
    if half_perimeter <= 0:
        return config.layer_pairs[0]
    ratio = length / half_perimeter
    for pair, threshold in zip(config.layer_pairs, config.length_thresholds):
        if ratio < threshold:
            return pair
    return config.layer_pairs[-1]


def pair_for_lifted(config: RouterConfig, length: float, half_perimeter: float,
                    lift_layer: int) -> Tuple[int, int]:
    """The (H, V) pair of a connection lifted to ``lift_layer``.

    The lift layer is a *floor*: a connection long enough to deserve a
    higher pair anyway keeps that higher pair, and very long lifted
    connections are promoted one layer above the lift layer (detour routing
    of the restored BEOL wiring).
    """
    natural_h, _natural_v = pair_for_length(config, length, half_perimeter)
    h_layer = max(natural_h, lift_layer)
    if half_perimeter > 0 and length / half_perimeter >= config.lift_escalation_fraction:
        h_layer = max(h_layer, min(lift_layer + 1, NUM_METAL_LAYERS - 1))
    v_layer = min(h_layer + 1, NUM_METAL_LAYERS)
    return (h_layer, v_layer)


def num_jogs(config: RouterConfig, length: float, half_perimeter: float) -> int:
    """Number of bends in the route (at least one for non-degenerate L)."""
    if half_perimeter <= 0:
        return 1
    return 1 + int(length / (config.jog_pitch_fraction * half_perimeter))


def _via_stack(x: float, y: float, from_layer: int, to_layer: int) -> List[Via]:
    """Vias stacking straight up from ``from_layer`` to ``to_layer`` at (x, y)."""
    return [Via(x, y, layer, layer + 1) for layer in range(from_layer, to_layer)]


def route_connection(net: str, sink: SinkRef, source: Point, target: Point,
                     pair: Tuple[int, int], config: RouterConfig,
                     half_perimeter: float,
                     source_hint: Optional[Point] = None,
                     target_hint: Optional[Point] = None) -> RoutedConnection:
    """Route a single 2-pin connection on layer pair ``pair``.

    The route runs in a staircase of ``num_jogs`` steps between ``source`` and
    ``target``; horizontal pieces go on ``pair[0]``, vertical pieces on
    ``pair[1]``, with one via per direction change.  The sink-side via stack
    (pin layer up to the H layer) is included; the driver-side stack is the
    caller's responsibility because it is shared between a net's connections.
    """
    h_layer, v_layer = pair
    length = manhattan(source, target)
    jogs = max(1, num_jogs(config, length, half_perimeter))
    segments: List[Segment] = []
    vias: List[Via] = []

    dx = target.x - source.x
    dy = target.y - source.y
    if abs(dx) < 1e-9 and abs(dy) < 1e-9:
        # Same location: no lateral routing, only the sink via stack below.
        pass
    elif abs(dx) < 1e-9 or abs(dy) < 1e-9:
        layer = h_layer if abs(dy) < 1e-9 else v_layer
        segments.append(Segment(layer, source.x, source.y, target.x, target.y))
    else:
        # Staircase with `jogs` direction changes.
        x, y = source.x, source.y
        steps = jogs + 1
        for step in range(steps):
            frac_next = (step + 1) / steps
            if step % 2 == 0:
                new_x = source.x + dx * frac_next
                segments.append(Segment(h_layer, x, y, new_x, y))
                x = new_x
            else:
                new_y = source.y + dy * frac_next
                segments.append(Segment(v_layer, x, y, x, new_y))
                y = new_y
            if step < steps - 1:
                vias.append(Via(x, y, h_layer, v_layer))
        # Close any remaining offset in the non-final direction.
        if abs(x - target.x) > 1e-9:
            segments.append(Segment(h_layer, x, y, target.x, y))
            vias.append(Via(x, y, h_layer, v_layer))
            x = target.x
        if abs(y - target.y) > 1e-9:
            segments.append(Segment(v_layer, x, y, x, target.y))
            vias.append(Via(x, y, h_layer, v_layer))
            y = target.y

    # Sink pin stack from the pin layer up to the H layer of the pair.
    vias.extend(_via_stack(target.x, target.y, config.pin_layer, h_layer))

    return RoutedConnection(
        net=net,
        sink=sink,
        source=source,
        target=target,
        h_layer=h_layer,
        v_layer=v_layer,
        segments=segments,
        vias=vias,
        source_hint=source_hint if source_hint is not None else target,
        target_hint=target_hint if target_hint is not None else source,
    )


def _terminal_position(netlist: Netlist, placement: PlacementResult,
                       net_name: str) -> Optional[Point]:
    """Position of a net's driver (gate origin or primary-input pad)."""
    net = netlist.nets[net_name]
    if net.driver is not None:
        return placement.gate_positions.get(net.driver[0])
    if net.is_primary_input:
        return placement.port_positions.get(net_name)
    return None


def route_reference(netlist: Netlist, placement: PlacementResult,
                    config: Optional[RouterConfig] = None,
                    min_layer_per_net: Optional[Mapping[str, int]] = None) -> Dict[str, RoutedNet]:
    """The seed router (one :func:`route_connection` per sink)."""
    config = config if config is not None else RouterConfig()
    min_layer_per_net = min_layer_per_net or {}
    half_perimeter = placement.floorplan.half_perimeter_um
    routed: Dict[str, RoutedNet] = {}

    for net_name, net in netlist.nets.items():
        source = _terminal_position(netlist, placement, net_name)
        if source is None:
            continue
        targets: List[Tuple[SinkRef, Point]] = []
        for sink_gate, sink_pin in net.sinks:
            pos = placement.gate_positions.get(sink_gate)
            if pos is not None:
                targets.append(((sink_gate, sink_pin), pos))
        for po in net.primary_outputs:
            pos = placement.port_positions.get(po)
            if pos is not None:
                targets.append((("PO", po), pos))
        if not targets:
            continue

        routed_net = RoutedNet(name=net_name, driver_point=source)
        lift_layer = min_layer_per_net.get(net_name)
        max_h_layer = config.pin_layer
        for sink_ref, target in targets:
            length = manhattan(source, target)
            if lift_layer is not None:
                pair = pair_for_lifted(config, length, half_perimeter, lift_layer)
            else:
                pair = pair_for_length(config, length, half_perimeter)
            connection = route_connection(
                net_name, sink_ref, source, target, pair, config, half_perimeter
            )
            routed_net.connections.append(connection)
            max_h_layer = max(max_h_layer, pair[0])
        # Driver pin via stack, shared by all connections of the net, reaches
        # the highest H layer any connection uses.
        if net.driver is not None or net.is_primary_input:
            routed_net.driver_vias = _via_stack(
                source.x, source.y, config.pin_layer, max_h_layer
            )
        routed[net_name] = routed_net
    return routed


def kernel_connections(endpoints: Sequence[Tuple[Point, Point]],
                       pairs: Sequence[Tuple[int, int]], config: RouterConfig,
                       half_perimeter: float) -> List[RoutedConnection]:
    """Route ``(source, target)`` endpoints on ``pairs`` through the shipped
    staircase kernel (``repro.layout.router._connection_columns``) and wrap
    each connection's column slices, built by the router's fast-path
    constructors, in a :class:`RoutedConnection`.  Stub hints are not a
    kernel input, so the wrappers carry none."""
    sx, sy, tx, ty = (
        np.asarray(values, dtype=np.float64)
        for values in zip(*[(s.x, s.y, t.x, t.y) for s, t in endpoints])
    )
    h = np.asarray([pair[0] for pair in pairs], dtype=np.int64)
    v = np.asarray([pair[1] for pair in pairs], dtype=np.int64)
    columns = _connection_columns(h, v, config, half_perimeter, sx, sy, tx, ty)
    segments = _new_segments(
        columns.seg_layer.tolist(), columns.seg_x1.tolist(),
        columns.seg_y1.tolist(), columns.seg_x2.tolist(), columns.seg_y2.tolist(),
    )
    vias = _new_vias(
        columns.via_x.tolist(), columns.via_y.tolist(),
        columns.via_lower.tolist(), columns.via_upper.tolist(),
    )
    seg_starts = columns.seg_starts.tolist()
    via_starts = columns.via_starts.tolist()
    return [
        RoutedConnection(
            net=f"n{i}", sink=(f"g{i}", "A"), source=source, target=target,
            h_layer=pair[0], v_layer=pair[1],
            segments=segments[seg_starts[i]:seg_starts[i + 1]],
            vias=vias[via_starts[i]:via_starts[i + 1]],
        )
        for i, ((source, target), pair) in enumerate(zip(endpoints, pairs))
    ]


#: Column dtypes of :func:`routing_from_nets` (per-item counts in place of
#: CSR starts).
_FROM_NETS_DTYPES: Dict[str, type] = {
    "net_index": np.int64,
    "driver_x": np.float64, "driver_y": np.float64, "has_driver": bool,
    "conn_count": np.int64, "dvia_count": np.int64,
    "dvia_x": np.float64, "dvia_y": np.float64,
    "dvia_lower": np.int64, "dvia_upper": np.int64,
    "conn_net": np.int64, "sink_gate": np.int64, "sink_token": np.int64,
    "sx": np.float64, "sy": np.float64, "tx": np.float64, "ty": np.float64,
    "h_layer": np.int64, "v_layer": np.int64, "protected": np.uint8,
    "hint_sx": np.float64, "hint_sy": np.float64,
    "hint_tx": np.float64, "hint_ty": np.float64,
    "hint_src_present": np.uint8, "hint_tgt_present": np.uint8,
    "seg_count": np.int64, "via_count": np.int64,
    "seg_layer": np.int64, "seg_x1": np.float64, "seg_y1": np.float64,
    "seg_x2": np.float64, "seg_y2": np.float64,
    "via_x": np.float64, "via_y": np.float64,
    "via_lower": np.int64, "via_upper": np.int64,
}


def routing_from_nets(routing: Mapping[str, RoutedNet],
                      netlist: Netlist) -> RoutingArrays:
    """Columns of a ``{name: RoutedNet}`` mapping routed for ``netlist``.

    Net order and names follow the mapping's keys; connection net and sink
    names are resolved against ``netlist``.  Hints become explicit hint
    columns, so materializing the result yields objects *equal* to the
    input's.  This is how hand-built or object-edited routings (the oracles
    above) become the ``RoutingArrays`` a :class:`Layout` holds.
    """
    net_names = list(netlist.nets)
    gate_names = list(netlist.gates)
    net_lookup = {name: i for i, name in enumerate(net_names)}
    gate_lookup = {name: i for i, name in enumerate(gate_names)}
    sink_tokens: Dict[str, int] = {}
    rows: Dict[str, list] = {key: [] for key in _FROM_NETS_DTYPES}
    # Local aliases, in _FROM_NETS_DTYPES order.
    (net_index, driver_x, driver_y, has_driver, conn_count, dvia_count,
     dvia_x, dvia_y, dvia_lower, dvia_upper, conn_net, sink_gate,
     sink_token, sx, sy, tx, ty, h_layer, v_layer, protected, hint_sx,
     hint_sy, hint_tx, hint_ty, hint_src, hint_tgt, seg_count, via_count,
     seg_layer, seg_x1, seg_y1, seg_x2, seg_y2, via_x, via_y, via_lower,
     via_upper) = rows.values()
    for name, net in routing.items():
        net_index.append(net_lookup[name])
        point = net.driver_point
        has_driver.append(point is not None)
        driver_x.append(point.x if point is not None else 0.0)
        driver_y.append(point.y if point is not None else 0.0)
        conn_count.append(len(net.connections))
        dvia_count.append(len(net.driver_vias))
        for via in net.driver_vias:
            dvia_x.append(via.x)
            dvia_y.append(via.y)
            dvia_lower.append(via.lower)
            dvia_upper.append(via.upper)
        for connection in net.connections:
            conn_net.append(net_lookup[connection.net])
            first, second = connection.sink
            sink_gate.append(-1 if first == "PO" else gate_lookup[first])
            sink_token.append(sink_tokens.setdefault(second, len(sink_tokens)))
            sx.append(connection.source.x)
            sy.append(connection.source.y)
            tx.append(connection.target.x)
            ty.append(connection.target.y)
            h_layer.append(connection.h_layer)
            v_layer.append(connection.v_layer)
            protected.append(bool(connection.protected))
            for hint, xs, ys, present in (
                    (connection.source_hint, hint_sx, hint_sy, hint_src),
                    (connection.target_hint, hint_tx, hint_ty, hint_tgt)):
                present.append(hint is not None)
                xs.append(hint.x if hint is not None else 0.0)
                ys.append(hint.y if hint is not None else 0.0)
            seg_count.append(len(connection.segments))
            for segment in connection.segments:
                seg_layer.append(segment.layer)
                seg_x1.append(segment.x1)
                seg_y1.append(segment.y1)
                seg_x2.append(segment.x2)
                seg_y2.append(segment.y2)
            via_count.append(len(connection.vias))
            for via in connection.vias:
                via_x.append(via.x)
                via_y.append(via.y)
                via_lower.append(via.lower)
                via_upper.append(via.upper)

    columns = {
        key: np.asarray(values, dtype=_FROM_NETS_DTYPES[key])
        for key, values in rows.items()
    }
    return RoutingArrays(
        net_names=net_names,
        gate_names=gate_names,
        sink_tokens=list(sink_tokens),
        conn_starts=csr(columns.pop("conn_count")),
        dvia_starts=csr(columns.pop("dvia_count")),
        seg_starts=csr(columns.pop("seg_count")),
        via_starts=csr(columns.pop("via_count")),
        **columns,
    )


# ---------------------------------------------------------------------------
# Protected layout (restore through the BEOL)
# ---------------------------------------------------------------------------


def _sink_position(placement: PlacementResult, sink: SinkRef) -> Optional[Point]:
    """Position of a sink (gate origin or primary-output pad)."""
    if sink[0] == "PO":
        return placement.port_positions.get(sink[1])
    return placement.gate_positions.get(sink[0])


def protected_routing_reference(randomization: RandomizationResult,
                                placement: PlacementResult, lift_layer: int,
                                config: Optional[RouterConfig] = None
                                ) -> Dict[str, RoutedNet]:
    """The protected layout's routing, assembled one connection at a time.

    The original nets are routed over the erroneous netlist's placement.  A
    swapped connection is lifted to ``lift_layer``, flagged ``protected``
    and given misleading stub hints: the driver stub heads towards the first
    placed sink the randomizer moved onto the net, the sink stub towards
    its erroneous driver (an unplaced partner leaves the router default).
    The honest sinks of randomized nets are lifted with true hints; every
    other connection is routed by length.
    """
    config = config if config is not None else RouterConfig()
    original = randomization.original
    half_perimeter = placement.floorplan.half_perimeter_um
    swapped = randomization.swapped_sinks()
    #: erroneous net name -> sinks that were moved *onto* it by the randomizer
    moved_onto: Dict[str, List[SinkRef]] = {}
    for record in randomization.swaps:
        moved_onto.setdefault(record.erroneous_net, []).append(record.sink)

    routed: Dict[str, RoutedNet] = {}
    for net_name, net in original.nets.items():
        source = _terminal_position(original, placement, net_name)
        if source is None:
            continue
        targets: List[Tuple[SinkRef, Point, bool]] = []  # (sink, position, is_swapped)
        for sink in net.sinks:
            pos = _sink_position(placement, sink)
            if pos is not None:
                targets.append((sink, pos, sink in swapped
                                and swapped[sink].original_net == net_name))
        for po in net.primary_outputs:
            pos = placement.port_positions.get(po)
            if pos is not None:
                targets.append((("PO", po), pos, False))
        if not targets:
            continue

        routed_net = RoutedNet(name=net_name, driver_point=source)
        for sink, target, is_swapped in targets:
            length = manhattan(source, target)
            source_hint: Optional[Point] = None
            target_hint: Optional[Point] = None
            if is_swapped:
                record = swapped[sink]
                pair = pair_for_lifted(config, length, half_perimeter, lift_layer)
                for err_sink in moved_onto.get(net_name, []):
                    hint_pos = _sink_position(placement, err_sink)
                    if hint_pos is not None:
                        source_hint = hint_pos
                        break
                target_hint = _terminal_position(
                    randomization.erroneous, placement, record.erroneous_net
                )
            elif net_name in randomization.protected_nets:
                pair = pair_for_lifted(config, length, half_perimeter, lift_layer)
            else:
                pair = pair_for_length(config, length, half_perimeter)
            connection = route_connection(
                net_name, sink, source, target, pair, config, half_perimeter,
                source_hint, target_hint,
            )
            connection.protected = is_swapped
            routed_net.connections.append(connection)
        top = max([config.pin_layer] + [c.h_layer for c in routed_net.connections])
        routed_net.driver_vias = _via_stack(source.x, source.y, config.pin_layer, top)
        routed[net_name] = routed_net
    return routed


# ---------------------------------------------------------------------------
# Routing-perturbation defense
# ---------------------------------------------------------------------------


def routing_perturbation_reference(
    netlist: Netlist,
    perturb_fraction: float = 0.3,
    decoy_distance_fraction: float = 0.25,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    lift_layer: int = 5,
    seed: int = 0,
) -> Layout:
    """The routing-perturbation defense, re-aiming hints object by object.

    Same placement, net selection and lift map as the shipped defense; the
    perturbed nets' connections are then materialized and every connection
    draws its four decoy offsets from the defense RNG in sorted-net order,
    connection order, exactly as the shipped column pass does.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "routing_perturbation", netlist.name)

    net_names = [name for name, net in netlist.nets.items() if net.sinks and net.has_driver()]
    rng.shuffle(net_names)
    perturbed = set(net_names[: int(len(net_names) * perturb_fraction)])
    min_layer = {name: lift_layer for name in perturbed}

    # Plain objects, edited below.
    routing = dict(route(netlist, placement, RouterConfig(), min_layer).items())

    die = floorplan.die
    decoy_reach = floorplan.half_perimeter_um * decoy_distance_fraction
    connections: List[RoutedConnection] = []
    for net_name in sorted(perturbed):
        routed = routing.get(net_name)
        if routed is not None:
            connections.extend(routed.connections)
    if connections:
        # Anchors: (target.x, target.y, source.x, source.y) per connection.
        anchors = np.asarray(
            [(c.target.x, c.target.y, c.source.x, c.source.y) for c in connections],
            dtype=np.float64,
        )
        offsets = np.asarray(
            [[rng.uniform(-decoy_reach, decoy_reach) for _ in range(4)]
             for _c in connections],
            dtype=np.float64,
        )
        decoys = anchors + offsets
        decoys[:, 0::2] = np.clip(decoys[:, 0::2], die.x_min, die.x_max)
        decoys[:, 1::2] = np.clip(decoys[:, 1::2], die.y_min, die.y_max)
        for connection, (sx, sy, tx, ty) in zip(connections, decoys):
            connection.source_hint = Point(float(sx), float(sy))
            connection.target_hint = Point(float(tx), float(ty))

    return Layout(
        name=f"{netlist.name}_routing_perturbed",
        netlist=netlist,
        placement=placement,
        routing=routing_from_nets(routing, netlist),
        metadata={
            "defense": "routing_perturbation",
            "perturbed_nets": len(perturbed),
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Correction-cell legalization
# ---------------------------------------------------------------------------

def cells_overlap(a: CorrectionCellInstance, b: CorrectionCellInstance,
                  tolerance: float = 1e-6) -> bool:
    """Whether the footprints of two correction cells overlap."""
    return not (
        a.position.x + a.width_um <= b.position.x + tolerance
        or b.position.x + b.width_um <= a.position.x + tolerance
        or a.position.y + a.height_um <= b.position.y + tolerance
        or b.position.y + b.height_um <= a.position.y + tolerance
    )


def check_correction_cell_overlaps(instances: List[CorrectionCellInstance]
                                   ) -> List[Tuple[str, str]]:
    """Pairs of overlapping correction cells (empty list == legal)."""
    overlaps: List[Tuple[str, str]] = []
    ordered = sorted(instances, key=lambda inst: (inst.position.y, inst.position.x))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if b.position.y >= a.position.y + a.height_um - 1e-6:
                break
            if cells_overlap(a, b):
                overlaps.append((a.name, b.name))
    return overlaps


def correction_cells_at_anchors(
    anchors: Sequence[Tuple[int, str, Optional[str], Point]],
    lift_layer: int,
    naive: bool = False,
) -> List[CorrectionCellInstance]:
    """One cell per anchor, unlegalized: each sits exactly at its anchor,
    named as :func:`repro.core.correction_cells.place_correction_cells`
    names it."""
    cell = correction_cell_name(lift_layer, naive)
    prefix = "lc" if naive else "cc"
    return [
        CorrectionCellInstance(f"{prefix}_{connection_id}_{role}_{index}", cell,
                               position, anchor_gate, role, connection_id, lift_layer)
        for index, (connection_id, role, anchor_gate, position) in enumerate(anchors)
    ]


def legalize_correction_cells_reference(
    instances: List[CorrectionCellInstance],
    floorplan: Floorplan,
) -> List[CorrectionCellInstance]:
    """The legalizer before it resumed its spirals: every cell spirals from
    its home slot's ring 0, re-testing each slot against a dict of taken
    slots, and each legalized instance is a ``dataclasses.replace``."""
    if not instances:
        return []
    pitch_x = instances[0].width_um
    pitch_y = instances[0].height_um
    die = floorplan.die
    columns = max(1, int(die.width / pitch_x))
    rows = max(1, int(die.height / pitch_y))
    occupied: Dict[Tuple[int, int], str] = {}
    legalized: List[CorrectionCellInstance] = []

    def slot_of(point: Point) -> Tuple[int, int]:
        col = int((point.x - die.x_min) / pitch_x)
        row = int((point.y - die.y_min) / pitch_y)
        return (min(max(col, 0), columns - 1), min(max(row, 0), rows - 1))

    def spiral(start: Tuple[int, int]):
        """Yield grid slots in increasing Chebyshev distance from ``start``."""
        yield start
        for radius in range(1, max(columns, rows)):
            for dc in range(-radius, radius + 1):
                for dr in (-radius, radius):
                    yield (start[0] + dc, start[1] + dr)
            for dr in range(-radius + 1, radius):
                for dc in (-radius, radius):
                    yield (start[0] + dc, start[1] + dr)

    for instance in instances:
        home = slot_of(instance.position)
        placed = False
        for col, row in spiral(home):
            if not (0 <= col < columns and 0 <= row < rows):
                continue
            if (col, row) in occupied:
                continue
            occupied[(col, row)] = instance.name
            position = Point(die.x_min + col * pitch_x, die.y_min + row * pitch_y)
            legalized.append(dataclasses.replace(instance, position=position))
            placed = True
            break
        if not placed:
            # Grid full (pathological); keep the original position.
            legalized.append(instance)
    return legalized


# ---------------------------------------------------------------------------
# Placement wirelength and legality by a walk over the Gate/Net objects
# ---------------------------------------------------------------------------


def placement_hpwl(netlist, placement: PlacementResult) -> float:
    """Total half-perimeter wirelength (µm): per net, the bounding box of
    its placed driver (or primary-input port), sinks and output ports."""
    total = 0.0
    for net in netlist.nets.values():
        xs, ys = [], []
        if net.driver is not None:
            p = placement.gate_positions.get(net.driver[0])
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        elif net.is_primary_input:
            p = placement.port_positions.get(net.name)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for sink_gate, _pin in net.sinks:
            p = placement.gate_positions.get(sink_gate)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for po in net.primary_outputs:
            p = placement.port_positions.get(po)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def check_legality(netlist, placement: PlacementResult,
                   tolerance: float = 1e-6) -> List[str]:
    """Legality problems of a placement: cells off the die, then severe
    overlaps per row (rows in first-encounter order, cells by x)."""
    problems = []
    fp = placement.floorplan
    by_row = {}
    for name, pos in placement.gate_positions.items():
        width = netlist.gates[name].cell.width_um
        if pos.x < fp.die.x_min - tolerance or pos.x + width > fp.die.x_max + width + tolerance:
            problems.append(f"{name} outside die in x")
        if pos.y < fp.die.y_min - tolerance or pos.y > fp.die.y_max + tolerance:
            problems.append(f"{name} outside die in y")
        row = fp.nearest_row(pos.y)
        by_row.setdefault(row, []).append((pos.x, width, name))
    for row, cells in by_row.items():
        cells.sort()
        for (x1, w1, n1), (x2, _w2, n2) in zip(cells, cells[1:]):
            if x2 < x1 + w1 * 0.5 - tolerance:
                problems.append(f"severe overlap between {n1} and {n2} in row {row}")
    return problems


# ---------------------------------------------------------------------------
# Per-netlist skeletons by a walk over the Gate/Net objects
# ---------------------------------------------------------------------------


def placement_skeleton_reference(netlist, placement: PlacementResult) -> Dict[str, object]:
    """The fields ``PlacementSkeleton.build(netlist, placement)`` must hold,
    by a walk over the netlist's nets by name: one connection pair per
    placed sink of a net whose driver gate is placed, in net order."""
    gate_names = list(placement.gate_positions)
    gate_index = {name: i for i, name in enumerate(gate_names)}
    gates = netlist.gates
    pair_driver: List[int] = []
    pair_sink: List[int] = []
    pair_net: List[int] = []
    for net_idx, net in enumerate(netlist.nets.values()):
        driver_idx = gate_index.get(net.driver[0]) if net.driver is not None else None
        if driver_idx is None:
            continue
        for sink_gate, _pin in net.sinks:
            sink_idx = gate_index.get(sink_gate)
            if sink_idx is not None:
                pair_driver.append(driver_idx)
                pair_sink.append(sink_idx)
                pair_net.append(net_idx)
    return {
        "missing": sum(name not in gates for name in gate_names),
        "net_index_by_name": {name: i for i, name in enumerate(netlist.nets)},
        "pair_driver": pair_driver, "pair_sink": pair_sink, "pair_net": pair_net,
    }


def ordering_graph_reference(netlist) -> Dict[str, object]:
    """The DFS ordering graph (``_OrderingGraph``'s neighbour CSR and DFS
    starts) by a walk over the netlist's nets by name."""
    gate_index = {name: i for i, name in enumerate(netlist.gates)}
    lists: List[List[int]] = [[] for _ in gate_index]
    for net in netlist.nets.values():
        sinks = [gate_index[gate] for gate, _pin in net.sinks]
        if net.driver is not None:
            if not 1 <= len(sinks) < MAX_ORDERING_FANOUT:
                continue
            hub, members = gate_index[net.driver[0]], sinks
        elif 2 <= len(sinks) <= MAX_ORDERING_FANOUT:
            hub, members = sinks[0], sinks[1:]
        else:
            continue
        for member in members:
            lists[hub].append(member)
            lists[member].append(hub)
    starts = [0]
    for neighbours in lists:
        starts.append(starts[-1] + len(neighbours))
    first: List[int] = []
    for pi in netlist.primary_inputs:
        if pi not in netlist.nets:
            continue
        for gate, _pin in netlist.nets[pi].sinks:
            if gate_index[gate] not in first:
                first.append(gate_index[gate])
    return {
        "neighbours": [g for neighbours in lists for g in neighbours],
        "starts": starts,
        "dfs_starts": first + list(range(len(gate_index))),
    }


def routing_skeleton_reference(netlist, placement: PlacementResult) -> Dict[str, object]:
    """The routable 2-pin connections ``_RoutingSkeleton(netlist,
    placement)`` must record, by a walk over the netlist's nets by name."""
    gate_names = list(netlist.gates)
    lookup = {name: i for i, name in enumerate(gate_names)}
    num_gates = len(gate_names)
    placed = [False] * num_gates
    for name in placement.gate_positions:
        if name in lookup:
            placed[lookup[name]] = True
    port_slot = {name: num_gates + k for k, name in enumerate(placement.port_names)}
    tokens: Dict[str, int] = {}
    entry_net: List[int] = []
    entry_source: List[int] = []
    conn_starts = [0]
    targets: List[int] = []
    sink_gate: List[int] = []
    sink_token: List[int] = []
    for net_idx, (net_name, net) in enumerate(netlist.nets.items()):
        if net.driver is not None:
            source = lookup.get(net.driver[0])
            if source is None or not placed[source]:
                continue
        elif net.is_primary_input:
            source = port_slot.get(net_name)
            if source is None:
                continue
        else:
            continue
        start = len(targets)
        for gate, pin in net.sinks:
            index = lookup.get(gate)
            if index is not None and placed[index]:
                targets.append(index)
                sink_gate.append(index)
                sink_token.append(tokens.setdefault(pin, len(tokens)))
        for po in net.primary_outputs:
            slot = port_slot.get(po)
            if slot is not None:
                targets.append(slot)
                sink_gate.append(-1)
                sink_token.append(tokens.setdefault(po, len(tokens)))
        if len(targets) == start:
            continue
        entry_net.append(net_idx)
        entry_source.append(source)
        conn_starts.append(len(targets))
    return {
        "gate_names": gate_names, "net_names": list(netlist.nets),
        "placed": placed, "sink_tokens": list(tokens),
        "net_index": entry_net, "conn_starts": conn_starts,
        "sink_gate": sink_gate, "sink_token": sink_token,
        "_entry_source_idx": entry_source, "_target_idx": targets,
    }
