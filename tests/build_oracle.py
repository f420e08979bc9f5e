"""Per-object place-and-route: test oracles for ``repro.layout``.

These are the placer and router implementations the column builders
replaced.  :func:`place_reference` orders gates by a DFS over gate-name
strings (:func:`ordering_ranks_reference` is that ordering alone, the
oracle of the placer's integer walk), then folds, refines, spreads and
legalizes with per-gate and per-net Python loops; :func:`route_reference` picks each
2-pin connection's layer pair with the scalar policy functions
(:func:`pair_for_length`, :func:`pair_for_lifted`, :func:`num_jogs`), calls
:func:`route_connection` once per connection and assembles eager
``RoutedNet`` object graphs.  :func:`protected_routing_reference` is the
protected layout's per-connection restore loop (lift floors, misleading
stub hints, protected flags) on the same primitives, and
:func:`routing_perturbation_reference` replays the routing-perturbation
defense's hint re-aiming as an object walk over a materialized ``route()``
result.  :func:`legalize_correction_cells_reference` is the correction-cell
legalizer that re-scanned every spiral from its home slot.  Tests assert
that :func:`repro.layout.placer.place`,
:func:`repro.layout.router.route` (and their seed-batched twins),
:func:`repro.core.restore.build_protected_layout` and
:func:`repro.defenses.routing_perturbation.routing_perturbation_defense`
produce the same gate positions, the same segment/via graphs, the same
stub hints and the same pickle bytes, and that
:func:`repro.core.correction_cells.legalize_correction_cells` returns the
same instances.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.correction_cells import CorrectionCellInstance
from repro.core.randomizer import RandomizationResult
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point, manhattan
from repro.layout.layout import Layout
from repro.layout.placer import (
    PlacementResult,
    PlacerConfig,
    _attraction_nets,
    _io_assignment,
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
                             max_fanout: int = PlacerConfig.max_fanout_for_attraction
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


def _initial_ordering(netlist: Netlist, gate_names: List[str],
                      config: PlacerConfig) -> List[str]:
    """Step 2: the connectivity-driven gate ordering."""
    if config.ordering == "dfs":
        return _dfs_ordering(netlist, config.max_fanout_for_attraction, config.seed)
    if config.ordering == "insertion":
        return gate_names
    raise ValueError(f"unknown placer ordering {config.ordering!r}")


def place_reference(netlist: Netlist, floorplan: Optional[Floorplan] = None,
                    utilization: float = 0.70,
                    config: Optional[PlacerConfig] = None) -> PlacementResult:
    """The seed placer (per-gate / per-net Python loops)."""
    config = config if config is not None else PlacerConfig()
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)

    gate_names = list(netlist.gates.keys())
    n = len(gate_names)

    # --- 1. I/O assignment -------------------------------------------------
    port_positions, visible_ports = _io_assignment(netlist, floorplan)
    if n == 0:
        return PlacementResult.from_positions(floorplan, {}, visible_ports, config)

    # --- 2. Connectivity-driven initial ordering on a serpentine curve -----
    ordering = _initial_ordering(netlist, gate_names, config)
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

    # --- 3. Centroid refinement with interleaved spreading ------------------
    net_members, net_fixed = _attraction_nets(
        netlist, gate_index, port_positions, config.max_fanout_for_attraction
    )

    cell_net_count = np.zeros(n)
    for idx in net_members:
        cell_net_count[idx] += 1.0
    cell_net_count[cell_net_count == 0] = 1.0

    def centroid_step(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        acc_x = np.zeros(n)
        acc_y = np.zeros(n)
        for idx, (fx, fy, fc) in zip(net_members, net_fixed):
            cx = (x[idx].sum() + fx) / (len(idx) + fc)
            cy = (y[idx].sum() + fy) / (len(idx) + fc)
            acc_x[idx] += cx
            acc_y[idx] += cy
        new_x = acc_x / cell_net_count
        new_y = acc_y / cell_net_count
        return (config.damping * x + (1 - config.damping) * new_x,
                config.damping * y + (1 - config.damping) * new_y)

    def spread(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank-based spreading back to uniform density; returns row assignment."""
        order_y = np.argsort(y, kind="stable")
        row_of = np.empty(n, dtype=np.int64)
        for rank, cell in enumerate(order_y):
            row_of[cell] = min(rank // cells_per_row, num_rows - 1)
        new_x = np.empty(n)
        new_y = np.empty(n)
        for row in range(num_rows):
            members = np.where(row_of == row)[0]
            if len(members) == 0:
                continue
            members = members[np.argsort(x[members], kind="stable")]
            count = len(members)
            for pos, cell in enumerate(members):
                frac = (pos + 0.5) / count
                new_x[cell] = floorplan.die.x_min + frac * floorplan.die.width
                new_y[cell] = floorplan.die.y_min + (row + 0.5) * row_pitch
        return new_x, new_y, row_of

    row_of = None
    for _round in range(config.refinement_rounds):
        for _it in range(config.iterations_per_round):
            x, y = centroid_step(x, y)
        x, y, row_of = spread(x, y)
    if row_of is None:
        _, _, row_of = spread(x, y)

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
        routing=routing,
        metadata={
            "defense": "routing_perturbation",
            "perturbed_nets": len(perturbed),
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Correction-cell legalization
# ---------------------------------------------------------------------------

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
