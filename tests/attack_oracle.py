"""Full-matrix attack kernels: test oracles for ``repro.attacks``.

These are the proximity, network-flow and crouting implementations the
grid-index and row-block kernels replaced.  The proximity oracle is the
per-pair double loop over the FEOL view's vpins; ``grid_nearest_reference``
is the per-query ring walk over a :class:`UniformGridIndex` that the
one-program-per-ring ``nearest`` replaced.  The network-flow oracle
builds the whole ``(S, D)`` cost matrix with one broadcast per hint,
evaluates the loop hint on a networkx reachability graph through
:func:`graph_oracle.transitive_closure_bitmap`, and gathers the
driver-slot matrix with ``np.take``.  ``loop_bitmap_reference`` is the
loop bitmap built by walking the visible nets by name, which the
attack's integer-view build replaced.  The crouting oracle makes one NumPy
pass per vpin, side and bounding box.  ``rebuild_netlist`` is the
copy-and-edit recovery that the network-flow attack's overlay replaced.
Tests assert that the shipped attacks produce the same bytes, counts,
assignments, recovered netlists and OER/HD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from graph_oracle import netlist_copy, transitive_closure_bitmap
from repro.attacks.crouting import CRoutingAttackConfig, CRoutingAttackResult
from repro.attacks.network_flow import _INVALID_COSTS, NetworkFlowAttackConfig
from repro.attacks.proximity import ProximityAttackResult
from repro.layout.arrays import UniformGridIndex
from repro.layout.geometry import manhattan
from repro.netlist.graph import transitive_closure
from repro.netlist.netlist import Netlist
from repro.sm.split import FEOLView, VPin, feol_arrays


def direction_penalty(driver: VPin, sink: VPin) -> Tuple[float, float]:
    """Per-pair direction disagreement: ``(mean_penalty, sink_angle_deg)``."""
    dx = sink.position.x - driver.position.x
    dy = sink.position.y - driver.position.y
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        return 0.0, 0.0
    ux, uy = dx / norm, dy / norm
    penalty = 0.0
    sink_angle = 0.0
    count = 0
    if driver.direction is not None:
        cos = driver.direction[0] * ux + driver.direction[1] * uy
        penalty += 1.0 - cos
        count += 1
    if sink.direction is not None:
        cos = sink.direction[0] * -ux + sink.direction[1] * -uy
        penalty += 1.0 - cos
        sink_angle = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        count += 1
    if count == 0:
        return 0.0, 0.0
    return penalty / count, sink_angle


def visible_reachability(view: FEOLView) -> nx.DiGraph:
    """Gate-level digraph of the connectivity an attacker can already see."""
    netlist = view.layout.netlist
    graph = nx.DiGraph()
    graph.add_nodes_from(
        name for name, gate in netlist.gates.items() if not gate.cell.is_sequential
    )
    for net_name in view.visible_nets:
        net = netlist.nets[net_name]
        if net.driver is None:
            continue
        driver_gate = net.driver[0]
        if driver_gate not in graph:
            continue
        for sink_gate, _pin in net.sinks:
            if sink_gate in graph:
                graph.add_edge(driver_gate, sink_gate)
    return graph


def loop_bitmap_reference(view: FEOLView) -> Tuple[Dict[str, int], np.ndarray]:
    """The network-flow attack's loop bitmap as built by name.

    Walks ``view.visible_nets`` through the netlist's ``Net`` objects and
    closes the gate graph with
    :func:`repro.netlist.graph.transitive_closure`.  Returns ``(index,
    bitmap)``: row ``index[u]`` has bit ``index[v]`` (little-endian bit
    order) set iff gate ``v`` is reachable from gate ``u``; row and bit
    ``len(index)`` are always clear.
    """
    netlist = view.layout.netlist
    index = {
        name: i for i, name in enumerate(
            name for name, gate in netlist.gates.items() if not gate.cell.is_sequential
        )
    }
    successors: List[List[int]] = [[] for _ in index]
    for net_name in view.visible_nets:
        net = netlist.nets[net_name]
        if net.driver is None:
            continue
        driver = index.get(net.driver[0])
        if driver is None:
            continue
        fanout = successors[driver]
        for sink_gate, _pin in net.sinks:
            sink = index.get(sink_gate)
            if sink is not None:
                fanout.append(sink)
    row_bytes = len(index) // 8 + 1
    packed = b"".join(
        reach.to_bytes(row_bytes, "little") for reach in transitive_closure(successors)
    )
    bitmap = np.frombuffer(packed + bytes(row_bytes), dtype=np.uint8)
    return index, bitmap.reshape(len(index) + 1, row_bytes)


def loop_exclusion_matrix(view: FEOLView, sinks: List[VPin],
                          drivers: List[VPin]) -> np.ndarray:
    """Boolean (sink x driver) matrix of pairs that would close a visible loop."""
    index, bitmap = transitive_closure_bitmap(visible_reachability(view))
    sink_rows = np.asarray(
        [index.get(vpin.gate, -1) if vpin.gate is not None else -1 for vpin in sinks],
        dtype=np.intp,
    )
    driver_cols = np.asarray(
        [index.get(vpin.gate, -1) if vpin.gate is not None else -1 for vpin in drivers],
        dtype=np.intp,
    )
    result = np.zeros((len(sinks), len(drivers)), dtype=bool)
    sink_known = sink_rows >= 0
    driver_known = driver_cols >= 0
    if not sink_known.any() or not driver_known.any():
        return result
    rows = bitmap[sink_rows[sink_known]]
    cols = driver_cols[driver_known]
    words = cols >> 6
    shifts = (cols & 63).astype(np.uint64)
    bits = (rows[:, words] >> shifts[None, :]) & np.uint64(1)
    result[np.ix_(sink_known, driver_known)] = bits.astype(bool)
    return result


def build_cost_matrix(view: FEOLView,
                      config: Optional[NetworkFlowAttackConfig] = None
                      ) -> Tuple[np.ndarray, int]:
    """The whole ``(S, D)`` cost matrix in one broadcast per hint."""
    config = config if config is not None else NetworkFlowAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    if not drivers or not sinks:
        return np.zeros((len(sinks), len(drivers))), 0
    half_perimeter = view.layout.floorplan.half_perimeter_um

    arrays = feol_arrays(view)
    sink_x = arrays.sink_xy[:, 0]
    sink_y = arrays.sink_xy[:, 1]
    drv_x = arrays.driver_xy[:, 0]
    drv_y = arrays.driver_xy[:, 1]
    delta_x = sink_x[:, None] - drv_x[None, :]
    delta_y = sink_y[:, None] - drv_y[None, :]
    distance = np.abs(delta_x) + np.abs(delta_y)
    cost = distance.copy()
    infeasible = np.zeros(distance.shape, dtype=bool)

    if config.use_direction_hint:
        norm = np.hypot(delta_x, delta_y)
        degenerate = norm < 1e-9
        safe_norm = np.where(degenerate, 1.0, norm)
        unit_x = delta_x / safe_norm
        unit_y = delta_y / safe_norm

        drv_dir_x = arrays.driver_dir[:, 0]
        drv_dir_y = arrays.driver_dir[:, 1]
        drv_has_dir = arrays.driver_has_dir
        sink_dir_x = arrays.sink_dir[:, 0]
        sink_dir_y = arrays.sink_dir[:, 1]
        sink_has_dir = arrays.sink_has_dir

        drv_cos = drv_dir_x[None, :] * unit_x + drv_dir_y[None, :] * unit_y
        sink_cos = sink_dir_x[:, None] * -unit_x + sink_dir_y[:, None] * -unit_y
        penalty = (
            np.where(drv_has_dir[None, :], 1.0 - drv_cos, 0.0)
            + np.where(sink_has_dir[:, None], 1.0 - sink_cos, 0.0)
        )
        counts = drv_has_dir[None, :].astype(np.int64) + sink_has_dir[:, None]
        np.divide(penalty, counts, out=penalty, where=counts > 0)
        penalty[degenerate] = 0.0
        cost += config.direction_weight * half_perimeter * 0.1 * penalty

        sink_angle = np.zeros(distance.shape)
        measured = sink_has_dir[:, None] & ~degenerate
        sink_angle[measured] = np.degrees(
            np.arccos(np.clip(sink_cos[measured], -1.0, 1.0))
        )
        infeasible |= (
            (sink_angle > config.direction_tolerance_deg)
            & (distance > config.direction_min_distance_um)
        )

    cost[distance > config.timing_fraction * half_perimeter] += config.timing_penalty

    if config.use_load_hint:
        sink_cap = arrays.sink_cap
        drv_load = arrays.driver_max_load
        infeasible |= (drv_load[None, :] > 0) & (sink_cap[:, None] > drv_load[None, :])

    same_gate = (
        (arrays.sink_gate_idx[:, None] >= 0)
        & (arrays.sink_gate_idx[:, None] == arrays.driver_gate_idx[None, :])
    )
    infeasible |= same_gate
    if config.use_loop_hint:
        infeasible |= loop_exclusion_matrix(view, sinks, drivers)

    cost[infeasible] = config.infeasible_cost
    return cost, int(infeasible.sum())


def driver_capacities(view: FEOLView, config: NetworkFlowAttackConfig) -> np.ndarray:
    """Fanout slots per driver vpin (flow capacity, load bound, feasibility)."""
    typical_cap = 1.2
    arrays = feol_arrays(view)
    capacities = np.full(len(view.driver_vpins), config.max_fanout_per_driver, dtype=np.int64)
    if config.use_load_hint:
        load_bound = np.maximum(
            1, (arrays.driver_max_load / typical_cap / 4).astype(np.int64)
        )
        has_load = arrays.driver_max_load > 0
        capacities[has_load] = np.minimum(capacities[has_load], load_bound[has_load])
    total_capacity = int(capacities.sum())
    if total_capacity < len(view.sink_vpins):
        capacities *= int(math.ceil(len(view.sink_vpins) / max(total_capacity, 1)))
    return capacities


def slot_assignment(costs: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Driver per row: ``linear_sum_assignment`` on the matrix that repeats
    driver ``d``'s cost column ``capacities[d]`` times (gathered with
    ``np.take``)."""
    from scipy.optimize import linear_sum_assignment

    slot_driver_index = np.repeat(
        np.arange(costs.shape[1], dtype=np.intp), capacities
    )
    row_ind, col_ind = linear_sum_assignment(np.take(costs, slot_driver_index, axis=1))
    assert np.array_equal(row_ind, np.arange(costs.shape[0]))
    return slot_driver_index[col_ind]


def cheapest_drivers(block: np.ndarray) -> np.ndarray:
    """The lowest-index cheapest driver of every row of a cost matrix.

    The dense definition ``_CostKernel.cheapest_drivers`` reproduces
    without the matrix.  While no driver is chosen more often than its
    capacity, this is the solver's assignment: with all duals still zero,
    each row's shortest augmenting path is one step to the lowest free slot
    at its minimum, and a driver's k-th use takes its k-th slot.  Raises
    ``ValueError`` where the solver did: on a NaN or ``-inf`` cost
    (``argmin`` picks either) and on a row without a finite cost.
    """
    choice = np.argmin(block, axis=1)
    if not np.isfinite(block[np.arange(len(choice)), choice]).all():
        raise ValueError(_INVALID_COSTS)
    return choice


@dataclass
class OracleAttackResult:
    """The oracle attack's assignment and eagerly rebuilt netlist."""

    assignment: Dict[int, int] = field(default_factory=dict)
    recovered_netlist: Optional[Netlist] = None
    num_sinks: int = 0
    num_drivers: int = 0


def network_flow_attack(view: FEOLView,
                        config: Optional[NetworkFlowAttackConfig] = None
                        ) -> OracleAttackResult:
    """The attack on the full-matrix kernel and the validating netlist copy."""
    config = config if config is not None else NetworkFlowAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    result = OracleAttackResult(num_sinks=len(sinks), num_drivers=len(drivers))
    netlist = view.layout.netlist
    recovered = netlist_copy(netlist, f"{netlist.name}_recovered")
    if not drivers or not sinks:
        result.recovered_netlist = recovered
        return result
    costs, _excluded = build_cost_matrix(view, config)
    chosen = slot_assignment(costs, driver_capacities(view, config))
    result.assignment = {
        sink.identifier: drivers[driver].identifier for sink, driver in zip(sinks, chosen)
    }
    result.recovered_netlist = rebuild_netlist(view, chosen, recovered)
    return result


def rebuild_netlist(view: FEOLView, choice: np.ndarray, recovered: Netlist) -> Netlist:
    """Reconstruct the attacker's netlist from the driver row ``choice[s]``
    chosen for every sink row ``s``: the copy-and-edit recovery that
    :class:`repro.netlist.arrays.NetlistOverlay` replaced.

    The attacker starts from the FEOL-visible connectivity (which equals the
    layout's netlist minus the cut connections) and connects every open sink
    to the FEOL net of the driver vpin it was assigned to.  ``recovered`` is
    a fresh copy of the layout's netlist, edited in place and returned.
    """
    arrays = feol_arrays(view)
    gate_names, pin_names, net_names = (
        arrays.gate_names, arrays.pin_names, arrays.net_names
    )
    # The copied netlist still contains the true BEOL connections; the attacker
    # does not know them, so every cut sink is first detached and then attached
    # to whatever net the attack assigned, or left dangling when the assigned
    # driver has no net.  Assignments are not re-checked here: the loop hint
    # acts only through the cost matrix, so a recovered netlist can contain
    # combinational loops.
    for gate_idx, pin_idx, net_idx in zip(arrays.sink_gate_idx.tolist(),
                                          arrays.sink_pin_idx.tolist(),
                                          arrays.driver_net_idx[choice].tolist()):
        pin = pin_names[pin_idx] if pin_idx >= 0 else None
        target_net = net_names[net_idx] if net_idx >= 0 else None
        if gate_idx < 0:
            # Primary-output sink.
            if pin is not None and pin in recovered.primary_outputs:
                if target_net is not None:
                    recovered.retarget_primary_output(pin, target_net)
            continue
        gate = gate_names[gate_idx]
        recovered.disconnect_pin(gate, pin)
        if target_net is not None:
            recovered.connect_pin(gate, pin, target_net)
    return recovered


def crouting_attack(view: FEOLView,
                    config: Optional[CRoutingAttackConfig] = None) -> CRoutingAttackResult:
    """crouting with one NumPy pass per vpin, side and bounding box."""
    config = config if config is not None else CRoutingAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    result = CRoutingAttackResult(num_vpins=view.num_vpins)
    if not drivers or not sinks:
        for box in config.bounding_boxes:
            result.expected_list_size[box] = 0.0
            result.match_in_list[box] = 0.0
            result.candidate_counts[box] = []
        return result

    driver_pos = np.array([[v.position.x, v.position.y] for v in drivers], dtype=float)
    sink_pos = np.array([[v.position.x, v.position.y] for v in sinks], dtype=float)
    true_driver_of_sink = view.true_driver_of_sink()
    driver_index = {vpin.identifier: i for i, vpin in enumerate(drivers)}
    sink_ids_by_driver: Dict[int, List[int]] = {}
    for connection in view.open_connections:
        sink_ids_by_driver.setdefault(connection.driver_vpin, []).append(connection.sink_vpin)
    sink_index = {vpin.identifier: i for i, vpin in enumerate(sinks)}

    for box in config.bounding_boxes:
        radius = box * config.gcell_um / 2.0
        counts: List[int] = []
        matches = 0
        total_with_truth = 0
        for si, sink in enumerate(sinks):
            dx = np.abs(driver_pos[:, 0] - sink_pos[si, 0])
            dy = np.abs(driver_pos[:, 1] - sink_pos[si, 1])
            inside = (dx <= radius) & (dy <= radius)
            counts.append(int(inside.sum()))
            true_driver = true_driver_of_sink.get(sink.identifier)
            if true_driver is not None:
                total_with_truth += 1
                if inside[driver_index[true_driver]]:
                    matches += 1
        for di, driver in enumerate(drivers):
            dx = np.abs(sink_pos[:, 0] - driver_pos[di, 0])
            dy = np.abs(sink_pos[:, 1] - driver_pos[di, 1])
            inside = (dx <= radius) & (dy <= radius)
            counts.append(int(inside.sum()))
            true_sinks = sink_ids_by_driver.get(driver.identifier, [])
            if true_sinks:
                total_with_truth += 1
                if any(inside[sink_index[s]] for s in true_sinks):
                    matches += 1
        result.candidate_counts[box] = counts
        result.expected_list_size[box] = float(np.mean(counts)) if counts else 0.0
        result.match_in_list[box] = (
            100.0 * matches / total_with_truth if total_with_truth else 0.0
        )
    return result


def proximity_attack_reference(view: FEOLView) -> ProximityAttackResult:
    """The historical per-pair double loop of the proximity attack.

    The strict ``<`` comparison makes the first driver with the minimal
    distance win, which is the tie-breaking rule the grid-index attack
    reproduces.
    """
    result = ProximityAttackResult(
        num_sinks=len(view.sink_vpins), num_drivers=len(view.driver_vpins)
    )
    if not view.driver_vpins:
        return result
    for sink in view.sink_vpins:
        best_driver: Optional[int] = None
        best_distance = float("inf")
        for driver in view.driver_vpins:
            distance = manhattan(sink.position, driver.position)
            if distance < best_distance:
                best_distance = distance
                best_driver = driver.identifier
        if best_driver is not None:
            result.assignment[sink.identifier] = best_driver
    return result


def _ring_candidates(index: UniformGridIndex, cx: int, cy: int,
                     ring: int) -> np.ndarray:
    """Point indices of the cells at Chebyshev cell-distance ``ring``."""
    def row_span(iy: int, x0: int, x1: int) -> np.ndarray:
        base = iy * index.nx
        return index._order[index._starts[base + x0]: index._starts[base + x1 + 1]]

    if ring == 0:
        return row_span(cy, cx, cx)
    spans: List[np.ndarray] = []
    x0 = max(cx - ring, 0)
    x1 = min(cx + ring, index.nx - 1)
    top = cy - ring
    bottom = cy + ring
    if top >= 0:
        spans.append(row_span(top, x0, x1))
    if bottom <= index.ny - 1 and bottom != top:
        spans.append(row_span(bottom, x0, x1))
    left = cx - ring
    right = cx + ring
    for iy in range(max(top + 1, 0), min(bottom - 1, index.ny - 1) + 1):
        if left >= 0:
            spans.append(row_span(iy, left, left))
        if right <= index.nx - 1 and right != left:
            spans.append(row_span(iy, right, right))
    if not spans:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(spans)


def grid_nearest_reference(index: UniformGridIndex,
                           query_xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The historical per-query ring walk of ``UniformGridIndex.nearest``.

    One Python loop per query: expand Chebyshev rings of cells, keep the
    ring's first-occurrence minimum when it is strictly closer (or equally
    close with a lower index), and stop once ``(ring - 1) * min_pitch``
    strictly exceeds the best distance.
    """
    query = np.asarray(query_xy, dtype=np.float64)
    m = len(query)
    indices = np.empty(m, dtype=np.intp)
    distances = np.empty(m, dtype=np.float64)
    qix = index._axis_cells(query[:, 0], index.x_min, index.cell_x, index.nx)
    qiy = index._axis_cells(query[:, 1], index.y_min, index.cell_y, index.ny)
    xs = index.xy[:, 0]
    ys = index.xy[:, 1]
    min_pitch = min(index.cell_x, index.cell_y)
    max_ring = max(index.nx, index.ny)
    for i in range(m):
        qx = query[i, 0]
        qy = query[i, 1]
        best_idx = -1
        best_dist = math.inf
        ring = 0
        while True:
            candidates = _ring_candidates(index, int(qix[i]), int(qiy[i]), ring)
            if candidates.size:
                candidates = np.sort(candidates)
                dist = np.abs(qx - xs[candidates]) + np.abs(qy - ys[candidates])
                j = int(np.argmin(dist))
                d = float(dist[j])
                c = int(candidates[j])
                if d < best_dist or (d == best_dist and c < best_idx):
                    best_dist = d
                    best_idx = c
            ring += 1
            if ring > max_ring:
                break
            if best_idx >= 0 and (ring - 1) * min_pitch > best_dist:
                break
        indices[i] = best_idx
        distances[i] = best_dist
    return indices, distances
