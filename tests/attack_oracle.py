"""Full-matrix attack kernels: test oracles for ``repro.attacks``.

These are the proximity, network-flow and crouting implementations the
grid-index and row-block kernels replaced.  The proximity oracle is the
per-pair double loop over the FEOL view's vpins.  The network-flow oracle
builds the whole ``(S, D)`` cost matrix with one broadcast per hint,
evaluates the loop hint on a networkx reachability graph through
:func:`graph_oracle.transitive_closure_bitmap`, and gathers the
driver-slot matrix with ``np.take``.  The crouting oracle makes one NumPy
pass per vpin, side and bounding box.  Tests assert that the shipped
attacks produce the same bytes, counts, assignments and recovered
netlists.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from graph_oracle import netlist_copy, transitive_closure_bitmap
from repro.attacks.crouting import CRoutingAttackConfig, CRoutingAttackResult
from repro.attacks.network_flow import NetworkFlowAttackConfig, NetworkFlowAttackResult
from repro.attacks.proximity import ProximityAttackResult
from repro.layout.geometry import manhattan
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


def slot_cost_matrix(view: FEOLView, config: NetworkFlowAttackConfig
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(slot_costs, slot_driver_index, excluded)`` gathered with ``np.take``."""
    capacities = driver_capacities(view, config)
    slot_driver_index = np.repeat(
        np.arange(len(view.driver_vpins), dtype=np.intp), capacities
    )
    base_costs, excluded = build_cost_matrix(view, config)
    return np.take(base_costs, slot_driver_index, axis=1), slot_driver_index, excluded


def network_flow_attack(view: FEOLView,
                        config: Optional[NetworkFlowAttackConfig] = None
                        ) -> NetworkFlowAttackResult:
    """The attack on the full-matrix kernel and the validating netlist copy."""
    from scipy.optimize import linear_sum_assignment

    config = config if config is not None else NetworkFlowAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    result = NetworkFlowAttackResult(num_sinks=len(sinks), num_drivers=len(drivers))
    netlist = view.layout.netlist
    if not drivers or not sinks:
        result.recovered_netlist = netlist_copy(netlist, f"{netlist.name}_recovered")
        return result
    cost, slot_driver_index, excluded = slot_cost_matrix(view, config)
    row_ind, col_ind = linear_sum_assignment(cost)
    assignment: Dict[int, int] = {}
    for si, slot in zip(row_ind, col_ind):
        assignment[sinks[si].identifier] = drivers[slot_driver_index[slot]].identifier
    result.assignment = assignment
    result.excluded_pairs = excluded
    result.recovered_netlist = _rebuild_netlist(view, assignment)
    return result


def _rebuild_netlist(view: FEOLView, assignment: Dict[int, int]) -> Netlist:
    netlist = view.layout.netlist
    recovered = netlist_copy(netlist, f"{netlist.name}_recovered")
    driver_net = {c.driver_vpin: c.net for c in view.open_connections}
    vpin_by_id = {vpin.identifier: vpin for vpin in view.sink_vpins}
    for connection in view.open_connections:
        sink_vpin = vpin_by_id[connection.sink_vpin]
        assigned_driver = assignment.get(connection.sink_vpin)
        target_net = driver_net.get(assigned_driver) if assigned_driver is not None else None
        if sink_vpin.gate is None:
            if sink_vpin.pin is not None and sink_vpin.pin in recovered.primary_outputs:
                if target_net is not None:
                    recovered.retarget_primary_output(sink_vpin.pin, target_net)
            continue
        recovered.disconnect_pin(sink_vpin.gate, sink_vpin.pin)
        if target_net is not None:
            recovered.connect_pin(sink_vpin.gate, sink_vpin.pin, target_net)
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
