"""Network-flow proximity attack (Wang et al., DAC'16).

The attack reconnects the missing BEOL wiring of a FEOL-only layout by
solving a min-cost flow problem between open driver pins and open sink pins.
It uses the hints the paper lists (Sec. 2):

1. **physical proximity** — cost grows with the Manhattan distance between a
   candidate driver/sink pair;
2. **direction of dangling wires** — the FEOL stub at each open pin points
   roughly towards where the missing wire continues; candidate pairs whose
   geometry disagrees with both stubs are penalised;
3. **load-capacitance constraints** — a driver cannot be assigned a sink
   whose input capacitance exceeds the driver's maximum load, and each driver
   has a bounded fanout capacity;
4. **combinational-loop avoidance** — a candidate pair that would close a
   combinational cycle through the already-known FEOL connectivity is
   excluded;
5. **timing constraints** — extremely long candidate connections (longer than
   a configurable fraction of the die half-perimeter) are deprioritised, as
   they would violate the delay budget of the original design.

The assignment is solved globally with the Hungarian algorithm on a
sink × (driver-slot) cost matrix — an equivalent formulation of the
min-cost-flow problem that maps directly onto ``scipy.optimize`` — and the
recovered netlist is rebuilt from the assignment so OER/HD can be measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import networkx as nx

from repro.netlist.graph import transitive_closure_bitmap
from repro.netlist.netlist import Netlist
from repro.sm.split import FEOLView, VPin, feol_arrays


@dataclass
class NetworkFlowAttackConfig:
    """Knobs of the network-flow attack."""

    #: Weight of the dangling-direction mismatch penalty (in units of die
    #: half-perimeter fractions converted to µm).
    direction_weight: float = 2.5
    #: Candidate pairs whose geometry disagrees with a dangling stub by more
    #: than this angle (degrees) are excluded outright — the missing wire
    #: would have to double back on its own stub.  Pairs closer than
    #: ``direction_min_distance_um`` are exempt (the stub tips practically
    #: touch, so the direction carries no information).
    direction_tolerance_deg: float = 40.0
    direction_min_distance_um: float = 1.0
    #: Candidate connections longer than this fraction of the die
    #: half-perimeter receive the timing penalty.
    timing_fraction: float = 0.5
    #: Extra cost (µm-equivalent) for timing-violating candidates.
    timing_penalty: float = 250.0
    #: Cost assigned to excluded (loop-forming / load-violating) candidates.
    infeasible_cost: float = 1.0e7
    #: Maximum number of sinks the attack allows per recovered driver.  Wang
    #: et al. bound driver fanout through the flow capacities.
    max_fanout_per_driver: int = 12
    #: Use the loop-avoidance hint.
    use_loop_hint: bool = True
    #: Use the dangling-direction hint.
    use_direction_hint: bool = True
    #: Use the load-capacitance hint.
    use_load_hint: bool = True


@dataclass
class NetworkFlowAttackResult:
    """Outcome of the attack."""

    assignment: Dict[int, int] = field(default_factory=dict)
    recovered_netlist: Optional[Netlist] = None
    num_sinks: int = 0
    num_drivers: int = 0
    excluded_pairs: int = 0

    def recovered_pairs(self) -> Dict[int, int]:
        return dict(self.assignment)


def _direction_penalty(driver: VPin, sink: VPin) -> Tuple[float, float]:
    """Direction disagreement of a candidate pair with the dangling stubs.

    Returns ``(mean_penalty, sink_angle_deg)`` where ``mean_penalty`` is in
    [0, 2] (0 = both stubs point exactly along the candidate connection) and
    ``sink_angle_deg`` is the angle between the sink's stub and the candidate
    connection (the sink side has exactly one missing wire, so only its angle
    is used for hard exclusion; the driver side fans out and is only a soft
    penalty).
    """
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
        # The sink's stub should point back towards the driver.
        cos = sink.direction[0] * -ux + sink.direction[1] * -uy
        penalty += 1.0 - cos
        sink_angle = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        count += 1
    if count == 0:
        return 0.0, 0.0
    return penalty / count, sink_angle


def _visible_reachability(view: FEOLView) -> nx.DiGraph:
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


def _loop_exclusion_matrix(view: FEOLView, sinks: List[VPin],
                           drivers: List[VPin]) -> np.ndarray:
    """Boolean (sink x driver) matrix of pairs that would close a visible loop.

    The loop hint is evaluated from a single transitive-closure pass over the
    attacker-visible connectivity (a packed reachability bitmap) instead of
    one ``nx.descendants`` traversal per sink gate: entry ``[s, d]`` is True
    iff the driver's gate is reachable from the sink's gate through visible
    logic.
    """
    index, bitmap = transitive_closure_bitmap(_visible_reachability(view))
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
    rows = bitmap[sink_rows[sink_known]]  # (s_known, words)
    cols = driver_cols[driver_known]
    words = cols >> 6
    shifts = (cols & 63).astype(np.uint64)
    bits = (rows[:, words] >> shifts[None, :]) & np.uint64(1)
    result[np.ix_(sink_known, driver_known)] = bits.astype(bool)
    return result


def build_cost_matrix(view: FEOLView,
                      config: Optional[NetworkFlowAttackConfig] = None
                      ) -> Tuple[np.ndarray, int]:
    """Build the sink x driver cost matrix of the attack, vectorized.

    Returns ``(base_costs, excluded)`` where ``base_costs[s, d]`` is the
    assignment cost of connecting sink vpin *s* to driver vpin *d* (the
    paper's hints applied as soft penalties) and ``excluded`` counts the
    infeasible pairs (loop-forming / load-violating / geometry-contradicting
    candidates) that were pinned to ``config.infeasible_cost``.

    The construction broadcasts over position, direction and capacitance
    arrays instead of looping over every pair, and evaluates the
    loop-avoidance hint against a cached reachability bitmap; it is
    numerically equivalent to the historical per-pair construction (see the
    regression test in ``tests/test_engine.py``).
    """
    config = config if config is not None else NetworkFlowAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    if not drivers or not sinks:
        return np.zeros((len(sinks), len(drivers))), 0
    half_perimeter = view.layout.floorplan.half_perimeter_um

    # Position/direction/capacitance columns come straight from the shared
    # columnar FEOL view instead of being re-extracted per call.
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
        # The sink's stub should point back towards the driver.
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

    # Direct self-loops: sink and driver vpins owned by the same gate.  The
    # integer gate indices of the columnar view (-1 for port terminals) make
    # this a broadcast compare instead of a per-pair string comparison.
    same_gate = (
        (arrays.sink_gate_idx[:, None] >= 0)
        & (arrays.sink_gate_idx[:, None] == arrays.driver_gate_idx[None, :])
    )
    infeasible |= same_gate
    if config.use_loop_hint:
        # Combinational loops through visible logic.
        infeasible |= _loop_exclusion_matrix(view, sinks, drivers)

    cost[infeasible] = config.infeasible_cost
    return cost, int(infeasible.sum())


def network_flow_attack(view: FEOLView,
                        config: Optional[NetworkFlowAttackConfig] = None) -> NetworkFlowAttackResult:
    """Run the network-flow attack on a FEOL view.

    Returns an assignment of every open sink vpin to an open driver vpin plus
    the recovered netlist (the attacker's best guess of the full design).
    """
    config = config if config is not None else NetworkFlowAttackConfig()
    drivers = view.driver_vpins
    sinks = view.sink_vpins
    result = NetworkFlowAttackResult(num_sinks=len(sinks), num_drivers=len(drivers))
    if not drivers or not sinks:
        result.recovered_netlist = view.layout.netlist.copy(
            f"{view.layout.netlist.name}_recovered"
        )
        return result

    # Fanout capacity per driver: bounded by the flow capacity and, when the
    # load hint is enabled, by how many typical sink loads the driver can take.
    typical_cap = 1.2
    arrays = feol_arrays(view)
    capacities = np.full(len(drivers), config.max_fanout_per_driver, dtype=np.int64)
    if config.use_load_hint:
        load_bound = np.maximum(
            1, (arrays.driver_max_load / typical_cap / 4).astype(np.int64)
        )
        has_load = arrays.driver_max_load > 0
        capacities[has_load] = np.minimum(capacities[has_load], load_bound[has_load])
    total_capacity = int(capacities.sum())
    if total_capacity < len(sinks):
        # Ensure feasibility: scale capacities up uniformly.
        scale = int(math.ceil(len(sinks) / max(total_capacity, 1)))
        capacities *= scale

    # Expand drivers into capacity slots and solve a rectangular assignment.
    slot_driver_index = np.repeat(np.arange(len(drivers), dtype=np.intp), capacities)

    base_costs, excluded = build_cost_matrix(view, config)
    # np.take builds the slot matrix C-contiguous; a fancy-indexed column
    # gather comes out F-ordered and linear_sum_assignment would copy it.
    cost = np.take(base_costs, slot_driver_index, axis=1)

    # Imported here, not at module load: scipy.optimize is the package's
    # only scipy use and costs about half a second of import time.
    from scipy.optimize import linear_sum_assignment

    row_ind, col_ind = linear_sum_assignment(cost)
    assignment: Dict[int, int] = {}
    for si, slot in zip(row_ind, col_ind):
        driver = drivers[slot_driver_index[slot]]
        assignment[sinks[si].identifier] = driver.identifier
    result.assignment = assignment
    result.excluded_pairs = excluded
    result.recovered_netlist = _rebuild_netlist(view, assignment)
    return result


def _rebuild_netlist(view: FEOLView, assignment: Dict[int, int]) -> Netlist:
    """Reconstruct the attacker's netlist from a sink→driver assignment.

    The attacker starts from the FEOL-visible connectivity (which equals the
    layout's netlist minus the cut connections) and connects every open sink
    to the net of the driver vpin it was assigned to.
    """
    netlist = view.layout.netlist
    recovered = netlist.copy(f"{netlist.name}_recovered")
    driver_net: Dict[int, str] = {}
    for connection in view.open_connections:
        driver_net[connection.driver_vpin] = connection.net
    vpin_by_id: Dict[int, VPin] = {
        vpin.identifier: vpin for vpin in view.sink_vpins
    }
    # The copied netlist still contains the true BEOL connections; the attacker
    # does not know them, so every cut sink is first detached and then attached
    # to whatever net the attack assigned (or left dangling when unassigned or
    # when the assignment would close a combinational loop the attacker would
    # have rejected).
    for connection in view.open_connections:
        sink_vpin = vpin_by_id[connection.sink_vpin]
        assigned_driver = assignment.get(connection.sink_vpin)
        target_net = driver_net.get(assigned_driver) if assigned_driver is not None else None
        if sink_vpin.gate is None:
            # Primary-output sink.
            if sink_vpin.pin is not None and sink_vpin.pin in recovered.primary_outputs:
                if target_net is not None:
                    recovered.retarget_primary_output(sink_vpin.pin, target_net)
            continue
        recovered.disconnect_pin(sink_vpin.gate, sink_vpin.pin)
        if target_net is not None:
            recovered.connect_pin(sink_vpin.gate, sink_vpin.pin, target_net)
    return recovered
