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

The assignment is the min-cost flow's: every sink takes one unit of a
driver's fanout capacity at least total cost, with ties broken as Crouse's
shortest-augmenting-path solver (``linear_sum_assignment`` on a sink ×
driver-slot matrix, each driver repeated once per fanout slot) breaks them.
When no driver is chosen more often than its capacity allows, that
assignment is each sink's cheapest driver, lowest index first; otherwise an
exact port of the solver runs on the whole matrix.

Each sink's cheapest driver comes from a ring walk over the driver grid, not
from the whole matrix: a feasible pair costs at least its Manhattan
distance and an infeasible one exactly ``infeasible_cost``, so once a
sink's best cost is below ``infeasible_cost`` no driver beyond that
distance (plus a rounding slack) can win or tie.  The walk scores a few per
cent of the sink x driver pairs with the same per-element operations as
the matrix.  The recovered netlist is rebuilt from the assignment so OER/HD
can be measured.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.graph import transitive_closure
from repro.netlist.netlist import Netlist
from repro.sm.split import FEOLView, feol_arrays


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

    def recovered_pairs(self) -> Dict[int, int]:
        return dict(self.assignment)


#: Sink rows per block of :func:`build_cost_matrix`: a block's ``(rows, D)``
#: temporaries stay in cache instead of streaming ~15 full ``(S, D)`` arrays
#: through memory.
_BLOCK_ROWS = 32

#: Rounding allowance (µm) of the ring walk's stopping rule.  A feasible
#: pair costs its Manhattan distance plus direction and timing terms that
#: are non-negative in exact arithmetic, but ``1 - cos`` of two unit
#: vectors can round a few ulps below zero.  The lowest ``cost - distance``
#: over the feasible pairs of the 30 attacks of ``run_all(quick_config())``
#: and of the attack equivalence tests' 156 views under every hint toggle is
#: exactly 0.0; 1e-6 µm is still some 10^8 ulps of a 100 µm coordinate.
_SLACK = 1e-6

_INVALID_COSTS = "cost matrix has a NaN or -inf entry or a row without a finite cost"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


#: Threads computing the blocks of :func:`build_cost_matrix`.  NumPy ufuncs
#: release the GIL and blocks write disjoint rows, so blocks run in parallel
#: on every CPU the process may use; with one CPU they run inline.
_WORKERS = _cpu_count()
_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _drop_executor() -> None:
    # A forked child inherits the executor object but not its threads.
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR = None
    _EXECUTOR_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_executor)


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=_WORKERS, thread_name_prefix="network-flow"
            )
        return _EXECUTOR


def _run_blocks(num_rows: int, fill: Callable[[int, int], int]) -> int:
    """Call ``fill(lo, hi)`` on every row block; return the summed results."""
    bounds = [(lo, min(lo + _BLOCK_ROWS, num_rows))
              for lo in range(0, num_rows, _BLOCK_ROWS)]
    if _WORKERS <= 1 or len(bounds) <= 1:
        return sum(fill(lo, hi) for lo, hi in bounds)
    return sum(_executor().map(lambda bound: fill(*bound), bounds))


def _loop_bitmap(view: FEOLView) -> Tuple[Dict[str, int], np.ndarray]:
    """Packed closure of the combinational connectivity an attacker can see.

    Nodes are the non-sequential gates; an edge runs from the driver gate of
    every visible (uncut) net to each of its sink gates.  Returns
    ``(index, bitmap)``: row ``index[u]`` of the ``uint8`` bitmap has bit
    ``index[v]`` (little-endian bit order) set iff gate ``v`` is reachable
    from gate ``u``.  Row and bit ``len(index)`` are always clear, so
    ports and sequential gates can point there.
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


class _CostKernel:
    """Costs of sink x driver pairs, and each sink's cheapest driver.

    ``pairs(sinks, drivers)`` scores the pairs of two broadcastable index
    arrays; it is the only copy of the hint formulas.  Every element goes
    through the same IEEE operations in the same order whatever the shape,
    so row blocks against every driver assemble the whole matrix byte for
    byte and a ring walk's scattered pairs get the matrix's values.
    """

    def __init__(self, view: FEOLView, config: NetworkFlowAttackConfig):
        self.config = config
        self.half_perimeter = view.layout.floorplan.half_perimeter_um
        arrays = feol_arrays(view)
        self.arrays = arrays
        self.drv_dir_count = arrays.driver_has_dir.astype(np.int64)
        self.drv_has_load = arrays.driver_max_load > 0
        self.loop_rows: Optional[np.ndarray] = None
        if config.use_loop_hint:
            index, bitmap = _loop_bitmap(view)
            clear = len(index)
            # Bitmap row of every gate in the view's gate table; the
            # appended last entry serves port terminals (gate index -1).
            loop_index = np.asarray(
                [index.get(gate, clear) for gate in arrays.gate_names] + [clear],
                dtype=np.intp,
            )
            sink_rows = loop_index[arrays.sink_gate_idx]
            driver_cols = loop_index[arrays.driver_gate_idx]
            if sink_rows.min() < clear and driver_cols.min() < clear:
                self.loop_rows = sink_rows
                # Byte and bit of every driver's gate in a bitmap row.
                self.loop_bytes = driver_cols >> 3
                self.loop_bits = (1 << (driver_cols & 7)).astype(np.uint8)
                self.loop_bitmap = bitmap

    def pairs(self, sinks: np.ndarray, drivers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Costs of the pairs ``(sinks, drivers)`` and which are infeasible."""
        config = self.config
        arrays = self.arrays
        half_perimeter = self.half_perimeter
        delta_x = arrays.sink_xy[sinks, 0] - arrays.driver_xy[drivers, 0]
        delta_y = arrays.sink_xy[sinks, 1] - arrays.driver_xy[drivers, 1]
        distance = np.abs(delta_x) + np.abs(delta_y)

        if config.use_direction_hint:
            norm = np.hypot(delta_x, delta_y)
            degenerate = norm < 1e-9
            safe_norm = np.where(degenerate, 1.0, norm)
            unit_x = delta_x / safe_norm
            unit_y = delta_y / safe_norm
            sink_has_dir = arrays.sink_has_dir[sinks]
            drv_cos = (arrays.driver_dir[drivers, 0] * unit_x
                       + arrays.driver_dir[drivers, 1] * unit_y)
            # The sink's stub should point back towards the driver.
            sink_cos = (arrays.sink_dir[sinks, 0] * -unit_x
                        + arrays.sink_dir[sinks, 1] * -unit_y)
            penalty = (
                np.where(arrays.driver_has_dir[drivers], 1.0 - drv_cos, 0.0)
                + np.where(sink_has_dir, 1.0 - sink_cos, 0.0)
            )
            counts = self.drv_dir_count[drivers] + sink_has_dir
            np.divide(penalty, counts, out=penalty, where=counts > 0)
            penalty[degenerate] = 0.0
            cost = distance + config.direction_weight * half_perimeter * 0.1 * penalty

            sink_angle = np.degrees(np.arccos(np.clip(sink_cos, -1.0, 1.0)))
            measured = sink_has_dir & ~degenerate
            infeasible = (
                (np.where(measured, sink_angle, 0.0) > config.direction_tolerance_deg)
                & (distance > config.direction_min_distance_um)
            )
        else:
            cost = distance.copy()
            infeasible = np.zeros(distance.shape, dtype=bool)

        np.add(cost, config.timing_penalty, out=cost,
               where=distance > config.timing_fraction * half_perimeter)

        if config.use_load_hint:
            infeasible |= self.drv_has_load[drivers] & (
                arrays.sink_cap[sinks] > arrays.driver_max_load[drivers]
            )

        # Direct self-loops: sink and driver vpins owned by the same gate
        # (integer gate indices, -1 for port terminals).
        sink_gate = arrays.sink_gate_idx[sinks]
        infeasible |= (sink_gate >= 0) & (sink_gate == arrays.driver_gate_idx[drivers])
        if self.loop_rows is not None:
            # Combinational loops through visible logic: the driver's gate is
            # reachable from the sink's gate.
            reach = self.loop_bitmap[self.loop_rows[sinks], self.loop_bytes[drivers]]
            infeasible |= (reach & self.loop_bits[drivers]) != 0

        cost[infeasible] = config.infeasible_cost
        return cost, infeasible

    def margin(self) -> float:
        """How far below its Manhattan distance a feasible pair can cost.

        The direction term is ``scale * penalty`` with ``penalty`` 0 or within
        ``1 -/+`` the longest stub direction (1 for unit vectors); the timing
        term is 0 or ``timing_penalty``.  ``_SLACK`` covers rounding.  A
        NaN or infinite weight makes the margin infinite (``np.min``
        propagates NaN): no sink stops early.
        """
        config = self.config
        low = float(np.min([0.0, config.timing_penalty]))
        if config.use_direction_hint:
            arrays = self.arrays
            reach = max(np.hypot(*arrays.sink_dir.T).max(initial=0.0),
                        np.hypot(*arrays.driver_dir.T).max(initial=0.0))
            scale = config.direction_weight * self.half_perimeter * 0.1
            low += float(np.min([0.0, scale * (1.0 - reach), scale * (1.0 + reach)]))
        margin = _SLACK - low
        return margin if math.isfinite(margin) else math.inf

    def cheapest_drivers(self) -> np.ndarray:
        """Each sink's lowest-index cheapest driver, by a ring walk.

        Walks Chebyshev rings of the driver grid around every sink, keeping
        a running lexicographic ``(cost, driver index)`` minimum, and stops
        once the best cost is below ``infeasible_cost`` (every infeasible
        pair costs exactly that) and the next ring's distance lower bound
        exceeds it by more than :meth:`margin`.  A sink whose best stays at
        or above ``infeasible_cost`` walks the whole grid.  The result is
        the per-row lowest-index argmin of the whole matrix (the oracle
        ``cheapest_drivers`` in ``tests/attack_oracle.py``), and raises where
        that does: on a NaN or ``-inf`` scored cost and on a sink without a
        finite best cost.  Non-finite hint columns raise ``ValueError``
        before the walk, since they may poison pairs it never scores.
        """
        config = self.config
        arrays = self.arrays
        columns = []
        if config.use_direction_hint:
            columns += [arrays.sink_dir, arrays.driver_dir]
        if config.use_load_hint:
            columns += [arrays.sink_cap, arrays.driver_max_load]
        if not all(np.isfinite(column).all() for column in columns):
            raise ValueError("a direction or load column holds a non-finite value")

        def score(sinks: np.ndarray, drivers: np.ndarray) -> np.ndarray:
            cost = self.pairs(sinks, drivers)[0]
            # False exactly for NaN and -inf.
            if not (cost > -np.inf).all():
                raise ValueError(_INVALID_COSTS)
            return cost

        choice, best = arrays.driver_grid().walk(
            arrays.sink_xy, score, self.margin(), config.infeasible_cost
        )
        if not np.isfinite(best).all():
            raise ValueError(_INVALID_COSTS)
        return choice


def build_cost_matrix(view: FEOLView,
                      config: Optional[NetworkFlowAttackConfig] = None
                      ) -> Tuple[np.ndarray, int]:
    """Build the sink x driver cost matrix of the attack.

    Returns ``(base_costs, excluded)`` where ``base_costs[s, d]`` is the
    assignment cost of connecting sink vpin *s* to driver vpin *d* (the
    paper's hints applied as soft penalties) and ``excluded`` counts the
    infeasible pairs (loop-forming / load-violating / geometry-contradicting
    candidates) that were pinned to ``config.infeasible_cost``.
    :func:`network_flow_attack` builds this matrix only when the fanout
    capacities bind.
    """
    config = config if config is not None else NetworkFlowAttackConfig()
    arrays = feol_arrays(view)
    num_sinks, num_drivers = len(arrays.sink_ids), len(arrays.driver_ids)
    if not num_drivers or not num_sinks:
        return np.zeros((num_sinks, num_drivers)), 0
    kernel = _CostKernel(view, config)
    costs = np.empty((num_sinks, num_drivers))
    every_driver = np.arange(num_drivers)[None, :]

    def fill(lo: int, hi: int) -> int:
        costs[lo:hi], infeasible = kernel.pairs(np.arange(lo, hi)[:, None], every_driver)
        return int(np.count_nonzero(infeasible))

    return costs, _run_blocks(num_sinks, fill)


def _driver_capacities(view: FEOLView, config: NetworkFlowAttackConfig) -> np.ndarray:
    """Fanout slots per driver vpin.

    Bounded by the flow capacity and, when the load hint is enabled, by how
    many typical sink loads the driver can take; scaled up uniformly when the
    total would leave sinks unassignable.
    """
    typical_cap = 1.2
    arrays = feol_arrays(view)
    num_sinks = len(arrays.sink_ids)
    capacities = np.full(len(arrays.driver_ids), config.max_fanout_per_driver,
                         dtype=np.int64)
    if config.use_load_hint:
        load_bound = np.maximum(
            1, (arrays.driver_max_load / typical_cap / 4).astype(np.int64)
        )
        has_load = arrays.driver_max_load > 0
        capacities[has_load] = np.minimum(capacities[has_load], load_bound[has_load])
    total_capacity = int(capacities.sum())
    if total_capacity < num_sinks:
        scale = int(math.ceil(num_sinks / max(total_capacity, 1)))
        capacities *= scale
    return capacities


def network_flow_attack(view: FEOLView,
                        config: Optional[NetworkFlowAttackConfig] = None) -> NetworkFlowAttackResult:
    """Run the network-flow attack on a FEOL view.

    Returns an assignment of every open sink vpin to an open driver vpin plus
    the recovered netlist (the attacker's best guess of the full design).
    """
    config = config if config is not None else NetworkFlowAttackConfig()
    arrays = feol_arrays(view)
    result = NetworkFlowAttackResult(
        num_sinks=len(arrays.sink_ids), num_drivers=len(arrays.driver_ids)
    )
    if not result.num_drivers or not result.num_sinks:
        result.recovered_netlist = view.layout.netlist.copy(
            f"{view.layout.netlist.name}_recovered"
        )
        return result

    capacities = _driver_capacities(view, config)
    choice = _CostKernel(view, config).cheapest_drivers()
    if (np.bincount(choice, minlength=result.num_drivers) > capacities).any():
        choice = _exact_assignment(build_cost_matrix(view, config)[0], capacities)
    result.assignment = dict(zip(arrays.sink_ids.tolist(),
                                 arrays.driver_ids[choice].tolist()))
    netlist = view.layout.netlist
    result.recovered_netlist = _rebuild_netlist(
        view, choice, netlist.copy(f"{netlist.name}_recovered")
    )
    return result


def _exact_assignment(costs: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Driver per row of the min-cost assignment of rows to driver slots.

    A port of ``linear_sum_assignment``'s rectangular solver (Crouse's
    shortest augmenting path) on the ``(S, slots)`` matrix that repeats driver ``d``'s cost
    column ``capacities[d]`` times, read through the slot -> driver index
    instead of built.  It keeps the solver's scan order, the order of its
    floating-point operations and its tie rule, so it returns what
    ``linear_sum_assignment`` returns on that matrix.  ``costs`` must hold
    no NaN or ``-inf`` and ``capacities`` must sum to at least ``S``.
    """
    slot_driver = np.repeat(np.arange(costs.shape[1], dtype=np.intp), capacities)
    num_rows, num_cols = costs.shape[0], slot_driver.size
    u = np.zeros(num_rows)
    v = np.zeros(num_cols)
    path = np.full(num_cols, -1, dtype=np.intp)
    col4row = np.full(num_rows, -1, dtype=np.intp)
    row4col = np.full(num_cols, -1, dtype=np.intp)
    for cur_row in range(num_rows):
        # Reverse column order, so that ties go to the lowest free column.
        remaining = np.arange(num_cols - 1, -1, -1, dtype=np.intp)
        num_remaining = num_cols
        shortest = np.full(num_cols, np.inf)
        # The solver's SR and SC sets: the rows scanned and the columns
        # settled on this row's path, each at most once.
        visited_rows: List[int] = []
        visited_cols: List[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            cols = remaining[:num_remaining]
            reduced = ((min_val + costs[i, slot_driver[cols]]) - u[i]) - v[cols]
            shorter = reduced < shortest[cols]
            path[cols[shorter]] = i
            shortest[cols[shorter]] = reduced[shorter]
            # The solver's scan keeps the first tied minimum it meets unless
            # a later one is unassigned: the last unassigned tie wins.
            candidates = shortest[cols]
            lowest = candidates.min()
            if lowest == np.inf:
                raise ValueError("cost matrix is infeasible")
            ties = np.flatnonzero(candidates == lowest)
            free = ties[row4col[cols[ties]] == -1]
            index = int(free[-1] if free.size else ties[0])
            min_val = float(lowest)
            j = int(cols[index])
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
            visited_cols.append(j)
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        u[cur_row] += min_val
        # Every visited row but the current one is assigned.
        rows = np.asarray(visited_rows[1:], dtype=np.intp)
        u[rows] += min_val - shortest[col4row[rows]]
        columns = np.asarray(visited_cols, dtype=np.intp)
        v[columns] -= min_val - shortest[columns]

        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur_row:
                break
    return slot_driver[col4row]


def _rebuild_netlist(view: FEOLView, choice: np.ndarray,
                     recovered: Netlist) -> Netlist:
    """Reconstruct the attacker's netlist from the driver row ``choice[s]``
    chosen for every sink row ``s``.

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
