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
the matrix.  The recovery is the layout's netlist with every cut sink moved
to the net of its assigned driver, kept as a
:class:`~repro.netlist.arrays.NetlistOverlay` (override columns, no netlist
copy) that OER/HD simulate directly; the recovered ``Netlist`` is built
only when a caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.arrays import NetlistOverlay, csr, netlist_arrays
from repro.netlist.graph import transitive_closure
from repro.netlist.netlist import Netlist
from repro.sm.split import FEOLView


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
    #: The attacker's netlist: the layout's netlist with every cut sink
    #: moved to its assigned driver's net.
    recovery: Optional[NetlistOverlay] = None
    num_sinks: int = 0
    num_drivers: int = 0

    @property
    def recovered_netlist(self) -> Optional[Netlist]:
        """The recovery as a :class:`Netlist`, built on first read."""
        return None if self.recovery is None else self.recovery.netlist()

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


def _loop_bitmap(view: FEOLView) -> Tuple[np.ndarray, np.ndarray]:
    """Packed closure of the combinational connectivity an attacker can see.

    Nodes are the non-sequential gates, numbered in netlist order; an edge
    runs from the driver gate of every visible net (routed, not cut) to each
    of its sink gates, read off the netlist's
    :class:`~repro.netlist.arrays.NetlistArrays` and the view's cut-net
    mask, and closed by :func:`~repro.netlist.graph.transitive_closure`.

    Returns ``(rows, bitmap)``: ``rows[g]`` is the bitmap row of netlist
    gate ``g``, and row ``rows[u]`` of the ``uint8`` bitmap has bit
    ``rows[v]`` (little-endian bit order) set iff gate ``v`` is reachable
    from gate ``u``.  Row and bit ``len(bitmap) - 1`` are always clear;
    sequential gates map there, and so can ports.
    """
    arrays = netlist_arrays(view.layout.netlist)
    comb = ~arrays.sequential
    num_comb = int(np.count_nonzero(comb))
    rows = np.cumsum(comb) - 1
    rows[~comb] = num_comb
    visible = np.zeros(arrays.num_nets, dtype=bool)
    routing = view.routing
    nets = routing.net_index[~view.net_is_cut]
    if routing.net_names != arrays.net_names:
        known = arrays.net_id
        nets = np.asarray([known[routing.net_names[i]] for i in nets.tolist()],
                          dtype=np.int64)
    visible[nets] = True
    read = arrays.fanin_net >= 0
    read[read] = visible[arrays.fanin_net[read]]
    driver = arrays.net_driver[arrays.fanin_net[read]]
    sink = arrays.fanin_gate[read]
    edge = driver >= 0
    edge[edge] = comb[driver[edge]] & comb[sink[edge]]
    sources = rows[driver[edge]]
    by_source = np.argsort(sources, kind="stable")
    starts = csr(np.bincount(sources, minlength=num_comb)).tolist()
    targets = rows[sink[edge]][by_source].tolist()
    reach = transitive_closure(
        [targets[starts[node]:starts[node + 1]] for node in range(num_comb)])
    row_bytes = num_comb // 8 + 1
    packed = b"".join(bits.to_bytes(row_bytes, "little") for bits in reach)
    bitmap = np.frombuffer(packed + bytes(row_bytes), dtype=np.uint8)
    return rows, bitmap.reshape(num_comb + 1, row_bytes)


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
        arrays = view.columns
        self.arrays = arrays
        self.drv_dir_count = arrays.driver_has_dir.astype(np.int64)
        self.drv_has_load = arrays.driver_max_load > 0
        self.loop_rows: Optional[np.ndarray] = None
        if config.use_loop_hint:
            rows, bitmap = _loop_bitmap(view)
            clear = len(bitmap) - 1
            # Bitmap row of every gate in the view's gate table; the
            # appended last entry serves port terminals (gate index -1).
            gate_id = netlist_arrays(view.layout.netlist).gate_id
            loop_index = np.append(rows, clear)[
                [gate_id.get(gate, -1) for gate in arrays.gate_names] + [-1]
            ]
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
    arrays = view.columns
    num_sinks, num_drivers = len(arrays.sink_ids), len(arrays.driver_ids)
    if not num_drivers or not num_sinks:
        return np.zeros((num_sinks, num_drivers)), 0
    kernel = _CostKernel(view, config)
    costs = np.empty((num_sinks, num_drivers))
    every_driver = np.arange(num_drivers)[None, :]
    excluded = 0
    for lo in range(0, num_sinks, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, num_sinks)
        costs[lo:hi], infeasible = kernel.pairs(np.arange(lo, hi)[:, None], every_driver)
        excluded += int(np.count_nonzero(infeasible))
    return costs, excluded


def _driver_capacities(view: FEOLView, config: NetworkFlowAttackConfig) -> np.ndarray:
    """Fanout slots per driver vpin.

    Bounded by the flow capacity and, when the load hint is enabled, by how
    many typical sink loads the driver can take; scaled up uniformly when the
    total would leave sinks unassignable.
    """
    typical_cap = 1.2
    arrays = view.columns
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
    the recovery (the attacker's best guess of the full design).
    """
    config = config if config is not None else NetworkFlowAttackConfig()
    arrays = view.columns
    result = NetworkFlowAttackResult(
        num_sinks=len(arrays.sink_ids), num_drivers=len(arrays.driver_ids)
    )
    if not result.num_drivers or not result.num_sinks:
        result.recovery = _recovery(view, None)
        return result

    capacities = _driver_capacities(view, config)
    choice = _CostKernel(view, config).cheapest_drivers()
    if (np.bincount(choice, minlength=result.num_drivers) > capacities).any():
        choice = _exact_assignment(build_cost_matrix(view, config)[0], capacities)
    result.assignment = dict(zip(arrays.sink_ids.tolist(),
                                 arrays.driver_ids[choice].tolist()))
    result.recovery = _recovery(view, choice)
    return result


def _recovery(view: FEOLView, choice: Optional[np.ndarray]) -> NetlistOverlay:
    """The attacker's netlist given the driver row ``choice[s]`` of every
    sink row ``s`` (``None``: nothing assigned, the netlist unchanged).

    The attacker starts from the FEOL-visible connectivity (the layout's
    netlist minus the cut connections) and connects every open sink to the
    FEOL net of the driver vpin it was assigned to, in sink-row order.  A
    gate sink whose driver has no net is left dangling; a primary-output
    sink whose driver has no net keeps its net.  Assignments are not
    re-checked: the loop hint acts only through the costs, so a recovery
    can contain combinational loops.
    """
    netlist = view.layout.netlist
    sink_rows: List[int] = []
    sink_nets: List[int] = []
    po_rows: List[int] = []
    po_nets: List[int] = []
    name = f"{netlist.name}_recovered"
    if choice is None:
        return NetlistOverlay(netlist, name, sink_rows, sink_nets, po_rows, po_nets)
    feol = view.columns
    base = netlist_arrays(netlist)
    # FEOL name tables -> the netlist's indices; -1 stays -1.
    net_of = np.asarray([base.net_id[net] for net in feol.net_names] + [-1],
                        dtype=np.int64)
    gate_of = np.asarray([base.gate_id[gate] for gate in feol.gate_names] + [-1],
                         dtype=np.int64)
    target = net_of[feol.driver_net_idx[choice]]
    gates = gate_of[feol.sink_gate_idx]
    on_gate = gates >= 0
    # Fan-in row of every gate sink: its gate's first row plus the pin's
    # position in the cell, looked up once per (cell, pin) pair.
    gates = gates[on_gate]
    num_pins = len(feol.pin_names)
    pairs, pair_of = np.unique(base.gate_cell[gates] * num_pins + feol.sink_pin_idx[on_gate],
                               return_inverse=True)
    position = np.asarray([
        base.cells[cell].input_position[feol.pin_names[pin]]
        for cell, pin in zip((pairs // num_pins).tolist(), (pairs % num_pins).tolist())
    ], dtype=np.int64)
    sink_rows = (base.fanin_start[gates] + position[pair_of]).tolist()
    sink_nets = target[on_gate].tolist()
    # Primary-output sinks (pin = output name) that name a primary output.
    po_position = {po: i for i, po in enumerate(base.primary_outputs)}
    for pin, net in zip(feol.sink_pin_idx[~on_gate].tolist(), target[~on_gate].tolist()):
        pin_name = feol.pin_names[pin] if pin >= 0 else None
        if pin_name in po_position:
            po_rows.append(po_position[pin_name])
            po_nets.append(net)
    return NetlistOverlay(netlist, name, sink_rows, sink_nets, po_rows, po_nets)


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
