"""Netlist randomization (Fig. 2, step "Randomize").

The randomizer swaps the connectivity between randomly selected pairs of
drivers and their sinks: if driver D1 originally drives sink S1 and driver D2
drives sink S2, after the swap D1 drives S2 and D2 drives S1.  Each swap is
accepted only if it introduces no combinational loop (loops would reveal the
modification to an attacker, and the network-flow attack explicitly prunes
loop-forming candidates).  Swapping continues until the output error rate
(OER) of the modified netlist against the original approaches 100 % — i.e.
the modified netlist produces at least one wrong output bit for essentially
every input pattern — and, optionally, until a requested number of nets has
been perturbed (the PPA-budget loop in :mod:`repro.core.flow` drives this).

Every swap is recorded so the true connectivity can be restored later through
the BEOL (:mod:`repro.core.restore`).

The loop works on the original netlist's integer view
(:class:`~repro.netlist.arrays.NetlistArrays`) and does each piece of work
once:

* **Attempts on integer columns.**  The eligible sinks are fan-in rows; each
  sink's current net and each net's driver gate are integer lists, and one
  gate DAG with a maintained topological order answers the loop checks.
* **Event-driven OER rounds.**  The candidate is compiled once into per-gate
  arcs whose input slots each accepted swap patches, and its net values are
  kept between rounds, starting from the reference simulation.  A round
  re-evaluates, in the DAG's order, only the gates with a moved input pin
  and the gates whose predecessor's output changed in this round; it stops
  where a gate's outputs come out unchanged.  A round after a batch that
  accepted no swap evaluates nothing.  On an acyclic netlist every
  topological order yields the same values, so each round's OER equals
  :func:`~repro.netlist.simulate.output_error_rate` exactly.
* **One copy.**  The erroneous :class:`~repro.netlist.netlist.Netlist` is
  built at the end, by replaying the accepted moves in acceptance order on
  one :meth:`~repro.netlist.netlist.Netlist.copy`, so its sink order,
  ``topology_version`` and ``dont_touch`` marks are those of moving the
  sinks one by one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.netlist import engine as _engine
from repro.netlist.arrays import NetlistArrays, netlist_arrays
from repro.netlist.netlist import Netlist, PinRef
from repro.netlist.simulate import _shared_input_patterns
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class SwapRecord:
    """One sink re-targeted from its original net to an erroneous net."""

    sink: PinRef  # (gate, input pin)
    original_net: str
    erroneous_net: str


@dataclass
class RandomizationResult:
    """Outcome of :func:`randomize_netlist`.

    Attributes:
        original: The untouched input netlist.
        erroneous: The randomized netlist that will be placed and routed.
        swaps: One record per re-targeted sink (restoration undoes these).
        protected_nets: Original nets that had at least one sink swapped —
            these are the nets the paper's security metrics are computed over.
        oer_percent: OER of the erroneous netlist versus the original.
        oer_history: OER after each accepted batch of swaps.
    """

    original: Netlist
    erroneous: Netlist
    swaps: List[SwapRecord] = field(default_factory=list)
    protected_nets: Set[str] = field(default_factory=set)
    oer_percent: float = 0.0
    oer_history: List[float] = field(default_factory=list)

    @property
    def num_swaps(self) -> int:
        return len(self.swaps)

    def swapped_sinks(self) -> Dict[PinRef, SwapRecord]:
        return {record.sink: record for record in self.swaps}


@dataclass
class RandomizerConfig:
    """Knobs of the randomization step."""

    #: Stop once the OER reaches this value (percent).
    target_oer_percent: float = 99.0
    #: Upper bound on the number of sink swaps (pairs count double).
    max_swaps: int = 10_000
    #: Minimum number of sink swaps to perform even if the OER target is hit
    #: earlier (the PPA-budget loop raises this to add more protection).
    min_swaps: int = 0
    #: Number of swap *pairs* attempted between OER evaluations.
    batch_pairs: int = 8
    #: Patterns used for the OER estimate.
    oer_patterns: int = 1024
    #: Random seed.
    seed: int = 0


def eligible_sink_rows(arrays: NetlistArrays) -> List[int]:
    """Fan-in rows of the sinks eligible for swapping.

    Sinks are eligible when they are inputs of combinational gates on nets
    driven by a gate or a primary input.  Clock pins of sequential cells and
    the sequential cells' data pins are left alone (the paper similarly skips
    gates with alignment constraints).

    The rows come net by net in netlist order, each net's sinks in the order
    a :meth:`~repro.netlist.netlist.Netlist.copy` lists them: by gate, and
    parallel pins of one gate in their ``Net.sinks`` order (which is their
    ``Gate.connections`` order, since every edit appends to both).
    """
    sink_net = np.repeat(np.arange(arrays.num_nets), np.diff(arrays.sink_start))
    rows = arrays.sink_row
    gates = arrays.fanin_gate[rows]
    driven = arrays.net_driver >= 0
    driven[arrays.input_nets] = True
    order = np.lexsort((gates, sink_net))  # stable: parallel pins keep their order
    keep = (driven[sink_net] & ~arrays.sequential[gates])[order]
    return rows[order[keep]].tolist()


class _GateDag:
    """Combinational gate graph with a maintained topological order.

    Nodes are gate indices of the netlist's
    :class:`~repro.netlist.arrays.NetlistArrays`; sequential gates have no
    edges and stay out of the order, since they cannot close a
    combinational loop.  Edge counts track parallel connections (one per
    fan-in row), so removing one connection keeps an edge that another
    connection still needs.  ``ord[node]`` is the node's position in
    ``order``.  An inserted edge that breaks the order re-ranks only the
    nodes between its endpoints (Pearce & Kelly, "A dynamic topological sort
    algorithm for directed acyclic graphs", JEA 2007).

    Raises:
        ValueError: When ``netlist`` already has a combinational loop.
    """

    def __init__(self, netlist: Netlist):
        arrays = netlist_arrays(netlist)
        if not arrays.is_acyclic():
            raise ValueError(
                f"netlist {netlist.name!r} already has a combinational loop; "
                "the randomizer needs a loop-free input"
            )
        num_gates = arrays.num_gates
        comb = ~arrays.sequential
        nets = arrays.fanin_net
        driver = np.full(len(nets), -1, dtype=np.int64)
        driver[nets >= 0] = arrays.net_driver[nets[nets >= 0]]
        keep = driver >= 0
        keep[keep] = comb[driver[keep]] & comb[arrays.fanin_gate[keep]]
        edges, counts = np.unique(driver[keep] * num_gates + arrays.fanin_gate[keep],
                                  return_counts=True)
        self.succ: List[Dict[int, int]] = [{} for _ in range(num_gates)]
        self.pred: List[Dict[int, int]] = [{} for _ in range(num_gates)]
        for edge, count in zip(edges.tolist(), counts.tolist()):
            source, target = divmod(edge, num_gates)
            self.succ[source][target] = self.pred[target][source] = count
        self.order: List[int] = list(arrays.kahn()[0])
        self.ord = [0] * num_gates
        for position, node in enumerate(self.order):
            self.ord[node] = position

    def would_create_loop(self, driver: Optional[int], sink: int) -> bool:
        """Whether an edge ``driver -> sink`` would close a cycle."""
        if driver is None:
            return False
        if driver == sink:
            return True
        ord_, succ = self.ord, self.succ
        bound = ord_[driver]
        if ord_[sink] > bound:
            return False
        # Every path sink ~> driver stays inside the order window between them.
        stack = [sink]
        seen = {sink}
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt == driver:
                    return True
                if nxt not in seen and ord_[nxt] < bound:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def remove_edge(self, driver: Optional[int], sink: int) -> None:
        if driver is None:
            return
        count = self.succ[driver].get(sink)
        if count is None:
            return
        if count == 1:
            del self.succ[driver][sink]
            del self.pred[sink][driver]
        else:
            self.succ[driver][sink] = self.pred[sink][driver] = count - 1

    def add_edge(self, driver: Optional[int], sink: int) -> None:
        """Add one connection; the caller guarantees it closes no cycle."""
        if driver is None:
            return
        if self._link(driver, sink) == 1 and self.ord[sink] < self.ord[driver]:
            self._reorder(driver, sink)

    def _link(self, driver: int, sink: int) -> int:
        count = self.succ[driver].get(sink, 0) + 1
        self.succ[driver][sink] = self.pred[sink][driver] = count
        return count

    def _reorder(self, driver: int, sink: int) -> None:
        """Re-rank the window ``ord[sink] .. ord[driver]`` after ``driver -> sink``."""
        ord_ = self.ord
        lower, upper = ord_[sink], ord_[driver]
        # Nodes the new edge puts after ``driver`` (reached from ``sink``
        # inside the window) and before ``sink`` (reaching ``driver``).
        forward = [sink]
        seen = {sink}
        succ = self.succ
        for node in forward:
            for nxt in succ[node]:
                if nxt not in seen and ord_[nxt] < upper:
                    seen.add(nxt)
                    forward.append(nxt)
        backward = [driver]
        seen = {driver}
        pred = self.pred
        for node in backward:
            for prev in pred[node]:
                if prev not in seen and ord_[prev] > lower:
                    seen.add(prev)
                    backward.append(prev)
        forward.sort(key=ord_.__getitem__)
        backward.sort(key=ord_.__getitem__)
        moved = backward + forward
        order = self.order
        for node, position in zip(moved, sorted(ord_[node] for node in moved)):
            ord_[node] = position
            order[position] = node


class _CandidateProgram:
    """The erroneous copy as per-gate arcs with kept net values.

    Built once per :func:`randomize_netlist` call from the netlist's integer
    view, with the same ``logic_ops`` walk as the engine's plans: the same
    input slots (net indices), and the X fill (0 for the OER) on unconnected
    pins and undriven nets.  The net values start as the reference
    simulation's, which is also the candidate's before any move; the input
    patterns and the reference outputs are fixed for the call.
    :meth:`move_sink` patches the slot lists that read a pin and marks its
    gate; :meth:`output_error_rate` re-evaluates from the marked gates in
    the DAG's order, as far as values change.

    Attributes:
        evaluations: Gate evaluations over all rounds so far.

    Raises:
        UnsupportedNetlist: When a cell has no ``logic_ops`` metadata.
    """

    def __init__(self, reference: Netlist, arrays: NetlistArrays, dag: _GateDag,
                 num_patterns: int, seed: int):
        reference_plan = _engine.compile_plan(reference)
        x_slot = arrays.num_nets
        ops = _engine._INTERPRETER_OPS
        fanin_start = arrays.fanin_start.tolist()
        fanout_start = arrays.fanout_start.tolist()
        fanout_net = arrays.fanout_net.tolist()
        slots = [x_slot if net < 0 else net for net in arrays.fanin_net.tolist()]
        gate_cell = arrays.gate_cell.tolist()
        cells = arrays.cells
        self._dag = dag
        self._arcs: List[List[Tuple[object, List[int], int]]] = [
            [] for _ in range(arrays.num_gates)
        ]
        #: Input-slot lists (and positions) that read each fan-in row.
        self._readers: Dict[int, List[Tuple[List[int], int]]] = {}
        # compile_plan has raised UnsupportedNetlist for a cell without ops.
        for gate in dag.order:
            table = cells[gate_cell[gate]]
            first_in = fanin_start[gate]
            first_out = fanout_start[gate]
            arcs = self._arcs[gate]
            for out_pos, kind, in_pos in table.ops:
                out = fanout_net[first_out + out_pos] if out_pos >= 0 else -1
                if out < 0:
                    continue
                ins = [slots[first_in + p] if p >= 0 else x_slot for p in in_pos]
                arcs.append((ops[kind], ins, out))
                for position, p in enumerate(in_pos):
                    if p >= 0:
                        self._readers.setdefault(first_in + p, []).append((ins, position))

        patterns = _shared_input_patterns(reference, reference, num_patterns, seed)
        simulated = _engine.run_plan_bigints(reference_plan, patterns, num_patterns)
        self._num_patterns = num_patterns
        self._mask = (1 << num_patterns) - 1
        self._values = [0] * (x_slot + 1)
        for slot, value in simulated.items():
            self._values[slot] = value
        self._outputs = [(slot, simulated[slot]) for _po, slot in reference_plan.output_slots]
        self._output_slots = {slot for slot, _reference in self._outputs}
        self._moved: Set[int] = set()
        self._oer = 0.0
        self.evaluations = 0

    def move_sink(self, row: int, gate: int, net: int) -> None:
        """Re-target fan-in row ``row`` (an input of ``gate``) to ``net``."""
        for ins, position in self._readers.get(row, ()):
            ins[position] = net
        self._moved.add(gate)

    def output_error_rate(self) -> float:
        """OER of the candidate's current connectivity against the reference."""
        if not self._moved:
            return self._oer
        ord_, succ = self._dag.ord, self._dag.succ
        queued = self._moved
        self._moved = set()
        heap = [(ord_[gate], gate) for gate in queued]
        heapq.heapify(heap)
        values, mask, arcs = self._values, self._mask, self._arcs
        output_slots = self._output_slots
        outputs_changed = False
        evaluated = 0
        while heap:
            gate = heapq.heappop(heap)[1]
            evaluated += 1
            changed = False
            for op, ins, out in arcs[gate]:
                value = op(values, ins, mask)
                if value != values[out]:
                    values[out] = value
                    changed = True
                    outputs_changed = outputs_changed or out in output_slots
            if changed:
                for nxt in succ[gate]:
                    if nxt not in queued:
                        queued.add(nxt)
                        heapq.heappush(heap, (ord_[nxt], nxt))
        self.evaluations += evaluated
        if outputs_changed:
            error_mask = 0
            for slot, reference in self._outputs:
                error_mask |= values[slot] ^ reference
            self._oer = 100.0 * error_mask.bit_count() / self._num_patterns
        return self._oer


def randomize_netlist(netlist: Netlist,
                      config: Optional[RandomizerConfig] = None) -> RandomizationResult:
    """Randomize ``netlist`` by swapping driver→sink connections.

    Args:
        netlist: The original design (never modified); its combinational
            logic must be loop-free.
        config: Randomization knobs; see :class:`RandomizerConfig`.

    Returns:
        A :class:`RandomizationResult` whose ``erroneous`` netlist is
        loop-free, has the same gates/nets as the original, and differs only
        in which net each swapped sink pin connects to.

    Raises:
        ValueError: When ``netlist`` already has a combinational loop.
        UnsupportedNetlist: When a combinational cell has no ``logic_ops``
            metadata.
    """
    config = config if config is not None else RandomizerConfig()
    rng = make_rng(config.seed, "randomizer", netlist.name)
    arrays = netlist_arrays(netlist)
    dag = _GateDag(netlist)
    program = _CandidateProgram(netlist, arrays, dag, config.oer_patterns, config.seed)

    # The eligible sinks never change; only the net each one is on does.
    eligible = eligible_sink_rows(arrays)
    sink_gate = arrays.fanin_gate[eligible].tolist()
    sink_net = arrays.fanin_net[eligible].tolist()
    net_driver = arrays.net_driver.tolist()
    sequential = arrays.sequential.tolist()
    # DAG node of each net's driver: None for a primary input, an undriven
    # net or a sequential driver, which cannot close a combinational loop.
    driver_node = [None if gate < 0 or sequential[gate] else gate for gate in net_driver]
    swapped = bytearray(len(eligible))
    #: Accepted moves in acceptance order: (eligible index, original net,
    #: erroneous net).
    moves: List[Tuple[int, int, int]] = []
    oer_history: List[float] = []
    oer = 0.0
    population = range(len(eligible))

    def attempt_pair() -> bool:
        """Try one random pair swap; returns True if accepted."""
        if len(population) < 2:
            return False
        a, b = rng.sample(population, 2)
        net_a, net_b = sink_net[a], sink_net[b]
        if net_a == net_b:
            return False
        # Swapping a sink twice would complicate restoration bookkeeping; the
        # paper likewise marks swapped sinks as do-not-touch.
        if swapped[a] or swapped[b]:
            return False
        driver_a, driver_b = driver_node[net_a], driver_node[net_b]
        node_a, node_b = sink_gate[a], sink_gate[b]
        # After the swap, net_b drives sink_a and net_a drives sink_b.
        # Check loops against the graph *without* the edges being removed.
        dag.remove_edge(driver_a, node_a)
        dag.remove_edge(driver_b, node_b)
        creates_loop = (
            dag.would_create_loop(driver_b, node_a)
            or dag.would_create_loop(driver_a, node_b)
        )
        if creates_loop:
            dag.add_edge(driver_a, node_a)
            dag.add_edge(driver_b, node_b)
            return False
        # Neither new edge can close a cycle together with the other: that
        # would need a path sink_a ~> driver_a, a cycle through the removed edge.
        dag.add_edge(driver_b, node_a)
        dag.add_edge(driver_a, node_b)
        program.move_sink(eligible[a], node_a, net_b)
        program.move_sink(eligible[b], node_b, net_a)
        sink_net[a], sink_net[b] = net_b, net_a
        swapped[a] = swapped[b] = 1
        moves.append((a, net_a, net_b))
        moves.append((b, net_b, net_a))
        return True

    max_attempts = config.max_swaps * 8
    attempts = 0
    while len(moves) < config.max_swaps and attempts < max_attempts:
        accepted = 0
        for _ in range(config.batch_pairs):
            attempts += 1
            if len(moves) >= config.max_swaps or attempts >= max_attempts:
                break
            if attempt_pair():
                accepted += 1
        if accepted == 0 and attempts >= max_attempts:
            break
        oer = program.output_error_rate()
        oer_history.append(oer)
        if oer >= config.target_oer_percent and len(moves) >= config.min_swaps:
            break

    # Replay the accepted moves on one copy, in acceptance order.
    gate_names, net_names = arrays.gate_names, arrays.net_names
    erroneous = netlist.copy(f"{netlist.name}_erroneous")
    swaps: List[SwapRecord] = []
    touched: Set[int] = set()
    for index, original, wrong in moves:
        sink = (gate_names[sink_gate[index]], arrays.pin_name(eligible[index]))
        erroneous.move_sink(sink[0], sink[1], net_names[wrong])
        swaps.append(SwapRecord(sink=sink, original_net=net_names[original],
                                erroneous_net=net_names[wrong]))
        touched.add(sink_gate[index])
        touched.add(net_driver[original])
        touched.add(net_driver[wrong])
    touched.discard(-1)  # a net without a driver gate
    for gate in touched:  # dont_touch lives on the Gate objects, keyed by name
        erroneous.gates[gate_names[gate]].dont_touch = True

    return RandomizationResult(
        original=netlist,
        erroneous=erroneous,
        swaps=swaps,
        protected_nets={record.original_net for record in swaps},
        oer_percent=oer,
        oer_history=oer_history,
    )
