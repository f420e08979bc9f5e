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

The loop is incremental: no round compiles a simulation plan or builds a
graph.  One integer-indexed gate DAG keeps a topological order up to date
under the swaps and answers the loop checks; the erroneous copy is compiled
once into per-gate arcs whose input slots each swap patches, and each OER
round runs those arcs in the maintained order against reference outputs
simulated once per call.  On an acyclic netlist every topological order
yields the same values, so each round's OER equals
:func:`~repro.netlist.simulate.output_error_rate` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist import engine as _engine
from repro.netlist.netlist import Netlist, PinRef
from repro.netlist.simulate import _plan_outputs, _shared_input_patterns
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


def _swappable_sinks(netlist: Netlist) -> List[Tuple[str, PinRef]]:
    """Return (net, sink pin) pairs eligible for swapping.

    Sinks are eligible when they are inputs of combinational gates on nets
    driven by a gate or a primary input.  Clock pins of sequential cells and
    the sequential cells' data pins are left alone (the paper similarly skips
    gates with alignment constraints).
    """
    eligible: List[Tuple[str, PinRef]] = []
    for net in netlist.nets.values():
        if not net.has_driver():
            continue
        for sink_gate, sink_pin in net.sinks:
            gate = netlist.gates[sink_gate]
            if gate.cell.is_sequential:
                continue
            eligible.append((net.name, (sink_gate, sink_pin)))
    return eligible


def _driver_gate(netlist: Netlist, net_name: str) -> Optional[str]:
    driver = netlist.nets[net_name].driver
    return driver[0] if driver is not None else None


class _GateDag:
    """Combinational gate graph with a maintained topological order.

    Nodes are the combinational gates, numbered in netlist order; sequential
    gates and primary inputs stay outside, since they cannot close a
    combinational loop.  Edge counts track parallel connections, so removing
    one connection keeps an edge that another connection still needs.
    ``ord[node]`` is the node's position in ``order``.  An inserted edge that
    breaks the order re-ranks only the nodes between its endpoints (Pearce &
    Kelly, "A dynamic topological sort algorithm for directed acyclic
    graphs", JEA 2007).

    Raises:
        ValueError: When ``netlist`` already has a combinational loop.
    """

    def __init__(self, netlist: Netlist):
        combinational = [
            name for name, gate in netlist.gates.items() if not gate.cell.is_sequential
        ]
        self.index: Dict[str, int] = {name: i for i, name in enumerate(combinational)}
        self.succ: List[Dict[int, int]] = [{} for _ in combinational]
        self.pred: List[Dict[int, int]] = [{} for _ in combinational]
        for net in netlist.nets.values():
            if net.driver is None or net.driver[0] not in self.index:
                continue
            driver = self.index[net.driver[0]]
            for sink_gate, _pin in net.sinks:
                if sink_gate in self.index:
                    self._link(driver, self.index[sink_gate])
        in_degree = [len(pred) for pred in self.pred]
        order = [node for node, degree in enumerate(in_degree) if degree == 0]
        for node in order:  # Kahn's algorithm; ``order`` grows while walked.
            for succ in self.succ[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    order.append(succ)
        if len(order) < len(combinational):
            raise ValueError(
                f"netlist {netlist.name!r} already has a combinational loop; "
                "the randomizer needs a loop-free input"
            )
        self.order = order
        self.ord = [0] * len(order)
        for position, node in enumerate(order):
            self.ord[node] = position

    def node(self, gate_name: Optional[str]) -> Optional[int]:
        """Node of a gate, or None for no gate or a sequential one."""
        return None if gate_name is None else self.index.get(gate_name)

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
        forward = self._reach(sink, self.succ, lambda node: ord_[node] < upper)
        backward = self._reach(driver, self.pred, lambda node: ord_[node] > lower)
        forward.sort(key=ord_.__getitem__)
        backward.sort(key=ord_.__getitem__)
        moved = backward + forward
        for node, position in zip(moved, sorted(ord_[node] for node in moved)):
            ord_[node] = position
            self.order[position] = node

    @staticmethod
    def _reach(start: int, edges: List[Dict[int, int]], inside) -> List[int]:
        found = [start]
        seen = {start}
        for node in found:
            for nxt in edges[node]:
                if nxt not in seen and inside(nxt):
                    seen.add(nxt)
                    found.append(nxt)
        return found


class _CandidateProgram:
    """The erroneous copy as per-gate arcs, patched in place by sink moves.

    Built once per :func:`randomize_netlist` call from the same ``logic_ops``
    walk as the engine's plans (:func:`repro.netlist.engine.gate_arcs`): the
    same input slots, and the X fill (0 for the OER) on unconnected pins and
    undriven nets.  The input patterns and the reference outputs are fixed
    for the call, so each round only runs the candidate's arcs, in the DAG's
    maintained topological order.

    Raises:
        UnsupportedNetlist: When a cell has no ``logic_ops`` metadata.
    """

    def __init__(self, reference: Netlist, candidate: Netlist, dag: _GateDag,
                 num_patterns: int, seed: int):
        reference_plan = _engine.compile_plan(reference)
        self._net_slot = {name: slot for slot, name in enumerate(candidate.nets)}
        x_slot = len(self._net_slot)
        ops = _engine._INTERPRETER_OPS
        self._dag = dag
        self._arcs: List[List[Tuple[object, List[int], int]]] = [[] for _ in dag.order]
        #: Input-slot lists (and positions) that read each gate pin.
        self._readers: Dict[PinRef, List[Tuple[List[int], int]]] = {}
        for gate_name, node in dag.index.items():
            gate = candidate.gates[gate_name]
            for kind, in_pins, in_slots, out_slot, _net in _engine.gate_arcs(
                gate, self._net_slot, x_slot
            ):
                ins = list(in_slots)
                self._arcs[node].append((ops[kind], ins, out_slot))
                for position, pin in enumerate(in_pins):
                    self._readers.setdefault((gate_name, pin), []).append((ins, position))

        patterns = _shared_input_patterns(reference, candidate, num_patterns, seed)
        reference_outputs = _plan_outputs(reference_plan, patterns, num_patterns)
        self._num_patterns = num_patterns
        self._mask = (1 << num_patterns) - 1
        self._initial = [0] * (x_slot + 1)
        for name in _engine.plan_input_names(candidate):
            self._initial[self._net_slot[name]] = patterns[name] & self._mask
        self._outputs = [
            (self._net_slot.get(candidate.output_nets[po], x_slot), reference_outputs[po])
            for po in candidate.primary_outputs
        ]

    def move_sink(self, sink: PinRef, net: str) -> None:
        slot = self._net_slot[net]
        for ins, position in self._readers.get(sink, ()):
            ins[position] = slot

    def output_error_rate(self) -> float:
        """OER of the candidate's current connectivity against the reference."""
        values = self._initial.copy()
        mask = self._mask
        arcs = self._arcs
        for node in self._dag.order:
            for op, ins, out in arcs[node]:
                values[out] = op(values, ins, mask)
        error_mask = 0
        for slot, reference in self._outputs:
            error_mask |= values[slot] ^ reference
        return 100.0 * error_mask.bit_count() / self._num_patterns


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
    erroneous = netlist.copy(f"{netlist.name}_erroneous")
    dag = _GateDag(erroneous)
    program = _CandidateProgram(netlist, erroneous, dag, config.oer_patterns, config.seed)

    swaps: Dict[PinRef, SwapRecord] = {}
    protected: Set[str] = set()
    oer_history: List[float] = []
    oer = 0.0

    # The set of eligible sink pins never changes; only the net each sink is
    # currently attached to does, so it is looked up per attempt.
    eligible_sinks: List[PinRef] = [sink for _net, sink in _swappable_sinks(erroneous)]

    def attempt_pair() -> bool:
        """Try one random pair swap; returns True if accepted."""
        if len(eligible_sinks) < 2:
            return False
        sink_a, sink_b = rng.sample(eligible_sinks, 2)
        net_a = erroneous.gates[sink_a[0]].net_on(sink_a[1])
        net_b = erroneous.gates[sink_b[0]].net_on(sink_b[1])
        if net_a is None or net_b is None or net_a == net_b:
            return False
        # Swapping a sink twice would complicate restoration bookkeeping; the
        # paper likewise marks swapped sinks as do-not-touch.
        if sink_a in swaps or sink_b in swaps:
            return False
        driver_a = dag.node(_driver_gate(erroneous, net_a))
        driver_b = dag.node(_driver_gate(erroneous, net_b))
        sink_gate_a, _ = sink_a
        sink_gate_b, _ = sink_b
        node_a = dag.index[sink_gate_a]
        node_b = dag.index[sink_gate_b]
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
        original_a = erroneous.move_sink(sink_gate_a, sink_a[1], net_b)
        original_b = erroneous.move_sink(sink_gate_b, sink_b[1], net_a)
        # Neither new edge can close a cycle together with the other: that
        # would need a path sink_a ~> driver_a, a cycle through the removed edge.
        dag.add_edge(driver_b, node_a)
        dag.add_edge(driver_a, node_b)
        program.move_sink(sink_a, net_b)
        program.move_sink(sink_b, net_a)
        erroneous.gates[sink_gate_a].dont_touch = True
        erroneous.gates[sink_gate_b].dont_touch = True
        for gate in (_driver_gate(erroneous, net_a), _driver_gate(erroneous, net_b)):
            if gate is not None:
                erroneous.gates[gate].dont_touch = True
        swaps[sink_a] = SwapRecord(sink=sink_a, original_net=original_a, erroneous_net=net_b)
        swaps[sink_b] = SwapRecord(sink=sink_b, original_net=original_b, erroneous_net=net_a)
        protected.update((original_a, original_b))
        return True

    max_attempts = config.max_swaps * 8
    attempts = 0
    while len(swaps) < config.max_swaps and attempts < max_attempts:
        accepted = 0
        for _ in range(config.batch_pairs):
            attempts += 1
            if len(swaps) >= config.max_swaps or attempts >= max_attempts:
                break
            if attempt_pair():
                accepted += 1
        if accepted == 0 and attempts >= max_attempts:
            break
        oer = program.output_error_rate()
        oer_history.append(oer)
        if oer >= config.target_oer_percent and len(swaps) >= config.min_swaps:
            break

    result = RandomizationResult(
        original=netlist,
        erroneous=erroneous,
        swaps=list(swaps.values()),
        protected_nets=protected,
        oer_percent=oer,
        oer_history=oer_history,
    )
    return result
