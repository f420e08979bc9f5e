"""Graph views of a netlist: loops, orderings, reachability.

The randomizer must guarantee that no driver→sink swap introduces a
combinational loop (the paper notes that loops would reveal the modification
to an attacker, as the network-flow attack explicitly excludes loop-forming
candidates).  Everything here works on plain successor dicts or integer
indices built straight from the netlist:

* :func:`has_combinational_loop` / :func:`combinational_loops` — cycle checks
  restricted to combinational cells (flip-flops break cycles);
* :func:`transitive_fanin` / :func:`transitive_fanout` — reachability sets;
* :func:`transitive_closure` — every node's reachable set at once, as integer
  bitsets (the network-flow attack's loop-avoidance hint);
* :func:`topological_gate_order` / :func:`pseudo_topological_order` —
  evaluation orders for STA and simulation.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netlist.netlist import Netlist


class CombinationalLoopError(ValueError):
    """Raised when an order or depth needs acyclic combinational logic."""


def _kahn_order(netlist: Netlist) -> Tuple[List[str], Dict[str, Dict[str, None]], int]:
    """Kahn's algorithm (FIFO queue) over the combinational gates.

    Returns ``(order, successors, num_gates)``; ``order`` is shorter than
    ``num_gates`` exactly when the combinational logic is cyclic.
    """
    successors, in_degree = _combinational_adjacency(netlist)
    order = [name for name, degree in in_degree.items() if degree == 0]
    for gate in order:  # ``order`` grows while walked: a FIFO queue.
        for succ in successors[gate]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                order.append(succ)
    return order, successors, len(in_degree)


def _acyclic_order(netlist: Netlist) -> Tuple[List[str], Dict[str, Dict[str, None]]]:
    """:func:`_kahn_order`, raising :class:`CombinationalLoopError` on a cycle."""
    order, successors, num_gates = _kahn_order(netlist)
    if len(order) < num_gates:
        raise CombinationalLoopError("combinational logic contains a cycle")
    return order, successors


def combinational_loops(netlist: Netlist) -> List[List[str]]:
    """Return a list of combinational cycles (each a list of gate names).

    Sequential cells legitimately close feedback paths and are excluded.  An
    empty list means the combinational portion of the design is acyclic.
    Only one cycle is reported: enumerating all simple cycles can blow up and
    callers only need to know *whether* and *where* a loop exists.
    """
    order, successors, num_gates = _kahn_order(netlist)
    if len(order) == num_gates:
        return []
    # Every gate Kahn could not peel has an unpeeled predecessor, so walking
    # predecessors from any of them must revisit a gate: that walk is a cycle.
    peeled = set(order)
    predecessor: Dict[str, str] = {}
    for gate, fanout in successors.items():
        if gate in peeled:
            continue
        for succ in fanout:
            if succ not in peeled:
                predecessor.setdefault(succ, gate)
    gate = next(iter(predecessor))
    walk: Dict[str, None] = {}
    while gate not in walk:
        walk[gate] = None
        gate = predecessor[gate]
    path = list(walk)
    cycle = path[path.index(gate):]
    cycle.reverse()
    return [cycle]


def has_combinational_loop(netlist: Netlist) -> bool:
    """True when the combinational portion of ``netlist`` contains a cycle."""
    order, _successors, num_gates = _kahn_order(netlist)
    return len(order) < num_gates


def _reachable(start: str, step: Callable[[str], Iterable[str]]) -> Set[str]:
    """Gates reachable from ``start`` through ``step`` (``start`` excluded)."""
    seen: Set[str] = set()
    stack = list(step(start))
    while stack:
        gate = stack.pop()
        if gate not in seen:
            seen.add(gate)
            stack.extend(step(gate))
    seen.discard(start)
    return seen


def transitive_fanout(netlist: Netlist, gate_name: str) -> Set[str]:
    """Return all gates reachable downstream of ``gate_name`` (exclusive).

    Sequential cells are traversed like any other gate.
    """
    if gate_name not in netlist.gates:
        return set()
    return _reachable(gate_name, netlist.fanout_gates)


def transitive_fanin(netlist: Netlist, gate_name: str) -> Set[str]:
    """Return all gates in the upstream cone of ``gate_name`` (exclusive).

    Sequential cells are traversed like any other gate.
    """
    if gate_name not in netlist.gates:
        return set()
    return _reachable(gate_name, netlist.fanin_gates)


def topological_gate_order(netlist: Netlist) -> List[str]:
    """Return gate names in a valid combinational evaluation order.

    Sequential cells are placed first (their outputs act as pseudo-primary
    inputs for the combinational logic they feed).  The combinational gates
    follow Kahn's algorithm with a FIFO queue.  Raises
    :class:`CombinationalLoopError` if the combinational logic is cyclic.
    """
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    return sequential + _acyclic_order(netlist)[0]


def _combinational_adjacency(netlist: Netlist):
    """Successor lists and in-degrees of the combinational gate graph.

    Sequential cells are left out (they cut every cycle).  Iteration order —
    gates in insertion order, nets in insertion order, sinks in connection
    order, edges deduplicated on first insertion — is part of the contract:
    the evaluation orders built on it are compared bit for bit.
    """
    successors: Dict[str, Dict[str, None]] = {
        name: {} for name, gate in netlist.gates.items()
        if not gate.cell.is_sequential
    }
    in_degree: Dict[str, int] = {name: 0 for name in successors}
    for net in netlist.nets.values():
        driver = net.driver
        if driver is None or driver[0] not in successors:
            continue
        fanout = successors[driver[0]]
        for sink_gate, _pin in net.sinks:
            if sink_gate in in_degree and sink_gate not in fanout:
                fanout[sink_gate] = None
                in_degree[sink_gate] += 1
    return successors, in_degree


def pseudo_topological_order(netlist: Netlist) -> List[str]:
    """Evaluation order that tolerates combinational loops.

    Attack-recovered netlists can accidentally contain combinational cycles.
    To still be able to simulate them (and measure their OER/HD), cycles are
    broken greedily: gates are peeled off in Kahn order and, when only cyclic
    gates remain, the gate with the fewest unresolved fan-ins (ties broken by
    name) is emitted next; its unresolved inputs read as the simulator's
    default value.  The candidates sit in a lazy min-heap of
    ``(in_degree, name)`` entries, built at the first cycle break and fed on
    every later in-degree decrement.  Degrees only fall, so an unscheduled
    gate's current entry sorts before its stale ones: popping past the
    entries of scheduled gates yields the gate a linear scan would pick.
    """
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    successors, in_degree = _combinational_adjacency(netlist)
    ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
    scheduled = set(ready)
    order: List[str] = []
    num_comb = len(in_degree)
    heap: Optional[List[Tuple[int, str]]] = None
    while len(order) < num_comb:
        if not ready:
            # Break a cycle: pick the unscheduled gate with the fewest open fanins.
            if heap is None:
                heap = [(d, n) for n, d in in_degree.items() if n not in scheduled]
                heapq.heapify(heap)
            victim = heapq.heappop(heap)[1]
            while victim in scheduled:
                victim = heapq.heappop(heap)[1]
            scheduled.add(victim)
            ready.append(victim)
        gate = ready.pop()
        order.append(gate)
        for succ in successors[gate]:
            if succ in scheduled:
                continue
            in_degree[succ] -= 1
            if in_degree[succ] <= 0:
                scheduled.add(succ)
                ready.append(succ)
            elif heap is not None:
                heapq.heappush(heap, (in_degree[succ], succ))
    return sequential + order


def gate_levels(netlist: Netlist) -> Dict[str, int]:
    """Return the topological level (longest distance from any input) per gate.

    Raises :class:`CombinationalLoopError` on cyclic combinational logic.
    """
    order, successors = _acyclic_order(netlist)
    levels = dict.fromkeys(order, 0)
    for gate in order:
        level = levels[gate] + 1
        for succ in successors[gate]:
            if levels[succ] < level:
                levels[succ] = level
    # Sequential gates sit at level 0 (treated as pseudo inputs).
    for gate_name, gate in netlist.gates.items():
        if gate.cell.is_sequential:
            levels.setdefault(gate_name, 0)
    return levels


def transitive_closure(successors: Sequence[Iterable[int]]) -> List[int]:
    """Every node's reachable set, as integer bitsets, in one pass.

    ``successors[i]`` lists the successors of node ``i`` (``0 <= i < n``).
    Returns ``reach`` where bit ``j`` of ``reach[i]`` is set iff node ``j``
    is reachable from node ``i`` by a path of at least one edge, ``i``
    itself excluded even when it sits on a cycle.

    An iterative Tarjan walk emits the strongly connected components in
    reverse topological order, so every edge leaving a component points at a
    component that is already closed: a component's reach is the OR of its
    members' bits and the closed reach of those successors.
    """
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    closed = [0] * n  # reach of the node's component, members included
    reach = [0] * n
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        calls = [(root, iter(successors[root]))]
        while calls:
            node, edges = calls[-1]
            for succ in edges:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    calls.append((succ, iter(successors[succ])))
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                calls.pop()
                if calls:
                    parent = calls[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] != index[node]:
                    continue
                members = []
                bits = 0
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    bits |= 1 << member
                    if member == node:
                        break
                for member in members:
                    for succ in successors[member]:
                        if not bits >> succ & 1:
                            bits |= closed[succ]
                for member in members:
                    closed[member] = bits
                    reach[member] = bits & ~(1 << member)
    return reach


def would_create_loop(netlist: Netlist, driver_gate: Optional[str],
                      sink_gate: str) -> bool:
    """Check whether connecting ``driver_gate`` output to an input of ``sink_gate``
    would create a combinational loop.

    ``driver_gate`` may be ``None`` (primary-input driver), which can never
    create a loop.  The check is a reachability query: a loop appears iff
    ``driver_gate`` is reachable *from* ``sink_gate`` through combinational
    gates, or they are the same combinational gate.
    """
    if driver_gate is None:
        return False
    if driver_gate == sink_gate:
        return not netlist.gates[sink_gate].cell.is_sequential
    if netlist.gates[driver_gate].cell.is_sequential:
        return False
    if netlist.gates[sink_gate].cell.is_sequential:
        return False
    gates = netlist.gates
    seen = {sink_gate}
    stack = [sink_gate]
    while stack:
        for succ in netlist.fanout_gates(stack.pop()):
            if succ == driver_gate:
                return True
            if succ not in seen and not gates[succ].cell.is_sequential:
                seen.add(succ)
                stack.append(succ)
    return False
