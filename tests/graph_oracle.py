"""networkx graph views of a netlist: test oracles for ``repro.netlist.graph``.

These are the implementations the package shipped before it dropped its
networkx dependency: the gate-level :class:`networkx.DiGraph` builder, the
condensation-based packed transitive closure, the cycle-breaking evaluation
order with a linear victim scan, and the validating ``Netlist.copy``.  Tests
hold the integer-indexed replacements to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist

#: Prefix for pseudo-nodes representing primary inputs/outputs in graph views.
PI_PREFIX = "PI::"
PO_PREFIX = "PO::"


def netlist_to_digraph(netlist: Netlist, include_ports: bool = False) -> nx.DiGraph:
    """Gate-level directed graph of ``netlist``.

    Nodes are gate names (sequential cells included, flagged by the
    ``sequential`` node attribute); an edge ``u → v`` exists when an output
    net of gate ``u`` feeds an input pin of gate ``v``.  With
    ``include_ports`` primary inputs/outputs become ``PI::<name>`` /
    ``PO::<name>`` pseudo nodes.
    """
    graph = nx.DiGraph()
    for gate_name, gate in netlist.gates.items():
        graph.add_node(gate_name, cell=gate.cell.name, sequential=gate.cell.is_sequential)
    if include_ports:
        for pi in netlist.primary_inputs:
            graph.add_node(PI_PREFIX + pi, cell="__PI__", sequential=False)
        for po in netlist.primary_outputs:
            graph.add_node(PO_PREFIX + po, cell="__PO__", sequential=False)

    for net in netlist.nets.values():
        driver = net.driver
        if driver is None:
            if not net.is_primary_input or not include_ports:
                driver_node = None
            else:
                driver_node = PI_PREFIX + net.name
        else:
            driver_node = driver[0]
        if driver_node is None and not include_ports:
            continue
        for sink_gate, _pin in net.sinks:
            if driver_node is not None:
                graph.add_edge(driver_node, sink_gate, net=net.name)
        if include_ports:
            for po in net.primary_outputs:
                if driver_node is not None:
                    graph.add_edge(driver_node, PO_PREFIX + po, net=net.name)
    return graph


def transitive_closure_bitmap(graph: nx.DiGraph) -> Tuple[Dict[str, int], np.ndarray]:
    """Packed transitive closure of ``graph`` through its condensation.

    Returns ``(index, bitmap)``: row ``index[u]`` of the ``uint64`` bitmap has
    bit ``index[v]`` set iff ``v`` is in ``nx.descendants(graph, u)``.
    """
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    words = max(1, (n + 63) // 64)
    bitmap = np.zeros((n, words), dtype=np.uint64)
    if n == 0:
        return index, bitmap

    condensation = nx.condensation(graph)
    member_bits = np.zeros((condensation.number_of_nodes(), words), dtype=np.uint64)
    for comp_id, data in condensation.nodes(data=True):
        for node in data["members"]:
            i = index[node]
            member_bits[comp_id, i >> 6] |= np.uint64(1 << (i & 63))
    comp_reach = np.zeros_like(member_bits)
    for comp_id in reversed(list(nx.topological_sort(condensation))):
        row = comp_reach[comp_id]
        for succ in condensation.successors(comp_id):
            np.bitwise_or(row, comp_reach[succ], out=row)
            np.bitwise_or(row, member_bits[succ], out=row)

    comp_of = condensation.graph["mapping"]
    for node in nodes:
        i = index[node]
        row = bitmap[i]
        np.bitwise_or(comp_reach[comp_of[node]], member_bits[comp_of[node]], out=row)
        row[i >> 6] &= ~np.uint64(1 << (i & 63))
    return index, bitmap


def combinational_adjacency(netlist: Netlist):
    """Successor dicts and in-degrees of the combinational gate graph, by name.

    Sequential cells are left out (they cut every cycle).  Iteration order —
    gates in insertion order, nets in insertion order, sinks in connection
    order, edges deduplicated on first insertion — is the contract the
    integer view's ``combinational_successors`` keeps.
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


def topological_gate_order(netlist: Netlist) -> List[str]:
    """Sequential gates, then Kahn's FIFO order over the name-keyed graph;
    raises ``ValueError`` on a combinational cycle."""
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    successors, in_degree = combinational_adjacency(netlist)
    order = [name for name, degree in in_degree.items() if degree == 0]
    for gate in order:
        for succ in successors[gate]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                order.append(succ)
    if len(order) < len(in_degree):
        raise ValueError("combinational logic contains a cycle")
    return sequential + order


def array_pseudo_order(netlist: Netlist) -> List[str]:
    """The package's loop-tolerant evaluation order as gate names: the
    sequential gates, then :meth:`NetlistArrays.pseudo_order
    <repro.netlist.arrays.NetlistArrays.pseudo_order>` (what the simulation
    plans compile), for comparison with :func:`pseudo_topological_order`."""
    arrays = netlist_arrays(netlist)
    gates = np.flatnonzero(arrays.sequential).tolist() + arrays.pseudo_order()
    return [arrays.gate_names[g] for g in gates]


def pseudo_topological_order(netlist: Netlist) -> List[str]:
    """Cycle-breaking evaluation order with a linear scan per broken cycle."""
    sequential = [
        name for name, gate in netlist.gates.items() if gate.cell.is_sequential
    ]
    successors, in_degree = combinational_adjacency(netlist)
    ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
    scheduled = set(ready)
    order: List[str] = []
    num_comb = len(in_degree)
    while len(order) < num_comb:
        if not ready:
            victim = min(
                (n for n in in_degree if n not in scheduled),
                key=lambda n: (in_degree[n], n),
            )
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
    return sequential + order


def netlist_copy(netlist: Netlist, new_name: Optional[str] = None) -> Netlist:
    """``Netlist.copy`` rebuilt through the validating edit API: every net,
    then the ports, then each gate with its pins connected in connection
    order.  Its ``topology_version`` counts every replayed edit."""
    clone = Netlist(new_name if new_name is not None else netlist.name, netlist.library)
    for net_name in netlist.nets:
        clone.add_net(net_name)
    for pi in netlist.primary_inputs:
        clone.add_primary_input(pi)
    for po in netlist.primary_outputs:
        clone.add_primary_output(po, netlist.output_nets[po])
    for gate in netlist.gates.values():
        clone.add_gate(gate.name, gate.cell.name)
        for pin, net_name in gate.connections.items():
            clone.connect_pin(gate.name, pin, net_name)
        if gate.dont_touch:
            clone.set_dont_touch(gate.name)
    return clone
