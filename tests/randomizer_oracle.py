"""Per-round-recompiling randomizer: the test oracle for the incremental one.

This is the loop :func:`repro.core.randomizer.randomize_netlist` replaced.
Every loop check is a networkx ``has_path`` over a multiplicity-counted
gate graph, and every OER round calls
:func:`repro.netlist.simulate.output_error_rate`, which recompiles the
candidate netlist and re-simulates the reference.  Tests assert that the
incremental randomizer returns the same swaps, protected nets, OER history,
erroneous connectivity and ``dont_touch`` marks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from graph_oracle import netlist_to_digraph
from repro.core.randomizer import (
    RandomizationResult,
    RandomizerConfig,
    SwapRecord,
)
from repro.netlist.netlist import Netlist, PinRef
from repro.netlist.simulate import output_error_rate
from repro.utils.rng import make_rng


def _swappable_sinks(netlist: Netlist) -> List[Tuple[str, PinRef]]:
    """The ``(net, sink pin)`` pairs the randomizer may swap, by name.

    A walk over the ``Net``/``Gate`` objects, independent of the
    :class:`~repro.netlist.arrays.NetlistArrays` rows that
    :func:`repro.core.randomizer.eligible_sink_rows` lists: sinks of
    combinational gates on nets driven by a gate or a primary input.
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


def would_create_loop(netlist: Netlist, driver_gate: Optional[str],
                      sink_gate: str) -> bool:
    """Whether connecting ``driver_gate``'s output to an input of
    ``sink_gate`` would close a combinational loop, by a walk over the
    gates by name.

    ``driver_gate`` may be ``None`` (a primary-input driver), which never
    closes a loop.  A loop appears iff ``driver_gate`` is reachable from
    ``sink_gate`` through combinational gates, or they are the same
    combinational gate.
    """
    if driver_gate is None:
        return False
    gates = netlist.gates
    if driver_gate == sink_gate:
        return not gates[sink_gate].cell.is_sequential
    if gates[driver_gate].cell.is_sequential or gates[sink_gate].cell.is_sequential:
        return False
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


class _LoopChecker:
    """Incremental combinational-loop checker over gate-level connectivity."""

    def __init__(self, netlist: Netlist):
        self._netlist = netlist
        graph = netlist_to_digraph(netlist)
        sequential = [
            name for name, data in graph.nodes(data=True) if data.get("sequential")
        ]
        graph.remove_nodes_from(sequential)
        # Parallel edges are tracked with a multiplicity attribute so removing
        # one connection does not delete an edge another connection still needs.
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(graph.nodes())
        for u, v in graph.edges():
            if self._graph.has_edge(u, v):
                self._graph[u][v]["count"] += 1
            else:
                self._graph.add_edge(u, v, count=1)

    def would_create_loop(self, driver_gate: Optional[str], sink_gate: str) -> bool:
        if driver_gate is None:
            return False
        if driver_gate == sink_gate:
            return True
        if driver_gate not in self._graph or sink_gate not in self._graph:
            return False
        return nx.has_path(self._graph, sink_gate, driver_gate)

    def remove_edge(self, driver_gate: Optional[str], sink_gate: str) -> None:
        if driver_gate is None or not self._graph.has_edge(driver_gate, sink_gate):
            return
        data = self._graph[driver_gate][sink_gate]
        data["count"] -= 1
        if data["count"] <= 0:
            self._graph.remove_edge(driver_gate, sink_gate)

    def add_edge(self, driver_gate: Optional[str], sink_gate: str) -> None:
        if driver_gate is None:
            return
        if sink_gate not in self._graph:
            return
        if self._graph.has_edge(driver_gate, sink_gate):
            self._graph[driver_gate][sink_gate]["count"] += 1
        else:
            self._graph.add_edge(driver_gate, sink_gate, count=1)


def randomize_netlist(netlist: Netlist,
                      config: Optional[RandomizerConfig] = None) -> RandomizationResult:
    """Reference randomizer: same RNG draws and acceptance, recompiling OER."""
    config = config if config is not None else RandomizerConfig()
    rng = make_rng(config.seed, "randomizer", netlist.name)
    erroneous = netlist.copy(f"{netlist.name}_erroneous")
    checker = _LoopChecker(erroneous)

    swaps: Dict[PinRef, SwapRecord] = {}
    protected: Set[str] = set()
    oer_history: List[float] = []
    oer = 0.0

    eligible_sinks: List[PinRef] = [sink for _net, sink in _swappable_sinks(erroneous)]

    def attempt_pair() -> bool:
        if len(eligible_sinks) < 2:
            return False
        sink_a, sink_b = rng.sample(eligible_sinks, 2)
        net_a = erroneous.gates[sink_a[0]].net_on(sink_a[1])
        net_b = erroneous.gates[sink_b[0]].net_on(sink_b[1])
        if net_a is None or net_b is None or net_a == net_b:
            return False
        if sink_a in swaps or sink_b in swaps:
            return False
        driver_a = _driver_gate(erroneous, net_a)
        driver_b = _driver_gate(erroneous, net_b)
        sink_gate_a, _ = sink_a
        sink_gate_b, _ = sink_b
        checker.remove_edge(driver_a, sink_gate_a)
        checker.remove_edge(driver_b, sink_gate_b)
        creates_loop = (
            checker.would_create_loop(driver_b, sink_gate_a)
            or checker.would_create_loop(driver_a, sink_gate_b)
        )
        if creates_loop:
            checker.add_edge(driver_a, sink_gate_a)
            checker.add_edge(driver_b, sink_gate_b)
            return False
        original_a = erroneous.move_sink(sink_gate_a, sink_a[1], net_b)
        original_b = erroneous.move_sink(sink_gate_b, sink_b[1], net_a)
        checker.add_edge(driver_b, sink_gate_a)
        checker.add_edge(driver_a, sink_gate_b)
        erroneous.set_dont_touch(sink_gate_a)
        erroneous.set_dont_touch(sink_gate_b)
        for gate in (_driver_gate(erroneous, net_a), _driver_gate(erroneous, net_b)):
            if gate is not None:
                erroneous.set_dont_touch(gate)
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
        oer = output_error_rate(
            netlist, erroneous, num_patterns=config.oer_patterns, seed=config.seed
        )
        oer_history.append(oer)
        if oer >= config.target_oer_percent and len(swaps) >= config.min_swaps:
            break

    return RandomizationResult(
        original=netlist,
        erroneous=erroneous,
        swaps=list(swaps.values()),
        protected_nets=protected,
        oer_percent=oer,
        oer_history=oer_history,
    )
