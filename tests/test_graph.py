"""Tests for netlist graph analysis (loops, orderings, reachability)."""

import networkx as nx
import pytest

from graph_oracle import netlist_to_digraph
from randomizer_oracle import would_create_loop
from repro.netlist.arrays import netlist_arrays
from repro.netlist.graph import transitive_closure
from repro.netlist.netlist import Netlist


def gate_levels(netlist):
    """Gate name → level of :meth:`NetlistArrays.levels`."""
    arrays = netlist_arrays(netlist)
    return dict(zip(arrays.gate_names, arrays.levels().tolist()))


def logic_depth(netlist):
    """Gates on the longest combinational path."""
    arrays = netlist_arrays(netlist)
    levels = arrays.levels()[~arrays.sequential]
    return int(levels.max()) + 1 if levels.size else 0


def kahn_order(netlist):
    arrays = netlist_arrays(netlist)
    return [arrays.gate_names[g] for g in arrays.kahn()[0]]


@pytest.fixture()
def chain():
    """in -> g1 -> g2 -> g3 -> out."""
    netlist = Netlist("chain")
    netlist.add_primary_input("in")
    netlist.add_gate("g1", "INV_X1", {"A": "in", "ZN": "n1"})
    netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
    netlist.add_gate("g3", "INV_X1", {"A": "n2", "ZN": "n3"})
    netlist.add_primary_output("out", "n3")
    return netlist


@pytest.fixture()
def looped():
    """Two inverters driving each other (combinational loop)."""
    netlist = Netlist("looped")
    netlist.add_gate("g1", "INV_X1", {"A": "n2", "ZN": "n1"})
    netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
    netlist.add_primary_output("out", "n1")
    return netlist


class TestDigraph:
    def test_edges_follow_nets(self, chain):
        graph = netlist_to_digraph(chain)
        assert graph.has_edge("g1", "g2")
        assert graph.has_edge("g2", "g3")
        assert not graph.has_edge("g3", "g1")

    def test_ports_included_when_requested(self, chain):
        graph = netlist_to_digraph(chain, include_ports=True)
        assert graph.has_edge("PI::in", "g1")
        assert graph.has_edge("g3", "PO::out")

    def test_benchmark_is_dag(self, c432):
        graph = netlist_to_digraph(c432)
        assert nx.is_directed_acyclic_graph(graph)


class TestLoops:
    def test_no_loop_in_chain(self, chain):
        assert netlist_arrays(chain).is_acyclic()
        assert kahn_order(chain) == ["g1", "g2", "g3"]

    def test_loop_detected(self, looped):
        assert not netlist_arrays(looped).is_acyclic()
        assert kahn_order(looped) == []

    def test_flop_breaks_loop(self):
        netlist = Netlist("ff_loop")
        netlist.add_primary_input("clk")
        netlist.add_gate("g1", "INV_X1", {"A": "q", "ZN": "d"})
        netlist.add_gate("ff", "DFF_X1", {"D": "d", "CK": "clk", "Q": "q"})
        netlist.add_primary_output("out", "q")
        assert netlist_arrays(netlist).is_acyclic()

    def test_benchmarks_are_loop_free(self, c432, c880):
        assert netlist_arrays(c432).is_acyclic()
        assert netlist_arrays(c880).is_acyclic()


class TestOrderings:
    def test_topological_order_respects_dependencies(self, chain):
        order = kahn_order(chain)
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_topological_order_raises_on_loop(self, looped):
        # No order and no depth exist: the timing model raises
        # CombinationalLoopError on ``levels() is None``.
        assert netlist_arrays(looped).levels() is None

    def test_pseudo_topological_handles_loop(self, looped):
        arrays = netlist_arrays(looped)
        assert sorted(arrays.gate_names[g] for g in arrays.pseudo_order()) == ["g1", "g2"]

    def test_pseudo_topological_matches_gate_count(self, c432):
        assert len(netlist_arrays(c432).pseudo_order()) == c432.num_gates

    def test_logic_depth_chain(self, chain):
        assert logic_depth(chain) == 3

    def test_gate_levels(self, chain):
        levels = gate_levels(chain)
        assert levels == {"g1": 0, "g2": 1, "g3": 2}


class TestReachability:
    def test_fanout_and_fanin(self, chain):
        # Bit j of reach[i]: gate j is in gate i's transitive fan-out.
        arrays = netlist_arrays(chain)
        succ_start, succ = arrays.kahn()[1:]
        reach = transitive_closure([succ[succ_start[g]:succ_start[g + 1]].tolist()
                                    for g in range(arrays.num_gates)])
        names = arrays.gate_names

        def fanout(g):
            return {names[j] for j in range(len(names)) if reach[g] >> j & 1}

        def fanin(g):
            return {names[i] for i in range(len(names)) if reach[i] >> g & 1}

        g1, _g2, g3 = (arrays.gate_id[name] for name in ("g1", "g2", "g3"))
        assert fanout(g1) == {"g2", "g3"}
        assert fanin(g3) == {"g1", "g2"}
        assert fanin(g1) == set()

    def test_would_create_loop_true(self, chain):
        # Connecting g3's output back to g1's input would create a loop.
        assert would_create_loop(chain, "g3", "g1")

    def test_would_create_loop_false(self, chain):
        assert not would_create_loop(chain, "g1", "g3")
        assert not would_create_loop(chain, None, "g3")

    def test_self_loop(self, chain):
        assert would_create_loop(chain, "g2", "g2")
