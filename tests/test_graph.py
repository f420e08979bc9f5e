"""Tests for netlist graph analysis (loops, orderings, reachability)."""

import networkx as nx
import pytest

from graph_oracle import netlist_to_digraph
from repro.netlist.graph import (
    CombinationalLoopError,
    combinational_loops,
    gate_levels,
    has_combinational_loop,
    pseudo_topological_order,
    topological_gate_order,
    transitive_fanin,
    transitive_fanout,
    would_create_loop,
)
from repro.netlist.netlist import Netlist


def logic_depth(netlist):
    """Gates on the longest combinational path, from :func:`gate_levels`."""
    levels = [level for name, level in gate_levels(netlist).items()
              if not netlist.gates[name].cell.is_sequential]
    return max(levels) + 1 if levels else 0


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
        assert not has_combinational_loop(chain)
        assert combinational_loops(chain) == []

    def test_loop_detected(self, looped):
        assert has_combinational_loop(looped)
        assert combinational_loops(looped)

    def test_flop_breaks_loop(self):
        netlist = Netlist("ff_loop")
        netlist.add_primary_input("clk")
        netlist.add_gate("g1", "INV_X1", {"A": "q", "ZN": "d"})
        netlist.add_gate("ff", "DFF_X1", {"D": "d", "CK": "clk", "Q": "q"})
        netlist.add_primary_output("out", "q")
        assert not has_combinational_loop(netlist)

    def test_benchmarks_are_loop_free(self, c432, c880):
        assert not has_combinational_loop(c432)
        assert not has_combinational_loop(c880)


class TestOrderings:
    def test_topological_order_respects_dependencies(self, chain):
        order = topological_gate_order(chain)
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_topological_order_raises_on_loop(self, looped):
        with pytest.raises(CombinationalLoopError):
            topological_gate_order(looped)

    def test_pseudo_topological_handles_loop(self, looped):
        order = pseudo_topological_order(looped)
        assert sorted(order) == ["g1", "g2"]

    def test_pseudo_topological_matches_gate_count(self, c432):
        assert len(pseudo_topological_order(c432)) == c432.num_gates

    def test_logic_depth_chain(self, chain):
        assert logic_depth(chain) == 3

    def test_gate_levels(self, chain):
        levels = gate_levels(chain)
        assert levels == {"g1": 0, "g2": 1, "g3": 2}


class TestReachability:
    def test_fanout_and_fanin(self, chain):
        assert transitive_fanout(chain, "g1") == {"g2", "g3"}
        assert transitive_fanin(chain, "g3") == {"g1", "g2"}
        assert transitive_fanin(chain, "g1") == set()

    def test_would_create_loop_true(self, chain):
        # Connecting g3's output back to g1's input would create a loop.
        assert would_create_loop(chain, "g3", "g1")

    def test_would_create_loop_false(self, chain):
        assert not would_create_loop(chain, "g1", "g3")
        assert not would_create_loop(chain, None, "g3")

    def test_self_loop(self, chain):
        assert would_create_loop(chain, "g2", "g2")
