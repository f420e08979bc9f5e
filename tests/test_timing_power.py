"""Tests for the STA and power models."""

import networkx as nx
import pytest

from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.netlist import graph as netlist_graph
from repro.netlist.netlist import Netlist
from repro.timing.power import estimate_power
from repro.timing.sta import WireModel, static_timing_analysis


@pytest.fixture()
def buffer_chain():
    netlist = Netlist("chain")
    netlist.add_primary_input("in")
    previous = "in"
    for index in range(5):
        out = f"n{index}"
        netlist.add_gate(f"b{index}", "BUF_X1", {"A": previous, "Z": out})
        previous = out
    netlist.add_primary_output("out", previous)
    return netlist


class TestWireModel:
    def test_rc_scaling_with_length(self):
        model = WireModel()
        assert model.wire_resistance(20.0) > model.wire_resistance(10.0)
        assert model.wire_capacitance(20.0) > model.wire_capacitance(10.0)

    def test_higher_layers_have_lower_resistance(self):
        model = WireModel()
        assert model.wire_resistance(10.0, layer=8) < model.wire_resistance(10.0, layer=2)


class TestSTA:
    def test_longer_chain_has_longer_delay(self, buffer_chain):
        short = Netlist("short")
        short.add_primary_input("in")
        short.add_gate("b0", "BUF_X1", {"A": "in", "Z": "n0"})
        short.add_primary_output("out", "n0")
        long_report = static_timing_analysis(buffer_chain)
        short_report = static_timing_analysis(short)
        assert long_report.critical_path_ps > short_report.critical_path_ps

    def test_critical_path_traced(self, buffer_chain):
        report = static_timing_analysis(buffer_chain)
        assert report.critical_path
        assert report.critical_path[-1] == "n4"

    def test_wirelength_increases_delay(self, buffer_chain):
        nominal = static_timing_analysis(buffer_chain)
        stretched = static_timing_analysis(
            buffer_chain, net_lengths_um={f"n{i}": 500.0 for i in range(5)}
        )
        assert stretched.critical_path_ps > nominal.critical_path_ps

    def test_benchmark_delay_positive(self, c432):
        report = static_timing_analysis(c432)
        assert report.critical_path_ps > 0
        assert report.arrival_times_ps

    def test_disabled_arcs_reduce_or_keep_delay(self, buffer_chain):
        nominal = static_timing_analysis(buffer_chain)
        disabled = static_timing_analysis(
            buffer_chain, disabled_arcs={"b2": [("A", "Z")]}
        )
        assert disabled.critical_path_ps <= nominal.critical_path_ps

    def test_layout_lengths_feed_in(self, c432_layout):
        report = static_timing_analysis(
            c432_layout.netlist,
            c432_layout.net_lengths_um(),
            c432_layout.net_top_layers(),
        )
        assert report.critical_path_ps > 0


def _networkx_gate_order(netlist):
    """Sequential gates, then networkx's topological sort of the rest."""
    graph = netlist_graph.netlist_to_digraph(netlist)
    sequential = [n for n, data in graph.nodes(data=True) if data.get("sequential")]
    graph.remove_nodes_from(sequential)
    return sequential + list(nx.topological_sort(graph))


@pytest.mark.parametrize(
    "name,scale",
    [(name, None) for name in ISCAS85_PROFILES] + [("superblue18", 0.002)],
)
def test_sta_matches_networkx_ordered_oracle(name, scale, monkeypatch):
    netlist = get_benchmark(name, seed=1, scale=scale)
    assert netlist_graph.topological_gate_order(netlist) == _networkx_gate_order(netlist)
    report = static_timing_analysis(netlist)
    monkeypatch.setattr("repro.timing.sta.topological_gate_order", _networkx_gate_order)
    assert static_timing_analysis(netlist) == report


class TestPower:
    def test_breakdown_positive(self, c432):
        report = estimate_power(c432)
        assert report.leakage_uw > 0
        assert report.internal_uw > 0
        assert report.switching_uw > 0
        assert report.total_uw == pytest.approx(
            report.leakage_uw + report.internal_uw + report.switching_uw
        )

    def test_longer_wires_burn_more_power(self, c432, c432_layout):
        nominal = estimate_power(c432, c432_layout.net_lengths_um())
        stretched = estimate_power(
            c432, {net: length * 3 for net, length in c432_layout.net_lengths_um().items()}
        )
        assert stretched.total_uw > nominal.total_uw

    def test_higher_activity_more_switching(self, c432):
        low = estimate_power(c432, toggle_rates={net: 0.05 for net in c432.nets})
        high = estimate_power(c432, toggle_rates={net: 0.45 for net in c432.nets})
        assert high.switching_uw > low.switching_uw

    def test_frequency_scaling(self, c432):
        slow = estimate_power(c432, frequency_mhz=100.0)
        fast = estimate_power(c432, frequency_mhz=1000.0)
        assert fast.switching_uw > slow.switching_uw
        assert fast.leakage_uw == pytest.approx(slow.leakage_uw)
