"""Tests for the STA and power models.

The array passes are held to the per-object walks of
``tests/timing_oracle.py`` with ``==`` on whole reports.
"""

import dataclasses
import pickle

import networkx as nx
import numpy as np
import pytest

import timing_oracle
from graph_oracle import netlist_to_digraph
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core.flow import evaluate_ppa
from repro.layout.layout import build_layout
from repro.netlist.arrays import netlist_arrays
from repro.netlist.graph import CombinationalLoopError
from repro.netlist.netlist import Netlist
from repro.timing.power import estimate_power
from repro.timing.sta import WireModel, net_wires, static_timing_analysis


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


def _wire_rc(buffer_chain, lengths, layers):
    wires = net_wires(netlist_arrays(buffer_chain), np.asarray(lengths, dtype=np.float64),
                      np.asarray(layers, dtype=np.int64), WireModel())
    return wires.wire_res.tolist(), wires.wire_cap.tolist()


class TestWireModel:
    def test_rc_scaling_with_length(self, buffer_chain):
        (res_20, res_10), (cap_20, cap_10) = _wire_rc(buffer_chain, [20.0, 10.0], [2, 2])
        assert res_20 > res_10
        assert cap_20 > cap_10

    def test_higher_layers_have_lower_resistance(self, buffer_chain):
        (res_8, res_2), _caps = _wire_rc(buffer_chain, [10.0, 10.0], [8, 2])
        assert res_8 < res_2


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
    graph = netlist_to_digraph(netlist)
    sequential = [n for n, data in graph.nodes(data=True) if data.get("sequential")]
    graph.remove_nodes_from(sequential)
    return sequential + list(nx.topological_sort(graph))


@pytest.mark.parametrize(
    "name,scale",
    [(name, None) for name in ISCAS85_PROFILES] + [("superblue18", 0.002)],
)
def test_sta_matches_networkx_ordered_oracle(name, scale, monkeypatch):
    """The level-ordered pass equals the per-gate walk in networkx's order."""
    netlist = get_benchmark(name, seed=1, scale=scale)
    arrays = netlist_arrays(netlist)
    names = arrays.gate_names
    order = [names[g] for g in np.flatnonzero(arrays.sequential).tolist() + arrays.kahn()[0]]
    assert order == _networkx_gate_order(netlist)
    report = static_timing_analysis(netlist)
    monkeypatch.setattr(timing_oracle, "topological_gate_order", _networkx_gate_order)
    assert timing_oracle.static_timing_analysis(netlist) == report


ORACLE_CASES = [(name, None) for name in ISCAS85_PROFILES] + [
    ("superblue18", 0.0025), ("superblue5", 0.0025)]
#: A wire model off every default, with layer tables of unequal length.
ODD_WIRES = WireModel(resistance_kohm_per_um=0.0071, capacitance_ff_per_um=0.137,
                      layer_resistance_scale=(1.0, 0.8, 0.6, 0.5, 0.3),
                      layer_capacitance_scale=(1.0, 0.97, 0.9, 0.88, 0.8, 0.75, 0.7))


@pytest.fixture(scope="module")
def routed_layouts():
    return {}


def _routed(routed_layouts, name, scale):
    if name not in routed_layouts:
        netlist = get_benchmark(name, seed=1, scale=scale)
        routed_layouts[name] = build_layout(netlist, seed=1)
    return routed_layouts[name]


@pytest.mark.parametrize("name,scale", ORACLE_CASES)
def test_reports_equal_the_per_object_walks(name, scale, routed_layouts):
    """Every report field, bit for bit: fanout-estimated and routed lengths
    (routed on only part of the nets too), default and odd wire models,
    disabled arcs and toggle rates."""
    layout = _routed(routed_layouts, name, scale)
    netlist = layout.netlist
    lengths, layers = layout.net_lengths_um(), layout.net_top_layers()
    partial = dict(list(lengths.items())[::3])
    disabled = {
        gate_name: [(gate.input_pin_names[i % len(gate.input_pin_names)],
                     gate.output_pin_names[0])]
        for i, (gate_name, gate) in enumerate(netlist.gates.items())
        if i % 4 == 0 and gate.input_pin_names
    }
    toggles = {net: (i % 11) / 22 for i, net in enumerate(netlist.nets) if i % 5}
    for args in ((), (lengths, layers), (partial, None), (lengths, layers, ODD_WIRES)):
        assert static_timing_analysis(netlist, *args) == \
            timing_oracle.static_timing_analysis(netlist, *args), len(args)
        assert estimate_power(netlist, *args[:2], None, *args[2:]) == \
            timing_oracle.estimate_power(netlist, *args[:2], None, *args[2:]), len(args)
    assert static_timing_analysis(netlist, lengths, layers, ODD_WIRES, disabled) == \
        timing_oracle.static_timing_analysis(netlist, lengths, layers, ODD_WIRES, disabled)
    assert static_timing_analysis(netlist, disabled_arcs=disabled) == \
        timing_oracle.static_timing_analysis(netlist, disabled_arcs=disabled)
    for args in ((None, None), (lengths, layers)):
        assert estimate_power(netlist, *args, toggles, ODD_WIRES, 1.1, 733.0) == \
            timing_oracle.estimate_power(netlist, *args, toggles, ODD_WIRES, 1.1, 733.0)


@pytest.mark.parametrize("name,scale", [("c880", None), ("superblue18", 0.0025)])
def test_evaluate_ppa_reads_the_routing_columns(name, scale, routed_layouts):
    """The routed lengths and layers ``evaluate_ppa`` reads from the routing
    columns give the oracle's delay and power from the name dicts."""
    layout = _routed(routed_layouts, name, scale)
    # The same routing on a netlist with a net it does not route: the
    # routing's net table no longer lines up and nets are matched by name.
    grown = layout.netlist.copy()
    grown.add_net("unrouted_spare")
    for layout in (layout, dataclasses.replace(layout, netlist=grown)):
        lengths, layers = layout.net_lengths_um(), layout.net_top_layers()
        ppa = evaluate_ppa(layout)
        assert ppa.delay_ps == timing_oracle.static_timing_analysis(
            layout.netlist, lengths, layers).critical_path_ps
        assert ppa.power_uw == timing_oracle.estimate_power(
            layout.netlist, lengths, layers).total_uw


def test_report_dicts_are_built_on_first_read(c432):
    report = static_timing_analysis(c432)
    assert "arrival_times_ps" not in vars(report)
    expected = timing_oracle.static_timing_analysis(c432)
    assert report.gate_delays_ps == expected.gate_delays_ps
    assert vars(report).keys() >= {"arrival_times_ps", "gate_delays_ps", "net_loads_ff"}
    assert pickle.loads(pickle.dumps(static_timing_analysis(c432))) == expected


def test_sta_rejects_combinational_loops():
    netlist = Netlist("ring")
    netlist.add_primary_input("a")
    netlist.add_gate("g0", "NAND2_X1", {"A1": "a", "A2": "n1", "ZN": "n0"})
    netlist.add_gate("g1", "INV_X1", {"A": "n0", "ZN": "n1"})
    netlist.add_primary_output("o", "n1")
    with pytest.raises(CombinationalLoopError):
        static_timing_analysis(netlist)


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
