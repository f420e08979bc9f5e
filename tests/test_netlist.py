"""Tests for the Netlist data model."""

import pytest

from graph_oracle import netlist_copy
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.netlist.netlist import Netlist, NetlistError
from repro.store.codec import netlist_fingerprint


def connection_pairs(netlist):
    """Every driver→sink pair as ``(net, sink_pin, driver_pin)``."""
    return [(net.name, sink, net.driver)
            for net in netlist.nets.values() for sink in net.sinks]


@pytest.fixture()
def tiny():
    """in_a, in_b -> NAND -> INV -> out."""
    netlist = Netlist("tiny")
    netlist.add_primary_input("in_a")
    netlist.add_primary_input("in_b")
    netlist.add_gate("g1", "NAND2_X1", {"A1": "in_a", "A2": "in_b", "ZN": "n1"})
    netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
    netlist.add_primary_output("out", "n2")
    return netlist


class TestConstruction:
    def test_stats(self, tiny):
        stats = tiny.stats()
        assert stats["gates"] == 2
        assert stats["primary_inputs"] == 2
        assert stats["primary_outputs"] == 1
        assert stats["connections"] == 3

    def test_validate_clean(self, tiny):
        assert tiny.validate() == []

    def test_duplicate_gate_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_gate("g1", "INV_X1")

    def test_duplicate_net_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_net("n1")

    def test_duplicate_primary_input_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_primary_input("in_a")

    def test_duplicate_primary_output_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_primary_output("out")

    def test_double_driver_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_gate("g3", "INV_X1", {"A": "in_a", "ZN": "n1"})

    def test_driving_primary_input_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.add_gate("g3", "INV_X1", {"A": "n1", "ZN": "in_a"})

    def test_cell_area(self, tiny):
        assert tiny.cell_area_um2() > 0


class TestConnectivityQueries:
    def test_driver_of(self, tiny):
        assert tiny.driver_of("n1") == ("g1", "ZN")
        assert tiny.driver_of("in_a") is None

    def test_sinks_of(self, tiny):
        assert tiny.sinks_of("n1") == [("g2", "A")]

    def test_fanout_fanin(self, tiny):
        assert tiny.fanout_gates("g1") == ["g2"]
        assert tiny.fanin_gates("g2") == ["g1"]
        assert tiny.fanin_gates("g1") == []

    def test_gate_output_net(self, tiny):
        assert tiny.gate_output_net("g1") == "n1"

    def test_iter_connections(self, tiny):
        pairs = list(tiny.iter_connections())
        assert ("n1", ("g2", "A")) in pairs
        assert len(pairs) == 3

    def test_connection_pairs_helper(self, tiny):
        pairs = connection_pairs(tiny)
        nets = {net for net, _sink, _driver in pairs}
        assert nets == {"in_a", "in_b", "n1"}

    def test_net_fanout_counts_pos(self, tiny):
        assert tiny.nets["n2"].fanout == 1  # primary output counts


class TestEditing:
    def test_move_sink(self, tiny):
        old = tiny.move_sink("g2", "A", "in_a")
        assert old == "n1"
        assert tiny.nets["in_a"].sinks.count(("g2", "A")) == 1
        assert ("g2", "A") not in tiny.nets["n1"].sinks
        assert tiny.validate() == []

    def test_move_sink_requires_input_pin(self, tiny):
        with pytest.raises(NetlistError):
            tiny.move_sink("g1", "ZN", "in_a")

    def test_move_unconnected_sink_rejected(self, tiny):
        tiny.add_gate("g3", "INV_X1", {"ZN": "n3"})
        with pytest.raises(NetlistError):
            tiny.move_sink("g3", "A", "in_a")

    def test_disconnect_pin(self, tiny):
        tiny.disconnect_pin("g2", "A")
        assert tiny.gates["g2"].net_on("A") is None
        assert ("g2", "A") not in tiny.nets["n1"].sinks

    def test_remove_gate(self, tiny):
        tiny.remove_gate("g2")
        assert "g2" not in tiny.gates
        assert tiny.nets["n1"].sinks == []

    def test_retarget_primary_output(self, tiny):
        old = tiny.retarget_primary_output("out", "n1")
        assert old == "n2"
        assert tiny.output_nets["out"] == "n1"
        assert "out" in tiny.nets["n1"].primary_outputs
        assert tiny.validate() == []

    def test_retarget_unknown_po_rejected(self, tiny):
        with pytest.raises(NetlistError):
            tiny.retarget_primary_output("nope", "n1")


class TestCopy:
    def test_copy_is_deep(self, tiny):
        clone = tiny.copy("clone")
        clone.move_sink("g2", "A", "in_a")
        # Original untouched.
        assert tiny.gates["g2"].net_on("A") == "n1"
        assert clone.name == "clone"
        assert clone.validate() == []

    def test_copy_preserves_stats(self, tiny):
        clone = tiny.copy()
        assert clone.stats() == tiny.stats()

    def test_copy_preserves_dont_touch(self, tiny):
        tiny.gates["g1"].dont_touch = True
        assert tiny.copy().gates["g1"].dont_touch

    def test_copy_of_benchmark_validates(self, c432):
        assert c432.copy().validate() == []


def assert_same_copy(netlist, name=None):
    """``Netlist.copy`` equals the copy replayed through ``connect_pin``."""
    clone, expected = netlist.copy(name), netlist_copy(netlist, name)
    assert clone.name == expected.name and clone.library is expected.library
    assert list(clone.nets) == list(expected.nets)
    for net_name, net in expected.nets.items():
        ours = clone.nets[net_name]
        assert ours is not netlist.nets[net_name]
        assert (ours.driver, ours.sinks, ours.is_primary_input, ours.primary_outputs) == (
            net.driver, net.sinks, net.is_primary_input, net.primary_outputs)
    assert list(clone.gates) == list(expected.gates)
    for gate_name, gate in expected.gates.items():
        ours = clone.gates[gate_name]
        assert ours is not netlist.gates[gate_name]
        assert ours.connections is not netlist.gates[gate_name].connections
        assert list(ours.connections.items()) == list(gate.connections.items())
        assert (ours.cell, ours.dont_touch) == (gate.cell, gate.dont_touch)
    assert clone.primary_inputs == expected.primary_inputs
    assert clone.primary_outputs == expected.primary_outputs
    assert list(clone.output_nets.items()) == list(expected.output_nets.items())
    assert clone.topology_version == expected.topology_version
    assert netlist_fingerprint(clone) == netlist_fingerprint(expected)
    assert clone.validate() == []


class TestCopyMatchesConnectPinReplay:
    @pytest.mark.parametrize(
        "name,scale",
        [(name, None) for name in sorted(ISCAS85_PROFILES)] + [("superblue18", 0.002)],
    )
    def test_benchmarks(self, name, scale):
        assert_same_copy(get_benchmark(name, seed=1, scale=scale), "copied")

    def test_after_edits(self, c432):
        """Sink lists are rebuilt in gate order, PO lists in output-net order."""
        edited = c432.copy()
        gate_name, gate = next(
            (n, g) for n, g in edited.gates.items() if len(g.input_pin_names) > 1)
        pin = gate.input_pin_names[0]
        edited.move_sink(gate_name, pin, edited.primary_inputs[0])
        first, second = edited.primary_outputs[:2]
        edited.retarget_primary_output(first, edited.output_nets[second])
        edited.retarget_primary_output(second, edited.output_nets[first])
        edited.gates[gate_name].dont_touch = True
        assert_same_copy(edited)
