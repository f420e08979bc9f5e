"""Tests for bit-parallel simulation, OER and HD."""

import pytest

from repro.circuits import c17_netlist
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import (
    error_rate_and_hamming,
    hamming_distance,
    output_error_rate,
    random_patterns,
    simulate,
    toggle_rates,
    SimulationError,
)


def c17_reference(g1, g2, g3, g6, g7):
    """Truth function of the real c17 benchmark."""
    g10 = 1 - (g1 & g3)
    g11 = 1 - (g3 & g6)
    g16 = 1 - (g2 & g11)
    g19 = 1 - (g11 & g7)
    g22 = 1 - (g10 & g16)
    g23 = 1 - (g16 & g19)
    return g22, g23


class TestSimulate:
    def test_c17_truth_table(self):
        netlist = c17_netlist()
        num_patterns = 32
        patterns = {name: 0 for name in netlist.primary_inputs}
        # Enumerate the full truth table in the first 32 bit positions.
        for index in range(32):
            bits = [(index >> k) & 1 for k in range(5)]
            for name, bit in zip(["G1", "G2", "G3", "G6", "G7"], bits):
                patterns[name] |= bit << index
        result = simulate(netlist, patterns, num_patterns)
        for index in range(32):
            bits = [(index >> k) & 1 for k in range(5)]
            expected22, expected23 = c17_reference(*bits)
            assert (result.outputs["G22"] >> index) & 1 == expected22
            assert (result.outputs["G23"] >> index) & 1 == expected23

    def test_outputs_within_mask(self, c432):
        result = simulate(c432, num_patterns=64, seed=3)
        mask = (1 << 64) - 1
        for value in result.outputs.values():
            assert 0 <= value <= mask

    def test_deterministic_with_seed(self, c432):
        a = simulate(c432, num_patterns=128, seed=7)
        b = simulate(c432, num_patterns=128, seed=7)
        assert a.outputs == b.outputs

    def test_different_seed_changes_inputs(self, c432):
        a = simulate(c432, num_patterns=128, seed=1)
        b = simulate(c432, num_patterns=128, seed=2)
        assert a.inputs != b.inputs

    def test_output_bits_helper(self):
        netlist = c17_netlist()
        result = simulate(netlist, num_patterns=8, seed=0)
        bits = result.output_bits("G22")
        assert len(bits) == 8
        assert all(bit in (0, 1) for bit in bits)

    def test_random_patterns_shape(self):
        patterns = random_patterns(["a", "b"], 16, seed=1)
        assert set(patterns) == {"a", "b"}
        assert all(0 <= v < 2**16 for v in patterns.values())


class TestOERandHD:
    def test_identical_netlists(self, c432):
        assert output_error_rate(c432, c432.copy(), num_patterns=256) == 0.0
        assert hamming_distance(c432, c432.copy(), num_patterns=256) == 0.0

    def test_modified_netlist_has_errors(self, c432):
        modified = c432.copy("broken")
        # Re-target one gate input pin to a different net.
        for gate in modified.gates.values():
            pins = gate.input_pin_names
            if not pins:
                continue
            current = gate.net_on(pins[0])
            for other in modified.nets:
                if other != current and modified.nets[other].has_driver():
                    try:
                        modified.move_sink(gate.name, pins[0], other)
                    except Exception:
                        continue
                    break
            break
        oer = output_error_rate(c432, modified, num_patterns=512)
        hd = hamming_distance(c432, modified, num_patterns=512)
        assert oer >= 0.0
        assert hd >= 0.0
        assert oer >= hd / 100.0  # OER counts patterns, HD counts bits

    def test_inverted_output_hd(self):
        """Inverting one of two outputs gives ~50 % HD and ~100 % OER."""
        netlist = Netlist("two_out")
        netlist.add_primary_input("a")
        netlist.add_gate("buf", "BUF_X1", {"A": "a", "Z": "n1"})
        netlist.add_gate("buf2", "BUF_X1", {"A": "a", "Z": "n2"})
        netlist.add_primary_output("o1", "n1")
        netlist.add_primary_output("o2", "n2")

        inverted = Netlist("two_out")
        inverted.add_primary_input("a")
        inverted.add_gate("buf", "BUF_X1", {"A": "a", "Z": "n1"})
        inverted.add_gate("inv", "INV_X1", {"A": "a", "ZN": "n2"})
        inverted.add_primary_output("o1", "n1")
        inverted.add_primary_output("o2", "n2")

        assert output_error_rate(netlist, inverted, num_patterns=256) == 100.0
        assert hamming_distance(netlist, inverted, num_patterns=256) == pytest.approx(50.0)

    def test_mismatched_outputs_raise(self, c432):
        other = c432.copy("other")
        other.add_net("extra_net")
        other.add_primary_output("extra", "extra_net")
        with pytest.raises(SimulationError):
            output_error_rate(c432, other, num_patterns=64)


class TestToggleRates:
    def test_rates_bounded(self, c432):
        rates = toggle_rates(c432, num_patterns=256)
        assert rates
        assert all(0.0 <= rate <= 0.5 + 1e-9 for rate in rates.values())

    def test_constant_net_has_zero_activity(self):
        netlist = Netlist("const")
        netlist.add_primary_input("a")
        netlist.add_gate("g", "NAND2_X1", {"A1": "a", "A2": "a", "ZN": "n"})
        netlist.add_gate("g2", "OR2_X1", {"A1": "n", "A2": "a", "ZN": "out_net"})
        netlist.add_primary_output("out", "out_net")
        rates = toggle_rates(netlist, num_patterns=256)
        # out_net = OR(NAND(a, a), a) = OR(!a, a) = 1 always.
        assert rates["out_net"] == pytest.approx(0.0)


class TestPatternCount:
    @pytest.mark.parametrize("num_patterns", (0, -1))
    def test_below_one_is_rejected(self, c432, num_patterns):
        match = "num_patterns must be at least 1"
        with pytest.raises(ValueError, match=match):
            simulate(c432, num_patterns=num_patterns)
        with pytest.raises(ValueError, match=match):
            output_error_rate(c432, c432, num_patterns=num_patterns)
        with pytest.raises(ValueError, match=match):
            hamming_distance(c432, c432, num_patterns=num_patterns)
        with pytest.raises(ValueError, match=match):
            error_rate_and_hamming(c432, c432, num_patterns=num_patterns)
        with pytest.raises(ValueError, match=match):
            toggle_rates(c432, num_patterns)
        with pytest.raises(ValueError, match=match):
            random_patterns(["a"], num_patterns)

    def test_one_pattern_is_accepted(self, c432):
        result = simulate(c432, num_patterns=1, seed=3)
        assert all(value in (0, 1) for value in result.outputs.values())
        assert output_error_rate(c432, c432.copy(), num_patterns=1) == 0.0
