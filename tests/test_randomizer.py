"""Tests for the OER-driven netlist randomizer."""

import pytest

from repro.core.randomizer import RandomizerConfig, randomize_netlist
from repro.netlist.arrays import netlist_arrays
from repro.netlist.simulate import output_error_rate


class TestRandomizer:
    def test_original_untouched(self, c432):
        before = c432.copy("before")
        randomize_netlist(c432, RandomizerConfig(max_swaps=20, seed=1))
        assert {g: dict(gate.connections) for g, gate in c432.gates.items()} == \
            {g: dict(gate.connections) for g, gate in before.gates.items()}

    def test_erroneous_netlist_is_loop_free(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=60, seed=1))
        assert netlist_arrays(result.erroneous).is_acyclic()
        assert result.erroneous.validate() == []

    def test_oer_reaches_target(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(target_oer_percent=99.0, max_swaps=200, seed=1)
        )
        assert result.oer_percent >= 99.0

    def test_oer_matches_independent_measurement(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=2))
        independent = output_error_rate(c432, result.erroneous, num_patterns=1024, seed=7)
        assert independent == pytest.approx(result.oer_percent, abs=5.0)

    def test_swap_records_describe_the_changes(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=3))
        assert result.num_swaps > 0
        for record in result.swaps:
            gate, pin = record.sink
            # In the erroneous netlist the sink sits on the erroneous net...
            assert result.erroneous.gates[gate].net_on(pin) == record.erroneous_net
            # ...and in the original it sits on the original net.
            assert c432.gates[gate].net_on(pin) == record.original_net
            assert record.original_net != record.erroneous_net

    def test_swapped_sinks_unique(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=60, seed=4))
        sinks = [record.sink for record in result.swaps]
        assert len(sinks) == len(set(sinks))

    def test_protected_nets_match_swaps(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=40, seed=5))
        from_swaps = {record.original_net for record in result.swaps}
        assert result.protected_nets == from_swaps

    def test_max_swaps_respected(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(max_swaps=10, min_swaps=10, target_oer_percent=100.0, seed=6)
        )
        assert result.num_swaps <= 10

    def test_min_swaps_forces_more_randomization(self, c432):
        small = randomize_netlist(
            c432, RandomizerConfig(max_swaps=200, min_swaps=0, target_oer_percent=50.0, seed=7)
        )
        large = randomize_netlist(
            c432, RandomizerConfig(max_swaps=200, min_swaps=60, target_oer_percent=50.0, seed=7)
        )
        assert large.num_swaps >= small.num_swaps
        assert large.num_swaps >= 60

    def test_deterministic(self, c432):
        a = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=11))
        b = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=11))
        assert [r.sink for r in a.swaps] == [r.sink for r in b.swaps]

    def test_seed_changes_swaps(self, c432):
        a = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=1))
        b = randomize_netlist(c432, RandomizerConfig(max_swaps=30, seed=2))
        assert [r.sink for r in a.swaps] != [r.sink for r in b.swaps]

    def test_dont_touch_marking(self, c432):
        result = randomize_netlist(c432, RandomizerConfig(max_swaps=20, seed=1))
        for record in result.swaps:
            assert result.erroneous.gates[record.sink[0]].dont_touch

    def test_sequential_sinks_never_swapped(self):
        from repro.circuits import superblue_netlist

        netlist = superblue_netlist("superblue18", scale=0.001, seed=1)
        result = randomize_netlist(netlist, RandomizerConfig(max_swaps=30, oer_patterns=128, seed=1))
        for record in result.swaps:
            gate = netlist.gates[record.sink[0]]
            assert not gate.cell.is_sequential

    def test_oer_history_monotone_overall(self, c432):
        result = randomize_netlist(
            c432, RandomizerConfig(max_swaps=120, min_swaps=120,
                                   target_oer_percent=100.0, seed=9)
        )
        assert result.oer_history
        assert result.oer_history[-1] >= result.oer_history[0]
