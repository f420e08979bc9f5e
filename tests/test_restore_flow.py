"""Tests for the protected-layout construction and the end-to-end flow."""

import pytest

from repro.core.flow import ProtectionConfig, evaluate_ppa, protect
from repro.core.lifting import build_naive_lifted_layout, select_nets_for_lifting
from repro.core.restore import build_protected_layout
from repro.layout.layout import build_layout
from repro.core.randomizer import RandomizerConfig, randomize_netlist
from repro.netlist.equivalence import check_equivalence


class TestRestore:
    def test_protected_layout_implements_original_netlist(self, protection_c432, c432):
        assert protection_c432.protected_layout.netlist is c432
        assert check_equivalence(c432, protection_c432.protected_layout.netlist).equivalent

    def test_protected_nets_recorded(self, protection_c432):
        layout = protection_c432.protected_layout
        assert layout.protected_nets == protection_c432.randomization.protected_nets
        assert layout.lift_layer == 6

    def test_swapped_connections_routed_at_lift_layer(self, protection_c432):
        layout = protection_c432.protected_layout
        lifted = [
            connection
            for routed in layout.routing.values()
            for connection in routed.connections
            if connection.protected
        ]
        assert len(lifted) == protection_c432.randomization.num_swaps
        assert all(connection.h_layer >= 6 for connection in lifted)

    def test_every_original_connection_routed(self, protection_c432, c432):
        layout = protection_c432.protected_layout
        total = sum(len(routed.connections) for routed in layout.routing.values())
        expected = sum(
            len(net.sinks) + len(net.primary_outputs)
            for net in c432.nets.values() if net.has_driver()
        )
        assert total == expected

    def test_correction_cells_exist_and_are_legal(self, protection_c432):
        from build_oracle import check_correction_cell_overlaps

        cells = protection_c432.protected_layout.metadata["correction_cells"]
        # Two cells (driver side + sink side) per swapped connection.
        assert len(cells) == 2 * protection_c432.randomization.num_swaps
        assert check_correction_cell_overlaps(cells) == []

    def test_placement_differs_from_original(self, protection_c432):
        original = protection_c432.original_layout.placement.gate_positions
        protected = protection_c432.protected_layout.placement.gate_positions
        assert set(original) == set(protected)
        assert original != protected

    def test_shared_floorplan_means_zero_area_overhead(self, protection_c432):
        assert protection_c432.overheads["area_percent"] == 0.0

    def test_misleading_hints_on_protected_connections(self, protection_c432):
        layout = protection_c432.protected_layout
        swapped = protection_c432.randomization.swapped_sinks()
        for routed in layout.routing.values():
            for connection in routed.connections:
                if not connection.protected:
                    continue
                assert connection.sink in swapped
                # The hint the FEOL carries is not simply the true endpoint.
                assert (connection.source_hint != connection.target
                        or connection.target_hint != connection.source)

    def test_build_protected_layout_standalone(self, c880):
        randomization = randomize_netlist(c880, RandomizerConfig(max_swaps=20, seed=2))
        layout = build_protected_layout(randomization, lift_layer=8, seed=2)
        assert layout.lift_layer == 8
        assert layout.protected_nets


class TestFlow:
    def test_summary_contents(self, protection_c432):
        summary = protection_c432.summary()
        assert summary["benchmark"] == "c432"
        assert summary["oer_percent"] >= 99.0
        assert summary["area_overhead_percent"] == 0.0
        assert summary["num_swaps"] > 0

    def test_budget_trace_recorded(self, protection_c432):
        assert protection_c432.budget_trace
        for entry in protection_c432.budget_trace:
            assert "power_percent" in entry and "delay_percent" in entry

    def test_ppa_reports_positive(self, protection_c432):
        assert protection_c432.ppa_original.power_uw > 0
        assert protection_c432.ppa_original.delay_ps > 0
        assert protection_c432.ppa_protected.wirelength_um > \
            protection_c432.ppa_original.wirelength_um

    def test_naive_baseline_built(self, protection_c432):
        naive = protection_c432.naive_lifted_layout
        assert naive is not None
        assert naive.lift_layer == 6
        assert set(naive.metadata["lifted_nets"]) == set(protection_c432.protected_nets)
        # Naive lifting keeps the original placement.
        assert naive.placement.gate_positions == \
            protection_c432.original_layout.placement.gate_positions

    def test_budget_loop_stops_when_exceeded(self, c432):
        config = ProtectionConfig(
            lift_layer=6,
            ppa_budget_percent=0.001,  # essentially no budget
            swap_fraction_steps=(0.02, 0.05, 0.10),
            oer_patterns=256,
            build_naive_baseline=False,
            seed=1,
        )
        result = protect(c432, config)
        # Only the first step should have been attempted once it overshoots.
        assert len(result.budget_trace) <= 2

    def test_evaluate_ppa_overhead_math(self, protection_c432):
        over = protection_c432.ppa_protected.overhead_vs(protection_c432.ppa_original)
        assert over["area_percent"] == 0.0
        assert over["wirelength_percent"] > 0.0


class TestNaiveLifting:
    def test_select_nets_for_lifting(self, c432):
        nets = select_nets_for_lifting(c432, 10, seed=1)
        assert len(nets) == 10
        assert len(set(nets)) == 10
        again = select_nets_for_lifting(c432, 10, seed=1)
        assert nets == again

    def test_select_respects_exclusions(self, c432):
        first = select_nets_for_lifting(c432, 5, seed=1)
        second = select_nets_for_lifting(c432, 5, seed=1, exclude=set(first))
        assert not (set(first) & set(second))

    def test_lifted_nets_routed_at_floor(self, c432):
        nets = select_nets_for_lifting(c432, 8, seed=3)
        layout = build_naive_lifted_layout(build_layout(c432, seed=3), nets, lift_layer=6)
        for net in nets:
            if net in layout.routing:
                assert all(c.h_layer >= 6 for c in layout.routing[net].connections)

    def test_lifting_cells_in_metadata(self, c432):
        nets = select_nets_for_lifting(c432, 4, seed=3)
        layout = build_naive_lifted_layout(build_layout(c432, seed=3), nets, lift_layer=6)
        assert layout.metadata["lifting_cells"]
        assert all(cell.cell == "LIFT_M6" for cell in layout.metadata["lifting_cells"])

    def test_connectivity_unchanged(self, c432):
        nets = select_nets_for_lifting(c432, 8, seed=3)
        layout = build_naive_lifted_layout(build_layout(c432, seed=3), nets, lift_layer=6)
        assert layout.protected_nets == set()
        assert layout.netlist is c432
