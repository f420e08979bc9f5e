"""Tests for the security and layout metrics."""

import importlib
import math

import pytest

from feol_oracle import feol_objects
from repro.metrics.distances import DistanceStats, distance_histogram, distance_stats
from repro.metrics.ppa import ppa_overheads, ppa_report
from repro.attacks.network_flow import network_flow_attack
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.metrics.security import correct_connection_rate, evaluate_attack
from repro.metrics.solution_space import (
    log10_num_perfect_matchings,
    log10_solution_space_from_candidates,
    log10_solution_space_from_expected_list_size,
)
from repro.metrics.vias import (
    VIA_NAMES,
    total_via_delta_percent,
    via_counts_by_name,
    via_delta_percent,
    via_table,
)
from repro.metrics.wirelength import (
    beol_wirelength_fraction,
    wirelength_by_layer,
    wirelength_share_by_layer,
)
from repro.sm.split import extract_feol

# The module, not the ``repro.netlist.simulate`` function of the same name.
simulate = importlib.import_module("repro.netlist.simulate")


class TestSecurityMetrics:
    def test_perfect_assignment_gives_100(self, c432_layout):
        view = extract_feol(c432_layout, 4)
        truth = feol_objects(view).true_driver_of_sink()
        assert correct_connection_rate(view, truth) == pytest.approx(100.0)

    def test_empty_assignment_gives_0(self, c432_layout):
        view = extract_feol(c432_layout, 4)
        assert correct_connection_rate(view, {}) == 0.0

    def test_wrong_but_same_net_counts_as_correct(self, c432_layout):
        view = extract_feol(c432_layout, 4)
        objects = feol_objects(view)
        nets = objects.driver_vpin_nets()
        # Build an assignment that maps each sink to *some* driver vpin of the
        # true net (not necessarily the ground-truth vpin id).
        by_net = {}
        for vpin_id, net in nets.items():
            by_net.setdefault(net, vpin_id)
        assignment = {
            c.sink_vpin: by_net[c.net] for c in objects.open_connections if c.net in by_net
        }
        assert correct_connection_rate(view, assignment) == pytest.approx(100.0)

    def test_evaluate_attack_without_netlist(self, c432_layout):
        view = extract_feol(c432_layout, 4)
        report = evaluate_attack(view, feol_objects(view).true_driver_of_sink(), None)
        assert report.ccr_percent == pytest.approx(100.0)
        assert report.oer_percent == 0.0
        assert report.hd_percent == 0.0

    def test_restricted_scoring_on_protected_layout(self, protection_c432):
        view = extract_feol(protection_c432.protected_layout, 4)
        truth = feol_objects(view).true_driver_of_sink()
        all_ccr = correct_connection_rate(view, truth, restrict_to_protected=False)
        protected_ccr = correct_connection_rate(view, truth, restrict_to_protected=True)
        assert all_ccr == pytest.approx(100.0)
        assert protected_ccr == pytest.approx(100.0)


class TestErrorRateAndHamming:
    @pytest.mark.parametrize("circuit", sorted(ISCAS85_PROFILES))
    def test_equals_separate_metrics(self, circuit):
        reference = get_benchmark(circuit, seed=1)
        candidate = reference.copy()
        # Wire every output to a primary input: a wrong netlist.
        for index, po in enumerate(candidate.primary_outputs):
            pis = candidate.primary_inputs
            candidate.retarget_primary_output(po, pis[index % len(pis)])
        for other in (reference, candidate):
            for num_patterns, seed in ((512, 0), (100, 3)):
                expected = (
                    simulate.output_error_rate(reference, other, num_patterns, seed),
                    simulate.hamming_distance(reference, other, num_patterns, seed),
                )
                assert simulate.error_rate_and_hamming(
                    reference, other, num_patterns, seed) == expected
        assert expected[0] > 0.0

    def test_evaluate_attack_simulates_each_netlist_once(self, protection_c432,
                                                         monkeypatch):
        view = extract_feol(protection_c432.protected_layout, 4)
        outcome = network_flow_attack(view)
        expected = (
            simulate.output_error_rate(
                view.layout.netlist, outcome.recovered_netlist, 512, 0),
            simulate.hamming_distance(
                view.layout.netlist, outcome.recovered_netlist, 512, 0),
        )
        calls = []
        plan_outputs = simulate._plan_outputs

        def counting(*args):
            calls.append(args[0])
            return plan_outputs(*args)

        monkeypatch.setattr(simulate, "_plan_outputs", counting)
        report = evaluate_attack(view, outcome.assignment, outcome.recovered_netlist,
                                 num_patterns=512, seed=0)
        assert len(calls) == 2
        assert (report.oer_percent, report.hd_percent) == expected


class TestDistances:
    def test_stats_fields(self, c432_layout):
        stats = distance_stats(c432_layout)
        assert isinstance(stats, DistanceStats)
        assert stats.count == len(stats.values)
        assert stats.mean >= stats.median * 0.2
        assert stats.std_dev >= 0

    def test_restricted_to_nets(self, c432_layout):
        some_nets = set(list(c432_layout.routing)[:5])
        stats = distance_stats(c432_layout, some_nets)
        assert stats.count <= distance_stats(c432_layout).count

    def test_empty_selection(self, c432_layout):
        stats = distance_stats(c432_layout, {"no_such_net"})
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_histogram_sums_to_count(self):
        values = [0.5, 1.0, 2.0, 4.0, 8.0]
        histogram = distance_histogram(values, num_bins=4)
        assert sum(histogram) == len(values)
        assert len(histogram) == 4

    def test_histogram_empty(self):
        assert distance_histogram([], num_bins=3) == [0, 0, 0]

    def test_protected_distances_exceed_original(self, protection_c432):
        nets = set(protection_c432.protected_layout.protected_nets)
        original = distance_stats(protection_c432.original_layout, nets)
        protected = distance_stats(protection_c432.protected_layout, nets)
        assert protected.mean > original.mean
        assert protected.median > original.median


class TestWirelength:
    def test_share_sums_to_100(self, c432_layout):
        shares = wirelength_share_by_layer(c432_layout)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-6)

    def test_by_layer_restricted(self, c432_layout):
        nets = set(list(c432_layout.routing)[:10])
        partial = wirelength_by_layer(c432_layout, nets)
        full = wirelength_by_layer(c432_layout)
        assert sum(partial.values()) <= sum(full.values())

    def test_beol_fraction_bounds(self, c432_layout):
        fraction = beol_wirelength_fraction(c432_layout, 4)
        assert 0.0 <= fraction <= 100.0
        assert beol_wirelength_fraction(c432_layout, 10) == 0.0

    def test_protected_nets_wirelength_above_split(self, protection_c432):
        nets = set(protection_c432.protected_layout.protected_nets)
        fraction = beol_wirelength_fraction(protection_c432.protected_layout, 5, nets)
        assert fraction > 90.0


class TestVias:
    def test_counts_by_name_keys(self, c432_layout):
        counts = via_counts_by_name(c432_layout)
        assert list(counts) == VIA_NAMES

    def test_delta_zero_for_identical(self, c432_layout):
        deltas = via_delta_percent(c432_layout, c432_layout)
        assert all(value == 0.0 for value in deltas.values())
        assert total_via_delta_percent(c432_layout, c432_layout) == 0.0

    def test_protected_layout_adds_vias(self, protection_c432):
        delta = total_via_delta_percent(
            protection_c432.protected_layout, protection_c432.original_layout
        )
        assert delta > 0.0

    def test_proposed_beats_naive_lifting_at_v56(self, protection_c432):
        lifted = protection_c432.naive_lifted_layout.via_counts().get((5, 6), 0)
        protected = protection_c432.protected_layout.via_counts().get((5, 6), 0)
        assert protected >= lifted

    def test_via_table_structure(self, protection_c432):
        table = via_table(
            protection_c432.original_layout,
            protection_c432.naive_lifted_layout,
            protection_c432.protected_layout,
        )
        assert set(table) == {"original_counts", "lifted_delta_percent",
                              "proposed_delta_percent", "totals"}
        assert table["totals"]["proposed_total_delta_percent"] > 0


class TestPPA:
    def test_report_fields_positive(self, c432_layout):
        report = ppa_report(c432_layout)
        assert report.area_um2 > 0
        assert report.power_uw > 0
        assert report.delay_ps > 0

    def test_overheads_of_identical_layouts_are_zero(self, c432_layout):
        over = ppa_overheads(c432_layout, c432_layout)
        assert all(abs(value) < 1e-9 for value in over.values())

    def test_protection_overheads_reasonable(self, protection_c432):
        over = protection_c432.overheads
        assert over["area_percent"] == 0.0
        assert -5.0 <= over["power_percent"] <= 30.0
        assert -10.0 <= over["delay_percent"] <= 40.0


class TestSolutionSpace:
    def test_factorial_matches_lgamma(self):
        assert log10_num_perfect_matchings(500) == pytest.approx(
            math.lgamma(501) / math.log(10), rel=1e-9
        )
        # The paper's example: 500! ≈ 1.22e1134.
        assert 1100 < log10_num_perfect_matchings(500) < 1200

    def test_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            log10_num_perfect_matchings(-1)

    def test_candidate_product(self):
        assert log10_solution_space_from_candidates([10, 10, 10]) == pytest.approx(3.0)
        assert log10_solution_space_from_candidates([0, 1]) == 0.0

    def test_expected_list_size_formula(self):
        # Paper footnote: 1.4 ** 500 ≈ 1e73.
        value = log10_solution_space_from_expected_list_size(1.4, 500)
        assert 70 < value < 76
        assert log10_solution_space_from_expected_list_size(0.0, 10) == 0.0
