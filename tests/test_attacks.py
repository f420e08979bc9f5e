"""Tests for the attack implementations."""

import pytest

from repro.attacks.crouting import CRoutingAttackConfig, crouting_attack
from repro.attacks.network_flow import NetworkFlowAttackConfig, network_flow_attack
from repro.attacks.proximity import proximity_attack
from repro.metrics.security import correct_connection_rate, evaluate_attack
from feol_oracle import feol_objects
from repro.sm.split import extract_feol


@pytest.fixture(scope="module")
def views(protection_c432):
    original = extract_feol(protection_c432.original_layout, 4)
    protected = extract_feol(protection_c432.protected_layout, 4)
    return original, protected


class TestProximityAttack:
    def test_assigns_every_sink(self, views):
        original, _ = views
        result = proximity_attack(original)
        sinks = feol_objects(original).sink_vpins
        assert set(result.assignment) == {v.identifier for v in sinks}
        assert result.num_sinks == len(sinks)

    def test_assignments_reference_real_drivers(self, views):
        original, _ = views
        result = proximity_attack(original)
        driver_ids = {v.identifier for v in feol_objects(original).driver_vpins}
        assert set(result.assignment.values()) <= driver_ids

    def test_beats_random_guessing_on_original(self, views):
        original, _ = views
        ccr = correct_connection_rate(original, proximity_attack(original).assignment)
        # Random guessing would land near 100/len(drivers) percent.
        assert ccr > 1000.0 / max(len(original.columns.driver_ids), 1)

    def test_empty_view(self, protection_c432):
        view = extract_feol(protection_c432.original_layout, 9)
        result = proximity_attack(view)
        assert len(result.assignment) == len(view.columns.sink_ids)


class TestNetworkFlowAttack:
    def test_high_ccr_on_original_layout(self, views):
        original, _ = views
        outcome = network_flow_attack(original)
        ccr = correct_connection_rate(original, outcome.assignment)
        assert ccr > 70.0

    def test_zero_ccr_on_protected_connections(self, views):
        _, protected = views
        outcome = network_flow_attack(protected)
        ccr = correct_connection_rate(protected, outcome.assignment,
                                      restrict_to_protected=True)
        assert ccr <= 5.0

    def test_recovered_netlist_is_consistent(self, views):
        original, _ = views
        outcome = network_flow_attack(original)
        assert outcome.recovered_netlist is not None
        assert outcome.recovered_netlist.validate() == []
        assert outcome.recovered_netlist.num_gates == original.layout.netlist.num_gates

    def test_outperforms_naive_proximity(self, views):
        original, _ = views
        nf = correct_connection_rate(original, network_flow_attack(original).assignment)
        prox = correct_connection_rate(original, proximity_attack(original).assignment)
        assert nf >= prox

    def test_hint_ablation_direction_matters(self, views):
        original, _ = views
        full = network_flow_attack(original)
        no_direction = network_flow_attack(
            original, NetworkFlowAttackConfig(use_direction_hint=False)
        )
        full_ccr = correct_connection_rate(original, full.assignment)
        blind_ccr = correct_connection_rate(original, no_direction.assignment)
        assert full_ccr >= blind_ccr

    def test_protected_oer_near_100(self, views):
        _, protected = views
        outcome = network_flow_attack(protected)
        report = evaluate_attack(protected, outcome.assignment, outcome.recovered_netlist,
                                 restrict_to_protected=True, num_patterns=512)
        # The recovered netlist is wrong for the majority of patterns; the
        # exact OER depends on how the misassigned connections interact
        # logically (the paper reports ~100 % on the full ISCAS suite).
        assert report.oer_percent > 40.0
        assert 3.0 < report.hd_percent < 60.0

    def test_empty_view_returns_copy(self, protection_c432):
        view = extract_feol(protection_c432.original_layout, 9)
        if len(view.columns.sink_ids):
            pytest.skip("split layer still cuts nets for this layout")
        outcome = network_flow_attack(view)
        assert outcome.assignment == {}
        assert outcome.recovered_netlist is not None


class TestCRoutingAttack:
    def test_expected_list_size_grows_with_bbox(self, views):
        original, _ = views
        result = crouting_attack(original)
        sizes = [result.expected_list_size[b] for b in (15, 30, 45)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_match_in_list_bounds(self, views):
        original, _ = views
        result = crouting_attack(original)
        for value in result.match_in_list.values():
            assert 0.0 <= value <= 100.0

    def test_num_vpins_matches_view(self, views):
        original, _ = views
        assert crouting_attack(original).num_vpins == original.num_vpins

    def test_custom_bounding_boxes(self, views):
        original, _ = views
        config = CRoutingAttackConfig(bounding_boxes=(5, 50))
        result = crouting_attack(original, config)
        assert set(result.expected_list_size) == {5, 50}

    def test_candidate_counts_cover_all_vpins(self, views):
        original, _ = views
        result = crouting_attack(original)
        assert len(result.candidate_counts[15]) == original.num_vpins

    def test_protected_layout_has_more_vpins(self, protection_c432):
        split = 6
        original = extract_feol(protection_c432.original_layout, split)
        protected = extract_feol(protection_c432.protected_layout, split)
        assert crouting_attack(protected).num_vpins >= crouting_attack(original).num_vpins


def test_package_import_leaves_scipy_unloaded():
    """scipy is a test-only dependency: the network-flow attack runs without
    it, both when every sink takes its cheapest driver and when the fanout
    capacities bind and the exact solver runs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "from repro.attacks import network_flow\n"
        "from repro.circuits.registry import get_benchmark\n"
        "from repro.layout import build_layout\n"
        "from repro.sm.split import extract_feol\n"
        "solve, solved = network_flow._exact_assignment, []\n"
        "network_flow._exact_assignment = lambda *args: solved.append(1) or solve(*args)\n"
        "view = extract_feol(build_layout(get_benchmark('c432', seed=1)), 3)\n"
        "for fanout in (12, 1):\n"
        "    config = network_flow.NetworkFlowAttackConfig(max_fanout_per_driver=fanout)\n"
        "    assert network_flow.network_flow_attack(view, config).assignment\n"
        "    print(len(solved))\n"
        "print('scipy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert result.stdout.split() == ["0", "1", "False"]
