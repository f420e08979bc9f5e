"""Tests for FEOL extraction (split-manufacturing attacker view).

The extracted columns are read back as vpin and open-connection objects
through ``feol_oracle.feol_objects``.
"""

import math

import pytest

from feol_oracle import feol_objects
from repro.sm.split import extract_feol


class TestExtractFeol:
    def test_invalid_split_layer(self, c432_layout):
        with pytest.raises(ValueError):
            extract_feol(c432_layout, 0)

    def test_partition_covers_all_routed_nets(self, c432_layout):
        view = extract_feol(c432_layout, 3)
        assert view.visible_nets | view.cut_nets == set(c432_layout.routing)
        assert not (view.visible_nets & view.cut_nets)

    def test_higher_split_reveals_more(self, c432_layout):
        low = extract_feol(c432_layout, 2)
        high = extract_feol(c432_layout, 6)
        assert len(high.visible_nets) >= len(low.visible_nets)
        assert high.num_vpins <= low.num_vpins

    def test_vpins_match_open_connections(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        assert len(view.sink_vpins) == len(view.open_connections)
        assert len(view.driver_vpins) == len(view.open_connections)
        sink_ids = {v.identifier for v in view.sink_vpins}
        driver_ids = {v.identifier for v in view.driver_vpins}
        for connection in view.open_connections:
            assert connection.sink_vpin in sink_ids
            assert connection.driver_vpin in driver_ids

    def test_vpin_positions_inside_die(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        die = c432_layout.floorplan.die
        for vpin in view.driver_vpins + view.sink_vpins:
            assert die.contains(vpin.position, tolerance=1e-6)

    def test_directions_are_unit_vectors(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        for vpin in view.driver_vpins + view.sink_vpins:
            if vpin.direction is None:
                continue
            norm = math.hypot(*vpin.direction)
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_stub_fraction_zero_puts_vpins_at_cells(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4, stub_fraction=0.0))
        for vpin in view.driver_vpins:
            if vpin.gate is None:
                continue
            cell_position = c432_layout.gate_position(vpin.gate)
            assert vpin.position == cell_position

    def test_stub_moves_vpins_towards_partner(self, c432_layout):
        from repro.layout.geometry import manhattan

        no_stub = feol_objects(extract_feol(c432_layout, 4, stub_fraction=0.0))
        with_stub = feol_objects(extract_feol(c432_layout, 4, stub_fraction=0.45))
        truth_no = no_stub.true_driver_of_sink()
        truth_with = with_stub.true_driver_of_sink()
        by_id_no = {v.identifier: v for v in no_stub.driver_vpins + no_stub.sink_vpins}
        by_id_with = {v.identifier: v for v in with_stub.driver_vpins + with_stub.sink_vpins}
        gaps_no = [
            manhattan(by_id_no[s].position, by_id_no[d].position)
            for s, d in truth_no.items()
        ]
        gaps_with = [
            manhattan(by_id_with[s].position, by_id_with[d].position)
            for s, d in truth_with.items()
        ]
        assert sum(gaps_with) < sum(gaps_no)

    def test_unprotected_layout_has_no_protected_connections(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        assert all(not c.protected for c in view.open_connections)
        assert view.protected_sink_vpins() == set()

    def test_sink_vpins_carry_capacitance(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        gate_sinks = [v for v in view.sink_vpins if v.gate is not None]
        assert gate_sinks
        assert all(v.capacitance_ff > 0 for v in gate_sinks)

    def test_driver_vpin_nets_mapping(self, c432_layout):
        view = feol_objects(extract_feol(c432_layout, 4))
        nets = view.driver_vpin_nets()
        for connection in view.open_connections:
            assert nets[connection.driver_vpin] == connection.net

    def test_stats_keys(self, c432_layout):
        stats = extract_feol(c432_layout, 3).stats()
        assert stats["split_layer"] == 3
        assert stats["drivers"] == stats["connections"]


class TestProtectedLayoutView:
    def test_protected_connections_marked(self, protection_c432):
        view = feol_objects(extract_feol(protection_c432.protected_layout, 4))
        protected = [c for c in view.open_connections if c.protected]
        assert len(protected) == protection_c432.randomization.num_swaps

    def test_protected_connections_are_cut_at_any_split_below_lift(self, protection_c432):
        for split in (3, 4, 5):
            view = feol_objects(extract_feol(protection_c432.protected_layout, split))
            assert sum(1 for c in view.open_connections if c.protected) == \
                protection_c432.randomization.num_swaps

    def test_protected_sink_hints_point_away_from_true_driver(self, protection_c432):
        """The deception mechanism: the stub at a swapped sink does not point
        at its true driver for the (vast) majority of protected connections."""
        layout = protection_c432.protected_layout
        view = feol_objects(extract_feol(layout, 4))
        by_id = {v.identifier: v for v in view.driver_vpins + view.sink_vpins}
        misleading = 0
        total = 0
        for connection in view.open_connections:
            if not connection.protected:
                continue
            sink = by_id[connection.sink_vpin]
            driver = by_id[connection.driver_vpin]
            if sink.direction is None:
                continue
            dx = driver.position.x - sink.position.x
            dy = driver.position.y - sink.position.y
            norm = math.hypot(dx, dy)
            if norm < 1e-6:
                continue
            cos = (sink.direction[0] * dx + sink.direction[1] * dy) / norm
            total += 1
            if cos < 0.9:
                misleading += 1
        assert total > 0
        assert misleading / total > 0.7
