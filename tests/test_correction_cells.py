"""Tests for correction-cell placement and legalization."""

import pytest

from build_oracle import cells_overlap, check_correction_cell_overlaps, correction_cells_at_anchors
from repro.core.correction_cells import correction_cell_name, place_correction_cells
from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point, manhattan


class TestNaming:
    def test_correction_cell_names(self):
        assert correction_cell_name(6) == "CORRECTION_M6"
        assert correction_cell_name(8) == "CORRECTION_M8"
        assert correction_cell_name(6, naive=True) == "LIFT_M6"

    def test_only_characterised_layers(self):
        with pytest.raises(ValueError):
            correction_cell_name(5)


class TestPlacement:
    def _anchors(self, count, spread=2.0):
        return [
            (i, "driver" if i % 2 == 0 else "sink", f"g{i}", Point((i % 7) * spread, (i % 5) * spread))
            for i in range(count)
        ]

    def test_one_cell_per_anchor(self, c432):
        cells = place_correction_cells(self._anchors(10), 6, build_floorplan(c432, 0.7))
        assert len(cells) == 10
        assert all(cell.cell == "CORRECTION_M6" for cell in cells)
        assert all(cell.lift_layer == 6 for cell in cells)

    def test_naive_cells(self, c432):
        cells = place_correction_cells(self._anchors(4), 8, build_floorplan(c432, 0.7),
                                       naive=True)
        assert all(cell.cell == "LIFT_M8" for cell in cells)

    def test_pair_share_connection_id(self, c432):
        anchors = [(7, "driver", "g1", Point(0, 0)), (7, "sink", "g2", Point(5, 5))]
        cells = place_correction_cells(anchors, 6, build_floorplan(c432, 0.7))
        assert cells[0].connection_id == cells[1].connection_id == 7
        assert {cells[0].role, cells[1].role} == {"driver", "sink"}

    def test_legalization_removes_overlaps(self, c432):
        floorplan = build_floorplan(c432, 0.7)
        # All anchors at the same point: maximal overlap before legalization.
        anchors = [(i, "driver", f"g{i}", Point(5.0, 5.0)) for i in range(30)]
        assert check_correction_cell_overlaps(correction_cells_at_anchors(anchors, 6))
        legal = place_correction_cells(anchors, 6, floorplan)
        assert check_correction_cell_overlaps(legal) == []
        assert len(legal) == 30

    def test_legalization_keeps_cells_near_anchor(self, c432):
        floorplan = build_floorplan(c432, 0.7)
        anchors = [(i, "sink", f"g{i}", Point(float(i), 1.0)) for i in range(8)]
        legal = place_correction_cells(anchors, 6, floorplan)
        for (_id, _role, _gate, anchor), after in zip(anchors, legal):
            assert manhattan(anchor, after.position) < floorplan.half_perimeter_um / 2

    def test_legalization_keeps_cells_inside_die(self, c432):
        floorplan = build_floorplan(c432, 0.7)
        outside = [(i, "driver", None, Point(10_000.0, 10_000.0)) for i in range(3)]
        for cell in place_correction_cells(outside, 8, floorplan):
            assert floorplan.die.contains(cell.position, tolerance=cell.width_um)

    def test_empty_input(self, c432):
        floorplan = build_floorplan(c432, 0.7)
        assert place_correction_cells([], 6, floorplan) == []

    def test_overlap_detection(self):
        a, b, c = correction_cells_at_anchors(
            [(0, "driver", None, Point(0, 0)), (1, "sink", None, Point(0.1, 0.1)),
             (2, "sink", None, Point(50, 50))], 6)
        assert cells_overlap(a, b)
        assert not cells_overlap(a, c)
        assert check_correction_cell_overlaps([a, b, c]) == [(a.name, b.name)]
