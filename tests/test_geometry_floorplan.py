"""Tests for geometry primitives and floorplanning."""

import pytest

from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point, Rect, manhattan
from repro.netlist.cells import ROW_HEIGHT_UM, SITE_WIDTH_UM


class TestGeometry:
    def test_manhattan(self):
        assert manhattan(Point(0, 0), Point(3, 4)) == 7

    def test_point_translate(self):
        assert Point(1, 2).translated(2, -1) == Point(3, 1)
        assert Point(1, 2).as_tuple() == (1, 2)

    def test_rect_properties(self):
        rect = Rect(0, 0, 4, 2)
        assert rect.width == 4
        assert rect.height == 2
        assert rect.area == 8
        assert rect.center == Point(2, 1)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(3, 0, 1, 1)

    def test_rect_contains_and_clamp(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains(Point(5, 5))
        assert not rect.contains(Point(11, 5))
        assert rect.clamp(Point(15, -3)) == Point(10, 0)

    def test_rect_overlaps(self):
        a = Rect(0, 0, 2, 2)
        assert a.overlaps(Rect(1, 1, 3, 3))
        assert not a.overlaps(Rect(2, 0, 4, 2))  # touching is not overlapping


class TestFloorplan:
    def test_area_respects_utilization(self, c432):
        fp = build_floorplan(c432, utilization=0.7)
        assert fp.area_um2 >= c432.cell_area_um2() / 0.7 * 0.95

    def test_higher_utilization_means_smaller_die(self, c432):
        loose = build_floorplan(c432, utilization=0.5)
        tight = build_floorplan(c432, utilization=0.9)
        assert tight.area_um2 < loose.area_um2

    def test_row_and_site_grid(self, c432):
        fp = build_floorplan(c432, utilization=0.7)
        assert fp.row_height_um == ROW_HEIGHT_UM
        assert fp.site_width_um == SITE_WIDTH_UM
        assert fp.num_rows * fp.row_height_um == pytest.approx(fp.height_um)
        assert fp.sites_per_row * fp.site_width_um == pytest.approx(fp.width_um)

    def test_row_lookup(self, c432):
        fp = build_floorplan(c432)
        assert fp.row_y(0) == fp.die.y_min
        assert fp.nearest_row(fp.die.y_min - 5.0) == 0
        assert fp.nearest_row(fp.die.y_max + 5.0) == fp.num_rows - 1
        with pytest.raises(IndexError):
            fp.row_y(fp.num_rows)

    def test_boundary_positions_on_boundary(self, c432):
        fp = build_floorplan(c432)
        positions = fp.boundary_positions(40)
        assert len(positions) == 40
        for p in positions:
            on_x_edge = abs(p.x - fp.die.x_min) < 1e-9 or abs(p.x - fp.die.x_max) < 1e-9
            on_y_edge = abs(p.y - fp.die.y_min) < 1e-9 or abs(p.y - fp.die.y_max) < 1e-9
            assert on_x_edge or on_y_edge

    def test_boundary_positions_empty(self, c432):
        assert build_floorplan(c432).boundary_positions(0) == []

    def test_invalid_parameters_rejected(self, c432):
        with pytest.raises(ValueError):
            build_floorplan(c432, utilization=0.0)
        with pytest.raises(ValueError):
            build_floorplan(c432, aspect_ratio=-1.0)

    def test_aspect_ratio(self, c432):
        tall = build_floorplan(c432, aspect_ratio=2.0)
        assert tall.height_um > tall.width_um
