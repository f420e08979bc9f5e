"""Floorplanning: derive a die outline, rows and sites from the netlist.

The paper keeps the die outline fixed between the original and protected
layouts ("we ensure zero die-area overhead"), choosing utilization rates that
leave the designs congestion-free (69–77 % for superblue, looser for
ISCAS-85).  :func:`build_floorplan` reproduces that: the die is sized from the
total standard-cell area and a utilization target, rounded to whole rows and
sites, and the same :class:`Floorplan` object can be reused for the original,
naively lifted and protected layouts of a benchmark so area comparisons are
apples to apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.layout.geometry import Point, Rect
from repro.netlist.cells import ROW_HEIGHT_UM, SITE_WIDTH_UM
from repro.netlist.netlist import Netlist

#: Default core utilization used when a benchmark does not specify one.
DEFAULT_UTILIZATION = 0.70


@dataclass(frozen=True)
class Floorplan:
    """Die outline and row/site grid.

    Attributes:
        die: Core area rectangle (µm).
        num_rows: Number of standard-cell rows.
        sites_per_row: Number of placement sites per row.
        row_height_um / site_width_um: Grid pitch.
        utilization: Target utilization the outline was sized for.
    """

    die: Rect
    num_rows: int
    sites_per_row: int
    row_height_um: float
    site_width_um: float
    utilization: float

    @property
    def width_um(self) -> float:
        return self.die.width

    @property
    def height_um(self) -> float:
        return self.die.height

    @property
    def area_um2(self) -> float:
        return self.die.area

    @property
    def half_perimeter_um(self) -> float:
        return self.die.width + self.die.height

    def row_y(self, row_index: int) -> float:
        """Return the y coordinate of row ``row_index`` (bottom edge)."""
        if not (0 <= row_index < self.num_rows):
            raise IndexError(f"row index {row_index} out of range")
        return self.die.y_min + row_index * self.row_height_um

    def nearest_row(self, y: float) -> int:
        """Return the index of the row whose band contains/nearest ``y``."""
        index = int(round((y - self.die.y_min) / self.row_height_um))
        return min(max(index, 0), self.num_rows - 1)

    def nearest_rows(self, ys: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`nearest_row` (``np.rint`` is round-half-even,
        like the scalar ``round``); the single source of row-snap truth for
        array consumers."""
        rows = np.rint(
            (np.asarray(ys, dtype=np.float64) - self.die.y_min) / self.row_height_um
        ).astype(np.int64)
        return np.clip(rows, 0, self.num_rows - 1)

    def row_ys(self, rows: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`row_y` (bottom edge of each row index)."""
        return self.die.y_min + np.asarray(rows) * self.row_height_um

    def boundary_positions(self, count: int) -> List[Point]:
        """Return ``count`` positions evenly distributed along the die boundary.

        Used to pseudo-place I/O pins (the superblue designs have thousands of
        I/O pins around the periphery).
        """
        if count <= 0:
            return []
        perimeter = 2.0 * (self.die.width + self.die.height)
        step = perimeter / count
        positions: List[Point] = []
        for i in range(count):
            d = i * step
            if d < self.die.width:
                positions.append(Point(self.die.x_min + d, self.die.y_min))
            elif d < self.die.width + self.die.height:
                positions.append(Point(self.die.x_max, self.die.y_min + (d - self.die.width)))
            elif d < 2 * self.die.width + self.die.height:
                positions.append(
                    Point(self.die.x_max - (d - self.die.width - self.die.height), self.die.y_max)
                )
            else:
                positions.append(
                    Point(self.die.x_min,
                          self.die.y_max - (d - 2 * self.die.width - self.die.height))
                )
        return positions


def build_floorplan(netlist: Netlist, utilization: float = DEFAULT_UTILIZATION,
                    aspect_ratio: float = 1.0) -> Floorplan:
    """Size a floorplan for ``netlist``.

    Args:
        netlist: Design to floorplan (only its total cell area matters).
        utilization: Target core utilization in (0, 1].
        aspect_ratio: Height/width ratio of the die.

    Returns:
        A :class:`Floorplan` whose row/site grid can hold the design at the
        requested utilization.
    """
    if not (0.0 < utilization <= 1.0):
        raise ValueError("utilization must be in (0, 1]")
    if aspect_ratio <= 0:
        raise ValueError("aspect_ratio must be positive")
    cell_area = max(netlist.cell_area_um2(), SITE_WIDTH_UM * ROW_HEIGHT_UM)
    core_area = cell_area / utilization
    width = math.sqrt(core_area / aspect_ratio)
    height = core_area / width
    num_rows = max(1, int(math.ceil(height / ROW_HEIGHT_UM)))
    sites_per_row = max(1, int(math.ceil(width / SITE_WIDTH_UM)))
    die = Rect(0.0, 0.0, sites_per_row * SITE_WIDTH_UM, num_rows * ROW_HEIGHT_UM)
    return Floorplan(
        die=die,
        num_rows=num_rows,
        sites_per_row=sites_per_row,
        row_height_um=ROW_HEIGHT_UM,
        site_width_um=SITE_WIDTH_UM,
        utilization=utilization,
    )
