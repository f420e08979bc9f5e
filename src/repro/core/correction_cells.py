"""Correction-cell and naive-lifting-cell placement (paper Sec. 4, Fig. 3).

Correction cells are 2-input/2-output cells (inputs ``C``/``D``, outputs
``Y``/``Z``) whose pins sit in a high metal layer (M6 or M8).  They occupy no
FEOL resources, so they may overlap standard cells freely — but two
correction cells must not overlap *each other*, which the paper enforces with
custom legalization scripts.  This module reproduces that behaviour:

* :func:`place_correction_cells` builds one cell for the driver side and one
  for the sink side of every swapped connection (re-routing is always
  *between pairs of correction cells*), each once, at its legal position: a
  free slot of a coarse grid in the lift layer, as close as possible to its
  anchor gate.  Each cell spirals outwards from its home slot in rings of
  growing Chebyshev radius; since occupancy only grows, a home slot's search
  resumes at the ring and step where the previous search from that slot
  stopped, so the co-anchored cells of a net never re-scan the slots their
  predecessors found taken.

Naive-lifting cells follow the same placement/legalization path but carry a
single C→Y arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Point
from repro.netlist.cells import SITE_WIDTH_UM, ROW_HEIGHT_UM


def correction_cell_name(lift_layer: int, naive: bool = False) -> str:
    """Library cell name for a correction (or naive-lifting) cell at ``lift_layer``."""
    if lift_layer not in (6, 8):
        raise ValueError("correction cells are characterised for M6 and M8 only")
    return f"{'LIFT' if naive else 'CORRECTION'}_M{lift_layer}"


@dataclass(frozen=True)
class CorrectionCellInstance:
    """One placed correction (or naive-lifting) cell.

    Attributes:
        name: Instance name.
        cell: Library cell name (``CORRECTION_M6`` ...).
        position: Legalized position (µm).
        anchor_gate: The standard cell (driver or sink) this cell serves.
        role: ``"driver"`` or ``"sink"`` side of the restored connection.
        connection_id: Index of the swapped connection this cell belongs to;
            the two cells of a pair share it.
        lift_layer: Metal layer of the cell's pins.
    """

    name: str
    cell: str
    position: Point
    anchor_gate: Optional[str]
    role: str
    connection_id: int
    lift_layer: int

    #: Footprint (µm): the legalization grid's pitch.
    width_um: float = 4 * SITE_WIDTH_UM
    height_um: float = ROW_HEIGHT_UM


def place_correction_cells(
    anchors: Iterable[Tuple[int, str, Optional[str], Point]],
    lift_layer: int,
    floorplan: Floorplan,
    naive: bool = False,
) -> List[CorrectionCellInstance]:
    """Create one legalized correction cell per anchor.

    Cells are snapped to a coarse grid whose pitch equals the cell footprint;
    when a grid slot is already taken the cell spirals outwards to the nearest
    free slot.  Standard cells are ignored entirely — correction cells are
    allowed to overlap them because their pins live in the BEOL.

    Args:
        anchors: Iterable of ``(connection_id, role, anchor_gate, position)``
            tuples — one per driver side and one per sink side of every
            swapped (or lifted) connection, in placement order.
        lift_layer: Pin layer of the cells (6 or 8).
        floorplan: The die whose grid the cells are legalized on.
        naive: Use naive-lifting cells instead of correction cells.

    Returns:
        Non-overlapping cell instances, in anchor order.  A cell finds no slot
        only when the grid is full; it keeps its anchor position.
    """
    cell = correction_cell_name(lift_layer, naive)
    prefix = "lc" if naive else "cc"
    anchors = list(anchors)
    positions = _legal_positions([position for _id, _role, _gate, position in anchors],
                                 floorplan, CorrectionCellInstance.width_um,
                                 CorrectionCellInstance.height_um)
    return [
        CorrectionCellInstance(
            name=f"{prefix}_{connection_id}_{role}_{index}",
            cell=cell,
            position=position,
            anchor_gate=anchor_gate,
            role=role,
            connection_id=connection_id,
            lift_layer=lift_layer,
        )
        for index, ((connection_id, role, anchor_gate, _anchor), position)
        in enumerate(zip(anchors, positions))
    ]


def _legal_positions(points: List[Point], floorplan: Floorplan, pitch_x: float,
                     pitch_y: float) -> List[Point]:
    """Legal positions of cells anchored at ``points``, in order.

    Occupancy only grows, so a slot a spiral found taken or off the grid
    stays unusable: each home slot keeps the ring and step where its last
    search stopped, and the next cell with that home resumes there instead
    of re-scanning the slots before it.  Occupancy is a ``bytearray`` grid.
    A point left over when the grid is full keeps its position.
    """
    die = floorplan.die
    x_min, y_min = die.x_min, die.y_min
    columns = max(1, int(die.width / pitch_x))
    rows = max(1, int(die.height / pitch_y))
    taken = bytearray(columns * rows)
    resume: Dict[int, Tuple[int, int]] = {}
    legal: List[Point] = []
    free = columns * rows
    for point in points:
        if not free:
            # Grid full (pathological); keep the original position.
            legal.append(point)
            continue
        home_col = min(max(int((point.x - x_min) / pitch_x), 0), columns - 1)
        home_row = min(max(int((point.y - y_min) / pitch_y), 0), rows - 1)
        home = home_col * rows + home_row
        radius, step = resume.get(home, (0, 0))
        # A free slot exists, and every slot lies within ring
        # ``max(columns, rows) - 1`` of every home, so the spiral ends.
        slot = -1
        while slot < 0:
            # Ring ``radius`` has ``8 * radius`` slots (ring 0 is the home
            # slot): the bottom and top rows column by column (bottom first
            # in each column), then the left and right columns row by row
            # (left first in each row).
            size = 8 * radius or 1
            rows_part = 4 * radius + 2
            while step < size:
                if step < rows_part:
                    col = home_col + (step >> 1) - radius
                    row = home_row + (radius if step & 1 else -radius)
                else:
                    side = step - rows_part
                    col = home_col + (radius if side & 1 else -radius)
                    row = home_row + (side >> 1) - radius + 1
                step += 1
                if 0 <= col < columns and 0 <= row < rows and not taken[col * rows + row]:
                    slot = col * rows + row
                    break
            else:
                radius, step = radius + 1, 0
        resume[home] = (radius, step)
        taken[slot] = 1
        free -= 1
        legal.append(Point(x_min + col * pitch_x, y_min + row * pitch_y))
    return legal

