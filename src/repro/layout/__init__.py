"""Physical-design substrate: floorplan, placement, routing, layout container.

This package stands in for the Cadence Innovus flow of the paper.  It is a
simplified but complete physical-design pipeline:

* :mod:`repro.layout.geometry` — points, rectangles, Manhattan distance;
* :mod:`repro.layout.arrays` — the columnar geometry core: cached NumPy
  views of placements/layouts plus a uniform-grid spatial index, behind the
  ``geometry_version`` invalidation contract;
* :mod:`repro.layout.floorplan` — die outline, rows and sites derived from
  cell area and a target utilization;
* :mod:`repro.layout.placer` — quadratic/force-directed global placement with
  rank-based spreading followed by row legalization;
* :mod:`repro.layout.router` — star-decomposed global routing with L/Z
  shapes, length-driven layer assignment over a 10-metal stack, via stacks
  and bend vias;
* :mod:`repro.layout.layout` — the :class:`Layout` container tying netlist,
  placement and routing together with wirelength/via accounting;
* :mod:`repro.layout.def_io` — a simplified DEF-like exporter plus the
  FEOL/BEOL splitting helper (the paper releases a DEF splitting script).
"""

from repro.layout.geometry import Point, Rect, manhattan
from repro.layout.arrays import (
    LayoutArrays,
    PlacementArrays,
    RoutingArrays,
    UniformGridIndex,
    placement_arrays,
    routing_backing,
    routing_columns,
)
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.placer import PlacementResult, place, place_batch
from repro.layout.router import (
    RoutedConnection,
    RoutedNet,
    RouterConfig,
    Segment,
    Via,
    route,
    route_batch,
)
from repro.layout.layout import Layout, build_layout
from repro.layout.def_io import export_def, split_def

__all__ = [
    "Point",
    "Rect",
    "manhattan",
    "LayoutArrays",
    "PlacementArrays",
    "RoutingArrays",
    "UniformGridIndex",
    "placement_arrays",
    "routing_backing",
    "routing_columns",
    "Floorplan",
    "build_floorplan",
    "PlacementResult",
    "place",
    "place_batch",
    "RoutedConnection",
    "RoutedNet",
    "RouterConfig",
    "Segment",
    "Via",
    "route",
    "route_batch",
    "Layout",
    "build_layout",
    "export_def",
    "split_def",
]
