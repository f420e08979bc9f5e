"""Columnar geometry core: array-backed views of placements and layouts.

Every geometry-heavy consumer in the repository — the proximity attacks, the
Table 1 / Fig. 4 distance metrics, HPWL and wirelength accounting, the
placer's legality check and the perturbation defenses — historically walked
per-object :class:`~repro.layout.geometry.Point` structures pair by pair in
Python.  This module provides the columnar alternative:

* :class:`PlacementArrays` — NumPy coordinate/width/row arrays for every
  placed gate and I/O port, plus the netlist's driver→sink connection pairs
  and per-net terminal lists in CSR form, all in the same deterministic
  iteration order the legacy per-object loops used (so vectorized consumers
  are bit-exact drop-ins);
* :class:`LayoutArrays` — :class:`PlacementArrays` plus routed-segment and
  via columns (layer, length, owning-net index);
* :class:`UniformGridIndex` — a uniform-grid spatial index over 2-D points
  for batched Manhattan nearest-neighbor and range queries, with
  first-occurrence (lowest index) tie-breaking that matches a naive
  ``for``-loop scan with a strict ``<`` comparison.

Caching and the ``geometry_version`` contract
--------------------------------------------

Building the arrays is linear in the design size, so the views are cached:

* :func:`placement_arrays` caches on the :class:`PlacementResult`, keyed by
  ``(netlist.name, netlist.topology_version, placement.geometry_version)``;
* :meth:`Layout.arrays <repro.layout.layout.Layout.arrays>` caches on the
  :class:`~repro.layout.layout.Layout`, additionally keyed by the layout's
  own ``geometry_version``.

``geometry_version`` mirrors PR 1's ``topology_version`` contract on the
netlist side: **any code that moves gates, re-routes nets, or otherwise
mutates geometry in place must call ``bump_geometry_version()`` on the
object it mutated** so stale array views are never consumed.  The
perturbation defenses and every in-repo mutation site already comply; new
defenses must follow suit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.layout.geometry import Point
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.layout.placer import PlacementResult
    from repro.layout.router import RoutedConnection, RoutedNet, Via


#: Attribute name under which cached array views are stored on their owning
#: objects.  Excluded from pickles (see ``__getstate__`` on the owners).
GEOMETRY_CACHE_ATTR = "_geometry_cache"


# ---------------------------------------------------------------------------
# Uniform-grid spatial index
# ---------------------------------------------------------------------------


class UniformGridIndex:
    """Uniform-grid spatial index over 2-D points (Manhattan metric).

    The grid buckets points into roughly ``sqrt(n) x sqrt(n)`` cells; nearest
    queries expand Chebyshev rings of cells around the query cell and stop as
    soon as the next ring's distance lower bound strictly exceeds the best
    distance found, so equal-distance candidates in farther rings are still
    visited.  Ties are broken by the **lowest point index**, which makes the
    result identical to a naive first-occurrence scan
    (``if distance < best: best = ...``) over the points in input order.

    For small problems (``n * m`` distance evaluations below
    :data:`BRUTE_FORCE_LIMIT`) nearest queries fall back to a chunked
    vectorized brute-force pass, which has the same tie-breaking semantics
    (``np.argmin`` returns the first minimum).
    """

    #: Below this many pairwise distance evaluations a batched brute-force
    #: pass beats the per-query ring walk.
    BRUTE_FORCE_LIMIT = 1_000_000

    def __init__(self, xy: np.ndarray, cell_size: Optional[float] = None):
        xy = np.ascontiguousarray(np.asarray(xy, dtype=np.float64))
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must have shape (n, 2)")
        self.xy = xy
        self.num_points = len(xy)
        if self.num_points == 0:
            self.x_min = self.y_min = 0.0
            self.cell_x = self.cell_y = 1.0
            self.nx = self.ny = 1
            self._order = np.empty(0, dtype=np.intp)
            self._starts = np.zeros(2, dtype=np.intp)
            return
        self.x_min = float(xy[:, 0].min())
        self.y_min = float(xy[:, 1].min())
        span_x = max(float(xy[:, 0].max()) - self.x_min, 1e-9)
        span_y = max(float(xy[:, 1].max()) - self.y_min, 1e-9)
        if cell_size is None:
            # Target roughly one point per cell.
            cell_size = max(math.sqrt(span_x * span_y / self.num_points), 1e-9)
        # Cap cells per axis so degenerate (near-collinear) point sets cannot
        # blow the grid up to O(span_x/span_y * n) cells: the product stays
        # O(n) and the ring-walk bounds use the actual cell pitches below.
        max_cells_per_axis = max(1, int(math.ceil(4.0 * math.sqrt(self.num_points))))
        self.nx = min(max(1, int(math.ceil(span_x / cell_size))), max_cells_per_axis)
        self.ny = min(max(1, int(math.ceil(span_y / cell_size))), max_cells_per_axis)
        self.cell_x = span_x / self.nx
        self.cell_y = span_y / self.ny
        ix = self._axis_cells(xy[:, 0], self.x_min, self.cell_x, self.nx)
        iy = self._axis_cells(xy[:, 1], self.y_min, self.cell_y, self.ny)
        cell_id = iy * self.nx + ix
        # Stable sort: within a cell, points stay in ascending input order.
        self._order = np.argsort(cell_id, kind="stable").astype(np.intp)
        counts = np.bincount(cell_id, minlength=self.nx * self.ny)
        self._starts = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.intp)

    @staticmethod
    def _axis_cells(values: np.ndarray, origin: float, pitch: float,
                    count: int) -> np.ndarray:
        cells = np.floor((values - origin) / pitch).astype(np.int64)
        return np.clip(cells, 0, count - 1)

    def _row_span(self, iy: int, x0: int, x1: int) -> np.ndarray:
        """Point indices of cells ``(x0..x1, iy)`` — contiguous in the order array."""
        base = iy * self.nx
        return self._order[self._starts[base + x0]: self._starts[base + x1 + 1]]

    # -- nearest ------------------------------------------------------------
    def nearest(self, query_xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched Manhattan nearest neighbor for every query point.

        Returns ``(indices, distances)``; ties resolve to the lowest point
        index (first occurrence in the input order).
        """
        if self.num_points == 0:
            raise ValueError("nearest query on an empty index")
        query = np.ascontiguousarray(np.asarray(query_xy, dtype=np.float64))
        if query.ndim != 2 or query.shape[1] != 2:
            raise ValueError("query_xy must have shape (m, 2)")
        m = len(query)
        if m == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        if m * self.num_points <= self.BRUTE_FORCE_LIMIT:
            return self._nearest_brute(query)
        indices = np.empty(m, dtype=np.intp)
        distances = np.empty(m, dtype=np.float64)
        qix = self._axis_cells(query[:, 0], self.x_min, self.cell_x, self.nx)
        qiy = self._axis_cells(query[:, 1], self.y_min, self.cell_y, self.ny)
        xs = self.xy[:, 0]
        ys = self.xy[:, 1]
        min_pitch = min(self.cell_x, self.cell_y)
        max_ring = max(self.nx, self.ny)
        for i in range(m):
            qx = query[i, 0]
            qy = query[i, 1]
            cx = int(qix[i])
            cy = int(qiy[i])
            best_idx = -1
            best_dist = math.inf
            ring = 0
            while True:
                candidates = self._ring_candidates(cx, cy, ring)
                if candidates.size:
                    # Ascending original index so argmin == lowest-index tie.
                    candidates = np.sort(candidates)
                    dist = (
                        np.abs(qx - xs[candidates]) + np.abs(qy - ys[candidates])
                    )
                    j = int(np.argmin(dist))
                    d = float(dist[j])
                    c = int(candidates[j])
                    if d < best_dist or (d == best_dist and c < best_idx):
                        best_dist = d
                        best_idx = c
                ring += 1
                if ring > max_ring:
                    break
                # Points in ring ``r`` are at Manhattan distance of at least
                # ``(r - 1) * min_pitch``; only stop once that lower bound
                # *strictly* exceeds the best distance, so ties in farther
                # rings (which could carry a lower index) are still seen.
                if best_idx >= 0 and (ring - 1) * min_pitch > best_dist:
                    break
            indices[i] = best_idx
            distances[i] = best_dist
        return indices, distances

    def _ring_candidates(self, cx: int, cy: int, ring: int) -> np.ndarray:
        """Point indices of the cells at Chebyshev cell-distance ``ring``."""
        if ring == 0:
            return self._row_span(cy, cx, cx)
        spans: List[np.ndarray] = []
        x0 = max(cx - ring, 0)
        x1 = min(cx + ring, self.nx - 1)
        top = cy - ring
        bottom = cy + ring
        if top >= 0:
            spans.append(self._row_span(top, x0, x1))
        if bottom <= self.ny - 1 and bottom != top:
            spans.append(self._row_span(bottom, x0, x1))
        y0 = max(top + 1, 0)
        y1 = min(bottom - 1, self.ny - 1)
        left = cx - ring
        right = cx + ring
        for iy in range(y0, y1 + 1):
            if left >= 0:
                spans.append(self._row_span(iy, left, left))
            if right <= self.nx - 1 and right != left:
                spans.append(self._row_span(iy, right, right))
        if not spans:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(spans)

    def _nearest_brute(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Chunked vectorized brute force (same tie-breaking as the grid walk)."""
        m = len(query)
        indices = np.empty(m, dtype=np.intp)
        distances = np.empty(m, dtype=np.float64)
        chunk = max(1, self.BRUTE_FORCE_LIMIT // max(self.num_points, 1))
        xs = self.xy[:, 0][None, :]
        ys = self.xy[:, 1][None, :]
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            block = query[start:stop]
            dist = (
                np.abs(block[:, 0][:, None] - xs)
                + np.abs(block[:, 1][:, None] - ys)
            )
            idx = np.argmin(dist, axis=1)
            indices[start:stop] = idx
            distances[start:stop] = dist[np.arange(len(block)), idx]
        return indices, distances

    # -- range --------------------------------------------------------------
    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of all points within Manhattan distance ``radius`` of (x, y).

        Returned in ascending index order.
        """
        if self.num_points == 0 or radius < 0:
            return np.empty(0, dtype=np.intp)
        x0 = int(np.clip(math.floor((x - radius - self.x_min) / self.cell_x), 0, self.nx - 1))
        x1 = int(np.clip(math.floor((x + radius - self.x_min) / self.cell_x), 0, self.nx - 1))
        y0 = int(np.clip(math.floor((y - radius - self.y_min) / self.cell_y), 0, self.ny - 1))
        y1 = int(np.clip(math.floor((y + radius - self.y_min) / self.cell_y), 0, self.ny - 1))
        spans = [self._row_span(iy, x0, x1) for iy in range(y0, y1 + 1)]
        candidates = np.concatenate(spans) if spans else np.empty(0, dtype=np.intp)
        if not candidates.size:
            return candidates
        dist = (
            np.abs(x - self.xy[candidates, 0]) + np.abs(y - self.xy[candidates, 1])
        )
        return np.sort(candidates[dist <= radius])


# ---------------------------------------------------------------------------
# Placement arrays
# ---------------------------------------------------------------------------


@dataclass
class PlacementSkeleton:
    """The geometry-independent half of a placement view.

    Names, index maps, connection pairs, HPWL terminal indices and cell
    widths depend only on the netlist topology and the *set/order* of placed
    objects — not on their coordinates — so they survive pure geometry edits
    (gate moves) and are cached separately from the coordinate columns.
    """

    gate_names: List[str]
    gate_index: Dict[str, int]
    gate_widths: np.ndarray    # (num_gates,) float64 (0.0 for unknown gates)
    #: Placed gate names absent from the netlist (consumers that need strict
    #: name resolution, e.g. the legality check, raise on these).
    missing_gates: List[str]
    port_names: List[str]
    port_index: Dict[str, int]
    net_names: List[str]
    net_index_by_name: Dict[str, int]
    #: Driver→sink gate connection pairs (indices into the gate arrays).
    pair_driver: np.ndarray    # (num_pairs,) intp
    pair_sink: np.ndarray      # (num_pairs,) intp
    pair_net: np.ndarray       # (num_pairs,) intp — index into net_names
    #: Per-net terminal indices into the combined gate+port coordinate table
    #: (driver / PI port, sink gates, PO ports) in CSR form.
    term_indices: np.ndarray   # (num_terms,) intp
    term_offsets: np.ndarray   # (num_nets + 1,) intp

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult") -> "PlacementSkeleton":
        gate_names = list(placement.gate_positions)
        gate_index = {name: i for i, name in enumerate(gate_names)}
        gates = netlist.gates
        gate_widths = np.asarray(
            [gates[name].cell.width_um if name in gates else 0.0
             for name in gate_names],
            dtype=np.float64,
        )
        missing_gates = [name for name in gate_names if name not in gates]
        port_names = list(placement.port_positions)
        port_index = {name: i for i, name in enumerate(port_names)}

        num_gates = len(gate_names)
        net_names: List[str] = []
        pair_driver: List[int] = []
        pair_sink: List[int] = []
        pair_net: List[int] = []
        term_idx: List[int] = []
        term_offsets: List[int] = [0]
        for net_idx, (net_name, net) in enumerate(netlist.nets.items()):
            net_names.append(net_name)
            # -- connection pairs (gate driver → gate sinks), legacy order --
            driver_idx = (
                gate_index.get(net.driver[0]) if net.driver is not None else None
            )
            if driver_idx is not None:
                for sink_gate, _pin in net.sinks:
                    sink_idx = gate_index.get(sink_gate)
                    if sink_idx is not None:
                        pair_driver.append(driver_idx)
                        pair_sink.append(sink_idx)
                        pair_net.append(net_idx)
            # -- HPWL terminals, legacy order -------------------------------
            if driver_idx is not None:
                term_idx.append(driver_idx)
            elif net.is_primary_input:
                pi = port_index.get(net.name)
                if pi is not None:
                    term_idx.append(num_gates + pi)
            for sink_gate, _pin in net.sinks:
                sink_idx = gate_index.get(sink_gate)
                if sink_idx is not None:
                    term_idx.append(sink_idx)
            for po in net.primary_outputs:
                pi = port_index.get(po)
                if pi is not None:
                    term_idx.append(num_gates + pi)
            term_offsets.append(len(term_idx))

        return PlacementSkeleton(
            gate_names=gate_names,
            gate_index=gate_index,
            gate_widths=gate_widths,
            missing_gates=missing_gates,
            port_names=port_names,
            port_index=port_index,
            net_names=net_names,
            net_index_by_name={name: i for i, name in enumerate(net_names)},
            pair_driver=np.asarray(pair_driver, dtype=np.intp),
            pair_sink=np.asarray(pair_sink, dtype=np.intp),
            pair_net=np.asarray(pair_net, dtype=np.intp),
            term_indices=np.asarray(term_idx, dtype=np.intp),
            term_offsets=np.asarray(term_offsets, dtype=np.intp),
        )


def _placement_skeleton(netlist: Netlist,
                        placement: "PlacementResult") -> PlacementSkeleton:
    """Cached :class:`PlacementSkeleton` (survives geometry-only edits)."""
    key = (
        netlist.name,
        netlist.topology_version,
        len(placement.gate_positions),
        len(placement.port_positions),
    )
    cached = placement.__dict__.get("_skeleton_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    skeleton = PlacementSkeleton.build(netlist, placement)
    placement.__dict__["_skeleton_cache"] = (key, skeleton)
    return skeleton


@dataclass
class PlacementArrays:
    """Array-backed view of a placement against one netlist.

    All orderings are deterministic and mirror the legacy per-object loops:
    gates follow ``placement.gate_positions`` insertion order, ports follow
    ``placement.port_positions``, connection pairs follow
    ``netlist.nets`` iteration order (driver first, then ``net.sinks`` order)
    — so vectorized consumers reproduce the historical results bit-exactly.

    The view is split into the geometry-independent :class:`PlacementSkeleton`
    (shared across pure gate moves) and the coordinate columns rebuilt per
    ``geometry_version``.
    """

    skeleton: PlacementSkeleton
    gate_xy: np.ndarray        # (num_gates, 2) float64
    port_xy: np.ndarray        # (num_ports, 2) float64
    #: Per-net terminal coordinates (CSR with ``term_offsets``).
    term_x: np.ndarray         # (num_terms,) float64
    term_y: np.ndarray         # (num_terms,) float64
    _gate_grid: Optional[UniformGridIndex] = field(default=None, repr=False)
    _pair_distances: Optional[np.ndarray] = field(default=None, repr=False)

    # -- skeleton delegation (public API kept flat) -------------------------
    @property
    def gate_names(self) -> List[str]:
        return self.skeleton.gate_names

    @property
    def gate_index(self) -> Dict[str, int]:
        return self.skeleton.gate_index

    @property
    def gate_widths(self) -> np.ndarray:
        return self.skeleton.gate_widths

    @property
    def port_names(self) -> List[str]:
        return self.skeleton.port_names

    @property
    def net_names(self) -> List[str]:
        return self.skeleton.net_names

    @property
    def net_index_by_name(self) -> Dict[str, int]:
        return self.skeleton.net_index_by_name

    @property
    def pair_driver(self) -> np.ndarray:
        return self.skeleton.pair_driver

    @property
    def pair_sink(self) -> np.ndarray:
        return self.skeleton.pair_sink

    @property
    def pair_net(self) -> np.ndarray:
        return self.skeleton.pair_net

    @property
    def term_offsets(self) -> np.ndarray:
        return self.skeleton.term_offsets

    @property
    def num_gates(self) -> int:
        return len(self.skeleton.gate_names)

    def gate_grid(self) -> UniformGridIndex:
        """Lazily built spatial index over the gate positions."""
        if self._gate_grid is None:
            self._gate_grid = UniformGridIndex(self.gate_xy)
        return self._gate_grid

    def pair_distances(self) -> np.ndarray:
        """Manhattan distance of every driver→sink connection pair (cached).

        Elementwise ``|dx| + |dy|`` — the same IEEE operations, in the same
        per-pair order, as the legacy ``manhattan(driver, sink)`` loop.
        """
        if self._pair_distances is None:
            gx = self.gate_xy[:, 0]
            gy = self.gate_xy[:, 1]
            self._pair_distances = (
                np.abs(gx[self.pair_driver] - gx[self.pair_sink])
                + np.abs(gy[self.pair_driver] - gy[self.pair_sink])
            )
        return self._pair_distances

    def pair_mask_for_nets(self, nets: Set[str]) -> np.ndarray:
        """Boolean mask selecting the connection pairs of ``nets``."""
        selected = np.asarray(
            sorted(self.net_index_by_name[name] for name in nets
                   if name in self.net_index_by_name),
            dtype=np.intp,
        )
        return np.isin(self.pair_net, selected)

    def net_hpwl(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-net HPWL over all nets with at least one placed terminal.

        Returns ``(net_indices, hpwl)`` where nets with fewer than two
        terminals are excluded (their HPWL is zero by the legacy convention).
        """
        counts = np.diff(self.term_offsets)
        nonzero = counts > 0
        if not nonzero.any():
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        starts = self.term_offsets[:-1][nonzero]
        max_x = np.maximum.reduceat(self.term_x, starts)
        min_x = np.minimum.reduceat(self.term_x, starts)
        max_y = np.maximum.reduceat(self.term_y, starts)
        min_y = np.minimum.reduceat(self.term_y, starts)
        hpwl = (max_x - min_x) + (max_y - min_y)
        valid = counts[nonzero] >= 2
        return np.nonzero(nonzero)[0][valid].astype(np.intp), hpwl[valid]

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult") -> "PlacementArrays":
        skeleton = _placement_skeleton(netlist, placement)
        # Coordinates are gathered in the skeleton's (insertion) gate order —
        # by name, so a reordered-but-equal positions dict still lines up.
        positions = placement.gate_positions
        if skeleton.gate_names:
            gate_xy = np.asarray(
                [(positions[name].x, positions[name].y)
                 for name in skeleton.gate_names],
                dtype=np.float64,
            )
        else:
            gate_xy = np.empty((0, 2), dtype=np.float64)
        ports = placement.port_positions
        if skeleton.port_names:
            port_xy = np.asarray(
                [(ports[name].x, ports[name].y) for name in skeleton.port_names],
                dtype=np.float64,
            )
        else:
            port_xy = np.empty((0, 2), dtype=np.float64)
        if skeleton.term_indices.size:
            combined_xy = np.concatenate([gate_xy, port_xy])
            term_x = combined_xy[skeleton.term_indices, 0]
            term_y = combined_xy[skeleton.term_indices, 1]
        else:
            term_x = np.empty(0, dtype=np.float64)
            term_y = np.empty(0, dtype=np.float64)
        return PlacementArrays(
            skeleton=skeleton,
            gate_xy=gate_xy,
            port_xy=port_xy,
            term_x=term_x,
            term_y=term_y,
        )


def placement_arrays(netlist: Netlist, placement: "PlacementResult") -> PlacementArrays:
    """Return the (cached) :class:`PlacementArrays` view of ``placement``.

    The cache lives on the placement object and is keyed by the netlist
    identity and both mutation counters; bumping
    ``placement.geometry_version`` (or structurally editing the netlist)
    invalidates it.
    """
    key = (netlist.name, netlist.topology_version, placement.geometry_version)
    cached = placement.__dict__.get(GEOMETRY_CACHE_ATTR)
    if cached is not None and cached[0] == key:
        return cached[1]
    arrays = PlacementArrays.build(netlist, placement)
    placement.__dict__[GEOMETRY_CACHE_ATTR] = (key, arrays)
    return arrays


# ---------------------------------------------------------------------------
# Routing arrays (columnar routing + lazy object materialization)
# ---------------------------------------------------------------------------


def _fast_point(x: float, y: float) -> Point:
    """Build a :class:`Point` through ``__dict__`` (same fast path as the
    router's bulk constructors; Point is frozen, so the generated ``__init__``
    funnels every field through ``object.__setattr__``)."""
    point = Point.__new__(Point)
    d = point.__dict__
    d["x"] = x
    d["y"] = y
    return point


def _group_sum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-group **left-fold** float sums over CSR ``bounds``.

    Bit-exact with ``sum(values[start:stop])`` in Python for every group:
    ``np.add.reduceat`` (and ``np.sum``) use unrolled/pairwise accumulation
    that reorders the additions from four elements up, so instead the fold
    runs one vectorized ``+=`` per element *rank* — every group accumulates
    its elements strictly left to right, starting from 0.0, exactly like the
    per-object ``sum()`` loops this replaces.  Groups are processed sorted by
    size so each rank's pass touches only the still-active groups; the total
    work is ``O(len(values))`` element additions.
    """
    counts = np.diff(bounds)
    n = len(counts)
    acc = np.zeros(n, dtype=np.float64)
    if n == 0 or values.size == 0:
        return acc
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    sorted_starts = bounds[:-1][order]
    for rank in range(int(sorted_counts[-1])):
        lo = int(np.searchsorted(sorted_counts, rank, side="right"))
        # Each active group appears exactly once per rank, so the fancy-index
        # in-place add is well-defined (no duplicate destination indices).
        acc[order[lo:]] += values[sorted_starts[lo:] + rank]
    return acc


def _group_max(values: np.ndarray, bounds: np.ndarray,
               floor: int) -> np.ndarray:
    """Per-group integer maxima over CSR ``bounds`` (empty groups → ``floor``).

    ``max`` is associative and exact on integers, so ``np.maximum.reduceat``
    is safe here (unlike float sums, where accumulation order matters).
    """
    counts = np.diff(bounds)
    n = len(counts)
    out = np.full(n, floor, dtype=np.int64)
    if n == 0 or values.size == 0:
        return out
    nonempty = counts > 0
    starts = np.minimum(bounds[:-1], values.size - 1)
    reduced = np.maximum.reduceat(values, starts)
    out[nonempty] = np.maximum(reduced[nonempty], floor)
    return out


@dataclass(eq=False)
class RoutingArrays:
    """Columnar form of one routing: the segment/via/connection columns the
    batched router computes, kept as the primary representation.

    :func:`repro.layout.router.route` / ``route_batch`` produce one
    ``RoutingArrays`` per placement and return **lazy**
    :class:`~repro.layout.router.RoutedNet` shells backed by it: array-native
    consumers (wirelength/via metrics, the PPA/STA wire loads, the store
    codec) read the columns directly and never build a ``Segment``/``Via``/
    ``RoutedConnection`` object; the first attribute access on a shell's
    ``connections``/``driver_vias`` materializes that net's object graph
    bit-exactly (see ``RoutedNet.__getattr__``).

    Layout invariants:

    * per-net and per-connection columns are CSR-sliced (``conn_starts``,
      ``seg_starts``, ``via_starts``, ``dvia_starts``) and the flat geometry
      columns are per-connection contiguous, in routing iteration order;
    * per-connection via order matches the ``route_connection`` oracle in
      ``tests/build_oracle.py``: bend vias, close-x via, close-y via, then
      the sink pin stack;
    * ``hint_default`` marks connections whose stub hints are the router's
      defaults (source hint = target, target hint = source, materialized as
      the *same objects*); other hints materialize as the
      ``*_hint_points`` object references when the producer kept them, else
      as fresh points from the hint columns, with the ``hint_*_present``
      masks distinguishing explicit ``None`` hints.  Hint columns hold the
      hint coordinates of every connection (the router defaults included)
      and 0.0 wherever the mask is clear;
    * ``materialized_count`` counts nets whose objects were built.  A
      materialized graph may have been edited behind the columns, so
      consumers read routings through :func:`routing_columns`, which trusts
      only a clean backing and rebuilds the columns otherwise
      (:meth:`from_nets`).
    """

    # -- per-net columns ----------------------------------------------------
    net_names: List[str]
    conn_starts: np.ndarray       # (num_nets + 1,) int64
    driver_x: np.ndarray          # (num_nets,) float64 (0.0 without driver)
    driver_y: np.ndarray
    has_driver: np.ndarray        # (num_nets,) bool
    driver_points: List[Optional[Point]]
    dvia_starts: np.ndarray       # (num_nets + 1,) int64
    dvia_x: np.ndarray
    dvia_y: np.ndarray
    dvia_lower: np.ndarray        # int64
    dvia_upper: np.ndarray        # int64
    # -- per-connection columns --------------------------------------------
    sink_refs: List[Tuple[str, str]]
    sx: np.ndarray                # float64 source/target coordinates
    sy: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    h_layer: np.ndarray           # int64
    v_layer: np.ndarray           # int64
    protected: np.ndarray         # uint8
    hint_sx: np.ndarray           # float64 (writable; see override_hints)
    hint_sy: np.ndarray
    hint_tx: np.ndarray
    hint_ty: np.ndarray
    hint_src_present: np.ndarray  # uint8
    hint_tgt_present: np.ndarray  # uint8
    hint_default: np.ndarray      # bool
    seg_starts: np.ndarray        # (num_connections + 1,) int64
    via_starts: np.ndarray        # (num_connections + 1,) int64
    # -- flat geometry columns (per-connection contiguous) ------------------
    seg_layer: np.ndarray         # int64
    seg_x1: np.ndarray
    seg_y1: np.ndarray
    seg_x2: np.ndarray
    seg_y2: np.ndarray
    via_x: np.ndarray
    via_y: np.ndarray
    via_lower: np.ndarray         # int64
    via_upper: np.ndarray         # int64
    # -- endpoint object references (identity-preserving) -------------------
    #: Router-built backings share the placement's Point objects; decoded
    #: backings leave these None and materialize fresh points from sx/sy….
    source_points: Optional[List[Point]] = None
    target_points: Optional[List[Point]] = None
    #: Per-connection stub-hint object references for connections whose
    #: hints are not the router defaults (the protected layout's misleading
    #: hints are placement points); None → fresh points from the hint columns.
    source_hint_points: Optional[List[Optional[Point]]] = None
    target_hint_points: Optional[List[Optional[Point]]] = None
    #: Per-connection net-name references (decoded payloads, where a stored
    #: ``conn_net`` column may name a different net than the owning entry);
    #: None → the owning net's name.
    conn_net_names: Optional[List[str]] = None
    # -- materialization bookkeeping ----------------------------------------
    #: Number of nets whose object graphs have been materialized.  The
    #: array-native fast paths require 0 (a materialized graph may have been
    #: mutated behind the columns); tests assert it stays 0 on those paths.
    materialized_count: int = field(default=0)
    _shells: List[object] = field(default_factory=list, repr=False)
    _materialized: List[bool] = field(default_factory=list, repr=False)
    _conn_lengths: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_connections(self) -> int:
        return len(self.sink_refs)

    # -- construction from objects -------------------------------------------
    @classmethod
    def from_nets(cls, routing: "Dict[str, RoutedNet]") -> "RoutingArrays":
        """Columns of any routing dict — the one object → columns builder.

        For routings without a clean backing: hand-assembled nets, unpickled
        nets, or a backing whose objects were touched (and possibly edited).
        Every net is read through its objects (materializing lazy shells);
        net order and names follow the dict's keys.  The result owns fresh
        columns with explicit hints (no defaults, no object references), so
        materializing it yields objects *equal* to the input's, though not
        identical to them.
        """
        names = list(routing)
        driver_points: List[Optional[Point]] = []
        sink_refs: List[Tuple[str, str]] = []
        conn_net: List[str] = []
        rows: Dict[str, list] = {key: [] for key in _FROM_NETS_DTYPES}
        # Local aliases, in _FROM_NETS_DTYPES order.
        (driver_x, driver_y, has_driver, conn_count, dvia_count, dvia_x,
         dvia_y, dvia_lower, dvia_upper, sx, sy, tx, ty, h_layer, v_layer,
         protected, hint_sx, hint_sy, hint_tx, hint_ty, hint_src, hint_tgt,
         seg_count, via_count, seg_layer, seg_x1, seg_y1, seg_x2, seg_y2,
         via_x, via_y, via_lower, via_upper) = rows.values()
        for net in routing.values():
            point = net.driver_point
            driver_points.append(point)
            has_driver.append(point is not None)
            driver_x.append(point.x if point is not None else 0.0)
            driver_y.append(point.y if point is not None else 0.0)
            conn_count.append(len(net.connections))
            dvia_count.append(len(net.driver_vias))
            for via in net.driver_vias:
                dvia_x.append(via.x)
                dvia_y.append(via.y)
                dvia_lower.append(via.lower)
                dvia_upper.append(via.upper)
            for connection in net.connections:
                conn_net.append(connection.net)
                sink_refs.append(connection.sink)
                sx.append(connection.source.x)
                sy.append(connection.source.y)
                tx.append(connection.target.x)
                ty.append(connection.target.y)
                h_layer.append(connection.h_layer)
                v_layer.append(connection.v_layer)
                protected.append(bool(connection.protected))
                for hint, xs, ys, present in (
                        (connection.source_hint, hint_sx, hint_sy, hint_src),
                        (connection.target_hint, hint_tx, hint_ty, hint_tgt)):
                    present.append(hint is not None)
                    xs.append(hint.x if hint is not None else 0.0)
                    ys.append(hint.y if hint is not None else 0.0)
                seg_count.append(len(connection.segments))
                for segment in connection.segments:
                    seg_layer.append(segment.layer)
                    seg_x1.append(segment.x1)
                    seg_y1.append(segment.y1)
                    seg_x2.append(segment.x2)
                    seg_y2.append(segment.y2)
                via_count.append(len(connection.vias))
                for via in connection.vias:
                    via_x.append(via.x)
                    via_y.append(via.y)
                    via_lower.append(via.lower)
                    via_upper.append(via.upper)

        columns = {
            key: np.asarray(values, dtype=_FROM_NETS_DTYPES[key])
            for key, values in rows.items()
        }
        counts = columns.pop("conn_count")
        owners = [name for name, count in zip(names, counts.tolist())
                  for _ in range(count)]
        return cls(
            net_names=names,
            conn_starts=_csr(counts),
            driver_points=driver_points,
            dvia_starts=_csr(columns.pop("dvia_count")),
            sink_refs=sink_refs,
            hint_default=np.zeros(len(sink_refs), dtype=bool),
            seg_starts=_csr(columns.pop("seg_count")),
            via_starts=_csr(columns.pop("via_count")),
            conn_net_names=None if conn_net == owners else conn_net,
            **columns,
        )

    # -- lazy object materialization ----------------------------------------
    def lazy_nets(self) -> "Dict[str, RoutedNet]":
        """Build the routing dict of lazy ``RoutedNet`` shells over this view.

        Each shell carries only ``name``/``driver_point`` plus a reference
        back here; ``connections``/``driver_vias`` appear in its ``__dict__``
        on first access (``RoutedNet.__getattr__`` →
        :meth:`materialize_into`).
        """
        from repro.layout.router import RoutedNet

        new_net = RoutedNet.__new__
        routing: Dict[str, RoutedNet] = {}
        shells: List[RoutedNet] = []
        for index, (name, point) in enumerate(
                zip(self.net_names, self.driver_points)):
            net = new_net(RoutedNet)
            net.__dict__ = {
                "name": name,
                "driver_point": point,
                "_lazy_backing": self,
                "_lazy_index": index,
            }
            shells.append(net)
            routing[name] = net
        self._shells = shells
        self._materialized = [False] * len(shells)
        return routing

    def materialize_into(self, shell: "RoutedNet") -> None:
        """Populate ``shell.connections``/``shell.driver_vias`` from columns."""
        index = shell.__dict__["_lazy_index"]
        connections, driver_vias = self._materialize_net(index)
        shell.__dict__["connections"] = connections
        shell.__dict__["driver_vias"] = driver_vias
        if self._materialized and not self._materialized[index]:
            self._materialized[index] = True
            self.materialized_count += 1

    def _materialize_net(self, index: int
                         ) -> "Tuple[List[RoutedConnection], List[Via]]":
        """Bit-exact object graph of net ``index`` (same values, order and
        ``__dict__`` layout as the seed router's eagerly built objects)."""
        from repro.layout.router import (
            RoutedConnection,
            _new_segments,
            _new_vias,
        )

        c0 = int(self.conn_starts[index])
        c1 = int(self.conn_starts[index + 1])
        s0 = int(self.seg_starts[c0])
        s1 = int(self.seg_starts[c1])
        v0 = int(self.via_starts[c0])
        v1 = int(self.via_starts[c1])
        d0 = int(self.dvia_starts[index])
        d1 = int(self.dvia_starts[index + 1])
        segments_all = _new_segments(
            self.seg_layer[s0:s1].tolist(), self.seg_x1[s0:s1].tolist(),
            self.seg_y1[s0:s1].tolist(), self.seg_x2[s0:s1].tolist(),
            self.seg_y2[s0:s1].tolist(),
        )
        vias_all = _new_vias(
            self.via_x[v0:v1].tolist(), self.via_y[v0:v1].tolist(),
            self.via_lower[v0:v1].tolist(), self.via_upper[v0:v1].tolist(),
        )
        driver_vias = _new_vias(
            self.dvia_x[d0:d1].tolist(), self.dvia_y[d0:d1].tolist(),
            self.dvia_lower[d0:d1].tolist(), self.dvia_upper[d0:d1].tolist(),
        )
        seg_local = (self.seg_starts[c0:c1 + 1] - s0).tolist()
        via_local = (self.via_starts[c0:c1 + 1] - v0).tolist()
        net_name = self.net_names[index]
        h_l = self.h_layer[c0:c1].tolist()
        v_l = self.v_layer[c0:c1].tolist()
        sx_l = self.sx[c0:c1].tolist()
        sy_l = self.sy[c0:c1].tolist()
        tx_l = self.tx[c0:c1].tolist()
        ty_l = self.ty[c0:c1].tolist()
        hsx_l = self.hint_sx[c0:c1].tolist()
        hsy_l = self.hint_sy[c0:c1].tolist()
        htx_l = self.hint_tx[c0:c1].tolist()
        hty_l = self.hint_ty[c0:c1].tolist()
        hsp_l = self.hint_src_present[c0:c1].tolist()
        htp_l = self.hint_tgt_present[c0:c1].tolist()
        hdef_l = self.hint_default[c0:c1].tolist()
        prot_l = self.protected[c0:c1].tolist()
        new_connection = RoutedConnection.__new__
        connections: List[RoutedConnection] = []
        append = connections.append
        for local, ci in enumerate(range(c0, c1)):
            if self.source_points is not None:
                source = self.source_points[ci]
                target = self.target_points[ci]
            else:
                source = _fast_point(sx_l[local], sy_l[local])
                target = _fast_point(tx_l[local], ty_l[local])
            if hdef_l[local]:
                source_hint: Optional[Point] = target
                target_hint: Optional[Point] = source
            elif self.source_hint_points is not None:
                source_hint = self.source_hint_points[ci]
                target_hint = self.target_hint_points[ci]
            else:
                source_hint = (_fast_point(hsx_l[local], hsy_l[local])
                               if hsp_l[local] else None)
                target_hint = (_fast_point(htx_l[local], hty_l[local])
                               if htp_l[local] else None)
            connection = new_connection(RoutedConnection)
            connection.__dict__ = {
                "net": (self.conn_net_names[ci]
                        if self.conn_net_names is not None else net_name),
                "sink": self.sink_refs[ci],
                "source": source,
                "target": target,
                "h_layer": h_l[local],
                "v_layer": v_l[local],
                "segments": segments_all[seg_local[local]:seg_local[local + 1]],
                "vias": vias_all[via_local[local]:via_local[local + 1]],
                "source_hint": source_hint,
                "target_hint": target_hint,
                "protected": bool(prot_l[local]),
            }
            append(connection)
        return connections, driver_vias

    # -- array-native reductions --------------------------------------------
    def connection_lengths(self) -> np.ndarray:
        """Routed length per connection — bit-exact with the object-walk
        ``sum(segment.length for segment in connection.segments)`` (cached)."""
        if self._conn_lengths is None:
            seg_length = (
                np.abs(self.seg_x2 - self.seg_x1)
                + np.abs(self.seg_y2 - self.seg_y1)
            )
            self._conn_lengths = _group_sum(seg_length, self.seg_starts)
        return self._conn_lengths

    def net_lengths(self) -> np.ndarray:
        """Routed length per net, in ``net_names`` order — bit-exact with
        ``RoutedNet.length``."""
        return _group_sum(self.connection_lengths(), self.conn_starts)

    def net_top_layers(self) -> np.ndarray:
        """Topmost layer per net (segments, vias, driver vias; floor 1) —
        equal to ``RoutedNet.top_layer``."""
        seg_bounds = self.seg_starts[self.conn_starts]
        via_bounds = self.via_starts[self.conn_starts]
        top = _group_max(self.seg_layer, seg_bounds, floor=1)
        top = np.maximum(top, _group_max(self.via_upper, via_bounds, floor=1))
        return np.maximum(
            top, _group_max(self.dvia_upper, self.dvia_starts, floor=1)
        )

    def connection_indices(self, names: Sequence[str]) -> np.ndarray:
        """Connection indices of the named nets, net by net in the given
        order (names this routing does not hold are skipped)."""
        position = {name: i for i, name in enumerate(self.net_names)}
        runs = [
            np.arange(self.conn_starts[position[name]],
                      self.conn_starts[position[name] + 1])
            for name in names if name in position
        ]
        return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)

    # -- in-place hint overrides (routing-perturbation defense) -------------
    def override_hints(self, conn_indices: np.ndarray, hint_sx: np.ndarray,
                       hint_sy: np.ndarray, hint_tx: np.ndarray,
                       hint_ty: np.ndarray) -> None:
        """Re-aim the FEOL stub hints of ``conn_indices`` without
        materializing: the hint columns are updated in place and future
        materializations build the overridden points.  Nets already
        materialized get their connection objects patched too, so columns
        and objects never disagree.
        """
        self.hint_sx[conn_indices] = hint_sx
        self.hint_sy[conn_indices] = hint_sy
        self.hint_tx[conn_indices] = hint_tx
        self.hint_ty[conn_indices] = hint_ty
        self.hint_src_present[conn_indices] = 1
        self.hint_tgt_present[conn_indices] = 1
        self.hint_default[conn_indices] = False
        if self.source_hint_points is not None:
            for ci in np.asarray(conn_indices).tolist():
                self.source_hint_points[ci] = _fast_point(
                    float(self.hint_sx[ci]), float(self.hint_sy[ci])
                )
                self.target_hint_points[ci] = _fast_point(
                    float(self.hint_tx[ci]), float(self.hint_ty[ci])
                )
        if not self.materialized_count:
            return
        for ci in np.asarray(conn_indices).tolist():
            net_idx = int(
                np.searchsorted(self.conn_starts, ci, side="right") - 1
            )
            if not self._materialized or not self._materialized[net_idx]:
                continue
            shell = self._shells[net_idx]
            connection = shell.__dict__["connections"][
                ci - int(self.conn_starts[net_idx])
            ]
            connection.source_hint = _fast_point(
                float(self.hint_sx[ci]), float(self.hint_sy[ci])
            )
            connection.target_hint = _fast_point(
                float(self.hint_tx[ci]), float(self.hint_ty[ci])
            )


#: Column dtypes of :meth:`RoutingArrays.from_nets` (per-item counts in
#: place of CSR starts).
_FROM_NETS_DTYPES: Dict[str, type] = {
    "driver_x": np.float64, "driver_y": np.float64, "has_driver": bool,
    "conn_count": np.int64, "dvia_count": np.int64,
    "dvia_x": np.float64, "dvia_y": np.float64,
    "dvia_lower": np.int64, "dvia_upper": np.int64,
    "sx": np.float64, "sy": np.float64, "tx": np.float64, "ty": np.float64,
    "h_layer": np.int64, "v_layer": np.int64, "protected": np.uint8,
    "hint_sx": np.float64, "hint_sy": np.float64,
    "hint_tx": np.float64, "hint_ty": np.float64,
    "hint_src_present": np.uint8, "hint_tgt_present": np.uint8,
    "seg_count": np.int64, "via_count": np.int64,
    "seg_layer": np.int64, "seg_x1": np.float64, "seg_y1": np.float64,
    "seg_x2": np.float64, "seg_y2": np.float64,
    "via_x": np.float64, "via_y": np.float64,
    "via_lower": np.int64, "via_upper": np.int64,
}


def _csr(counts: np.ndarray) -> np.ndarray:
    """CSR start offsets (leading 0) of per-item ``counts``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def routing_columns(routing: "Dict[str, RoutedNet]") -> RoutingArrays:
    """The columns of ``routing``: its clean backing when it has one (no
    shell is materialized), else :meth:`RoutingArrays.from_nets`."""
    backing = routing_backing(routing)
    return backing if backing is not None else RoutingArrays.from_nets(routing)


def routing_backing(routing: "Dict[str, RoutedNet]") -> Optional[RoutingArrays]:
    """The shared :class:`RoutingArrays` behind a routing dict, if clean.

    Returns the backing only when **every** net of ``routing`` is the lazy
    shell of one common backing, in the backing's net order — i.e. the dict
    is (a shallow copy of) a ``route()``/decode product, not a hand-assembled
    or re-keyed mapping — and no net has been materialized: materialized
    object graphs are mutable behind the columns, so consumers rebuild the
    columns instead (:func:`routing_columns`).
    """
    if not routing:
        return None
    backing: Optional[RoutingArrays] = None
    for index, net in enumerate(routing.values()):
        net_backing = net.__dict__.get("_lazy_backing")
        if net_backing is None:
            return None
        if backing is None:
            backing = net_backing
        elif net_backing is not backing:
            return None
        if net.__dict__.get("_lazy_index") != index:
            return None
    if backing is None or backing.num_nets != len(routing):
        return None
    if backing.materialized_count:
        return None
    return backing


# ---------------------------------------------------------------------------
# Layout arrays (placement + routing columns)
# ---------------------------------------------------------------------------


@dataclass
class LayoutArrays:
    """Array-backed view of a routed layout (placement + segment/via columns)."""

    placement: PlacementArrays
    routed_net_names: List[str]
    routed_net_index: Dict[str, int]
    seg_layer: np.ndarray    # (num_segments,) int64
    seg_length: np.ndarray   # (num_segments,) float64
    seg_net: np.ndarray      # (num_segments,) intp — index into routed_net_names
    via_lower: np.ndarray    # (num_vias,) int64
    via_net: np.ndarray      # (num_vias,) intp

    def _selected_net_indices(self, nets: Set[str]) -> np.ndarray:
        return np.asarray(
            sorted(self.routed_net_index[name] for name in nets
                   if name in self.routed_net_index),
            dtype=np.intp,
        )

    def routed_net_mask(self, nets: Set[str]) -> np.ndarray:
        """Boolean per-segment mask selecting segments of ``nets``."""
        return np.isin(self.seg_net, self._selected_net_indices(nets))

    def wirelength_by_layer(self, num_layers: int,
                            nets: Optional[Set[str]] = None) -> Dict[int, float]:
        """Routed wirelength per metal layer (µm), optionally net-restricted."""
        if nets is None:
            layers = self.seg_layer
            lengths = self.seg_length
        else:
            mask = self.routed_net_mask(nets)
            layers = self.seg_layer[mask]
            lengths = self.seg_length[mask]
        totals = np.bincount(layers, weights=lengths, minlength=num_layers + 1)
        return {layer: float(totals[layer]) for layer in range(1, num_layers + 1)}

    def via_counts(self, num_layers: int,
                   nets: Optional[Set[str]] = None) -> Dict[Tuple[int, int], int]:
        """Via count per adjacent layer pair, optionally net-restricted."""
        if nets is None:
            lowers = self.via_lower
        else:
            lowers = self.via_lower[
                np.isin(self.via_net, self._selected_net_indices(nets))
            ]
        counts = np.bincount(lowers, minlength=num_layers)
        return {
            (layer, layer + 1): int(counts[layer])
            for layer in range(1, num_layers)
        }

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult",
              routing: Dict[str, "RoutedNet"]) -> "LayoutArrays":
        """Pure column work over the routing's columns
        (:func:`routing_columns`); no object graph of a lazy net is touched.

        Reproduces the per-object walk exactly: per-segment lengths are the
        same ``|dx| + |dy|`` expression ``Segment.length`` evaluates, and the
        via column interleaves each net's driver vias before its connection
        vias (the ``RoutedNet.all_vias`` order).
        """
        base = placement_arrays(netlist, placement)
        backing = routing_columns(routing)
        num_nets = backing.num_nets
        net_ids = np.arange(num_nets, dtype=np.intp)
        seg_bounds = backing.seg_starts[backing.conn_starts]
        seg_per_net = np.diff(seg_bounds)
        via_bounds = backing.via_starts[backing.conn_starts]
        cvia_per_net = np.diff(via_bounds)
        dvia_per_net = np.diff(backing.dvia_starts)
        out_starts = np.concatenate(
            ([0], np.cumsum(dvia_per_net + cvia_per_net))
        )
        via_lower = np.empty(int(out_starts[-1]), dtype=np.int64)
        drep = np.repeat(net_ids, dvia_per_net)
        dpos = (
            out_starts[:-1][drep]
            + np.arange(drep.size, dtype=np.int64)
            - backing.dvia_starts[:-1][drep]
        )
        via_lower[dpos] = backing.dvia_lower
        crep = np.repeat(net_ids, cvia_per_net)
        cpos = (
            out_starts[:-1][crep] + dvia_per_net[crep]
            + np.arange(crep.size, dtype=np.int64)
            - via_bounds[:-1][crep]
        )
        via_lower[cpos] = backing.via_lower
        return LayoutArrays(
            placement=base,
            routed_net_names=list(backing.net_names),
            routed_net_index={
                name: i for i, name in enumerate(backing.net_names)
            },
            seg_layer=backing.seg_layer,
            seg_length=(
                np.abs(backing.seg_x2 - backing.seg_x1)
                + np.abs(backing.seg_y2 - backing.seg_y1)
            ),
            seg_net=np.repeat(net_ids, seg_per_net),
            via_lower=via_lower,
            via_net=np.repeat(net_ids, dvia_per_net + cvia_per_net),
        )
