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
* :class:`RoutingArrays` — one routing's segment/via/connection columns,
  the only representation of a routing (and its read-only name →
  ``RoutedNet`` mapping);
* :class:`LayoutArrays` — :class:`PlacementArrays` plus routed-segment and
  via columns (layer, length, owning-net index);
* :class:`UniformGridIndex` — a uniform-grid spatial index over 2-D points
  for batched Manhattan nearest-neighbor queries, with
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

``geometry_version`` mirrors the netlist's ``topology_version``.  A
placement's coordinate columns are read-only; its one setter,
:meth:`PlacementResult.set_coordinates
<repro.layout.placer.PlacementResult.set_coordinates>`, bumps the
placement's counter itself.  Code that edits a routing's columns in place
calls :meth:`Layout.bump_geometry_version
<repro.layout.layout.Layout.bump_geometry_version>`, so stale array views
are never consumed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.layout.geometry import Point
from repro.netlist.arrays import group_sum, netlist_arrays
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.layout.placer import PlacementResult
    from repro.layout.router import RoutedNet


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

    The ring walk runs as one array program per ring over every query still
    active, so there is no per-query Python loop and no size-dependent
    brute-force path.  :meth:`walk` minimises any pair score bounded below
    by the Manhattan distance minus a margin (the network-flow attack's
    costs); :meth:`nearest` is its distance case.  Coordinates must be
    finite.
    """

    def __init__(self, xy: np.ndarray, cell_size: Optional[float] = None):
        xy = _finite_points(xy, "xy")
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

    def nearest(self, query_xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched Manhattan nearest neighbor for every query point.

        Returns ``(indices, distances)``; ties resolve to the lowest point
        index (first occurrence in the input order).  A :meth:`walk` whose
        score is the Manhattan distance itself.
        """
        query = _finite_points(query_xy, "query_xy")
        xy = self.xy

        def distance(rows: np.ndarray, candidates: np.ndarray) -> np.ndarray:
            return (np.abs(query[rows, 0] - xy[candidates, 0])
                    + np.abs(query[rows, 1] - xy[candidates, 1]))

        return self.walk(query, distance)

    def walk(self, query_xy: np.ndarray,
             score: Callable[[np.ndarray, np.ndarray], np.ndarray],
             margin: float = 0.0,
             ceiling: float = math.inf) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's lowest-index minimum of ``score`` over the points.

        ``score(rows, candidates)`` returns the scores of the pairs
        ``(query rows[i], point candidates[i])`` of two flat index arrays.
        Returns ``(indices, scores)``; a query none of whose scores beat
        ``+inf`` gets index ``-1``.  The result is every query's exact
        lexicographic ``(score, index)`` minimum as long as every score
        below ``ceiling`` is at least the pair's Manhattan distance minus
        ``margin``.

        Each ring ``r`` is one array program over the queries still active:
        gather the CSR spans of the ring's cells (top and bottom row spans,
        left and right column cells), expand them into (query, candidate)
        pairs grouped by query, score them, and take each query's
        lexicographic ``(score, index)`` minimum with two
        ``np.minimum.reduceat`` passes.  A query keeps the ring's winner when
        it is strictly lower, or equal with a lower index, and stops once
        its best score is below ``ceiling`` and the next ring's distance
        lower bound ``(r - 1) * min_pitch`` strictly exceeds that score plus
        ``margin``, so ties in farther rings are still seen.  Queries that
        never stop walk the whole grid.
        """
        if self.num_points == 0:
            raise ValueError("nearest query on an empty index")
        query = _finite_points(query_xy, "query_xy")
        m = len(query)
        best_idx = np.full(m, -1, dtype=np.intp)
        best = np.full(m, math.inf, dtype=np.float64)
        active = np.arange(m, dtype=np.intp)
        qix = self._axis_cells(query[:, 0], self.x_min, self.cell_x, self.nx)
        qiy = self._axis_cells(query[:, 1], self.y_min, self.cell_y, self.ny)
        min_pitch = min(self.cell_x, self.cell_y)
        max_ring = max(self.nx, self.ny)
        ring = 0
        while active.size:
            lo, hi = self._ring_spans(qix[active], qiy[active], ring)
            lengths = hi - lo                      # one row per active query
            counts = lengths.sum(axis=1)
            has = np.flatnonzero(counts)
            if has.size:
                rows = active[has]
                sizes = counts[has]
                flat_len = lengths.ravel()
                # Position of every candidate in ``_order``: its span's start
                # plus its rank inside that span.
                shift = np.repeat(
                    lo.ravel() - (np.cumsum(flat_len) - flat_len), flat_len
                )
                candidates = self._order[np.arange(shift.size) + shift]
                values = score(np.repeat(rows, sizes), candidates)
                group_starts = np.cumsum(sizes) - sizes
                d = np.minimum.reduceat(values, group_starts)
                tied = np.where(values == np.repeat(d, sizes), candidates,
                                self.num_points)
                c = np.minimum.reduceat(tied, group_starts)
                prev = best[rows]
                better = (d < prev) | ((d == prev) & (c < best_idx[rows]))
                best[rows[better]] = d[better]
                best_idx[rows[better]] = c[better]
            ring += 1
            if ring > max_ring:
                break
            # Points in ring ``r`` are at Manhattan distance of at least
            # ``(r - 1) * min_pitch``; only stop once that lower bound
            # *strictly* exceeds the best score plus the margin.
            bound = (ring - 1) * min_pitch
            done = (best[active] < ceiling) & (bound > best[active] + margin)
            active = active[~done]
        return best_idx, best

    def _ring_spans(self, cx: np.ndarray, cy: np.ndarray,
                    ring: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR ``[lo, hi)`` spans of the cells at Chebyshev distance ``ring``.

        One row per query; cells off the grid give empty spans.  The top
        and bottom rows contribute one span each, the rows in between their
        left and right column cells.
        """
        nx, ny, starts = self.nx, self.ny, self._starts
        rows = cy[:, None] + np.arange(-ring, ring + 1)
        on_grid = (rows >= 0) & (rows < ny)
        edge = np.zeros(2 * ring + 1, dtype=bool)
        edge[[0, -1]] = True
        base = np.clip(rows, 0, ny - 1) * nx
        left = (cx - ring)[:, None]
        right = (cx + ring)[:, None]
        lo, hi = [], []
        for first, last, keep in (
            (left, right, on_grid & edge),
            (left, left, on_grid & ~edge & (left >= 0)),
            (right, right, on_grid & ~edge & (right < nx)),
        ):
            first = base + np.clip(first, 0, nx - 1)
            last = base + np.clip(last, 0, nx - 1)
            lo.append(np.where(keep, starts[first], 0))
            hi.append(np.where(keep, starts[last + 1], 0))
        return np.concatenate(lo, axis=1), np.concatenate(hi, axis=1)


def _finite_points(xy: np.ndarray, name: str) -> np.ndarray:
    """``xy`` as a contiguous ``(n, 2)`` float64 array of finite coordinates."""
    xy = np.ascontiguousarray(np.asarray(xy, dtype=np.float64))
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2)")
    if not np.isfinite(xy).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return xy


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

    #: The placement's gate name table and the table index of every row;
    #: ``gate_names``/``gate_index`` are built from them on first use.
    row_table: Sequence[str]
    row_index: np.ndarray      # (num_gates,) int64
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

    @cached_property
    def gate_names(self) -> List[str]:
        """The gate name of every placement row."""
        return list(map(self.row_table.__getitem__, self.row_index.tolist()))

    @cached_property
    def gate_index(self) -> Dict[str, int]:
        """Gate name → placement row."""
        return dict(zip(self.gate_names, range(len(self.row_index))))

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult") -> "PlacementSkeleton":
        """The skeleton of ``placement`` against ``netlist``, read off the
        netlist's integer columns: pairs and terminals in net order, each
        net's terminals its driver gate (or primary-input port), its placed
        sinks in ``Net.sinks`` order, then its primary-output ports."""
        arrays = netlist_arrays(netlist)
        table, rows = placement.gate_names, placement.gate_index
        num_gates = len(rows)
        if table is arrays.gate_names or table == arrays.gate_names:
            netlist_gate = rows.astype(np.int64)
        else:
            lookup = arrays.gate_id.get
            by_table = np.fromiter((lookup(name, -1) for name in table),
                                   dtype=np.int64, count=len(table))
            netlist_gate = by_table[rows]
        known = netlist_gate >= 0
        widths = arrays.cell_column("width_um")
        gate_widths = np.zeros(num_gates, dtype=np.float64)
        gate_widths[known] = widths[netlist_gate[known]]
        missing_gates = [table[i] for i in rows[~known].tolist()]
        port_names = placement.port_names
        port_index = {name: i for i, name in enumerate(port_names)}

        # Placement row of every netlist gate (-1: not placed).
        row_of = np.full(arrays.num_gates + 1, -1, dtype=np.intp)
        row_of[netlist_gate[known]] = np.flatnonzero(known)
        num_nets = arrays.num_nets
        driver = row_of[arrays.net_driver]  # net_driver -1 reads the -1 pad
        # -- connection pairs (gate driver → gate sinks), net then sink order --
        sink_net = np.repeat(np.arange(num_nets, dtype=np.intp), np.diff(arrays.sink_start))
        sink = row_of[arrays.fanin_gate[arrays.sink_row]]
        pair = (driver[sink_net] >= 0) & (sink >= 0)
        # -- HPWL terminals: head (driver or PI port), sinks, PO ports --------
        pi_port = np.full(num_nets, -1, dtype=np.intp)
        for net in np.flatnonzero(arrays.net_is_pi).tolist():
            pi_port[net] = port_index.get(arrays.net_names[net], -1)
        head = np.where(driver >= 0, driver,
                        np.where(pi_port >= 0, num_gates + pi_port, -1))
        po_port = np.asarray([port_index.get(po, -1) for po in arrays.primary_outputs],
                             dtype=np.intp)[arrays.net_po]
        po_net = np.repeat(np.arange(num_nets, dtype=np.intp), np.diff(arrays.net_po_start))
        term_net = np.concatenate((np.flatnonzero(head >= 0), sink_net[sink >= 0],
                                   po_net[po_port >= 0]))
        term_idx = np.concatenate((head[head >= 0], sink[sink >= 0],
                                   num_gates + po_port[po_port >= 0]))
        by_net = np.argsort(term_net, kind="stable")

        return PlacementSkeleton(
            row_table=table,
            row_index=rows,
            gate_widths=gate_widths,
            missing_gates=missing_gates,
            port_names=port_names,
            port_index=port_index,
            net_names=arrays.net_names,
            net_index_by_name=arrays.net_id,
            pair_driver=driver[sink_net[pair]],
            pair_sink=sink[pair],
            pair_net=sink_net[pair],
            term_indices=term_idx[by_net].astype(np.intp),
            term_offsets=_csr(np.bincount(term_net, minlength=num_nets)).astype(np.intp),
        )


#: The skeleton :meth:`PlacementSkeleton.build` produced last, as an
#: immutable ``(weakref to netlist, topology_version, skeleton, gate name
#: table, gate index column)`` tuple (the last two are the placement's).
#: One entry on purpose: a seed sweep places one netlist many times, and a
#: per-netlist cache would pin a skeleton for every netlist a long-lived
#: Workspace ever touches.
_last_built: Optional[Tuple["weakref.ref[Netlist]", int, PlacementSkeleton,
                            Sequence[str], np.ndarray]] = None


def _relabelled_skeleton(netlist: Netlist,
                         placement: "PlacementResult") -> Optional[PlacementSkeleton]:
    """The last built skeleton relabelled to ``placement``'s gate order.

    Connection pairs and HPWL terminals follow the netlist's net order, not
    the gate order, so when ``placement`` places exactly the base skeleton's
    gates (in any order, over the same name table) against the same netlist
    topology and port list, a fresh build equals the base with every gate
    index mapped through one gather.  Returns None when that does not hold.
    """
    last = _last_built
    if last is None:
        return None
    ref, version, base, table, base_order = last
    num_gates = len(placement.gate_index)
    if (ref() is not netlist or version != netlist.topology_version
            or base.missing_gates
            or num_gates != len(base.row_index)
            or (placement.gate_names is not table
                and placement.gate_names != table)
            or base.port_names != placement.port_names):
        return None
    rows = np.arange(num_gates, dtype=np.intp)
    row_of = np.full(len(table), -1, dtype=np.intp)
    row_of[base_order] = rows
    old_of_new = row_of[placement.gate_index]
    new_of_old = np.full(num_gates, -1, dtype=np.intp)
    new_of_old[old_of_new] = rows
    if (old_of_new < 0).any() or (new_of_old < 0).any():
        return None
    term_indices = base.term_indices.copy()
    is_gate = term_indices < num_gates
    term_indices[is_gate] = new_of_old[term_indices[is_gate]]
    return PlacementSkeleton(
        row_table=placement.gate_names,
        row_index=placement.gate_index,
        gate_widths=base.gate_widths[old_of_new],
        missing_gates=[],
        port_names=base.port_names,
        port_index=base.port_index,
        net_names=base.net_names,
        net_index_by_name=base.net_index_by_name,
        pair_driver=new_of_old[base.pair_driver],
        pair_sink=new_of_old[base.pair_sink],
        pair_net=base.pair_net,
        term_indices=term_indices,
        term_offsets=base.term_offsets,
    )


def _placement_skeleton(netlist: Netlist,
                        placement: "PlacementResult") -> PlacementSkeleton:
    """Cached :class:`PlacementSkeleton` (survives geometry-only edits).

    A placement of the same gates as the last built skeleton (every seed of a
    sweep) gets that skeleton relabelled instead of a new netlist walk.
    """
    global _last_built
    key = (
        netlist.name,
        netlist.topology_version,
        len(placement.gate_index),
        len(placement.port_names),
    )
    cached = placement.__dict__.get("_skeleton_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    skeleton = _relabelled_skeleton(netlist, placement)
    if skeleton is None:
        skeleton = PlacementSkeleton.build(netlist, placement)
        _last_built = (weakref.ref(netlist), netlist.topology_version,
                       skeleton, placement.gate_names, placement.gate_index)
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
        return len(self.skeleton.row_index)

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
        # The skeleton lists the gates in placement row order.
        gate_xy = np.column_stack((placement.gate_x, placement.gate_y))
        port_xy = np.column_stack((placement.port_x, placement.port_y))
        combined_xy = np.concatenate([gate_xy, port_xy])
        return PlacementArrays(
            skeleton=skeleton,
            gate_xy=gate_xy,
            port_xy=port_xy,
            term_x=combined_xy[skeleton.term_indices, 0],
            term_y=combined_xy[skeleton.term_indices, 1],
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
# Routing arrays (the routing columns; objects built on lookup)
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
class RoutingArrays(Mapping):
    """One routing, as the segment/via/connection columns the batched router
    computes — its only representation.

    :func:`repro.layout.router.route` / ``route_batch`` return one
    ``RoutingArrays`` per placement and the store codec decodes into one;
    a :class:`~repro.layout.layout.Layout`'s routing is nothing else.
    Every consumer (wirelength/via metrics, the PPA/STA wire loads, FEOL
    extraction, the store codec) reads the columns.

    It is also the read-only ``Mapping`` of net name → ``RoutedNet`` that
    ``Layout.routing`` exposes: a lookup builds a fresh object graph from
    the columns (:meth:`materialize_into`), so objects handed out are equal
    to the seed router's eager graph but never alias each other or the
    placement, and editing them changes nothing.  The columns change only
    through :meth:`override_hints`.

    Layout invariants:

    * names are integer keys into shared name tables in netlist order:
      ``net_index``/``conn_net`` into ``net_names``, ``sink_gate`` into
      ``gate_names`` (``-1`` for a primary-output sink), ``sink_token``
      into ``sink_tokens`` (the sink pin or primary-output name), whose
      order is first appearance over the connections;
    * per-net and per-connection columns are CSR-sliced (``conn_starts``,
      ``seg_starts``, ``via_starts``, ``dvia_starts``) and the flat geometry
      columns are per-connection contiguous, in routing iteration order;
    * per-connection via order matches the ``route_connection`` oracle in
      ``tests/build_oracle.py``: bend vias, close-x via, close-y via, then
      the sink pin stack;
    * hint columns hold every connection's stub hint coordinates (the
      router default is source hint = target, target hint = source) and 0.0
      wherever the ``hint_*_present`` mask marks an explicit ``None``.
    """

    # -- name tables --------------------------------------------------------
    net_names: Sequence[str] = field(repr=False)
    gate_names: Sequence[str] = field(repr=False)
    sink_tokens: List[str] = field(repr=False)
    # -- per-net columns ----------------------------------------------------
    net_index: np.ndarray         # (num_nets,) int64 into net_names
    conn_starts: np.ndarray       # (num_nets + 1,) int64
    driver_x: np.ndarray          # (num_nets,) float64 (0.0 without driver)
    driver_y: np.ndarray
    has_driver: np.ndarray        # (num_nets,) bool
    dvia_starts: np.ndarray       # (num_nets + 1,) int64
    dvia_x: np.ndarray
    dvia_y: np.ndarray
    dvia_lower: np.ndarray        # int64
    dvia_upper: np.ndarray        # int64
    # -- per-connection columns --------------------------------------------
    conn_net: np.ndarray          # int64 into net_names
    sink_gate: np.ndarray         # int64 into gate_names, -1: primary output
    sink_token: np.ndarray        # int64 into sink_tokens
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
    _conn_lengths: Optional[np.ndarray] = field(default=None, repr=False)
    _positions: Optional[Dict[str, int]] = field(default=None, repr=False)

    @property
    def num_nets(self) -> int:
        return len(self.net_index)

    @property
    def num_connections(self) -> int:
        return len(self.sx)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_conn_lengths"] = state["_positions"] = None  # rebuilt lazily
        return state

    # -- the net name -> RoutedNet mapping -----------------------------------
    def positions(self) -> Dict[str, int]:
        """Net name → position in this routing (built once, cached)."""
        if self._positions is None:
            self._positions = {name: i for i, name in enumerate(self)}
        return self._positions

    def __iter__(self) -> Iterator[str]:
        return map(self.net_names.__getitem__, self.net_index.tolist())

    def __len__(self) -> int:
        return len(self.net_index)

    def __contains__(self, name: object) -> bool:
        return name in self.positions()

    def __getitem__(self, name: str) -> "RoutedNet":
        from repro.layout.router import RoutedNet

        net = RoutedNet.__new__(RoutedNet)
        self.materialize_into(net, self.positions()[name])
        return net

    def sink_ref(self, ci: int) -> Tuple[str, str]:
        """The ``(gate, pin)`` / ``("PO", name)`` sink of connection ``ci``."""
        gate = int(self.sink_gate[ci])
        token = self.sink_tokens[int(self.sink_token[ci])]
        return ("PO", token) if gate < 0 else (self.gate_names[gate], token)

    # -- object materialization ----------------------------------------------
    def materialize_into(self, net: "RoutedNet", index: int) -> None:
        """Fill the blank ``net`` with the object graph of routed net
        ``index``: bit-exact values, order and ``__dict__`` layout of the
        seed router's eagerly built objects, every ``Point`` fresh."""
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
        hsp_l = self.hint_src_present[c0:c1].tolist()
        htp_l = self.hint_tgt_present[c0:c1].tolist()
        new_connection = RoutedConnection.__new__
        connections: List[RoutedConnection] = []
        for local, (ci, net_id, h, v, sx, sy, tx, ty, hsx, hsy, htx, hty,
                    prot) in enumerate(zip(
                range(c0, c1), self.conn_net[c0:c1].tolist(),
                self.h_layer[c0:c1].tolist(), self.v_layer[c0:c1].tolist(),
                self.sx[c0:c1].tolist(), self.sy[c0:c1].tolist(),
                self.tx[c0:c1].tolist(), self.ty[c0:c1].tolist(),
                self.hint_sx[c0:c1].tolist(), self.hint_sy[c0:c1].tolist(),
                self.hint_tx[c0:c1].tolist(), self.hint_ty[c0:c1].tolist(),
                self.protected[c0:c1].tolist())):
            connection = new_connection(RoutedConnection)
            connection.__dict__ = {
                "net": self.net_names[net_id],
                "sink": self.sink_ref(ci),
                "source": _fast_point(sx, sy),
                "target": _fast_point(tx, ty),
                "h_layer": h,
                "v_layer": v,
                "segments": segments_all[seg_local[local]:seg_local[local + 1]],
                "vias": vias_all[via_local[local]:via_local[local + 1]],
                "source_hint": _fast_point(hsx, hsy) if hsp_l[local] else None,
                "target_hint": _fast_point(htx, hty) if htp_l[local] else None,
                "protected": bool(prot),
            }
            connections.append(connection)
        net.__dict__ = {
            "name": self.net_names[int(self.net_index[index])],
            "driver_point": (
                _fast_point(float(self.driver_x[index]),
                            float(self.driver_y[index]))
                if self.has_driver[index] else None
            ),
            "connections": connections,
            "driver_vias": driver_vias,
        }

    # -- array-native reductions --------------------------------------------
    def segment_lengths(self) -> np.ndarray:
        """Length of every segment, the ``|dx| + |dy|`` expression
        ``Segment.length`` evaluates."""
        return np.abs(self.seg_x2 - self.seg_x1) + np.abs(self.seg_y2 - self.seg_y1)

    def connection_lengths(self) -> np.ndarray:
        """Routed length per connection — bit-exact with the object-walk
        ``sum(segment.length for segment in connection.segments)`` (cached)."""
        if self._conn_lengths is None:
            self._conn_lengths = group_sum(self.segment_lengths(), self.seg_starts)
        return self._conn_lengths

    def net_lengths(self) -> np.ndarray:
        """Routed length per net, in iteration order — bit-exact with
        ``RoutedNet.length``."""
        return group_sum(self.connection_lengths(), self.conn_starts)

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
        position = self.positions()
        runs = [
            np.arange(self.conn_starts[position[name]],
                      self.conn_starts[position[name] + 1])
            for name in names if name in position
        ]
        return np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)

    # -- in-place hint overrides (protected layout, defenses) ---------------
    def override_hints(self, conn_indices: np.ndarray, hint_sx: np.ndarray,
                       hint_sy: np.ndarray, hint_tx: np.ndarray,
                       hint_ty: np.ndarray) -> None:
        """Re-aim the FEOL stub hints of ``conn_indices``: the hint columns
        are updated in place (and marked present)."""
        self.hint_sx[conn_indices] = hint_sx
        self.hint_sy[conn_indices] = hint_sy
        self.hint_tx[conn_indices] = hint_tx
        self.hint_ty[conn_indices] = hint_ty
        self.hint_src_present[conn_indices] = 1
        self.hint_tgt_present[conn_indices] = 1


def _csr(counts: np.ndarray) -> np.ndarray:
    """CSR start offsets (leading 0) of per-item ``counts``."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


# ---------------------------------------------------------------------------
# Layout arrays (placement + routing columns)
# ---------------------------------------------------------------------------


@dataclass
class LayoutArrays:
    """Array-backed view of a routed layout (placement + segment/via columns)."""

    placement: PlacementArrays
    routing: RoutingArrays
    seg_layer: np.ndarray    # (num_segments,) int64
    seg_length: np.ndarray   # (num_segments,) float64
    seg_net: np.ndarray      # (num_segments,) intp — routed-net position
    via_lower: np.ndarray    # (num_vias,) int64
    via_net: np.ndarray      # (num_vias,) intp

    def _selected_net_indices(self, nets: Set[str]) -> np.ndarray:
        position = self.routing.positions()
        return np.asarray(
            sorted(position[name] for name in nets if name in position),
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
              routing: RoutingArrays) -> "LayoutArrays":
        """Pure column work over the routing columns.

        Reproduces the per-object walk exactly: per-segment lengths are the
        same ``|dx| + |dy|`` expression ``Segment.length`` evaluates, and the
        via column interleaves each net's driver vias before its connection
        vias (the ``RoutedNet.all_vias`` order).
        """
        base = placement_arrays(netlist, placement)
        num_nets = routing.num_nets
        net_ids = np.arange(num_nets, dtype=np.intp)
        seg_bounds = routing.seg_starts[routing.conn_starts]
        seg_per_net = np.diff(seg_bounds)
        via_bounds = routing.via_starts[routing.conn_starts]
        cvia_per_net = np.diff(via_bounds)
        dvia_per_net = np.diff(routing.dvia_starts)
        out_starts = np.concatenate(
            ([0], np.cumsum(dvia_per_net + cvia_per_net))
        )
        via_lower = np.empty(int(out_starts[-1]), dtype=np.int64)
        drep = np.repeat(net_ids, dvia_per_net)
        dpos = (
            out_starts[:-1][drep]
            + np.arange(drep.size, dtype=np.int64)
            - routing.dvia_starts[:-1][drep]
        )
        via_lower[dpos] = routing.dvia_lower
        crep = np.repeat(net_ids, cvia_per_net)
        cpos = (
            out_starts[:-1][crep] + dvia_per_net[crep]
            + np.arange(crep.size, dtype=np.int64)
            - via_bounds[:-1][crep]
        )
        via_lower[cpos] = routing.via_lower
        return LayoutArrays(
            placement=base,
            routing=routing,
            seg_layer=routing.seg_layer,
            seg_length=routing.segment_lengths(),
            seg_net=np.repeat(net_ids, seg_per_net),
            via_lower=via_lower,
            via_net=np.repeat(net_ids, dvia_per_net + cvia_per_net),
        )
