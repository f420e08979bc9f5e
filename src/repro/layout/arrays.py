"""Columnar geometry core: array-backed views of placements and layouts.

Every geometry-heavy consumer in the repository — the proximity attacks, the
Table 1 / Fig. 4 distance metrics, wirelength and via accounting and the
perturbation defenses — historically walked per-object
:class:`~repro.layout.geometry.Point` structures pair by pair in Python.
This module provides the columnar alternative:

* :class:`PlacementArrays` — the placed gates' coordinates plus the
  netlist's driver→sink connection pairs, in the same deterministic order
  the legacy per-object loop used (so the distance metric is a bit-exact
  drop-in);
* :class:`RoutingArrays` — one routing's segment/via/connection columns,
  the only representation of a routing (and its read-only name →
  ``RoutedNet`` mapping);
* :class:`LayoutArrays` — a routing's segment and via columns (layer,
  length, owning-net index);
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

    The driver→sink connection pairs depend only on the netlist topology
    and the *set/order* of placed gates — not on their coordinates — so they
    survive pure geometry edits (gate moves) and are cached separately from
    the coordinate columns.
    """

    #: Placed gates the netlist lacks (a skeleton with any is never
    #: relabelled).
    missing: int
    net_index_by_name: Dict[str, int]
    #: Driver→sink gate connection pairs (placement rows), net then sink
    #: order, and the net of each.
    pair_driver: np.ndarray    # (num_pairs,) intp
    pair_sink: np.ndarray      # (num_pairs,) intp
    pair_net: np.ndarray       # (num_pairs,) intp

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult") -> "PlacementSkeleton":
        """The skeleton of ``placement`` against ``netlist``, read off the
        netlist's integer columns: one pair per placed sink of a net whose
        driver gate is placed, nets in netlist order, sinks in ``Net.sinks``
        order."""
        arrays = netlist_arrays(netlist)
        table, rows = placement.gate_names, placement.gate_index
        if table is arrays.gate_names or table == arrays.gate_names:
            netlist_gate = rows.astype(np.int64)
        else:
            lookup = arrays.gate_id.get
            by_table = np.fromiter((lookup(name, -1) for name in table),
                                   dtype=np.int64, count=len(table))
            netlist_gate = by_table[rows]
        known = netlist_gate >= 0
        # Placement row of every netlist gate (-1: not placed).
        row_of = np.full(arrays.num_gates + 1, -1, dtype=np.intp)
        row_of[netlist_gate[known]] = np.flatnonzero(known)
        driver = row_of[arrays.net_driver]  # net_driver -1 reads the -1 pad
        sink_net = np.repeat(np.arange(arrays.num_nets, dtype=np.intp),
                             np.diff(arrays.sink_start))
        sink = row_of[arrays.fanin_gate[arrays.sink_row]]
        pair = (driver[sink_net] >= 0) & (sink >= 0)
        return PlacementSkeleton(
            missing=int(len(rows) - np.count_nonzero(known)),
            net_index_by_name=arrays.net_id,
            pair_driver=driver[sink_net[pair]],
            pair_sink=sink[pair],
            pair_net=sink_net[pair],
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

    Connection pairs follow the netlist's net order, not the gate order, so
    when ``placement`` places exactly the base skeleton's gates (in any
    order, over the same name table) against the same netlist topology, a
    fresh build equals the base with every gate row mapped through one
    gather.  Returns None when that does not hold.
    """
    last = _last_built
    if last is None:
        return None
    ref, version, base, table, base_order = last
    num_gates = len(placement.gate_index)
    if (ref() is not netlist or version != netlist.topology_version
            or base.missing
            or num_gates != len(base_order)
            or (placement.gate_names is not table
                and placement.gate_names != table)):
        return None
    rows = np.arange(num_gates, dtype=np.intp)
    row_of = np.full(len(table), -1, dtype=np.intp)
    row_of[base_order] = rows
    old_of_new = row_of[placement.gate_index]
    new_of_old = np.full(num_gates, -1, dtype=np.intp)
    new_of_old[old_of_new] = rows
    if (old_of_new < 0).any() or (new_of_old < 0).any():
        return None
    return PlacementSkeleton(
        missing=0,
        net_index_by_name=base.net_index_by_name,
        pair_driver=new_of_old[base.pair_driver],
        pair_sink=new_of_old[base.pair_sink],
        pair_net=base.pair_net,
    )


def _placement_skeleton(netlist: Netlist,
                        placement: "PlacementResult") -> PlacementSkeleton:
    """Cached :class:`PlacementSkeleton` (survives geometry-only edits).

    A placement of the same gates as the last built skeleton (every seed of a
    sweep) gets that skeleton relabelled instead of a new netlist walk.
    """
    global _last_built
    key = (netlist.name, netlist.topology_version, len(placement.gate_index))
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
    """Array-backed view of a placement against one netlist: the gate
    coordinates in placement row order and the driver→sink connection
    pairs of :class:`PlacementSkeleton` (shared across pure gate moves),
    rebuilt per ``geometry_version``.  Pair order mirrors the legacy
    per-object loop (nets in netlist order, sinks in ``Net.sinks`` order),
    so :meth:`pair_distances` is bit-exact with it.
    """

    skeleton: PlacementSkeleton
    gate_xy: np.ndarray        # (num_gates, 2) float64
    _pair_distances: Optional[np.ndarray] = field(default=None, repr=False)

    def pair_distances(self) -> np.ndarray:
        """Manhattan distance of every driver→sink connection pair (cached).

        Elementwise ``|dx| + |dy|`` — the same IEEE operations, in the same
        per-pair order, as the legacy ``manhattan(driver, sink)`` loop.
        """
        if self._pair_distances is None:
            driver, sink = self.skeleton.pair_driver, self.skeleton.pair_sink
            gx = self.gate_xy[:, 0]
            gy = self.gate_xy[:, 1]
            self._pair_distances = (
                np.abs(gx[driver] - gx[sink]) + np.abs(gy[driver] - gy[sink])
            )
        return self._pair_distances

    def pair_mask_for_nets(self, nets: Set[str]) -> np.ndarray:
        """Boolean mask selecting the connection pairs of ``nets``."""
        net_index = self.skeleton.net_index_by_name
        selected = np.asarray(
            sorted(net_index[name] for name in nets if name in net_index),
            dtype=np.intp,
        )
        return np.isin(self.skeleton.pair_net, selected)

    @staticmethod
    def build(netlist: Netlist, placement: "PlacementResult") -> "PlacementArrays":
        # The skeleton's pairs index the gates in placement row order.
        return PlacementArrays(
            skeleton=_placement_skeleton(netlist, placement),
            gate_xy=np.column_stack((placement.gate_x, placement.gate_y)),
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
    """Array-backed view of a layout's routing: segment and via columns."""

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
    def build(routing: RoutingArrays) -> "LayoutArrays":
        """Pure column work over the routing columns.

        Reproduces the per-object walk exactly: per-segment lengths are the
        same ``|dx| + |dy|`` expression ``Segment.length`` evaluates, and the
        via column interleaves each net's driver vias before its connection
        vias (the ``RoutedNet.all_vias`` order).
        """
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
            routing=routing,
            seg_layer=routing.seg_layer,
            seg_length=routing.segment_lengths(),
            seg_net=np.repeat(net_ids, seg_per_net),
            via_lower=via_lower,
            via_net=np.repeat(net_ids, dvia_per_net + cvia_per_net),
        )
