"""Global placement and legalization.

The placer stands in for the Innovus ``place_opt_design`` step.  Its job, for
this reproduction, is to give layouts the property that commercial placers
give them and that proximity attacks exploit: *gates that are connected end
up physically close to each other*.  The recipe:

1. **I/O assignment** — primary inputs/outputs are pinned to evenly spaced
   positions on the die boundary (superblue-style peripheral I/O).
2. **Connectivity-driven ordering** — gates are ordered by a depth-first
   traversal of the netlist graph, so logically adjacent gates are adjacent
   in the ordering, and the ordering is folded onto the row grid along a
   serpentine curve.  This yields the "most nets are a few cell pitches
   long, a few nets are global" profile of real placements.
3. **Row legalization** — each gate keeps its fold row; the cells of a row
   are packed into non-overlapping site positions in fold-x order.

The result is deterministic for a given netlist and seed.

:func:`place` runs this recipe on coordinate *columns*: the DFS ordering
walks gate indices over an integer adjacency built once per netlist
(:class:`_OrderingGraph`), the serpentine fold and the row packing are
batched NumPy passes, the result stays in column form
(:class:`PlacementResult`), and :func:`place_batch` shares everything
seed-independent across a seed batch.

Both are **bit-exact** with the seed placer's per-gate loops, kept as the
test oracle ``place_reference`` in ``tests/build_oracle.py``: every
floating-point expression is evaluated with the same operations in the same
order (the legalization cursor chain, for example, is an interleaved
``cumsum`` that reproduces the sequential ``((pos + width) + gap)``
grouping), and the sort-based steps use stable sorts with the oracle's
tie-breaking.  ``tests/test_build_vectorized.py`` asserts equality on all
ISCAS-85 circuits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point
from repro.netlist.arrays import NetlistArrays, netlist_arrays
from repro.netlist.netlist import Netlist
from repro.utils.degrade import warn_once
from repro.utils.rng import make_rng

logger = logging.getLogger("repro.layout")


#: Nets with more gate members than this are cut from the ordering graph
#: (clock/reset-like nets would otherwise chain unrelated gates together).
MAX_ORDERING_FANOUT = 64


@dataclass
class PlacerConfig:
    """The placer's one setting: the seed of its DFS ordering."""

    seed: int = 0


class PositionView(Mapping[str, Point]):
    """Read-only name → :class:`Point` view over coordinate columns.

    Row ``r`` is named ``names[index[r]]`` (``names[r]`` when ``index`` is
    None) and sits at ``(x[r], y[r])``; iteration follows the rows.  Every
    lookup builds a fresh ``Point``; nothing is stored per row.
    """

    __slots__ = ("_names", "_index", "_x", "_y", "_rows")

    def __init__(self, names: Sequence[str], index: Optional[np.ndarray],
                 x: np.ndarray, y: np.ndarray):
        self._names = names
        self._index = index
        self._x = x
        self._y = y
        self._rows: Optional[Dict[str, int]] = None

    def _row_of(self) -> Dict[str, int]:
        if self._rows is None:
            self._rows = {name: row for row, name in enumerate(self)}
        return self._rows

    def __getitem__(self, name: str) -> Point:
        row = self._row_of()[name]
        return Point(float(self._x[row]), float(self._y[row]))

    def __contains__(self, name: object) -> bool:
        return name in self._row_of()

    def __iter__(self) -> Iterator[str]:
        if self._index is None:
            return iter(self._names)
        return map(self._names.__getitem__, self._index.tolist())

    def __len__(self) -> int:
        return len(self._x)


def _column(values: Sequence[float]) -> np.ndarray:
    """A read-only float64 coordinate column."""
    column = np.array(values, dtype=np.float64)
    column.flags.writeable = False
    return column


def _columns_of(positions: Mapping[str, Point]
                ) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """``(names, x, y)`` columns of a name → ``Point`` mapping."""
    points = list(positions.values())
    return (list(positions), _column([p.x for p in points]),
            _column([p.y for p in points]))


@dataclass(eq=False)
class PlacementResult:
    """Placement of every gate plus the fixed I/O pin positions, as columns.

    Row ``r`` places gate ``gate_names[gate_index[r]]`` at ``(gate_x[r],
    gate_y[r])``; rows are in placement order (row by row, left to right,
    for the placer).  ``gate_names`` is the name table ``gate_index``
    points into: the placed netlist's gates in netlist order for placer,
    pool and store products (so ``gate_index`` holds netlist gate indices),
    the given names for :meth:`from_positions`.  Port ``k`` is
    ``port_names[k]`` at ``(port_x[k], port_y[k])``.

    The columns are read-only and may be shared between placements.
    :meth:`set_coordinates` is the one way to move gates or ports: it
    installs new columns and bumps ``geometry_version``, the counter the
    columnar views in :mod:`repro.layout.arrays` key their caches on.
    ``gate_positions``/``port_positions`` are read-only name → ``Point``
    views over the columns.
    """

    floorplan: Floorplan
    gate_names: Sequence[str] = field(repr=False)
    gate_index: np.ndarray     # (num_placed,) int64 into gate_names
    gate_x: np.ndarray         # (num_placed,) float64
    gate_y: np.ndarray
    port_names: List[str]
    port_x: np.ndarray         # (num_ports,) float64
    port_y: np.ndarray
    config: PlacerConfig = field(default_factory=PlacerConfig)
    geometry_version: int = 0

    def __post_init__(self) -> None:
        for column in (self.gate_index, self.gate_x, self.gate_y,
                       self.port_x, self.port_y):
            column.flags.writeable = False

    @classmethod
    def from_positions(cls, floorplan: Floorplan,
                       gate_positions: Mapping[str, Point],
                       port_positions: Mapping[str, Point],
                       config: Optional[PlacerConfig] = None) -> "PlacementResult":
        """Columns of hand-built position mappings (rows in mapping order)."""
        gate_names, gate_x, gate_y = _columns_of(gate_positions)
        return cls(
            floorplan, gate_names, np.arange(len(gate_names), dtype=np.int64),
            gate_x, gate_y, *_columns_of(port_positions),
            config if config is not None else PlacerConfig(),
        )

    @property
    def gate_positions(self) -> Mapping[str, Point]:
        """Read-only gate name → ``Point`` view, in placement order."""
        view = self.__dict__.get("_gate_view")
        if view is None:
            view = self.__dict__["_gate_view"] = PositionView(
                self.gate_names, self.gate_index, self.gate_x, self.gate_y
            )
        return view

    @property
    def port_positions(self) -> Mapping[str, Point]:
        """Read-only port name → ``Point`` view."""
        view = self.__dict__.get("_port_view")
        if view is None:
            view = self.__dict__["_port_view"] = PositionView(
                self.port_names, None, self.port_x, self.port_y
            )
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementResult):
            return NotImplemented
        return (self.floorplan == other.floorplan
                and self.config == other.config
                and self.geometry_version == other.geometry_version
                and self.gate_positions == other.gate_positions
                and self.port_positions == other.port_positions)

    def set_coordinates(self, gate_x: Optional[Sequence[float]] = None,
                        gate_y: Optional[Sequence[float]] = None,
                        port_x: Optional[Sequence[float]] = None,
                        port_y: Optional[Sequence[float]] = None) -> int:
        """Move gates and/or ports: each given column replaces the current
        one row for row (same rows, same order).  Bumps
        ``geometry_version`` and returns it."""
        for name, values in (("gate_x", gate_x), ("gate_y", gate_y),
                             ("port_x", port_x), ("port_y", port_y)):
            if values is None:
                continue
            column = _column(values)
            if column.shape != getattr(self, name).shape:
                raise ValueError(f"{name} must keep {len(getattr(self, name))} rows")
            setattr(self, name, column)
        self.__dict__.pop("_gate_view", None)
        self.__dict__.pop("_port_view", None)
        return self.bump_geometry_version()

    def bump_geometry_version(self) -> int:
        """Record a geometry change (invalidates array caches)."""
        self.geometry_version += 1
        return self.geometry_version

    def __getstate__(self):
        state = dict(self.__dict__)
        for cached in ("_geometry_cache", "_skeleton_cache", "_gate_view",
                       "_port_view"):
            state.pop(cached, None)  # rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# Initial ordering
# ---------------------------------------------------------------------------


class _OrderingGraph:
    """The DFS ordering's gate graph over gate indices, built once per
    netlist and shared by every seed.

    ``neighbours[starts[g]:starts[g + 1]]`` lists gate ``g``'s neighbours
    (fan-in and fan-out; nets with fewer than 2 or more than
    :data:`MAX_ORDERING_FANOUT` gate members cut) in the order the
    historical string adjacency appended them: net order, each net's hub —
    its driver, or its first sink when a primary input drives it — linked
    to every other member.  ``dfs_starts`` lists the gates primary inputs
    drive (first appearance), then every gate.
    """

    def __init__(self, arrays: NetlistArrays):
        n = arrays.num_gates
        # One (hub, member) gate pair per link, in net then sink order.
        counts = np.diff(arrays.sink_start)
        sink_net = np.repeat(np.arange(arrays.num_nets), counts)
        sink_gate = arrays.fanin_gate[arrays.sink_row]
        driven = arrays.net_driver >= 0
        from_driver = driven & (counts >= 1) & (counts < MAX_ORDERING_FANOUT)
        from_first = ~driven & (counts >= 2) & (counts <= MAX_ORDERING_FANOUT)
        first_sink = np.full(arrays.num_nets, -1, dtype=np.int64)
        first_sink[counts > 0] = sink_gate[arrays.sink_start[:-1][counts > 0]]
        position = np.arange(len(sink_net)) - arrays.sink_start[sink_net]
        link = from_driver[sink_net] | (from_first[sink_net] & (position > 0))
        hub = np.where(from_driver, arrays.net_driver, first_sink)[sink_net[link]]
        other = sink_gate[link]
        # Each link appends hub -> member, then member -> hub; a stable
        # sort by source keeps every list in append order.
        source = np.column_stack((hub, other)).ravel()
        self.neighbours = np.column_stack((other, hub)).ravel()[
            np.argsort(source, kind="stable")
        ]
        degree = np.bincount(source, minlength=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=starts[1:])
        self.starts = starts.tolist()
        #: Degrees of the gates with more than one neighbour, in gate order:
        #: one rotation draw each.
        self.multi = np.flatnonzero(degree > 1)
        self.multi_degrees = degree[self.multi].tolist()
        # Per neighbour entry: its gate, its list's start and degree, and
        # ``degree - 1 - position``, which reads a list back to front.
        self.owner = np.repeat(np.arange(n, dtype=np.int64), degree)
        self.entry_start = starts[:-1][self.owner]
        self.entry_degree = degree[self.owner]
        position = np.arange(len(self.neighbours), dtype=np.int64) - self.entry_start
        self.entry_back = self.entry_degree - 1 - position
        # The gates primary inputs drive, in order of first appearance.
        pi_nets = [arrays.net_id[pi] for pi in arrays.primary_inputs
                   if pi in arrays.net_id]
        rows = np.concatenate([arrays.sink_row[arrays.sink_start[net]:
                                               arrays.sink_start[net + 1]]
                               for net in pi_nets] or [np.empty(0, np.int64)])
        gates = arrays.fanin_gate[rows]
        first = np.sort(np.unique(gates, return_index=True)[1])
        self.dfs_starts = gates[first].tolist() + list(range(n))

    def rotated_reversed(self, netlist_name: str, seed: int) -> List[int]:
        """The flat neighbour lists of one seed: each multi-neighbour list
        rotated by ``make_rng(seed, "placer_order", netlist_name)
        .randrange(degree)`` (one draw per list, in gate order), then
        reversed for the LIFO stack."""
        # ``randrange(k)`` of a positive int is ``_randbelow(k)``: the same
        # draws without the argument checks.
        randrange = make_rng(seed, "placer_order", netlist_name)._randbelow
        offset = np.zeros(len(self.starts) - 1, dtype=np.int64)
        offset[self.multi] = [randrange(k) for k in self.multi_degrees]
        # Entry j of a reversed rotated list is list[(offset + degree - 1 - j) % degree].
        index = self.entry_start + (
            (offset[self.owner] + self.entry_back) % self.entry_degree
        )
        return self.neighbours[index].tolist()

    def dfs(self, netlist_name: str, seed: int) -> np.ndarray:
        """Gate index at each rank of one seed's DFS ordering."""
        reversed_lists = self.rotated_reversed(netlist_name, seed)
        starts = self.starts
        visited = bytearray(len(starts) - 1)
        order: List[int] = []
        append = order.append
        for start in self.dfs_starts:
            if visited[start]:
                continue
            stack = [start]
            pop = stack.pop
            while stack:
                gate = pop()
                if visited[gate]:
                    continue
                visited[gate] = 1
                append(gate)
                # Visited neighbours are pushed too and skipped at pop; the
                # traversal order is identical to filtering before the push.
                stack += reversed_lists[starts[gate]:starts[gate + 1]]
        return np.asarray(order, dtype=np.int64)


# ---------------------------------------------------------------------------
# I/O assignment
# ---------------------------------------------------------------------------


def _io_assignment(netlist: Netlist, floorplan: Floorplan) -> Dict[str, Point]:
    """Step 1: pin the primary I/O evenly on the die boundary (inputs, then
    outputs; a name that is both keeps its output position)."""
    port_names = list(netlist.primary_inputs) + list(netlist.primary_outputs)
    return dict(zip(port_names, floorplan.boundary_positions(len(port_names))))


# ---------------------------------------------------------------------------
# Seed-batched build path
# ---------------------------------------------------------------------------


class _PlacerSkeleton:
    """Seed-independent placement state shared by a whole seed batch.

    Everything the placer computes that does not depend on the seed lives
    here, built once per (netlist, floorplan): the I/O assignment, the
    ordering graph (rotated per seed, never mutated), the serpentine fold
    by rank (the fold *positions* and rows depend only on the rank, the seed
    only permutes which gate lands on which rank) and the width column.
    """

    def __init__(self, netlist: Netlist, floorplan: Floorplan):
        self.netlist = netlist
        self.floorplan = floorplan
        self.arrays = netlist_arrays(netlist)
        self.gate_names = self.arrays.gate_names
        self.n = len(self.gate_names)
        # Shared (read-only) port columns of every placement of the batch.
        self.port_names, self.port_x, self.port_y = _columns_of(
            _io_assignment(netlist, floorplan)
        )
        self._graph: Optional[_OrderingGraph] = None
        if self.n == 0:
            return
        n = self.n
        self.num_rows = floorplan.num_rows
        cells_per_row = int(np.ceil(n / self.num_rows))
        self.die = floorplan.die
        ranks = np.arange(n, dtype=np.int64)
        self.rank_rows = np.minimum(ranks // cells_per_row, self.num_rows - 1)
        frac = ((ranks - self.rank_rows * cells_per_row) + 0.5) / cells_per_row
        odd = (self.rank_rows % 2) == 1
        frac[odd] = 1.0 - frac[odd]
        # Fold x by rank — the oracle's per-gate fold expression; the seed
        # only decides which gate takes which rank.
        self.fold_x = self.die.x_min + frac * self.die.width
        self.widths = self.arrays.cell_column("width_um")

    def ordering_ranks(self, seed: int) -> np.ndarray:
        """``rank_gate`` for one seed: gate index at each ordering rank."""
        if self._graph is None:
            self._graph = _OrderingGraph(self.arrays)
        return self._graph.dfs(self.netlist.name, seed)


def _row_partition_batch(X: np.ndarray, row_of: np.ndarray,
                         num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each seed's cells by (row, x, index) over ``(n_seeds, n)``
    coordinate rows and return ``(order, starts)``.

    One flat ``np.lexsort`` keyed (seed, row, x) sorts every seed at once:
    grouping by seed first leaves the per-seed (row, x) order untouched, and
    the stable tie-break on flat position is the per-seed tie-break on cell
    index — the order the oracle gets from ``np.where`` (ascending members)
    followed by a stable per-row ``argsort`` on x.
    """
    n_seeds, n = X.shape
    seed_ids = np.repeat(np.arange(n_seeds, dtype=np.int64), n)
    order_flat = np.lexsort((X.ravel(), row_of.ravel(), seed_ids))
    order = order_flat.reshape(n_seeds, n) - np.arange(n_seeds)[:, None] * n
    counts = np.bincount(
        (row_of + np.arange(n_seeds)[:, None] * num_rows).ravel(),
        minlength=n_seeds * num_rows,
    ).reshape(n_seeds, num_rows)
    starts = np.concatenate(
        (np.zeros((n_seeds, 1), dtype=np.int64), np.cumsum(counts, axis=1)),
        axis=1,
    )
    return order, starts


def _legalize_rows(order: np.ndarray, starts: np.ndarray,
                   skeleton: _PlacerSkeleton) -> Tuple[np.ndarray, np.ndarray]:
    """Row legalization for one seed (pack by x order, scaled to fit).

    Returns the ``(x, y)`` columns of the gates in ``order``, which lists
    them row by row in packing order."""
    die = skeleton.die
    floorplan = skeleton.floorplan
    widths = skeleton.widths
    row_width = die.width
    xs = np.empty(len(order), dtype=np.float64)
    ys = np.empty(len(order), dtype=np.float64)
    for row in range(skeleton.num_rows):
        lo, hi = int(starts[row]), int(starts[row + 1])
        count = hi - lo
        if count == 0:
            continue
        member_widths = widths[order[lo:hi]]
        total_width = member_widths.sum()
        slack = max(row_width - total_width, 0.0)
        gap = slack / (count + 1)
        scale = min(1.0, row_width / total_width) if total_width > 0 else 1.0
        scaled = member_widths * scale
        ys[lo:hi] = float(die.y_min + row * floorplan.row_height_um)
        # The sequential cursor chain  cursor = ((pos + width) + gap)  as an
        # interleaved cumsum: identical left-to-right FP grouping.
        seq = np.empty(2 * count + 1)
        seq[0] = die.x_min + gap
        seq[1::2] = scaled
        seq[2::2] = gap
        cursors = np.cumsum(seq)[0::2][:count]
        limit = die.x_max - scaled
        if np.any(cursors > limit):
            # A cell would spill past the die edge: replay the oracle's
            # clamped scalar walk for this row (clamping alters every
            # subsequent cursor, so the closed form no longer applies).
            warn_once(
                logger, "placer.legalize.clamped_row",
                "placer legalization degraded to the scalar clamped walk for "
                "an over-full row (vectorized cursor chain does not apply); "
                "results are unchanged, packing that row is just slower",
            )
            cursor = die.x_min + gap
            for k, width in enumerate(scaled.tolist()):
                pos_x = min(cursor, die.x_max - width)
                xs[lo + k] = pos_x
                cursor = pos_x + width + gap
            continue
        xs[lo:hi] = cursors
    return xs, ys


def _place_batch(netlist: Netlist, seeds: Sequence[int],
                 floorplan: Optional[Floorplan],
                 utilization: float) -> List[PlacementResult]:
    """Shared core of :func:`place` and :func:`place_batch`: one placement
    per seed, ``seeds[i]`` governing member ``i``'s ordering."""
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    skeleton = _PlacerSkeleton(netlist, floorplan)

    def placement(seed: int, order: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> PlacementResult:
        return PlacementResult(
            floorplan, skeleton.gate_names, order, xs, ys,
            skeleton.port_names, skeleton.port_x, skeleton.port_y,
            PlacerConfig(seed=seed),
        )

    if skeleton.n == 0:
        empty = np.empty(0, dtype=np.float64)
        return [placement(seed, np.empty(0, dtype=np.int64), empty, empty)
                for seed in seeds]

    n_seeds = len(seeds)
    n = skeleton.n
    seed_idx = np.arange(n_seeds)[:, None]

    # --- 2. Connectivity-driven ordering on a serpentine curve -------------
    # One DFS per seed over the shared graph, then one batched scatter of
    # the shared fold x and fold rows through each seed's rank permutation.
    # The fold rows are the oracle's rows: its rank-based spread of the
    # fold y's hands every gate back the row it was folded onto.
    rank_gate = np.empty((n_seeds, n), dtype=np.int64)
    for s, seed in enumerate(seeds):
        rank_gate[s] = skeleton.ordering_ranks(seed)
    X = np.empty((n_seeds, n))
    X[seed_idx, rank_gate] = skeleton.fold_x[None, :]
    row_of = np.empty((n_seeds, n), dtype=np.int64)
    row_of[seed_idx, rank_gate] = skeleton.rank_rows[None, :]

    # --- 3. Row legalization (pack by x order, scaled to fit) ----------------
    # Each seed's packing order, row by row, is its placement order.
    order, starts = _row_partition_batch(X, row_of, skeleton.num_rows)
    return [
        placement(seed, order[s].copy(),
                  *_legalize_rows(order[s], starts[s], skeleton))
        for s, seed in enumerate(seeds)
    ]


def place(netlist: Netlist, floorplan: Optional[Floorplan] = None,
          utilization: float = 0.70,
          config: Optional[PlacerConfig] = None) -> PlacementResult:
    """Place ``netlist`` and return legal cell positions.

    This is the vectorized build path: the fold and the row packing run on
    coordinate columns (a seed batch of one — see :func:`place_batch`).
    Bit-exact with the seed placer at equal seed (see the module docstring
    for the equivalence argument).

    Args:
        netlist: Design to place.
        floorplan: Floorplan to place into; built from the netlist and
            ``utilization`` when omitted.  Supplying the *original* design's
            floorplan when placing the protected design reproduces the
            paper's zero-die-area-overhead setup.
        utilization: Used only when ``floorplan`` is None.
        config: The placer seed (``PlacerConfig()`` when omitted).

    Returns:
        A :class:`PlacementResult` with legalized gate positions and fixed
        I/O positions on the boundary.
    """
    config = config if config is not None else PlacerConfig()
    return _place_batch(netlist, [config.seed], floorplan, utilization)[0]


def place_batch(netlist: Netlist, seeds: Sequence[int],
                floorplan: Optional[Floorplan] = None,
                utilization: float = 0.70) -> List[PlacementResult]:
    """Place ``netlist`` once per seed, sharing all seed-independent work.

    Semantically ``[place(netlist, floorplan, utilization,
    PlacerConfig(seed=s)) for s in seeds]`` — and bit-exact with it, seed
    by seed — but the ordering graph, serpentine fold and I/O assignment
    are built once, and the fold scatter and row partition run on
    ``(n_seeds, n)`` arrays with the seed as the leading axis.  Only the DFS
    traversal and the final row packing remain per-seed.

    Args:
        netlist: Design to place (the same netlist for every seed).
        seeds: Placer seeds, one batch member per entry.
        floorplan: Shared floorplan; built from the netlist and
            ``utilization`` when omitted.
        utilization: Used only when ``floorplan`` is None.

    Returns:
        One :class:`PlacementResult` per seed, in ``seeds`` order.
    """
    if not seeds:
        return []
    return _place_batch(netlist, list(seeds), floorplan, utilization)

