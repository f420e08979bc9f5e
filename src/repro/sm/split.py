"""FEOL extraction: what an untrusted foundry actually sees.

Given a routed :class:`~repro.layout.layout.Layout` and a split layer, the
FEOL view contains:

* every placed cell with its library master (the foundry fabricates them);
* every net whose routing stays at or below the split layer, in full;
* for every net that crosses the split layer, one **vpin** per open terminal:
  the via stack position in the topmost FEOL layer, whether it is a driver or
  a sink terminal, which gate/pin it belongs to, the direction its dangling
  stub points in, and the electrical facts an attacker can derive from the
  cell library (pin capacitance, driver strength).

The ground-truth pairing (which sink vpin belongs to which driver vpin) is
carried alongside for *scoring only* — attack implementations never read it.

A key subtlety for the paper's protected layouts: the FEOL of those layouts
was placed and routed for the *erroneous* netlist, so the dangling-stub
directions recorded here point towards the erroneous partners (the
``source_hint`` / ``target_hint`` fields the protection flow sets), not the
true ones.  For honest layouts the hints coincide with the true partners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.layout.arrays import RoutingArrays, UniformGridIndex
from repro.layout.geometry import Point
from repro.layout.layout import Layout

#: Number of discrete compass directions a dangling stub reveals.  A real
#: stub tells an attacker only the rough heading of the missing wire, so the
#: direction hint is quantized (Wang et al. use the same kind of coarse
#: directional information).
DIRECTION_QUANTIZATION = 8

#: Fraction of the way towards the route's continuation that the dangling
#: FEOL stub of a cut connection extends.  In a real layout the lower-layer
#: escape routing and the partially-routed FEOL segments of a cut net carry
#: it a good part of the way towards its BEOL continuation; the vpin (the via
#: location in the topmost FEOL layer) therefore sits *between* the owning
#: cell and the missing partner, which is precisely the proximity leverage
#: the attacks of Wang et al. and Magaña et al. exploit.  For the paper's
#: protected layouts the continuation recorded in the FEOL is the *erroneous*
#: one, so the same mechanism actively misleads the attacker.
DEFAULT_STUB_FRACTION = 0.47


@dataclass(frozen=True)
class VPin:
    """An open terminal in the topmost FEOL layer."""

    identifier: int
    kind: str  # "driver" or "sink"
    position: Point
    gate: Optional[str]  # owning gate instance; None for an I/O port terminal
    pin: Optional[str]  # gate pin name, or the port name for I/O terminals
    cell: Optional[str]  # library cell of the owning gate (attacker knows masters)
    direction: Optional[Tuple[float, float]]  # dangling-stub heading (unit vector)
    capacitance_ff: float = 0.0  # sink pin load
    max_load_ff: float = 0.0  # driver drive capability
    drive_resistance_kohm: float = 0.0
    #: FEOL net the open via belongs to.  The attacker can see which dangling
    #: stubs are electrically connected below the split, so this is an
    #: observable (opaque) identifier, not ground truth.
    net: Optional[str] = None


@dataclass
class OpenConnection:
    """Ground truth for one cut driver→sink connection (scoring only)."""

    net: str
    driver_vpin: int
    sink_vpin: int
    protected: bool


@dataclass
class FEOLArrays:
    """The columns of a :class:`FEOLView`: its open vpins and, for scoring
    only, the ground-truth connections.

    Vpin columns are in vpin order (``view.driver_vpins`` /
    ``view.sink_vpins`` order when the view is built from objects), so
    first-occurrence index semantics are preserved.  Names are integer keys
    into small tables in first-appearance order: ``*_gate_idx`` into
    ``gate_names`` (drivers first, then sinks; ``-1`` for an I/O
    terminal), which lets the attacks compare gate identity without string
    broadcasting, ``driver_net_idx``/``conn_net_idx`` into ``net_names``
    (driver nets first; ``-1`` for a vpin without a net) and
    ``sink_pin_idx`` into ``pin_names`` (``-1`` without a pin).  Connection
    ``c`` joins driver row ``conn_driver[c]`` and sink row ``conn_sink[c]``
    (``-1`` where its vpin id is not listed).  Attacks never read the
    ``conn_*`` columns.
    """

    driver_ids: np.ndarray       # (d,) int64 vpin identifiers
    driver_xy: np.ndarray        # (d, 2) float64
    driver_dir: np.ndarray       # (d, 2) float64, (0, 0) when absent
    driver_has_dir: np.ndarray   # (d,) bool
    driver_max_load: np.ndarray  # (d,) float64
    driver_gate_idx: np.ndarray  # (d,) int64, -1 for port terminals
    driver_net_idx: np.ndarray   # (d,) int64
    sink_ids: np.ndarray         # (s,) int64
    sink_xy: np.ndarray          # (s, 2) float64
    sink_dir: np.ndarray         # (s, 2) float64
    sink_has_dir: np.ndarray     # (s,) bool
    sink_cap: np.ndarray         # (s,) float64
    sink_gate_idx: np.ndarray    # (s,) int64
    sink_pin_idx: np.ndarray     # (s,) int64
    conn_driver: np.ndarray      # (c,) int64 driver row
    conn_sink: np.ndarray        # (c,) int64 sink row
    conn_net_idx: np.ndarray     # (c,) int64
    conn_protected: np.ndarray   # (c,) bool
    gate_names: List[str] = field(repr=False)
    net_names: List[str] = field(repr=False)
    pin_names: List[str] = field(repr=False)
    _driver_grid: Optional[UniformGridIndex] = field(default=None, repr=False)

    @property
    def num_connections(self) -> int:
        return len(self.conn_sink)

    def driver_grid(self) -> UniformGridIndex:
        """Lazily built spatial index over the driver-vpin positions."""
        if self._driver_grid is None:
            self._driver_grid = UniformGridIndex(self.driver_xy)
        return self._driver_grid

    @staticmethod
    def build(view: "FEOLView") -> "FEOLArrays":
        """The columns of ``view``'s object lists."""
        gate_index: Dict[str, int] = {}
        net_index: Dict[str, int] = {}
        pin_index: Dict[str, int] = {}

        def codes(table: Dict[str, int], names) -> np.ndarray:
            return np.asarray(
                [-1 if name is None else table.setdefault(name, len(table))
                 for name in names],
                dtype=np.int64,
            )

        def columns(vpins: List[VPin]):
            ids = np.asarray([v.identifier for v in vpins], dtype=np.int64)
            xy = np.asarray(
                [(v.position.x, v.position.y) for v in vpins], dtype=np.float64
            ).reshape(-1, 2)
            direction = np.asarray(
                [v.direction if v.direction is not None else (0.0, 0.0)
                 for v in vpins],
                dtype=np.float64,
            ).reshape(-1, 2)
            has_dir = np.asarray(
                [v.direction is not None for v in vpins], dtype=bool
            )
            return ids, xy, direction, has_dir

        drivers, sinks = view.driver_vpins, view.sink_vpins
        connections = view.open_connections
        d_ids, d_xy, d_dir, d_has = columns(drivers)
        s_ids, s_xy, s_dir, s_has = columns(sinks)
        d_gates = codes(gate_index, (v.gate for v in drivers))
        s_gates = codes(gate_index, (v.gate for v in sinks))
        d_nets = codes(net_index, (v.net for v in drivers))
        driver_row = {v.identifier: i for i, v in enumerate(drivers)}
        sink_row = {v.identifier: i for i, v in enumerate(sinks)}
        return FEOLArrays(
            driver_ids=d_ids,
            driver_xy=d_xy,
            driver_dir=d_dir,
            driver_has_dir=d_has,
            driver_max_load=np.asarray(
                [v.max_load_ff for v in drivers], dtype=np.float64
            ),
            driver_gate_idx=d_gates,
            driver_net_idx=d_nets,
            sink_ids=s_ids,
            sink_xy=s_xy,
            sink_dir=s_dir,
            sink_has_dir=s_has,
            sink_cap=np.asarray(
                [v.capacitance_ff for v in sinks], dtype=np.float64
            ),
            sink_gate_idx=s_gates,
            sink_pin_idx=codes(pin_index, (v.pin for v in sinks)),
            conn_driver=np.asarray(
                [driver_row.get(c.driver_vpin, -1) for c in connections],
                dtype=np.int64,
            ),
            conn_sink=np.asarray(
                [sink_row.get(c.sink_vpin, -1) for c in connections],
                dtype=np.int64,
            ),
            conn_net_idx=codes(net_index, (c.net for c in connections)),
            conn_protected=np.asarray(
                [c.protected for c in connections], dtype=bool
            ),
            gate_names=list(gate_index),
            net_names=list(net_index),
            pin_names=list(pin_index),
        )


#: The object views of a :class:`FEOLView`, built together on first access.
_OBJECT_LISTS = ("driver_vpins", "sink_vpins", "open_connections")


@dataclass(eq=False)
class FEOLView:
    """Everything below the split layer, as seen by the FEOL foundry.

    Columns first: :func:`extract_feol` fills only :attr:`columns` (an
    :class:`FEOLArrays`) and the cut-net mask.  The object views — the
    ``visible_nets``/``cut_nets`` name sets and the ``driver_vpins``,
    ``sink_vpins`` and ``open_connections`` lists — are built from those
    columns on first access (one :func:`_materialize` call builds the three
    lists) and kept, the way ``Layout.routing`` builds a ``RoutedNet`` per
    lookup.  Consumers read :func:`feol_arrays`, so attacks and metrics
    build no object.  A bare ``FEOLView(layout, split_layer)`` starts with
    empty object views and is filled by assigning or appending to them.
    """

    layout: Layout
    split_layer: int
    #: Monotonic counter keying the cached columns (see :func:`feol_arrays`):
    #: any in-place edit of the vpin lists after extraction — replacing
    #: vpins, re-aiming directions — must call
    #: :meth:`bump_geometry_version`, mirroring the contract on
    #: ``PlacementResult`` / ``Layout``.
    geometry_version: int = 0
    #: The extracted columns (``None`` for a view built from objects).
    columns: Optional[FEOLArrays] = field(default=None, repr=False)
    #: The routing extracted from and which of its nets are cut.
    routing: Optional[RoutingArrays] = field(default=None, repr=False)
    net_is_cut: Optional[np.ndarray] = field(default=None, repr=False)

    def bump_geometry_version(self) -> int:
        """Record an in-place vpin mutation (invalidates the cached arrays)."""
        self.geometry_version += 1
        return self.geometry_version

    def _nets(self, cut: bool) -> Set[str]:
        if self.net_is_cut is None:
            return set()
        mask = self.net_is_cut if cut else ~self.net_is_cut
        return set(compress(self.routing, mask.tolist()))

    @cached_property
    def visible_nets(self) -> Set[str]:
        """Nets fully routed at or below the split layer (seen whole)."""
        return self._nets(cut=False)

    @cached_property
    def cut_nets(self) -> Set[str]:
        """Nets with at least one connection crossing the split layer."""
        return self._nets(cut=True)

    def _objects(self, name: str) -> list:
        state = self.__dict__
        if name not in state:
            columns = self.columns
            if columns is not None and state.keys().isdisjoint(_OBJECT_LISTS):
                # Objects built now equal the columns until the next bump.
                state["_geometry_cache"] = ((
                    self.geometry_version, len(columns.driver_ids),
                    len(columns.sink_ids),
                ), columns)
            for key, value in zip(_OBJECT_LISTS, _materialize(self)):
                state.setdefault(key, value)
        return state[name]

    @cached_property
    def driver_vpins(self) -> List[VPin]:
        return self._objects("driver_vpins")

    @cached_property
    def sink_vpins(self) -> List[VPin]:
        return self._objects("sink_vpins")

    @cached_property
    def open_connections(self) -> List[OpenConnection]:
        """Ground-truth pairing, for scoring only."""
        return self._objects("open_connections")

    @property
    def num_vpins(self) -> int:
        arrays = feol_arrays(self)
        return len(arrays.driver_ids) + len(arrays.sink_ids)

    def true_driver_of_sink(self) -> Dict[int, int]:
        """Map sink-vpin id → true driver-vpin id (scoring helper)."""
        arrays = feol_arrays(self)
        known = (arrays.conn_sink >= 0) & (arrays.conn_driver >= 0)
        return dict(zip(arrays.sink_ids[arrays.conn_sink[known]].tolist(),
                        arrays.driver_ids[arrays.conn_driver[known]].tolist()))

    def driver_vpin_nets(self) -> Dict[int, str]:
        """Map driver-vpin id → the FEOL net it belongs to."""
        arrays = feol_arrays(self)
        names = arrays.net_names
        return {
            vpin: names[net]
            for vpin, net in zip(arrays.driver_ids.tolist(),
                                 arrays.driver_net_idx.tolist())
            if net >= 0
        }

    def protected_sink_vpins(self) -> Set[int]:
        """Sink vpins belonging to nets the defense randomized."""
        arrays = feol_arrays(self)
        rows = arrays.conn_sink[arrays.conn_protected & (arrays.conn_sink >= 0)]
        return set(arrays.sink_ids[rows].tolist())

    def stats(self) -> Dict[str, float]:
        arrays = feol_arrays(self)
        return {
            "split_layer": self.split_layer,
            "visible_nets": len(self.visible_nets),
            "cut_nets": len(self.cut_nets),
            "driver_vpins": len(arrays.driver_ids),
            "sink_vpins": len(arrays.sink_ids),
            "open_connections": arrays.num_connections,
        }

    def arrays(self) -> FEOLArrays:
        """The cached columnar view of this FEOL view (see :func:`feol_arrays`)."""
        return feol_arrays(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_geometry_cache", None)  # cached arrays are rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def feol_arrays(view: FEOLView) -> FEOLArrays:
    """Return (and cache) the :class:`FEOLArrays` view of ``view``.

    An extracted view whose object lists were never built answers with its
    extracted columns.  Otherwise the cache keys on
    ``view.geometry_version`` (bump it after any in-place vpin edit), with
    the vpin counts as an extra safety net against list growth, and a miss
    rebuilds the columns from the objects.
    """
    state = view.__dict__
    if view.columns is not None and state.keys().isdisjoint(_OBJECT_LISTS):
        return view.columns
    key = (view.geometry_version, len(view.driver_vpins), len(view.sink_vpins))
    cached = state.get("_geometry_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    arrays = FEOLArrays.build(view)
    state["_geometry_cache"] = (key, arrays)
    return arrays


def _materialize(view: FEOLView
                 ) -> Tuple[List[VPin], List[VPin], List[OpenConnection]]:
    """The vpin and open-connection objects of ``view``'s columns (empty
    lists for a view without columns).  The only place they are built."""
    arrays = view.columns
    if arrays is None:
        return [], [], []
    netlist = view.layout.netlist
    gate_names, net_names = arrays.gate_names, arrays.net_names

    def cell_of(gate: Optional[str]):
        return netlist.gates[gate].cell if gate is not None else None

    def direction(has: bool, xy: List[float]) -> Optional[Tuple[float, float]]:
        return tuple(xy) if has else None

    drivers: List[VPin] = []
    for identifier, (x, y), has, xy, load, gate_idx, net_idx in zip(
            arrays.driver_ids.tolist(), arrays.driver_xy.tolist(),
            arrays.driver_has_dir.tolist(), arrays.driver_dir.tolist(),
            arrays.driver_max_load.tolist(), arrays.driver_gate_idx.tolist(),
            arrays.driver_net_idx.tolist()):
        net = netlist.nets[net_names[net_idx]]
        gate = gate_names[gate_idx] if gate_idx >= 0 else None
        cell = cell_of(gate)
        drivers.append(VPin(
            identifier=identifier, kind="driver", position=Point(x, y),
            gate=gate,
            pin=(net.driver[1] if net.driver is not None
                 else net.name if net.is_primary_input else None),
            cell=cell.name if cell is not None else None,
            direction=direction(has, xy), max_load_ff=load,
            drive_resistance_kohm=(
                cell.drive_resistance_kohm if cell is not None else 0.0
            ),
            net=net.name,
        ))
    # Extracted columns pair sink row k with connection k and its net.
    sinks: List[VPin] = []
    for identifier, (x, y), has, xy, cap, gate_idx, pin_idx, net_idx in zip(
            arrays.sink_ids.tolist(), arrays.sink_xy.tolist(),
            arrays.sink_has_dir.tolist(), arrays.sink_dir.tolist(),
            arrays.sink_cap.tolist(), arrays.sink_gate_idx.tolist(),
            arrays.sink_pin_idx.tolist(), arrays.conn_net_idx.tolist()):
        gate = gate_names[gate_idx] if gate_idx >= 0 else None
        cell = cell_of(gate)
        sinks.append(VPin(
            identifier=identifier, kind="sink", position=Point(x, y),
            gate=gate, pin=arrays.pin_names[pin_idx],
            cell=cell.name if cell is not None else None,
            direction=direction(has, xy), capacitance_ff=cap,
            net=net_names[net_idx],
        ))
    connections = [
        OpenConnection(net=net_names[net_idx], driver_vpin=drivers[d].identifier,
                       sink_vpin=sinks[s].identifier, protected=protected)
        for d, s, net_idx, protected in zip(
            arrays.conn_driver.tolist(), arrays.conn_sink.tolist(),
            arrays.conn_net_idx.tolist(), arrays.conn_protected.tolist())
    ]
    return drivers, sinks, connections


def _stub_tips(anchor_x: np.ndarray, anchor_y: np.ndarray,
               hint_x: np.ndarray, hint_y: np.ndarray, has_hint: np.ndarray,
               stub_fraction: float) -> Tuple[np.ndarray, np.ndarray]:
    """Dangling-stub tip positions: part of the way from each anchor towards
    its hint (the anchor itself without a hint or with a zero fraction)."""
    if stub_fraction <= 0.0:
        return anchor_x, anchor_y
    fraction = min(max(stub_fraction, 0.0), 0.5)
    return (
        np.where(has_hint, anchor_x + fraction * (hint_x - anchor_x), anchor_x),
        np.where(has_hint, anchor_y + fraction * (hint_y - anchor_y), anchor_y),
    )


#: ``(cos, sin)`` of every snapped compass angle, row ``k + Q // 2`` for
#: step index ``k`` in ``[-Q // 2, Q // 2]`` (``Q`` the quantization).
_STEP = 2.0 * math.pi / DIRECTION_QUANTIZATION
_COMPASS = np.asarray([
    (math.cos(k * _STEP), math.sin(k * _STEP))
    for k in range(-DIRECTION_QUANTIZATION // 2, DIRECTION_QUANTIZATION // 2 + 1)
])


def _directions(x: np.ndarray, y: np.ndarray, hint_x: np.ndarray,
                hint_y: np.ndarray, has_hint: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Unit vectors from every position towards its hint, snapped to the
    :data:`DIRECTION_QUANTIZATION` compass points, as ``(dir, has_dir)``
    columns (``(0, 0)`` and False without a hint or when the hint coincides
    with the position).  The angle is one ``math.atan2`` per vpin, snapped
    to ``round(angle / step) * step`` (``np.rint`` rounds half to even, as
    ``round`` does); its cosine and sine are read from :data:`_COMPASS`."""
    dx = hint_x - x
    dy = hint_y - y
    defined = has_hint & ~((np.abs(dx) < 1e-9) & (np.abs(dy) < 1e-9))
    angle = np.fromiter(
        map(math.atan2, dy[defined].tolist(), dx[defined].tolist()),
        dtype=np.float64, count=int(np.count_nonzero(defined)),
    )
    step = np.rint(angle / _STEP).astype(np.intp)
    direction = np.zeros((len(x), 2), dtype=np.float64)
    direction[defined] = _COMPASS[step + DIRECTION_QUANTIZATION // 2]
    return direction, defined


def _first_appearance(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, rank)``: the distinct values of ``codes`` in order of
    first appearance, and each element's position in ``distinct``."""
    distinct, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def extract_feol(layout: Layout, split_layer: int,
                 stub_fraction: float = DEFAULT_STUB_FRACTION) -> FEOLView:
    """Build the FEOL view of ``layout`` for a split after ``split_layer``.

    Columns only: the cut mask, the stub positions and directions, the
    electrical hints and the ground-truth connection columns are computed
    on the routing's :class:`~repro.layout.arrays.RoutingArrays` columns
    into the view's :class:`FEOLArrays`.  No routed net, vpin or
    open-connection object is built; the view's object lists are built from
    the columns if and when they are read, and editing them afterwards
    needs :meth:`FEOLView.bump_geometry_version` as before.

    Cut connection ``k`` (in routing order) becomes driver vpin ``2k``,
    sink vpin ``2k + 1`` and connection ``k``.

    Args:
        layout: A routed layout (original, naively lifted, or protected).
        split_layer: Topmost FEOL metal layer (e.g. 3 → split after M3).
        stub_fraction: How far (as a fraction of the distance to the route's
            FEOL continuation target) the dangling stubs extend; see
            :data:`DEFAULT_STUB_FRACTION`.  Clamped to [0, 0.5]; 0 places every
            vpin directly at its cell.

    Returns:
        A :class:`FEOLView` holding its columns.
    """
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    netlist = layout.netlist
    gates = netlist.gates
    routing = layout.routing

    # A connection is cut when its lateral routing runs above the split.
    cut = (routing.h_layer > split_layer) | (routing.v_layer > split_layer)
    owner = np.repeat(
        np.arange(routing.num_nets, dtype=np.int64), np.diff(routing.conn_starts)
    )
    cut_idx = np.flatnonzero(cut)
    num_cut = cut_idx.size
    conn_owner = owner[cut_idx]
    net_is_cut = np.zeros(routing.num_nets, dtype=bool)
    net_is_cut[conn_owner] = True
    # The net table is the cut nets in routing order.
    net_names = [routing.net_names[i]
                 for i in routing.net_index[net_is_cut].tolist()]
    conn_net = (np.cumsum(net_is_cut) - 1)[conn_owner]

    # Stub hints per cut connection (the hint columns hold every
    # connection's hint coordinates, router defaults included).
    tx, ty = routing.tx[cut_idx], routing.ty[cut_idx]
    src_hx, src_hy = routing.hint_sx[cut_idx], routing.hint_sy[cut_idx]
    src_has = routing.hint_src_present[cut_idx].astype(bool)
    tgt_hx, tgt_hy = routing.hint_tx[cut_idx], routing.hint_ty[cut_idx]
    tgt_has = routing.hint_tgt_present[cut_idx].astype(bool)

    # Driver-side vpins: one open via per cut connection on the driver's
    # FEOL trunk, its stub heading where the FEOL routing of this connection
    # was actually going (the erroneous partner for protected nets).  A net
    # without a driver point anchors at the origin (columns hold 0.0).
    d_x, d_y = _stub_tips(
        routing.driver_x[conn_owner], routing.driver_y[conn_owner],
        src_hx, src_hy, src_has, stub_fraction,
    )
    d_dir, d_has = _directions(d_x, d_y, src_hx, src_hy, src_has)
    s_x, s_y = _stub_tips(tx, ty, tgt_hx, tgt_hy, tgt_has, stub_fraction)
    s_dir, s_has = _directions(s_x, s_y, tgt_hx, tgt_hy, tgt_has)

    # Driver gates and loads, one lookup per cut net.  Gate indices are in
    # first-appearance order over the drivers, then the sinks.
    gate_index: Dict[str, int] = {}
    net_gate: List[int] = []
    net_load: List[float] = []
    protected_nets = layout.protected_nets
    net_protected = [name in protected_nets for name in net_names]
    for name in net_names:
        driver = netlist.nets[name].driver
        if driver is None:
            net_gate.append(-1)
            net_load.append(1e9)
        else:
            net_gate.append(gate_index.setdefault(driver[0], len(gate_index)))
            net_load.append(gates[driver[0]].cell.max_load_ff)

    # Sink gates, pins and loads, one lookup per distinct gate and per
    # distinct (cell, pin).
    sink_gate = routing.sink_gate[cut_idx]
    placed = sink_gate >= 0
    distinct_gates, gate_rank = _first_appearance(sink_gate[placed])
    distinct_pins, sink_pin_idx = _first_appearance(routing.sink_token[cut_idx])
    pin_names = [routing.sink_tokens[t] for t in distinct_pins.tolist()]
    cell_index: Dict[str, int] = {}
    cells = []
    sink_codes: List[int] = []
    sink_cell_codes: List[int] = []
    for gate_id in distinct_gates.tolist():
        name = routing.gate_names[gate_id]
        sink_codes.append(gate_index.setdefault(name, len(gate_index)))
        cell = gates[name].cell
        code = cell_index.setdefault(cell.name, len(cell_index))
        if code == len(cells):
            cells.append(cell)
        sink_cell_codes.append(code)
    sink_gate_idx = np.full(num_cut, -1, dtype=np.int64)
    sink_gate_idx[placed] = np.asarray(sink_codes, dtype=np.int64)[gate_rank]
    num_pins = len(pin_names)
    cell_pins, cell_pin_rank = np.unique(
        np.asarray(sink_cell_codes, dtype=np.int64)[gate_rank] * num_pins
        + sink_pin_idx[placed],
        return_inverse=True,
    )
    sink_cap = np.zeros(num_cut, dtype=np.float64)
    sink_cap[placed] = np.asarray([
        cells[key // num_pins].pin(pin_names[key % num_pins]).capacitance_ff
        for key in cell_pins.tolist()
    ], dtype=np.float64)[cell_pin_rank]

    every = np.arange(num_cut, dtype=np.int64)
    columns = FEOLArrays(
        driver_ids=2 * every,
        driver_xy=np.column_stack((d_x, d_y)).astype(np.float64, copy=False),
        driver_dir=d_dir,
        driver_has_dir=d_has,
        driver_max_load=np.asarray(net_load, dtype=np.float64)[conn_net],
        driver_gate_idx=np.asarray(net_gate, dtype=np.int64)[conn_net],
        driver_net_idx=conn_net,
        sink_ids=2 * every + 1,
        sink_xy=np.column_stack((s_x, s_y)).astype(np.float64, copy=False),
        sink_dir=s_dir,
        sink_has_dir=s_has,
        sink_cap=sink_cap,
        sink_gate_idx=sink_gate_idx,
        sink_pin_idx=sink_pin_idx,
        conn_driver=every,
        conn_sink=every,
        conn_net_idx=conn_net,
        # Only the connections the defense actually randomized are scored
        # as "protected"; other (honest) sinks of the same net are ordinary
        # cut connections.
        conn_protected=(np.asarray(net_protected, dtype=bool)[conn_net]
                        & routing.protected[cut_idx].astype(bool)),
        gate_names=list(gate_index),
        net_names=net_names,
        pin_names=pin_names,
    )
    return FEOLView(layout=layout, split_layer=split_layer, columns=columns,
                    routing=routing, net_is_cut=net_is_cut)
