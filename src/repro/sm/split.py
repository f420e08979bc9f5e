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
from repro.layout.layout import Layout
from repro.netlist.arrays import netlist_arrays

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


@dataclass
class FEOLArrays:
    """The columns of a :class:`FEOLView`: its open vpins and, for scoring
    only, the ground-truth connections.

    Vpin columns are in vpin order, so first-occurrence index semantics
    (the lowest row wins a tie) are preserved.  Names are integer keys
    into small tables in first-appearance order: ``*_gate_idx`` into
    ``gate_names`` (drivers first, then sinks; ``-1`` for an I/O
    terminal), which lets the attacks compare gate identity without string
    broadcasting, ``driver_net_idx``/``conn_net_idx`` into ``net_names``
    (driver nets first; ``-1`` for a vpin without a net) and
    ``sink_pin_idx`` into ``pin_names`` (``-1`` without a pin).  Connection
    ``c`` joins driver row ``conn_driver[c]`` and sink row ``conn_sink[c]``.
    Attacks never read the ``conn_*`` columns.
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


@dataclass(eq=False)
class FEOLView:
    """Everything below the split layer, as seen by the FEOL foundry.

    A view is its columns: :func:`extract_feol` fills :attr:`columns` (an
    :class:`FEOLArrays` of the open vpins and the ground-truth connections)
    and the cut-net mask over the routing it was extracted from.  Attacks
    and metrics read ``view.columns``; the ``visible_nets``/``cut_nets``
    name sets are built from the mask on first access.
    """

    layout: Layout
    split_layer: int
    columns: FEOLArrays = field(repr=False)
    #: The routing extracted from and which of its nets are cut.
    routing: RoutingArrays = field(repr=False)
    net_is_cut: np.ndarray = field(repr=False)

    def _nets(self, cut: bool) -> Set[str]:
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

    @property
    def num_vpins(self) -> int:
        return len(self.columns.driver_ids) + len(self.columns.sink_ids)

    def stats(self) -> Dict[str, float]:
        columns = self.columns
        return {
            "split_layer": self.split_layer,
            "visible_nets": len(self.visible_nets),
            "cut_nets": len(self.cut_nets),
            "drivers": len(columns.driver_ids),
            "sinks": len(columns.sink_ids),
            "connections": columns.num_connections,
        }


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
    into the view's :class:`FEOLArrays`; no routed net is built.

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
    arrays = netlist_arrays(layout.netlist)
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
    max_load = arrays.cell_column("max_load_ff").tolist()
    drivers = arrays.net_driver.tolist()
    for name in net_names:
        driver = drivers[arrays.net_id[name]]
        if driver < 0:
            net_gate.append(-1)
            net_load.append(1e9)
        else:
            net_gate.append(gate_index.setdefault(arrays.gate_names[driver],
                                                  len(gate_index)))
            net_load.append(max_load[driver])

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
        cell = arrays.cells[arrays.gate_cell[arrays.gate_id[name]]].cell
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
