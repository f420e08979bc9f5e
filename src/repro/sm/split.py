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
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.layout.arrays import UniformGridIndex, _fast_point
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
class FEOLView:
    """Everything below the split layer, as seen by the FEOL foundry."""

    layout: Layout
    split_layer: int
    #: Nets fully routed at or below the split layer (attacker sees them whole).
    visible_nets: Set[str] = field(default_factory=set)
    #: Nets with at least one connection crossing the split layer.
    cut_nets: Set[str] = field(default_factory=set)
    driver_vpins: List[VPin] = field(default_factory=list)
    sink_vpins: List[VPin] = field(default_factory=list)
    #: Ground-truth pairing, for scoring only.
    open_connections: List[OpenConnection] = field(default_factory=list)
    #: Monotonic counter keying the cached columnar view (see
    #: :func:`feol_arrays`): any in-place edit of the vpin lists after
    #: extraction — replacing vpins, re-aiming directions — must call
    #: :meth:`bump_geometry_version`, mirroring the contract on
    #: ``PlacementResult`` / ``Layout``.
    geometry_version: int = 0

    def bump_geometry_version(self) -> int:
        """Record an in-place vpin mutation (invalidates the cached arrays)."""
        self.geometry_version += 1
        return self.geometry_version

    @property
    def num_vpins(self) -> int:
        return len(self.driver_vpins) + len(self.sink_vpins)

    def vpins_of_kind(self, kind: str) -> List[VPin]:
        if kind == "driver":
            return self.driver_vpins
        if kind == "sink":
            return self.sink_vpins
        raise ValueError(f"unknown vpin kind {kind!r}")

    def true_driver_of_sink(self) -> Dict[int, int]:
        """Map sink-vpin id → true driver-vpin id (scoring helper)."""
        return {oc.sink_vpin: oc.driver_vpin for oc in self.open_connections}

    def driver_vpin_nets(self) -> Dict[int, str]:
        """Map driver-vpin id → the FEOL net it belongs to."""
        return {
            vpin.identifier: vpin.net
            for vpin in self.driver_vpins
            if vpin.net is not None
        }

    def protected_sink_vpins(self) -> Set[int]:
        """Sink vpins belonging to nets the defense randomized."""
        return {oc.sink_vpin for oc in self.open_connections if oc.protected}

    def stats(self) -> Dict[str, float]:
        return {
            "split_layer": self.split_layer,
            "visible_nets": len(self.visible_nets),
            "cut_nets": len(self.cut_nets),
            "driver_vpins": len(self.driver_vpins),
            "sink_vpins": len(self.sink_vpins),
            "open_connections": len(self.open_connections),
        }

    def arrays(self) -> "FEOLArrays":
        """The cached columnar view of this FEOL view (see :func:`feol_arrays`)."""
        return feol_arrays(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_geometry_cache", None)  # cached arrays are rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass
class FEOLArrays:
    """Array-backed view of a :class:`FEOLView`'s open vpins.

    Driver and sink columns follow ``view.driver_vpins`` /
    ``view.sink_vpins`` list order, so first-occurrence index semantics are
    preserved.  ``*_gate_idx`` maps owning gates to small integers shared
    between the two sides (``-1`` for I/O terminals), which lets the attacks
    compare gate identity without string broadcasting.
    """

    driver_ids: np.ndarray       # (d,) int64 vpin identifiers
    driver_xy: np.ndarray        # (d, 2) float64
    driver_dir: np.ndarray       # (d, 2) float64, (0, 0) when absent
    driver_has_dir: np.ndarray   # (d,) bool
    driver_max_load: np.ndarray  # (d,) float64
    driver_gate_idx: np.ndarray  # (d,) int64, -1 for port terminals
    sink_ids: np.ndarray         # (s,) int64
    sink_xy: np.ndarray          # (s, 2) float64
    sink_dir: np.ndarray         # (s, 2) float64
    sink_has_dir: np.ndarray     # (s,) bool
    sink_cap: np.ndarray         # (s,) float64
    sink_gate_idx: np.ndarray    # (s,) int64
    _driver_grid: Optional[UniformGridIndex] = field(default=None, repr=False)

    def driver_grid(self) -> UniformGridIndex:
        """Lazily built spatial index over the driver-vpin positions."""
        if self._driver_grid is None:
            self._driver_grid = UniformGridIndex(self.driver_xy)
        return self._driver_grid

    @staticmethod
    def build(view: "FEOLView") -> "FEOLArrays":
        gate_index: Dict[str, int] = {}

        def gate_of(vpin: VPin) -> int:
            if vpin.gate is None:
                return -1
            return gate_index.setdefault(vpin.gate, len(gate_index))

        def columns(vpins: List[VPin]):
            ids = np.asarray([v.identifier for v in vpins], dtype=np.int64)
            if vpins:
                xy = np.asarray(
                    [(v.position.x, v.position.y) for v in vpins], dtype=np.float64
                )
                direction = np.asarray(
                    [v.direction if v.direction is not None else (0.0, 0.0)
                     for v in vpins],
                    dtype=np.float64,
                )
            else:
                xy = np.empty((0, 2), dtype=np.float64)
                direction = np.empty((0, 2), dtype=np.float64)
            has_dir = np.asarray(
                [v.direction is not None for v in vpins], dtype=bool
            )
            gates = np.asarray([gate_of(v) for v in vpins], dtype=np.int64)
            return ids, xy, direction, has_dir, gates

        d_ids, d_xy, d_dir, d_has, d_gates = columns(view.driver_vpins)
        s_ids, s_xy, s_dir, s_has, s_gates = columns(view.sink_vpins)
        return FEOLArrays(
            driver_ids=d_ids,
            driver_xy=d_xy,
            driver_dir=d_dir,
            driver_has_dir=d_has,
            driver_max_load=np.asarray(
                [v.max_load_ff for v in view.driver_vpins], dtype=np.float64
            ),
            driver_gate_idx=d_gates,
            sink_ids=s_ids,
            sink_xy=s_xy,
            sink_dir=s_dir,
            sink_has_dir=s_has,
            sink_cap=np.asarray(
                [v.capacitance_ff for v in view.sink_vpins], dtype=np.float64
            ),
            sink_gate_idx=s_gates,
        )


def feol_arrays(view: FEOLView) -> FEOLArrays:
    """Return (and cache) the :class:`FEOLArrays` view of ``view``.

    FEOL views are normally immutable once :func:`extract_feol` returns; the
    cache keys on ``view.geometry_version`` (bump it after any in-place vpin
    edit) with the vpin counts as an extra safety net against list growth.
    """
    key = (view.geometry_version, len(view.driver_vpins), len(view.sink_vpins))
    cached = view.__dict__.get("_geometry_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    arrays = FEOLArrays.build(view)
    view.__dict__["_geometry_cache"] = (key, arrays)
    return arrays


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


#: ``(cos, sin)`` of every snapped compass angle, keyed by its step index.
_STEP = 2.0 * math.pi / DIRECTION_QUANTIZATION
_COMPASS = {
    k: (math.cos(k * _STEP), math.sin(k * _STEP))
    for k in range(-DIRECTION_QUANTIZATION // 2, DIRECTION_QUANTIZATION // 2 + 1)
}


def _directions(x: np.ndarray, y: np.ndarray, hint_x: np.ndarray,
                hint_y: np.ndarray, has_hint: np.ndarray
                ) -> List[Optional[Tuple[float, float]]]:
    """Unit vector from every position towards its hint, snapped to the
    :data:`DIRECTION_QUANTIZATION` compass points (``None`` without a hint
    or when the hint coincides with the position).  The angle is one
    ``math.atan2`` per vpin, snapped to ``round(angle / step) * step``; its
    cosine and sine are looked up in :data:`_COMPASS`."""
    dx = hint_x - x
    dy = hint_y - y
    defined = has_hint & ~((np.abs(dx) < 1e-9) & (np.abs(dy) < 1e-9))
    atan2 = math.atan2
    return [
        _COMPASS[round(atan2(ddy, ddx) / _STEP)] if ok else None
        for ddx, ddy, ok in zip(dx.tolist(), dy.tolist(), defined.tolist())
    ]


def _direction_columns(directions: List[Optional[Tuple[float, float]]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """FEOLArrays direction columns: unit vectors ((0, 0) when absent)."""
    return (
        np.asarray([d if d is not None else (0.0, 0.0) for d in directions],
                   dtype=np.float64).reshape(-1, 2),
        np.asarray([d is not None for d in directions], dtype=bool),
    )


_new_vpin = VPin.__new__


def _fast_vpin(fields: Dict[str, object]) -> VPin:
    """Build a frozen :class:`VPin` through ``__dict__`` (``fields`` in
    field order), skipping the generated ``__init__``'s per-field
    ``object.__setattr__`` calls."""
    vpin = _new_vpin(VPin)
    vpin.__dict__.update(fields)
    return vpin


def extract_feol(layout: Layout, split_layer: int,
                 stub_fraction: float = DEFAULT_STUB_FRACTION) -> FEOLView:
    """Build the FEOL view of ``layout`` for a split after ``split_layer``.

    Column-native: the cut mask, the stub positions and directions and the
    :class:`FEOLArrays` cache are computed on the routing's
    :class:`~repro.layout.arrays.RoutingArrays` columns, so no routed net is
    materialized.  VPin and OpenConnection objects are built for cut
    connections only.

    Args:
        layout: A routed layout (original, naively lifted, or protected).
        split_layer: Topmost FEOL metal layer (e.g. 3 → split after M3).
        stub_fraction: How far (as a fraction of the distance to the route's
            FEOL continuation target) the dangling stubs extend; see
            :data:`DEFAULT_STUB_FRACTION`.  Clamped to [0, 0.5]; 0 places every
            vpin directly at its cell.

    Returns:
        A populated :class:`FEOLView` with its :func:`feol_arrays` cache set.
    """
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    view = FEOLView(layout=layout, split_layer=split_layer)
    netlist = layout.netlist
    routing = layout.routing
    names = list(routing)

    # A connection is cut when its lateral routing runs above the split.
    cut = (routing.h_layer > split_layer) | (routing.v_layer > split_layer)
    owner = np.repeat(
        np.arange(len(names), dtype=np.int64), np.diff(routing.conn_starts)
    )
    cut_idx = np.flatnonzero(cut)
    net_is_cut = np.zeros(len(names), dtype=bool)
    net_is_cut[owner[cut_idx]] = True
    view.visible_nets.update(compress(names, (~net_is_cut).tolist()))
    view.cut_nets.update(compress(names, net_is_cut.tolist()))

    # Stub hints per cut connection (the hint columns hold every
    # connection's hint coordinates, router defaults included).
    conn_owner = owner[cut_idx]
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
    d_dir = _directions(d_x, d_y, src_hx, src_hy, src_has)
    s_x, s_y = _stub_tips(tx, ty, tgt_hx, tgt_hy, tgt_has, stub_fraction)
    s_dir = _directions(s_x, s_y, tgt_hx, tgt_hy, tgt_has)

    drivers: Dict[int, Tuple[Optional[str], Optional[str], object]] = {}
    for index in np.flatnonzero(net_is_cut).tolist():
        net_name = names[index]
        net = netlist.nets[net_name]
        if net.driver is not None:
            gate, pin = net.driver
            drivers[index] = (gate, pin, netlist.gates[gate].cell)
        else:
            drivers[index] = (
                None, net_name if net.is_primary_input else None, None
            )

    protected_nets = layout.protected_nets
    gate_index: Dict[str, int] = {}
    driver_vpins = view.driver_vpins
    sink_vpins = view.sink_vpins
    max_loads: List[float] = []
    caps: List[float] = []
    sink_gates: List[Optional[str]] = []
    gate_names = routing.gate_names
    sink_tokens = routing.sink_tokens
    for k, (gate_id, token, net_idx, dx, dy, ddir, sxk, syk, sdir,
            prot) in enumerate(zip(
            routing.sink_gate[cut_idx].tolist(),
            routing.sink_token[cut_idx].tolist(), conn_owner.tolist(),
            d_x.tolist(), d_y.tolist(), d_dir, s_x.tolist(), s_y.tolist(),
            s_dir, routing.protected[cut_idx].tolist())):
        net_name = names[net_idx]
        driver_gate, driver_pin, driver_cell = drivers[net_idx]
        max_load = driver_cell.max_load_ff if driver_cell is not None else 1e9
        max_loads.append(max_load)
        driver_vpins.append(_fast_vpin({
            "identifier": 2 * k,
            "kind": "driver",
            "position": _fast_point(dx, dy),
            "gate": driver_gate,
            "pin": driver_pin,
            "cell": driver_cell.name if driver_cell is not None else None,
            "direction": ddir,
            "capacitance_ff": 0.0,
            "max_load_ff": max_load,
            "drive_resistance_kohm": (
                driver_cell.drive_resistance_kohm
                if driver_cell is not None else 0.0
            ),
            "net": net_name,
        }))

        second = sink_tokens[token]
        if gate_id < 0:
            sink_gate, sink_cell, cap = None, None, 0.0
        else:
            sink_gate = gate_names[gate_id]
            sink_cell = netlist.gates[sink_gate].cell
            cap = sink_cell.pin(second).capacitance_ff
        caps.append(cap)
        sink_gates.append(sink_gate)
        sink_vpins.append(_fast_vpin({
            "identifier": 2 * k + 1,
            "kind": "sink",
            "position": _fast_point(sxk, syk),
            "gate": sink_gate,
            "pin": second,
            "cell": sink_cell.name if sink_cell is not None else None,
            "direction": sdir,
            "capacitance_ff": cap,
            "max_load_ff": 0.0,
            "drive_resistance_kohm": 0.0,
            "net": net_name,
        }))
        view.open_connections.append(OpenConnection(
            net=net_name,
            driver_vpin=2 * k,
            sink_vpin=2 * k + 1,
            # Only the connections the defense actually randomized are
            # scored as "protected"; other (honest) sinks of the same net
            # are ordinary cut connections.
            protected=net_name in protected_nets and bool(prot),
        ))

    # The FEOLArrays cache, filled from the same columns (gate indices in
    # first-appearance order over the drivers, then the sinks).
    def gate_of(gate: Optional[str]) -> int:
        return -1 if gate is None else gate_index.setdefault(gate, len(gate_index))

    num_cut = cut_idx.size
    d_dir_xy, d_has = _direction_columns(d_dir)
    s_dir_xy, s_has = _direction_columns(s_dir)
    arrays = FEOLArrays(
        driver_ids=np.arange(0, 2 * num_cut, 2, dtype=np.int64),
        driver_xy=np.column_stack((d_x, d_y)).astype(np.float64, copy=False),
        driver_dir=d_dir_xy,
        driver_has_dir=d_has,
        driver_max_load=np.asarray(max_loads, dtype=np.float64),
        driver_gate_idx=np.asarray(
            [gate_of(v.gate) for v in driver_vpins], dtype=np.int64
        ),
        sink_ids=np.arange(1, 2 * num_cut, 2, dtype=np.int64),
        sink_xy=np.column_stack((s_x, s_y)).astype(np.float64, copy=False),
        sink_dir=s_dir_xy,
        sink_has_dir=s_has,
        sink_cap=np.asarray(caps, dtype=np.float64),
        sink_gate_idx=np.asarray(
            [gate_of(gate) for gate in sink_gates], dtype=np.int64
        ),
    )
    view.__dict__["_geometry_cache"] = (
        (view.geometry_version, num_cut, num_cut), arrays
    )
    return view
