"""Global routing with length-driven layer assignment.

The router stands in for Innovus' global/detailed routing.  It works on the
star decomposition of each net (driver pin → one 2-pin connection per sink)
and produces, per connection:

* an **(H, V) layer pair** chosen from the 10-layer stack by connection
  length — short nets stay on M2/M3, progressively longer nets are promoted
  to M4/M5, M6/M7 and M8/M9, matching the behaviour of commercial routers
  (and the paper's Fig. 5 observation that original layouts keep most wiring
  in the lower layers);
* **wire segments** on those layers following an L/Z pattern whose number of
  jogs grows with length;
* **vias**: a stack from the M1 pins up to the connection's H layer at each
  endpoint plus one H↔V via per bend.  Via stacks at a net's driver are
  shared between the net's connections (counted once at the highest layer
  any connection needs).

Protected / lifted nets are routed with a *minimum layer* floor (M6 or M8 —
the correction-cell pin layer), which is how the paper's correction and
naive-lifting cells keep the affected wiring in the BEOL.

The router is congestion-oblivious; the paper sizes its layouts so that they
are congestion-free, and none of the reproduced metrics depend on detailed
track assignment.

:func:`route` evaluates layer-pair selection and jog counts for *all*
connections at once on NumPy columns (:func:`_select_pairs` and
:func:`_jog_counts` are the whole routing policy) and assembles the
staircase segment/via geometry as array-built coordinate columns, returned
as a :class:`~repro.layout.arrays.RoutingArrays` (which builds
:class:`RoutedNet` objects only when a net is looked up);
:func:`route_batch` does the same for a seed batch.  It is the only router
entry: the protected layout routes through it too and re-aims its swapped
stubs afterwards
(:meth:`~repro.layout.arrays.RoutingArrays.override_hints`).

The columns are bit-exact with the seed router, which routed one 2-pin
connection at a time and is kept as the test oracle ``route_reference`` /
``route_connection`` in ``tests/build_oracle.py``: every floating-point
expression is evaluated with the same operations, in the same order
(fractions are integer-derived, prior positions are reconstructed from the
identical ``source + delta * frac`` expressions).
``tests/test_build_vectorized.py`` asserts equality on all ISCAS circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.layout.arrays import RoutingArrays
from repro.layout.geometry import Point
from repro.layout.placer import PlacementResult
from repro.netlist.arrays import csr, netlist_arrays
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.netlist.netlist import Netlist

#: A sink reference: either a gate input pin ("gate", "pin") or a primary
#: output ("PO", name).
SinkRef = Tuple[str, str]


@dataclass(frozen=True)
class Segment:
    """A straight routed wire piece on one metal layer."""

    layer: int
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def length(self) -> float:
        return abs(self.x2 - self.x1) + abs(self.y2 - self.y1)


@dataclass(frozen=True)
class Via:
    """A via between two *adjacent* metal layers at (x, y)."""

    x: float
    y: float
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.upper != self.lower + 1:
            raise ValueError("Via must span adjacent layers")


@dataclass
class RoutedConnection:
    """One routed driver→sink 2-pin connection."""

    net: str
    sink: SinkRef
    source: Point
    target: Point
    h_layer: int
    v_layer: int
    segments: List[Segment] = field(default_factory=list)
    #: Bend vias (H↔V) plus the sink-side pin-to-H via stack.
    vias: List[Via] = field(default_factory=list)
    #: Point the FEOL dangling stub appears to head towards.  For honest
    #: layouts this is the true partner; for the protected layout it is the
    #: erroneous partner the FEOL was placed and routed for.
    source_hint: Optional[Point] = None
    target_hint: Optional[Point] = None
    #: True when this connection was randomized by the defense and restored
    #: through the BEOL (set by ``repro.core.restore``).
    protected: bool = False

    @property
    def length(self) -> float:
        return sum(segment.length for segment in self.segments)

    @property
    def top_layer(self) -> int:
        layers = [s.layer for s in self.segments] + [v.upper for v in self.vias]
        return max(layers) if layers else 1


@dataclass
class RoutedNet:
    """All routed connections of one net plus the shared driver via stack.

    The object form of one routed net, as a lookup in a routing
    (:class:`~repro.layout.arrays.RoutingArrays`) builds it from the
    columns, and as hand-built routings and the test oracles construct it.
    """

    name: str
    driver_point: Optional[Point]
    connections: List[RoutedConnection] = field(default_factory=list)
    driver_vias: List[Via] = field(default_factory=list)

    @property
    def length(self) -> float:
        return sum(connection.length for connection in self.connections)

    def all_vias(self) -> Iterable[Via]:
        yield from self.driver_vias
        for connection in self.connections:
            yield from connection.vias

    def all_segments(self) -> Iterable[Segment]:
        for connection in self.connections:
            yield from connection.segments

    def wirelength_by_layer(self) -> Dict[int, float]:
        result: Dict[int, float] = {}
        for segment in self.all_segments():
            result[segment.layer] = result.get(segment.layer, 0.0) + segment.length
        return result

    def via_counts(self) -> Dict[Tuple[int, int], int]:
        result: Dict[Tuple[int, int], int] = {}
        for via in self.all_vias():
            key = (via.lower, via.upper)
            result[key] = result.get(key, 0) + 1
        return result

    @property
    def top_layer(self) -> int:
        top = 1
        for connection in self.connections:
            top = max(top, connection.top_layer)
        for via in self.driver_vias:
            top = max(top, via.upper)
        return top


@dataclass
class RouterConfig:
    """Routing policy knobs.

    Attributes:
        layer_pairs: (H, V) pairs in order of increasing preference for longer
            connections.
        length_thresholds: Non-decreasing fractions of the die
            half-perimeter; a connection uses the first pair i whose
            ``length_thresholds[i]`` its length is below (the last pair takes
            everything longer).
        jog_pitch_fraction: One extra jog (Z-bend) is inserted per this
            fraction of the die half-perimeter of connection length.
        lift_escalation_fraction: Lifted connections longer than this fraction
            of the die half-perimeter are promoted one layer pair above the
            lift layer (models the detour routing the restored BEOL wiring
            needs on large designs).
        pin_layer: Layer standard-cell pins live on (M1).
    """

    layer_pairs: Tuple[Tuple[int, int], ...] = ((2, 3), (4, 5), (6, 7), (8, 9), (9, 10))
    length_thresholds: Tuple[float, ...] = (0.18, 0.40, 0.65, 0.85)
    jog_pitch_fraction: float = 0.22
    lift_escalation_fraction: float = 0.40
    pin_layer: int = 1

    def __post_init__(self) -> None:
        thresholds = tuple(self.length_thresholds)
        if any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(
                f"length_thresholds must be non-decreasing, got {thresholds}"
            )


def _new_segments(layers: List[int], x1s: List[float], y1s: List[float],
                  x2s: List[float], y2s: List[float]) -> List[Segment]:
    """Materialize :class:`Segment` objects from flat columns.

    Bypasses the generated frozen-dataclass ``__init__`` (which funnels every
    field through ``object.__setattr__``) by populating ``__dict__`` directly
    — the hot path of the batched router builds hundreds of thousands of
    these.  Field set must match the dataclass definition.
    """
    new = Segment.__new__
    out: List[Segment] = []
    append = out.append
    for layer, x1, y1, x2, y2 in zip(layers, x1s, y1s, x2s, y2s):
        segment = new(Segment)
        d = segment.__dict__
        d["layer"] = layer
        d["x1"] = x1
        d["y1"] = y1
        d["x2"] = x2
        d["y2"] = y2
        append(segment)
    return out


def _new_vias(xs: List[float], ys: List[float], lowers: List[int],
              uppers: List[int]) -> List[Via]:
    """Materialize :class:`Via` objects from flat columns.

    Same ``__dict__`` fast path as :func:`_new_segments`; callers must
    guarantee the adjacency invariant ``upper == lower + 1`` that
    ``Via.__post_init__`` would otherwise enforce (the batched router builds
    its via columns from (H, H+1) layer pairs and unit-step pin stacks).
    """
    new = Via.__new__
    out: List[Via] = []
    append = out.append
    for x, y, lower, upper in zip(xs, ys, lowers, uppers):
        via = new(Via)
        d = via.__dict__
        d["x"] = x
        d["y"] = y
        d["lower"] = lower
        d["upper"] = upper
        append(via)
    return out


def _driver_stacks(h: np.ndarray, net_starts: np.ndarray, pin_layer: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Driver pin via stacks, shared by all connections of a net, reaching
    the highest H layer any of its connections uses (at least the pin
    layer): ``(dvia_starts, owning net per via, lower layer per via)``.
    The per-net max is one ``reduceat`` pass (integer max is
    order-independent, so it is exact)."""
    stack_counts = np.maximum(np.maximum.reduceat(h, net_starts), pin_layer) - pin_layer
    dvia_starts = np.concatenate(([0], np.cumsum(stack_counts))).astype(np.int64)
    stack_rep = np.repeat(np.arange(len(net_starts)), stack_counts)
    stack_layer = pin_layer + (
        np.arange(int(dvia_starts[-1]), dtype=np.int64) - dvia_starts[stack_rep]
    )
    return dvia_starts, stack_rep, stack_layer


@dataclass
class _ConnectionColumns:
    """Flat segment/via geometry columns, CSR-sliced per connection.

    The complete output of the batched staircase construction with **zero**
    Python objects: segment ``i`` of connection ``c`` lives at flat index
    ``seg_starts[c] + i``.  Per-connection piece order is the seed
    router's — staircase steps, close-x, close-y for segments; bend vias,
    close-x via, close-y via, sink pin stack for vias.
    """

    seg_starts: np.ndarray  # (m + 1,) int64
    via_starts: np.ndarray  # (m + 1,) int64
    seg_layer: np.ndarray   # int64
    seg_x1: np.ndarray      # float64
    seg_y1: np.ndarray
    seg_x2: np.ndarray
    seg_y2: np.ndarray
    via_x: np.ndarray       # float64
    via_y: np.ndarray
    via_lower: np.ndarray   # int64
    via_upper: np.ndarray   # int64


def _connection_columns(h: np.ndarray, v: np.ndarray, config: RouterConfig,
                        half_perimeter: float, sx: np.ndarray, sy: np.ndarray,
                        tx: np.ndarray, ty: np.ndarray) -> _ConnectionColumns:
    """Batched staircase geometry as flat columns (no objects built).

    Every floating-point expression is evaluated with the same operations,
    in the same order, as the seed router's per-connection loop; the
    columns are scattered straight into their final per-connection CSR
    slots, so objects built from them (on lookup in a
    :class:`~repro.layout.arrays.RoutingArrays`) reproduce that loop bit
    for bit.
    """
    m = len(h)
    dx = tx - sx
    dy = ty - sy
    lengths = np.abs(sx - tx) + np.abs(sy - ty)  # == manhattan(source, target)

    jogs = _jog_counts(config, lengths, half_perimeter)

    abs_dx = np.abs(dx)
    abs_dy = np.abs(dy)
    degenerate = (abs_dx < 1e-9) & (abs_dy < 1e-9)
    straight = ((abs_dx < 1e-9) | (abs_dy < 1e-9)) & ~degenerate
    stair = ~degenerate & ~straight
    stair_idx = np.nonzero(stair)[0]
    straight_idx = np.nonzero(straight)[0]

    # --- per-connection piece counts → CSR starts ---------------------------
    seg_counts = np.zeros(m, dtype=np.int64)
    seg_counts[straight_idx] = 1
    stack_counts = np.maximum(h - config.pin_layer, 0)
    via_counts = stack_counts.astype(np.int64)
    if stair_idx.size:
        ssteps = jogs[stair_idx] + 1  # steps per stair connection, >= 2
        # Where the staircase loop leaves off, and whether the remaining
        # offset in either direction exceeds the closing tolerance — needed
        # up front because the closers contribute to the piece counts.
        last_even = np.where((ssteps - 1) % 2 == 0, ssteps - 1, ssteps - 2)
        last_odd = np.where((ssteps - 1) % 2 == 1, ssteps - 1, ssteps - 2)
        x_end = sx[stair_idx] + dx[stair_idx] * ((last_even + 1) / ssteps)
        y_end = sy[stair_idx] + dy[stair_idx] * ((last_odd + 1) / ssteps)
        cx_mask = np.abs(x_end - tx[stair_idx]) > 1e-9
        cy_mask = np.abs(y_end - ty[stair_idx]) > 1e-9
        closers = cx_mask.astype(np.int64) + cy_mask.astype(np.int64)
        seg_counts[stair_idx] = ssteps + closers
        via_counts[stair_idx] += (ssteps - 1) + closers
    seg_starts = np.concatenate(([0], np.cumsum(seg_counts)))
    via_starts = np.concatenate(([0], np.cumsum(via_counts)))
    num_segs = int(seg_starts[-1])
    num_vias = int(via_starts[-1])
    seg_layer = np.empty(num_segs, dtype=np.int64)
    seg_x1 = np.empty(num_segs, dtype=np.float64)
    seg_y1 = np.empty(num_segs, dtype=np.float64)
    seg_x2c = np.empty(num_segs, dtype=np.float64)
    seg_y2c = np.empty(num_segs, dtype=np.float64)
    via_x = np.empty(num_vias, dtype=np.float64)
    via_y = np.empty(num_vias, dtype=np.float64)
    via_lower = np.empty(num_vias, dtype=np.int64)
    via_upper = np.empty(num_vias, dtype=np.int64)

    # --- staircase steps (CSR over per-connection step counts) --------------
    if stair_idx.size:
        local_starts = np.concatenate(([0], np.cumsum(ssteps)))
        rep = np.repeat(np.arange(stair_idx.size), ssteps)
        k = np.arange(int(local_starts[-1]), dtype=np.int64) - local_starts[rep]
        conn = stair_idx[rep]
        steps_r = ssteps[rep]
        sxr, syr = sx[conn], sy[conn]
        dxr, dyr = dx[conn], dy[conn]
        even = (k % 2) == 0
        # The same integer-derived fractions the seed router evaluates:
        # frac_next for the move of step k, k/steps and (k-1)/steps for the
        # positions the moves started from.
        frac_next = (k + 1) / steps_r
        frac_k = k / steps_r
        frac_km1 = (k - 1) / steps_r
        new_x = sxr + dxr * frac_next
        new_y = syr + dyr * frac_next
        x_prev = np.where(
            even,
            np.where(k == 0, sxr, sxr + dxr * frac_km1),
            sxr + dxr * frac_k,
        )
        y_prev = np.where(
            even,
            np.where(k == 0, syr, syr + dyr * frac_k),
            np.where(k == 1, syr, syr + dyr * frac_km1),
        )
        x2v = np.where(even, new_x, x_prev)
        y2v = np.where(even, y_prev, new_y)
        dest = seg_starts[conn] + k  # step k is segment k of its connection
        seg_layer[dest] = np.where(even, h[conn], v[conn])
        seg_x1[dest] = x_prev
        seg_y1[dest] = y_prev
        seg_x2c[dest] = x2v
        seg_y2c[dest] = y2v
        # One H<->V via after every non-final step, at the step's endpoint.
        bend = k < (steps_r - 1)
        bdest = via_starts[conn[bend]] + k[bend]
        via_x[bdest] = x2v[bend]
        via_y[bdest] = y2v[bend]
        via_lower[bdest] = h[conn][bend]
        via_upper[bdest] = v[conn][bend]
        # Closing pieces: the remaining offset after the staircase, appended
        # right after the steps (close-x first, like the seed router).
        sel = stair_idx[cx_mask]
        sdest = seg_starts[sel] + ssteps[cx_mask]
        seg_layer[sdest] = h[sel]
        seg_x1[sdest] = x_end[cx_mask]
        seg_y1[sdest] = y_end[cx_mask]
        seg_x2c[sdest] = tx[sel]
        seg_y2c[sdest] = y_end[cx_mask]
        vdest = via_starts[sel] + (ssteps[cx_mask] - 1)
        via_x[vdest] = x_end[cx_mask]
        via_y[vdest] = y_end[cx_mask]
        via_lower[vdest] = h[sel]
        via_upper[vdest] = v[sel]
        # close-y starts from target.x when close-x already closed that axis.
        x_at = np.where(cx_mask, tx[stair_idx], x_end)
        sel = stair_idx[cy_mask]
        cxi = cx_mask[cy_mask].astype(np.int64)
        sdest = seg_starts[sel] + ssteps[cy_mask] + cxi
        seg_layer[sdest] = v[sel]
        seg_x1[sdest] = x_at[cy_mask]
        seg_y1[sdest] = y_end[cy_mask]
        seg_x2c[sdest] = x_at[cy_mask]
        seg_y2c[sdest] = ty[sel]
        vdest = via_starts[sel] + (ssteps[cy_mask] - 1) + cxi
        via_x[vdest] = x_at[cy_mask]
        via_y[vdest] = y_end[cy_mask]
        via_lower[vdest] = h[sel]
        via_upper[vdest] = v[sel]

    # --- straight (single-segment) connections ------------------------------
    if straight_idx.size:
        sdest = seg_starts[straight_idx]
        seg_layer[sdest] = np.where(abs_dy[straight_idx] < 1e-9,
                                    h[straight_idx], v[straight_idx])
        seg_x1[sdest] = sx[straight_idx]
        seg_y1[sdest] = sy[straight_idx]
        seg_x2c[sdest] = tx[straight_idx]
        seg_y2c[sdest] = ty[straight_idx]

    # --- sink pin stacks: the last stack_counts[c] vias of connection c -----
    stack_starts = np.concatenate(([0], np.cumsum(stack_counts)))
    stack_rep = np.repeat(np.arange(m), stack_counts)
    local = (
        np.arange(int(stack_starts[-1]), dtype=np.int64)
        - stack_starts[stack_rep]
    )
    vdest = (
        via_starts[stack_rep]
        + (via_counts[stack_rep] - stack_counts[stack_rep])
        + local
    )
    via_x[vdest] = tx[stack_rep]
    via_y[vdest] = ty[stack_rep]
    via_lower[vdest] = config.pin_layer + local
    via_upper[vdest] = config.pin_layer + local + 1

    return _ConnectionColumns(
        seg_starts=seg_starts, via_starts=via_starts,
        seg_layer=seg_layer, seg_x1=seg_x1, seg_y1=seg_y1,
        seg_x2=seg_x2c, seg_y2=seg_y2c,
        via_x=via_x, via_y=via_y, via_lower=via_lower, via_upper=via_upper,
    )


def _select_pairs(config: RouterConfig, lengths: np.ndarray,
                  half_perimeter: float,
                  lift: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(H, V) layer pair per connection, batched.

    ``lift`` holds the per-connection lift floor (``-1`` = unconstrained).
    An unconstrained connection takes the first pair whose threshold its
    length ratio is below (a right-bisect over the thresholds, which
    :class:`RouterConfig` keeps non-decreasing); a lifted one takes the lift
    layer as a floor and is escalated one layer above it when longer than
    ``lift_escalation_fraction``.  The seed router's per-connection scan is
    kept as a scalar oracle in ``tests/build_oracle.py``.
    """
    m = len(lengths)
    pairs = np.asarray(config.layer_pairs, dtype=np.int64)
    if half_perimeter > 0:
        thresholds = np.asarray(
            config.length_thresholds[:len(config.layer_pairs)], dtype=np.float64
        )
        ratio = lengths / half_perimeter
        pick = np.searchsorted(thresholds, ratio, side="right")
        # A ratio past every threshold falls through to the *last* pair —
        # even when there are fewer thresholds than pairs (the seed router's
        # zip() scan stops at the shorter sequence).
        pick = np.where(pick >= len(thresholds), len(pairs) - 1, pick)
    else:
        pick = np.zeros(m, dtype=np.int64)
    h = pairs[pick, 0]
    v = pairs[pick, 1]
    lifted = lift >= 0
    if lifted.any():
        lifted_h = np.maximum(h[lifted], lift[lifted])
        if half_perimeter > 0:
            escalate = ratio[lifted] >= config.lift_escalation_fraction
            lifted_h = np.where(
                escalate,
                np.maximum(lifted_h, np.minimum(lift[lifted] + 1, NUM_METAL_LAYERS - 1)),
                lifted_h,
            )
        h = h.copy()
        v = v.copy()
        h[lifted] = lifted_h
        v[lifted] = np.minimum(lifted_h + 1, NUM_METAL_LAYERS)
    return h, v


def _jog_counts(config: RouterConfig, lengths: np.ndarray,
                half_perimeter: float) -> np.ndarray:
    """Bends per connection: one plus one per ``jog_pitch_fraction`` of the
    die half-perimeter of length, at least one, and exactly one when the die
    has no extent.  The int64 cast truncates towards zero like ``int()``."""
    if half_perimeter <= 0:
        return np.ones(len(lengths), dtype=np.int64)
    jogs = 1 + (
        lengths / (config.jog_pitch_fraction * half_perimeter)
    ).astype(np.int64)
    return np.maximum(1, jogs)


def _read_only(values: Sequence[int]) -> np.ndarray:
    column = np.asarray(values, dtype=np.int64)
    column.flags.writeable = False
    return column


class _RoutingSkeleton:
    """Seed-independent routing structure shared across a placement batch.

    Which 2-pin connections exist — the seed router's skip logic over unplaced
    drivers/sinks — depends only on *which* gates and ports a placement
    places, not on their coordinates or row order.  The skeleton records
    every routable connection once, as indices: an endpoint is a netlist
    gate index, or ``num_gates + k`` for port ``k``.  :meth:`coordinates`
    scatters any placement that places the same gates and port list (each
    member of a ``place_batch`` run) into that slot order.  Its read-only
    index columns are shared by every routing built from it.
    """

    def __init__(self, netlist: Netlist, placement: PlacementResult):
        arrays = netlist_arrays(netlist)
        gate_names = arrays.gate_names
        if placement.gate_names == gate_names:
            gate_names = placement.gate_names  # share the placement's table
        self.gate_names = gate_names
        self.net_names = arrays.net_names
        self.port_names = placement.port_names
        self._gate_lookup = arrays.gate_id
        num_gates = len(gate_names)
        self.placed = self._placed_mask(placement)
        port_slot = {
            name: num_gates + k for k, name in enumerate(self.port_names)
        }
        # Each net's source: its placed driver gate, else its primary-input
        # port (-1: the net is not routed).
        num_nets = arrays.num_nets
        placed = np.append(self.placed, False)  # net_driver -1 reads False
        source = np.where(placed[arrays.net_driver], arrays.net_driver, -1)
        for net in np.flatnonzero(arrays.net_is_pi).tolist():
            source[net] = port_slot.get(arrays.net_names[net], -1)
        # Targets: placed sink gates in ``Net.sinks`` order, then output ports.
        sink_net = np.repeat(np.arange(num_nets), np.diff(arrays.sink_start))
        sink_gate = arrays.fanin_gate[arrays.sink_row]
        sink_keep = (source[sink_net] >= 0) & self.placed[sink_gate]
        po_net = np.repeat(np.arange(num_nets), np.diff(arrays.net_po_start))
        po_slot = np.asarray([port_slot.get(po, -1) for po in arrays.primary_outputs],
                             dtype=np.int64)[arrays.net_po]
        po_keep = (source[po_net] >= 0) & (po_slot >= 0)
        # Sink tokens (input pin names, output port names) as codes of one
        # name table.
        code_of: Dict[str, int] = {}
        pin_codes = [[code_of.setdefault(pin, len(code_of)) for pin in table.inputs]
                     for table in arrays.cells]
        offset = csr(np.asarray([len(codes) for codes in pin_codes], dtype=np.int64))
        flat_codes = np.asarray([c for codes in pin_codes for c in codes], dtype=np.int64)
        rows = arrays.sink_row[sink_keep]
        gates = arrays.fanin_gate[rows]
        row_code = flat_codes[offset[arrays.gate_cell[gates]]
                              + rows - arrays.fanin_start[gates]]
        po_code = np.asarray([code_of.setdefault(po, len(code_of))
                              for po in arrays.primary_outputs], dtype=np.int64)
        by_net = np.argsort(np.concatenate((sink_net[sink_keep], po_net[po_keep])),
                            kind="stable")
        targets = np.concatenate((gates, po_slot[po_keep]))[by_net]
        conn_sink_gate = np.concatenate(
            (gates, np.full(int(po_keep.sum()), -1, dtype=np.int64)))[by_net]
        codes = np.concatenate((row_code, po_code[arrays.net_po[po_keep]]))[by_net]
        # Tokens in order of first appearance.
        distinct, first = np.unique(codes, return_index=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(code_of), dtype=np.int64)
        rank[distinct[order]] = np.arange(len(distinct))
        names = list(code_of)
        self.sink_tokens = [names[code] for code in distinct[order].tolist()]
        conn_count = (np.bincount(sink_net[sink_keep], minlength=num_nets)
                      + np.bincount(po_net[po_keep], minlength=num_nets))
        entry_net = np.flatnonzero(conn_count)
        conn_count = conn_count[entry_net]
        self.net_index = _read_only(entry_net)
        self.conn_starts = _read_only(np.concatenate(([0], np.cumsum(conn_count))))
        self.conn_net = _read_only(np.repeat(self.net_index, conn_count))
        self.sink_gate = _read_only(conn_sink_gate)
        self.sink_token = _read_only(rank[codes])
        self.has_driver = np.ones(len(entry_net), dtype=bool)
        self.has_driver.flags.writeable = False
        self._entry_source_idx = source[entry_net].astype(np.intp)
        self._source_idx = np.repeat(self._entry_source_idx, conn_count)
        self._target_idx = targets.astype(np.intp)

    def _rows(self, placement: PlacementResult) -> np.ndarray:
        """Netlist gate index of every placement row (-1: not a netlist gate)."""
        table = placement.gate_names
        if table is self.gate_names or table == self.gate_names:
            return placement.gate_index
        lookup = self._gate_lookup
        per_name = np.fromiter((lookup.get(name, -1) for name in table),
                               dtype=np.int64, count=len(table))
        return per_name[placement.gate_index]

    def _placed_mask(self, placement: PlacementResult) -> np.ndarray:
        rows = self._rows(placement)
        placed = np.zeros(len(self.gate_names), dtype=bool)
        placed[rows[rows >= 0]] = True
        return placed

    def matches(self, placement: PlacementResult) -> bool:
        """True when ``placement`` places exactly the skeleton's gates and
        ports."""
        return (placement.port_names == self.port_names
                and np.array_equal(self._placed_mask(placement), self.placed))

    def coordinates(self, placement: PlacementResult) -> Tuple[np.ndarray, ...]:
        """``(sx, sy, tx, ty, esx, esy)`` float64 columns via slot gathers."""
        num_gates = len(self.gate_names)
        rows = self._rows(placement)
        known = rows >= 0
        px = np.zeros(num_gates + len(self.port_names), dtype=np.float64)
        py = np.zeros_like(px)
        px[rows[known]] = placement.gate_x[known]
        py[rows[known]] = placement.gate_y[known]
        px[num_gates:] = placement.port_x
        py[num_gates:] = placement.port_y
        return (
            px[self._source_idx], py[self._source_idx],
            px[self._target_idx], py[self._target_idx],
            px[self._entry_source_idx], py[self._entry_source_idx],
        )


def _route_with_skeleton(skeleton: _RoutingSkeleton,
                         placement: PlacementResult, config: RouterConfig,
                         min_layer_per_net: Mapping[str, int]
                         ) -> RoutingArrays:
    """Route one placement through a (shared) routing skeleton; the
    geometry never leaves column form."""
    half_perimeter = placement.floorplan.half_perimeter_um
    sx, sy, tx, ty, esx, esy = skeleton.coordinates(placement)
    m = len(sx)
    lengths = np.abs(sx - tx) + np.abs(sy - ty)  # == manhattan(source, target)
    if min_layer_per_net:
        net_names = skeleton.net_names
        lift = np.asarray(
            [min_layer_per_net.get(net_names[i], -1)
             for i in skeleton.conn_net.tolist()],
            dtype=np.int64,
        )
    else:
        lift = np.full(m, -1, dtype=np.int64)
    h, v = _select_pairs(config, lengths, half_perimeter, lift)

    columns = _connection_columns(
        h, v, config, half_perimeter, sx, sy, tx, ty
    )

    # Every skeleton entry has a driver or is a primary input (anything else
    # has no source and was skipped), so every routed net gets its driver
    # via stack — like the seed router.
    dvia_starts, stack_rep, stack_layer = _driver_stacks(
        h, skeleton.conn_starts[:-1], config.pin_layer
    )

    # Hint columns hold the router defaults: source hint = target, target
    # hint = source.
    return RoutingArrays(
        net_names=skeleton.net_names,
        gate_names=skeleton.gate_names,
        sink_tokens=skeleton.sink_tokens,
        net_index=skeleton.net_index,
        conn_starts=skeleton.conn_starts,
        driver_x=esx,
        driver_y=esy,
        has_driver=skeleton.has_driver,
        dvia_starts=dvia_starts,
        dvia_x=esx[stack_rep],
        dvia_y=esy[stack_rep],
        dvia_lower=stack_layer,
        dvia_upper=stack_layer + 1,
        conn_net=skeleton.conn_net,
        sink_gate=skeleton.sink_gate,
        sink_token=skeleton.sink_token,
        sx=sx, sy=sy, tx=tx, ty=ty,
        h_layer=h,
        v_layer=v,
        protected=np.zeros(m, dtype=np.uint8),
        hint_sx=tx.copy(), hint_sy=ty.copy(),
        hint_tx=sx.copy(), hint_ty=sy.copy(),
        hint_src_present=np.ones(m, dtype=np.uint8),
        hint_tgt_present=np.ones(m, dtype=np.uint8),
        seg_starts=columns.seg_starts,
        via_starts=columns.via_starts,
        seg_layer=columns.seg_layer,
        seg_x1=columns.seg_x1, seg_y1=columns.seg_y1,
        seg_x2=columns.seg_x2, seg_y2=columns.seg_y2,
        via_x=columns.via_x, via_y=columns.via_y,
        via_lower=columns.via_lower, via_upper=columns.via_upper,
    )


def route(netlist: Netlist, placement: PlacementResult,
          config: Optional[RouterConfig] = None,
          min_layer_per_net: Optional[Mapping[str, int]] = None) -> RoutingArrays:
    """Route every net of ``netlist`` over ``placement``.

    This is the batched build path: layer pairs and jog counts are selected
    on NumPy columns and the segment/via geometry is array-built.  Bit-exact
    with the seed router at equal inputs (see the module docstring).

    Args:
        netlist: The design to route.
        placement: Gate and I/O positions from :func:`repro.layout.placer.place`.
        config: Router policy (default :class:`RouterConfig`).
        min_layer_per_net: Optional mapping net name → lift layer; listed nets
            are routed with that layer as a floor (correction / naive-lifting
            cells).

    Returns:
        The routing columns, also a read-only mapping net name →
        :class:`RoutedNet`.  Nets without a placed driver or without sinks
        are skipped.
    """
    config = config if config is not None else RouterConfig()
    min_layer_per_net = min_layer_per_net or {}
    skeleton = _RoutingSkeleton(netlist, placement)
    return _route_with_skeleton(skeleton, placement, config, min_layer_per_net)


def route_batch(netlist: Netlist, placements: Sequence[PlacementResult],
                config: Optional[RouterConfig] = None,
                min_layer_per_net: Optional[Mapping[str, int]] = None
                ) -> List[RoutingArrays]:
    """Route every net of ``netlist`` over each placement of a seed batch.

    Semantically ``[route(netlist, p, config, min_layer_per_net) for p in
    placements]`` — and bit-exact with it, placement by placement — but the
    connection skeleton (which driver→sink pairs exist, in which net order)
    is gathered once and shared: per placement only the coordinate columns,
    the layer-pair selection and the geometry columns are computed.

    Placements must place the same gate/port sets (the members of one
    :func:`repro.layout.placer.place_batch` call).

    Returns:
        One routing per placement, in order.

    Raises:
        ValueError: When a placement places a different gate/port set than
            the first.
    """
    if not placements:
        return []
    config = config if config is not None else RouterConfig()
    min_layer_per_net = min_layer_per_net or {}
    skeleton = _RoutingSkeleton(netlist, placements[0])
    for index, placement in enumerate(placements[1:], start=1):
        if not skeleton.matches(placement):
            raise ValueError(
                f"route_batch placement {index} places a different gate/port "
                "set than placement 0; route it on its own"
            )
    return [
        _route_with_skeleton(skeleton, placement, config, min_layer_per_net)
        for placement in placements
    ]
