"""Object-walk FEOL extraction and the FEOL objects: test oracles for the
columnar extractor.

``extract_feol_reference`` is the per-object implementation
:func:`repro.sm.split.extract_feol` replaced.  It walks ``layout.routing``
net by net, reads every connection's layers, endpoints and stub hints from
its object graph (which materializes every routed net) and lists one
:class:`VPin` per open terminal and one :class:`OpenConnection` per cut
connection.  An extracted view is only columns, so this module also owns
the two converters between the representations: :func:`feol_objects` reads
a view's columns back into objects, and :func:`feol_columns` builds the
columns of object lists (:func:`objects_view` wraps them in a fresh view).
Tests assert that the column-native extractor builds the same view: the
same net sets, the same vpin and open-connection lists in the same order,
and the same columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.router import RoutedConnection
from repro.sm.split import (
    DEFAULT_STUB_FRACTION,
    DIRECTION_QUANTIZATION,
    FEOLArrays,
    FEOLView,
)


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
    #: FEOL net the open via belongs to (observable, not ground truth).
    net: Optional[str] = None


@dataclass
class OpenConnection:
    """Ground truth for one cut driver→sink connection (scoring only)."""

    net: str
    driver_vpin: int
    sink_vpin: int
    protected: bool


@dataclass
class FEOLObjects:
    """A FEOL view as name sets and object lists."""

    visible_nets: Set[str] = field(default_factory=set)
    cut_nets: Set[str] = field(default_factory=set)
    driver_vpins: List[VPin] = field(default_factory=list)
    sink_vpins: List[VPin] = field(default_factory=list)
    open_connections: List[OpenConnection] = field(default_factory=list)

    def true_driver_of_sink(self) -> Dict[int, int]:
        """Map sink-vpin id → true driver-vpin id."""
        return {c.sink_vpin: c.driver_vpin for c in self.open_connections}

    def driver_vpin_nets(self) -> Dict[int, str]:
        """Map driver-vpin id → the FEOL net it belongs to."""
        return {v.identifier: v.net for v in self.driver_vpins if v.net is not None}

    def protected_sink_vpins(self) -> Set[int]:
        """Sink vpins of the connections the defense randomized."""
        return {c.sink_vpin for c in self.open_connections if c.protected}


def feol_objects(view: FEOLView) -> FEOLObjects:
    """The name sets and the vpin / open-connection objects of ``view``'s
    columns.  Cells, driver pins and drive resistances come from the
    layout's netlist; a sink's net is that of its connection."""
    arrays = view.columns
    netlist = view.layout.netlist
    gate_names, net_names = arrays.gate_names, arrays.net_names

    def gate_of(gate_idx: int) -> Optional[str]:
        return gate_names[gate_idx] if gate_idx >= 0 else None

    def direction(has: bool, xy: List[float]) -> Optional[Tuple[float, float]]:
        return tuple(xy) if has else None

    drivers: List[VPin] = []
    for identifier, (x, y), has, xy, load, gate_idx, net_idx in zip(
            arrays.driver_ids.tolist(), arrays.driver_xy.tolist(),
            arrays.driver_has_dir.tolist(), arrays.driver_dir.tolist(),
            arrays.driver_max_load.tolist(), arrays.driver_gate_idx.tolist(),
            arrays.driver_net_idx.tolist()):
        net = netlist.nets[net_names[net_idx]] if net_idx >= 0 else None
        gate = gate_of(gate_idx)
        cell = netlist.gates[gate].cell if gate is not None else None
        pin = None
        if net is not None:
            pin = (net.driver[1] if net.driver is not None
                   else net.name if net.is_primary_input else None)
        drivers.append(VPin(
            identifier=identifier, kind="driver", position=Point(x, y),
            gate=gate, pin=pin, cell=cell.name if cell is not None else None,
            direction=direction(has, xy), max_load_ff=load,
            drive_resistance_kohm=(
                cell.drive_resistance_kohm if cell is not None else 0.0
            ),
            net=net.name if net is not None else None,
        ))
    net_of_sink = dict(zip(arrays.conn_sink.tolist(), arrays.conn_net_idx.tolist()))
    sinks: List[VPin] = []
    for row, (identifier, (x, y), has, xy, cap, gate_idx, pin_idx) in enumerate(zip(
            arrays.sink_ids.tolist(), arrays.sink_xy.tolist(),
            arrays.sink_has_dir.tolist(), arrays.sink_dir.tolist(),
            arrays.sink_cap.tolist(), arrays.sink_gate_idx.tolist(),
            arrays.sink_pin_idx.tolist())):
        gate = gate_of(gate_idx)
        cell = netlist.gates[gate].cell if gate is not None else None
        net_idx = net_of_sink.get(row, -1)
        sinks.append(VPin(
            identifier=identifier, kind="sink", position=Point(x, y),
            gate=gate, pin=arrays.pin_names[pin_idx] if pin_idx >= 0 else None,
            cell=cell.name if cell is not None else None,
            direction=direction(has, xy), capacitance_ff=cap,
            net=net_names[net_idx] if net_idx >= 0 else None,
        ))
    connections = [
        OpenConnection(net=net_names[net_idx], driver_vpin=drivers[d].identifier,
                       sink_vpin=sinks[s].identifier, protected=protected)
        for d, s, net_idx, protected in zip(
            arrays.conn_driver.tolist(), arrays.conn_sink.tolist(),
            arrays.conn_net_idx.tolist(), arrays.conn_protected.tolist())
    ]
    return FEOLObjects(view.visible_nets, view.cut_nets, drivers, sinks, connections)


def feol_columns(objects: FEOLObjects) -> FEOLArrays:
    """The columns of ``objects``' vpin and open-connection lists.

    Name tables are in first-appearance order (gates over the drivers, then
    the sinks; nets over the drivers, then the connections; pins over the
    sinks); a connection whose vpin id is not listed gets row ``-1``.
    """
    gate_index: Dict[str, int] = {}
    net_index: Dict[str, int] = {}
    pin_index: Dict[str, int] = {}

    def codes(table: Dict[str, int], names: Iterable[Optional[str]]) -> np.ndarray:
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
        has_dir = np.asarray([v.direction is not None for v in vpins], dtype=bool)
        return ids, xy, direction, has_dir

    drivers, sinks = objects.driver_vpins, objects.sink_vpins
    connections = objects.open_connections
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
        driver_max_load=np.asarray([v.max_load_ff for v in drivers], dtype=np.float64),
        driver_gate_idx=d_gates,
        driver_net_idx=d_nets,
        sink_ids=s_ids,
        sink_xy=s_xy,
        sink_dir=s_dir,
        sink_has_dir=s_has,
        sink_cap=np.asarray([v.capacitance_ff for v in sinks], dtype=np.float64),
        sink_gate_idx=s_gates,
        sink_pin_idx=codes(pin_index, (v.pin for v in sinks)),
        conn_driver=np.asarray(
            [driver_row.get(c.driver_vpin, -1) for c in connections], dtype=np.int64
        ),
        conn_sink=np.asarray(
            [sink_row.get(c.sink_vpin, -1) for c in connections], dtype=np.int64
        ),
        conn_net_idx=codes(net_index, (c.net for c in connections)),
        conn_protected=np.asarray([c.protected for c in connections], dtype=bool),
        gate_names=list(gate_index),
        net_names=list(net_index),
        pin_names=list(pin_index),
    )


def objects_view(view: FEOLView, objects: FEOLObjects) -> FEOLView:
    """A fresh view of ``view``'s layout, split and cut-net mask whose
    columns are those of ``objects``' (edited or hand-built) lists."""
    return FEOLView(layout=view.layout, split_layer=view.split_layer,
                    columns=feol_columns(objects), routing=view.routing,
                    net_is_cut=view.net_is_cut)


def _quantized_direction(source: Point, towards: Point) -> Optional[Tuple[float, float]]:
    """Unit vector from ``source`` towards ``towards``, snapped to 8 compass points."""
    dx = towards.x - source.x
    dy = towards.y - source.y
    if abs(dx) < 1e-9 and abs(dy) < 1e-9:
        return None
    angle = math.atan2(dy, dx)
    step = 2.0 * math.pi / DIRECTION_QUANTIZATION
    snapped = round(angle / step) * step
    return (math.cos(snapped), math.sin(snapped))


def _connection_is_cut(connection: RoutedConnection, split_layer: int) -> bool:
    """A connection is cut when its lateral routing runs above the split layer."""
    return connection.h_layer > split_layer or connection.v_layer > split_layer


def _stub_tip(anchor: Point, towards: Optional[Point], stub_fraction: float) -> Point:
    """Position of the dangling-stub tip: part of the way from ``anchor`` to ``towards``."""
    if towards is None or stub_fraction <= 0.0:
        return anchor
    fraction = min(max(stub_fraction, 0.0), 0.5)
    return Point(
        anchor.x + fraction * (towards.x - anchor.x),
        anchor.y + fraction * (towards.y - anchor.y),
    )


def extract_feol_reference(layout: Layout, split_layer: int,
                           stub_fraction: float = DEFAULT_STUB_FRACTION) -> FEOLObjects:
    """Object-walk twin of :func:`repro.sm.split.extract_feol`."""
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    view = FEOLObjects()
    netlist = layout.netlist
    next_id = 0

    for net_name, routed in layout.routing.items():
        cut_connections = [
            c for c in routed.connections if _connection_is_cut(c, split_layer)
        ]
        if not cut_connections:
            view.visible_nets.add(net_name)
            continue
        view.cut_nets.add(net_name)
        protected = net_name in layout.protected_nets
        net = netlist.nets[net_name]

        driver_gate: Optional[str] = None
        driver_pin: Optional[str] = None
        driver_cell = None
        if net.driver is not None:
            driver_gate, driver_pin = net.driver
            driver_cell = netlist.gates[driver_gate].cell
        elif net.is_primary_input:
            driver_pin = net_name
        source = routed.driver_point if routed.driver_point is not None else Point(0.0, 0.0)

        for connection in cut_connections:
            hint = connection.source_hint
            driver_position = _stub_tip(source, hint, stub_fraction)
            driver_vpin = VPin(
                identifier=next_id,
                kind="driver",
                position=driver_position,
                gate=driver_gate,
                pin=driver_pin,
                cell=driver_cell.name if driver_cell is not None else None,
                direction=(
                    _quantized_direction(driver_position, hint) if hint is not None else None
                ),
                max_load_ff=driver_cell.max_load_ff if driver_cell is not None else 1e9,
                drive_resistance_kohm=(
                    driver_cell.drive_resistance_kohm if driver_cell is not None else 0.0
                ),
                net=net_name,
            )
            next_id += 1
            view.driver_vpins.append(driver_vpin)

            sink_gate: Optional[str] = None
            sink_pin: Optional[str] = None
            sink_cell = None
            cap = 0.0
            if connection.sink[0] == "PO":
                sink_pin = connection.sink[1]
            else:
                sink_gate, sink_pin = connection.sink
                sink_cell = netlist.gates[sink_gate].cell
                cap = sink_cell.pin(sink_pin).capacitance_ff
            hint = connection.target_hint
            sink_position = _stub_tip(connection.target, hint, stub_fraction)
            sink_vpin = VPin(
                identifier=next_id,
                kind="sink",
                position=sink_position,
                gate=sink_gate,
                pin=sink_pin,
                cell=sink_cell.name if sink_cell is not None else None,
                direction=(
                    _quantized_direction(sink_position, hint)
                    if hint is not None else None
                ),
                capacitance_ff=cap,
                net=net_name,
            )
            next_id += 1
            view.sink_vpins.append(sink_vpin)
            view.open_connections.append(
                OpenConnection(
                    net=net_name,
                    driver_vpin=driver_vpin.identifier,
                    sink_vpin=sink_vpin.identifier,
                    protected=protected and connection.protected,
                )
            )
    return view
