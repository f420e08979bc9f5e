"""Object-walk FEOL extraction: the test oracle for the columnar extractor.

This is the per-object implementation :func:`repro.sm.split.extract_feol`
replaced.  It walks ``layout.routing`` net by net and reads every
connection's layers, endpoints and stub hints from its object graph, which
materializes every routed net.  Tests assert that the column-native
extractor builds the same view: the same net sets, the same vpin and
open-connection lists in the same order, and the same ``FEOLArrays``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.layout.geometry import Point
from repro.layout.layout import Layout
from repro.layout.router import RoutedConnection
from repro.sm.split import (
    DEFAULT_STUB_FRACTION,
    DIRECTION_QUANTIZATION,
    FEOLView,
    OpenConnection,
    VPin,
)


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
                           stub_fraction: float = DEFAULT_STUB_FRACTION) -> FEOLView:
    """Object-walk twin of :func:`repro.sm.split.extract_feol`."""
    if split_layer < 1:
        raise ValueError("split_layer must be >= 1")
    view = FEOLView(layout=layout, split_layer=split_layer)
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
