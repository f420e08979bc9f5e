"""Netlist test oracles: the object netlist, per-edit construction, the
JSON-document fingerprint and the by-name integer view.

* :class:`ObjectNetlist` is the netlist model that
  :class:`repro.netlist.netlist.Netlist` replaced: it owns mutable
  :class:`Gate` and :class:`Net` objects by name and every edit updates
  them.  It is an independent oracle of the edit API; ``object_netlist``
  reads a column netlist into one and ``assert_same_netlist`` holds a
  column netlist equal to one (lookups, orders, ``topology_version``,
  fingerprint and integer view).
* ``generate_random_logic_reference`` is the benchmark generator that
  :func:`repro.circuits.random_logic.generate_random_logic` replaced: it
  builds the netlist one ``add_primary_input`` / ``add_gate`` /
  ``connect_pin`` / ``add_primary_output`` call at a time, so every
  structure and the ``topology_version`` edit count come from the public
  edit API.
* ``netlist_fingerprint_reference`` is the fingerprint that
  :func:`repro.store.codec.netlist_fingerprint` replaced: it builds the
  nested JSON document and serialises it with ``json.dumps``.
* ``netlist_arrays_reference`` is the by-name walk that
  :class:`repro.netlist.arrays.NetlistArrays` replaced with a snapshot of
  the netlist's columns.
* ``write_bench_reference``, ``write_structural_verilog_reference`` and
  ``export_def_reference`` are the writers as they read ``Gate``/``Net``
  objects by name, before they read the netlist's columns.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.random_logic import RandomLogicSpec
from repro.netlist.arrays import netlist_arrays
from repro.netlist.cells import CellLibrary, default_library
from repro.netlist.netlist import Gate, Net, Netlist, NetlistError
from repro.store.codec import netlist_fingerprint
from repro.utils.rng import make_rng


# -- the object netlist ----------------------------------------------------------

class ObjectNetlist:
    """The object netlist: :class:`Gate` and :class:`Net` objects by name."""

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.name = name
        self.library = library if library is not None else default_library()
        self.gates: Dict[str, Gate] = {}
        self.nets: Dict[str, Net] = {}
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        #: Net feeding each primary output (often the net of the same name).
        self.output_nets: Dict[str, str] = {}
        #: Monotonic counter bumped on every structural edit; consumers such
        #: as the compiled simulation engine key their compiled-plan caches
        #: on it so stale plans are never executed.
        self._topology_version: int = 0

    @property
    def topology_version(self) -> int:
        """Current structural-edit generation of the netlist."""
        return self._topology_version

    def _bump_version(self) -> None:
        self._topology_version += 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_primary_input(self, name: str) -> Net:
        """Declare a primary input; creates (or marks) the net of that name."""
        if name in self.primary_inputs:
            raise NetlistError(f"primary input {name!r} already declared")
        net = self.nets.get(name)
        if net is None:
            net = self.add_net(name)
        if net.driver is not None:
            raise NetlistError(f"net {name!r} already has a gate driver")
        net.is_primary_input = True
        self.primary_inputs.append(name)
        self._bump_version()
        return net

    def add_primary_output(self, name: str, net_name: Optional[str] = None) -> None:
        """Declare a primary output fed by ``net_name`` (default: same name)."""
        if name in self.primary_outputs:
            raise NetlistError(f"primary output {name!r} already declared")
        net_name = net_name if net_name is not None else name
        net = self.nets.get(net_name)
        if net is None:
            net = self.add_net(net_name)
        self.primary_outputs.append(name)
        self.output_nets[name] = net_name
        net.primary_outputs.append(name)
        self._bump_version()

    def add_net(self, name: str) -> Net:
        if name in self.nets:
            raise NetlistError(f"net {name!r} already exists")
        net = Net(name)
        self.nets[name] = net
        self._bump_version()
        return net

    def get_or_add_net(self, name: str) -> Net:
        return self.nets[name] if name in self.nets else self.add_net(name)

    def add_gate(self, name: str, cell_name: str,
                 connections: Optional[Dict[str, str]] = None) -> Gate:
        """Instantiate ``cell_name`` as gate ``name`` and connect its pins.

        ``connections`` maps pin names to net names; nets are created on
        demand.
        """
        if name in self.gates:
            raise NetlistError(f"gate {name!r} already exists")
        cell = self.library[cell_name]
        gate = Gate(name=name, cell=cell)
        self.gates[name] = gate
        self._bump_version()
        if connections:
            for pin, net_name in connections.items():
                self.connect_pin(name, pin, net_name)
        return gate

    def set_dont_touch(self, gate_name: str, value: bool = True) -> None:
        self.gates[gate_name].dont_touch = bool(value)

    # ------------------------------------------------------------------
    # Connectivity editing
    # ------------------------------------------------------------------
    def connect_pin(self, gate_name: str, pin_name: str, net_name: str) -> None:
        """Connect ``gate_name.pin_name`` to ``net_name`` (created on demand)."""
        gate = self.gates[gate_name]
        pin = gate.cell.pin(pin_name)
        if gate.net_on(pin_name) is not None:
            self.disconnect_pin(gate_name, pin_name)
        net = self.get_or_add_net(net_name)
        if pin.is_output():
            if net.driver is not None and net.driver != (gate_name, pin_name):
                raise NetlistError(
                    f"net {net_name!r} already driven by {net.driver}; cannot "
                    f"also connect driver {gate_name}.{pin_name}"
                )
            if net.is_primary_input:
                raise NetlistError(
                    f"net {net_name!r} is a primary input and cannot be driven "
                    f"by {gate_name}.{pin_name}"
                )
            net.driver = (gate_name, pin_name)
        else:
            net.sinks.append((gate_name, pin_name))
        gate.connections[pin_name] = net_name
        self._bump_version()

    def disconnect_pin(self, gate_name: str, pin_name: str) -> None:
        """Disconnect ``gate_name.pin_name`` from its net (if any)."""
        gate = self.gates[gate_name]
        net_name = gate.net_on(pin_name)
        if net_name is None:
            return
        net = self.nets[net_name]
        pin = gate.cell.pin(pin_name)
        if pin.is_output():
            if net.driver == (gate_name, pin_name):
                net.driver = None
        else:
            try:
                net.sinks.remove((gate_name, pin_name))
            except ValueError:
                pass
        del gate.connections[pin_name]
        self._bump_version()

    def move_sink(self, gate_name: str, pin_name: str, new_net: str) -> str:
        """Re-target the sink ``gate_name.pin_name`` to ``new_net``.

        Returns the name of the net the sink was previously connected to.
        This is the primitive operation used by the netlist randomizer and by
        the BEOL restoration step.
        """
        gate = self.gates[gate_name]
        pin = gate.cell.pin(pin_name)
        if not pin.is_input():
            raise NetlistError(f"{gate_name}.{pin_name} is not an input pin")
        old_net = gate.net_on(pin_name)
        if old_net is None:
            raise NetlistError(f"{gate_name}.{pin_name} is not connected")
        self.disconnect_pin(gate_name, pin_name)
        self.connect_pin(gate_name, pin_name, new_net)
        return old_net

    def retarget_primary_output(self, po_name: str, new_net: str) -> str:
        """Re-target primary output ``po_name`` to ``new_net``; returns old net."""
        if po_name not in self.primary_outputs:
            raise NetlistError(f"unknown primary output {po_name!r}")
        old_net_name = self.output_nets[po_name]
        old_net = self.nets[old_net_name]
        old_net.primary_outputs.remove(po_name)
        net = self.get_or_add_net(new_net)
        net.primary_outputs.append(po_name)
        self.output_nets[po_name] = new_net
        self._bump_version()
        return old_net_name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def fanout_gates(self, gate_name: str) -> List[str]:
        """Return the gates driven (directly) by any output of ``gate_name``."""
        result: List[str] = []
        gate = self.gates[gate_name]
        for pin in gate.output_pin_names:
            net_name = gate.net_on(pin)
            if net_name is None:
                continue
            for sink_gate, _ in self.nets[net_name].sinks:
                result.append(sink_gate)
        return result

    def fanin_gates(self, gate_name: str) -> List[str]:
        """Return the gates driving the inputs of ``gate_name``."""
        result: List[str] = []
        gate = self.gates[gate_name]
        for pin in gate.input_pin_names:
            net_name = gate.net_on(pin)
            if net_name is None:
                continue
            driver = self.nets[net_name].driver
            if driver is not None:
                result.append(driver[0])
        return result

    def gate_output_net(self, gate_name: str) -> Optional[str]:
        """Return the net on the first connected output pin of ``gate_name``."""
        gate = self.gates[gate_name]
        for pin in gate.output_pin_names:
            net = gate.net_on(pin)
            if net is not None:
                return net
        return None

    # ------------------------------------------------------------------
    # Statistics / validation
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def num_connections(self) -> int:
        """Total number of sink-pin connections (two-pin-net equivalent count)."""
        return sum(len(net.sinks) for net in self.nets.values())

    def cell_area_um2(self) -> float:
        """Total standard-cell area (BEOL-only cells contribute zero)."""
        return sum(g.cell.area_um2 for g in self.gates.values())

    def stats(self) -> Dict[str, float]:
        """Return a dictionary of headline statistics."""
        return {
            "gates": self.num_gates,
            "nets": self.num_nets,
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
            "connections": self.num_connections,
            "cell_area_um2": round(self.cell_area_um2(), 3),
        }

    def validate(self) -> List[str]:
        """Return a list of consistency problems (empty list == clean).

        Checks cover: every gate pin references an existing net, every net
        sink/driver references an existing gate pin, every non-floating net
        has exactly one driver, and primary outputs reference existing nets.
        """
        problems: List[str] = []
        directions: Dict[int, Dict[str, bool]] = {}  # id(cell) -> pin -> is output
        for gate in self.gates.values():
            cell = gate.cell
            is_output = directions.get(id(cell))
            if is_output is None:
                is_output = directions[id(cell)] = {
                    pin.name: pin.is_output() for pin in cell.pins
                }
            for pin, net_name in gate.connections.items():
                net = self.nets.get(net_name)
                if net is None:
                    problems.append(f"gate {gate.name}.{pin} references unknown net {net_name}")
                    continue
                ref = (gate.name, pin)
                output = is_output.get(pin)
                if output is None:
                    output = cell.pin(pin).is_output()  # raises for an unknown pin
                if output:
                    if net.driver != ref:
                        problems.append(
                            f"net {net_name} driver inconsistent with {gate.name}.{pin}"
                        )
                else:
                    if ref not in net.sinks:
                        problems.append(
                            f"net {net_name} missing sink {gate.name}.{pin}"
                        )
        gates = self.gates
        for net in self.nets.values():
            if net.driver is not None:
                gname, pname = net.driver
                gate = gates.get(gname)
                if gate is None:
                    problems.append(f"net {net.name} driven by unknown gate {gname}")
                elif gate.connections.get(pname) != net.name:
                    problems.append(f"net {net.name} driver backref broken ({gname}.{pname})")
                if net.is_primary_input:
                    problems.append(f"net {net.name} is both primary input and gate-driven")
            for gname, pname in net.sinks:
                gate = gates.get(gname)
                if gate is None:
                    problems.append(f"net {net.name} sinks unknown gate {gname}")
                elif gate.connections.get(pname) != net.name:
                    problems.append(f"net {net.name} sink backref broken ({gname}.{pname})")
            if net.sinks or net.primary_outputs:
                if not net.has_driver():
                    problems.append(f"net {net.name} has sinks but no driver")
        for po in self.primary_outputs:
            if self.output_nets.get(po) not in self.nets:
                problems.append(f"primary output {po} references unknown net")
        return problems

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, new_name: Optional[str] = None) -> "ObjectNetlist":
        """Return a deep, independent copy of the netlist.

        The copy is rebuilt from the gates' pin connections, as if every pin
        were reconnected through :meth:`connect_pin` in gate order: net
        drivers come from output pins, sink lists follow gate iteration order
        and each net's primary outputs follow ``output_nets`` order.  The
        source netlist is consistent, so the per-pin checks are skipped.  The
        copy's ``topology_version`` counts one edit per net and per pin, as
        that replay would.
        """
        clone = ObjectNetlist(new_name if new_name is not None else self.name, self.library)
        nets = clone.nets
        for net in self.nets.values():
            nets[net.name] = Net(net.name, is_primary_input=net.is_primary_input)
        clone.primary_inputs = list(self.primary_inputs)
        clone.primary_outputs = list(self.primary_outputs)
        clone.output_nets = dict(self.output_nets)
        for po, net_name in self.output_nets.items():
            nets[net_name].primary_outputs.append(po)
        output_pins: Dict[int, frozenset] = {}  # keyed by id(cell)
        edits = len(nets)
        for gate in self.gates.values():
            cell = gate.cell
            outputs = output_pins.get(id(cell))
            if outputs is None:
                outputs = output_pins[id(cell)] = frozenset(
                    pin.name for pin in cell.output_pins
                )
            name = gate.name
            connections = dict(gate.connections)
            clone.gates[name] = Gate(name=name, cell=cell, connections=connections,
                                     dont_touch=gate.dont_touch)
            for pin, net_name in connections.items():
                net = nets.get(net_name)
                if net is None:
                    net = nets[net_name] = Net(net_name)
                    edits += 1
                if pin in outputs:
                    net.driver = (name, pin)
                else:
                    net.sinks.append((name, pin))
            edits += len(connections)
        clone._topology_version = edits
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObjectNetlist(name={self.name!r}, gates={self.num_gates})"


# -- per-edit construction ---------------------------------------------------------

def _pick_source(rng, signals: Sequence[str], window: int, global_fraction: float) -> str:
    """Pick a source signal with a bias towards the most recent ones."""
    n = len(signals)
    if rng.random() >= global_fraction:
        index = n - 1 - rng.randrange(min(window, n))
    else:
        index = rng.randrange(n)
    return signals[index]


def generate_random_logic_reference(spec: RandomLogicSpec,
                                    library: Optional[CellLibrary] = None,
                                    netlist_class=Netlist):
    """The netlist ``generate_random_logic(spec, library)`` must return,
    built as a ``netlist_class`` (:class:`Netlist` or :class:`ObjectNetlist`)."""
    library = library if library is not None else default_library()
    rng = make_rng(spec.seed, "random_logic", spec.name)
    netlist = netlist_class(spec.name, library)

    signals: List[str] = []
    for i in range(spec.num_inputs):
        pi = f"pi_{i}"
        netlist.add_primary_input(pi)
        signals.append(pi)

    cell_names = [name for name, _ in spec.cell_mix]
    weights = [weight for _, weight in spec.cell_mix]

    clock_net = None
    if spec.sequential_fraction > 0.0:
        clock_net = "clk"
        netlist.add_primary_input(clock_net)

    for i in range(spec.num_gates):
        out_net = f"n_{i}"
        if clock_net is not None and rng.random() < spec.sequential_fraction:
            source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
            netlist.add_gate(
                f"ff_{i}", "DFF_X1", {"D": source, "CK": clock_net, "Q": out_net}
            )
            signals.append(out_net)
            continue
        cell_name = rng.choices(cell_names, weights=weights, k=1)[0]
        cell = library[cell_name]
        sources: List[str] = []
        for _pin in cell.input_pins:
            source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
            retries = 0
            while source in sources and retries < 4 and len(signals) > len(sources):
                source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
                retries += 1
            sources.append(source)
        connections = {pin.name: src for pin, src in zip(cell.input_pins, sources)}
        connections[cell.output_pins[0].name] = out_net
        netlist.add_gate(f"g_{i}", cell_name, connections)
        signals.append(out_net)

    dangling = [
        net.name for net in netlist.nets.values()
        if net.driver is not None and not net.sinks and not net.primary_outputs
    ]
    rng.shuffle(dangling)
    chosen: List[str] = list(dangling[: spec.num_outputs])
    if len(chosen) < spec.num_outputs:
        candidates = [
            net.name for net in netlist.nets.values()
            if net.driver is not None and net.name not in chosen
        ]
        rng.shuffle(candidates)
        chosen.extend(candidates[: spec.num_outputs - len(chosen)])
    for index, net_name in enumerate(chosen[: spec.num_outputs]):
        netlist.add_primary_output(f"po_{index}", net_name)

    problems = netlist.validate()
    if problems:
        raise RuntimeError(f"generated netlist is inconsistent: {problems[:3]}")
    return netlist


def netlist_document_text(netlist) -> str:
    """The fingerprint document of ``netlist`` as ``json.dumps`` writes it."""
    doc = {
        "name": netlist.name,
        "gates": [
            [g.name, g.cell.name, sorted(g.connections.items()), bool(g.dont_touch)]
            for g in netlist.gates.values()
        ],
        "nets": [
            [
                n.name,
                list(n.driver) if n.driver is not None else None,
                [list(sink) for sink in n.sinks],
                bool(n.is_primary_input),
                list(n.primary_outputs),
            ]
            for n in netlist.nets.values()
        ],
        "primary_inputs": list(netlist.primary_inputs),
        "primary_outputs": list(netlist.primary_outputs),
        "output_nets": sorted(netlist.output_nets.items()),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def netlist_fingerprint_reference(netlist) -> str:
    """SHA-256 of the netlist's JSON document, as the store records it."""
    return hashlib.sha256(netlist_document_text(netlist).encode("utf-8")).hexdigest()


# -- the by-name integer view --------------------------------------------------

def netlist_arrays_reference(netlist) -> Dict[str, Any]:
    """The columns of ``netlist_arrays(netlist)``, by a walk over the
    ``Gate``/``Net`` objects by name (any netlist with ``gates``/``nets``
    mappings)."""
    gate_names = list(netlist.gates)
    net_names = list(netlist.nets)
    gate_id = {name: i for i, name in enumerate(gate_names)}
    net_id = {name: i for i, name in enumerate(net_names)}
    cells: List[Any] = []
    table_of: Dict[int, int] = {}
    gate_cell, sequential, dont_touch = [], [], []
    fanin_start, fanin_net, fanin_gate, fanin_cap = [0], [], [], []
    fanout_start, fanout_net, fanout_gate = [0], [], []
    row_of: Dict[tuple, int] = {}
    first_output = []
    for g, gate in enumerate(netlist.gates.values()):
        cell = gate.cell
        if id(cell) not in table_of:
            table_of[id(cell)] = len(cells)
            cells.append(cell)
        gate_cell.append(table_of[id(cell)])
        sequential.append(cell.is_sequential)
        dont_touch.append(gate.dont_touch)
        for pin in cell.input_pins:
            row_of[(gate.name, pin.name)] = len(fanin_net)
            fanin_net.append(net_id.get(gate.net_on(pin.name), -1))
            fanin_gate.append(g)
            fanin_cap.append(pin.capacitance_ff)
        fanin_start.append(len(fanin_net))
        out_nets = []
        for pin in cell.output_pins:
            row_of[("out", gate.name, pin.name)] = len(fanout_net) + len(out_nets)
            out_nets.append(net_id.get(gate.net_on(pin.name), -1))
            fanout_gate.append(g)
        fanout_net += out_nets
        fanout_start.append(len(fanout_net))
        first_output.append(next((net for net in out_nets if net >= 0), -1))
    net_driver, net_driver_row, net_is_pi = [], [], []
    sink_start, sink_row, pin_cap, fanout_count = [0], [], [], []
    po_position = {po: i for i, po in enumerate(netlist.primary_outputs)}
    net_po_start, net_po = [0], []
    for net in netlist.nets.values():
        if net.driver is None:
            net_driver.append(-1)
            net_driver_row.append(-1)
        else:
            net_driver.append(gate_id[net.driver[0]])
            net_driver_row.append(row_of[("out",) + tuple(net.driver)])
        net_is_pi.append(net.is_primary_input)
        rows = [row_of[tuple(sink)] for sink in net.sinks]
        sink_row += rows
        sink_start.append(len(sink_row))
        pin_cap.append(sum(fanin_cap[row] for row in rows))
        fanout_count.append(net.fanout)
        net_po += [po_position[po] for po in net.primary_outputs]
        net_po_start.append(len(net_po))
    po_net_names = [netlist.output_nets[po] for po in netlist.primary_outputs]
    input_nets = [net_id[pi] for pi in netlist.primary_inputs]
    input_nets += [net for net, seq in zip(first_output, sequential) if seq and net >= 0]
    return {
        "gate_names": gate_names, "net_names": net_names,
        "gate_id": gate_id, "net_id": net_id,
        "cells": cells, "gate_cell": gate_cell, "sequential": sequential,
        "dont_touch": dont_touch,
        "fanin_start": fanin_start, "fanin_net": fanin_net, "fanin_gate": fanin_gate,
        "fanin_cap": fanin_cap,
        "fanout_start": fanout_start, "fanout_net": fanout_net,
        "fanout_gate": fanout_gate,
        "net_driver": net_driver, "net_driver_row": net_driver_row,
        "net_is_pi": net_is_pi, "sink_start": sink_start, "sink_row": sink_row,
        "net_po_start": net_po_start, "net_po": net_po,
        "fanout_count": fanout_count, "pin_cap": pin_cap,
        "primary_inputs": list(netlist.primary_inputs),
        "primary_outputs": list(netlist.primary_outputs),
        "po_net_names": po_net_names,
        "po_net": [net_id.get(name, -1) for name in po_net_names],
        "first_output": first_output, "input_nets": input_nets,
    }


def assert_arrays_match(arrays, expected: Dict[str, Any]) -> None:
    """A :class:`NetlistArrays` equals the by-name walk, column by column."""
    for key, value in expected.items():
        ours = getattr(arrays, key)
        if key == "cells":
            assert [table.cell for table in ours] == value, key
        elif isinstance(ours, np.ndarray):
            assert ours.tolist() == list(value), key
        else:
            assert ours == value, key
            assert type(ours) is type(value), key


# -- a column netlist against the object netlist -------------------------------

def object_netlist(netlist: Netlist) -> ObjectNetlist:
    """``netlist`` read into an :class:`ObjectNetlist` through its lookups."""
    oracle = ObjectNetlist(netlist.name, netlist.library)
    oracle.gates = {name: Gate(g.name, g.cell, dict(g.connections), g.dont_touch)
                    for name, g in netlist.gates.items()}
    oracle.nets = {name: Net(n.name, n.driver, list(n.sinks), n.is_primary_input,
                             list(n.primary_outputs))
                   for name, n in netlist.nets.items()}
    oracle.primary_inputs = list(netlist.primary_inputs)
    oracle.primary_outputs = list(netlist.primary_outputs)
    oracle.output_nets = dict(netlist.output_nets)
    oracle._topology_version = netlist.topology_version
    return oracle


def assert_same_netlist(netlist: Netlist, oracle: ObjectNetlist) -> None:
    """Equal lookups, iteration and connection orders, ports,
    ``topology_version``, statistics, fingerprint and integer view."""
    assert netlist.name == oracle.name
    assert list(netlist.gates) == list(oracle.gates)
    assert list(netlist.nets) == list(oracle.nets)
    for name, gate in oracle.gates.items():
        ours = netlist.gates[name]
        assert ours == gate, name
        assert list(ours.connections.items()) == list(gate.connections.items()), name
    for name, net in oracle.nets.items():
        assert netlist.nets[name] == net, name
    assert netlist.primary_inputs == oracle.primary_inputs
    assert netlist.primary_outputs == oracle.primary_outputs
    assert list(netlist.output_nets.items()) == list(oracle.output_nets.items())
    assert netlist.topology_version == oracle.topology_version
    assert netlist.stats() == oracle.stats()
    for gate in oracle.gates:
        assert netlist.fanout_gates(gate) == oracle.fanout_gates(gate)
        assert netlist.fanin_gates(gate) == oracle.fanin_gates(gate)
        assert netlist.gate_output_net(gate) == oracle.gate_output_net(gate)
    assert netlist.validate() == oracle.validate()
    assert netlist_fingerprint(netlist) == netlist_fingerprint_reference(oracle)
    assert_arrays_match(netlist_arrays(netlist), netlist_arrays_reference(oracle))


# ---------------------------------------------------------------------------
# Writers by a walk over the Gate/Net objects
# ---------------------------------------------------------------------------


def write_bench_reference(netlist) -> str:
    """``.bench`` text of ``netlist`` read gate by gate through
    ``netlist.gates`` (the :func:`repro.netlist.bench_format.write_bench`
    body before it read the netlist's columns)."""
    from repro.netlist.bench_format import _op_for_cell

    lines = [f"# {netlist.name} (generated by repro)"]
    for pi in netlist.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.primary_outputs:
        lines.append(f"OUTPUT({netlist.output_nets[po]})")
    lines.append("")
    for gate in netlist.gates.values():
        op = _op_for_cell(gate.cell.name)
        out_net = gate.net_on(gate.output_pin_names[0])
        in_nets = [gate.net_on(p) for p in gate.input_pin_names if gate.net_on(p)]
        if op == "DFF":
            in_nets = [gate.net_on("D")] if gate.net_on("D") else []
        lines.append(f"{out_net} = {op}({', '.join(n for n in in_nets if n)})")
    return "\n".join(lines) + "\n"


def write_structural_verilog_reference(netlist) -> str:
    """Structural Verilog of ``netlist`` read through ``netlist.nets`` and
    ``netlist.gates`` (the
    :func:`repro.netlist.verilog.write_structural_verilog` body before it
    read the netlist's columns)."""
    ports = netlist.primary_inputs + netlist.primary_outputs
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    if netlist.primary_inputs:
        lines.append(f"  input {', '.join(netlist.primary_inputs)};")
    if netlist.primary_outputs:
        lines.append(f"  output {', '.join(netlist.primary_outputs)};")
    internal = sorted(
        name for name in netlist.nets
        if name not in netlist.primary_inputs and name not in netlist.primary_outputs
    )
    for chunk_start in range(0, len(internal), 10):
        lines.append(f"  wire {', '.join(internal[chunk_start:chunk_start + 10])};")
    for po in netlist.primary_outputs:
        if netlist.output_nets[po] != po:
            lines.append(f"  assign {po} = {netlist.output_nets[po]};")
    for gate in netlist.gates.values():
        conns = ", ".join(
            f".{pin}({net})" for pin, net in sorted(gate.connections.items())
        )
        lines.append(f"  {gate.cell.name} {gate.name} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def export_def_reference(layout) -> str:
    """DEF-like text of ``layout`` with each component's cell looked up by
    name through ``netlist.gates`` (the :func:`repro.layout.def_io.export_def`
    body before it read the netlist's columns)."""
    from repro.layout.def_io import DBU_PER_UM, _dbu

    fp = layout.floorplan
    lines = [
        "VERSION 5.8 ;",
        f"DESIGN {layout.netlist.name} ;",
        f"UNITS DISTANCE MICRONS {DBU_PER_UM} ;",
        "DIEAREA ( {} {} ) ( {} {} ) ;".format(
            _dbu(fp.die.x_min), _dbu(fp.die.y_min), _dbu(fp.die.x_max), _dbu(fp.die.y_max)
        ),
    ]
    components = layout.placement.gate_positions
    lines.append(f"COMPONENTS {len(components)} ;")
    for gate_name, pos in components.items():
        cell = layout.netlist.gates[gate_name].cell.name
        lines.append(f"- {gate_name} {cell} + PLACED ( {_dbu(pos.x)} {_dbu(pos.y)} ) N ;")
    lines.append("END COMPONENTS")
    ports = layout.placement.port_positions
    lines.append(f"PINS {len(ports)} ;")
    for port_name, pos in ports.items():
        direction = "INPUT" if port_name in layout.netlist.primary_inputs else "OUTPUT"
        lines.append(f"- {port_name} + NET {port_name} + DIRECTION {direction} "
                     f"+ PLACED ( {_dbu(pos.x)} {_dbu(pos.y)} ) N ;")
    lines.append("END PINS")
    lines.append(f"NETS {len(layout.routing)} ;")
    for net_name, routed in layout.routing.items():
        lines.append(f"- {net_name}")
        for segment in routed.all_segments():
            lines.append(f"  + ROUTED metal{segment.layer} "
                         f"( {_dbu(segment.x1)} {_dbu(segment.y1)} ) "
                         f"( {_dbu(segment.x2)} {_dbu(segment.y2)} )")
        for via in routed.all_vias():
            lines.append(f"  + VIA via{via.lower}_{via.upper} ( {_dbu(via.x)} {_dbu(via.y)} )")
        lines.append("  ;")
    lines.append("END NETS")
    lines.append("END DESIGN")
    return "\n".join(lines) + "\n"
