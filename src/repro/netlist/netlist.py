"""Gate-level netlist data model.

The model is deliberately simple and explicit:

* a :class:`Netlist` owns :class:`Gate` and :class:`Net` objects by name;
* every :class:`Net` has exactly one driver — either a gate output pin or a
  primary input — and any number of sinks (gate input pins and/or primary
  outputs);
* connectivity edits go through :meth:`Netlist.connect_pin` /
  :meth:`Netlist.disconnect_pin` so the driver/sink bookkeeping can never go
  stale.

The netlist randomizer of the protection scheme (``repro.core.randomizer``)
only ever *re-targets sink pins to different nets*; gates, pins and net
drivers are untouched, exactly as in the paper where drivers keep their output
wire and only the driver→sink association is swapped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.netlist.cells import Cell, CellLibrary, default_library


class NetlistError(ValueError):
    """Raised for inconsistent netlist edits (unknown pins, double drivers...)."""


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"


#: A pin reference: (gate name, pin name).
PinRef = Tuple[str, str]


@dataclass
class Gate:
    """An instantiated library cell.

    Attributes:
        name: Instance name, unique within the netlist.
        cell: The :class:`~repro.netlist.cells.Cell` master.
        connections: Mapping of pin name to net name (absent = unconnected).
        dont_touch: Marks gates that physical-design steps must not restructure
            (the paper marks swapped drivers/sinks as *do not touch*).
    """

    name: str
    cell: Cell
    connections: Dict[str, str] = field(default_factory=dict)
    dont_touch: bool = False

    def net_on(self, pin: str) -> Optional[str]:
        """Return the net connected to ``pin`` or ``None``."""
        return self.connections.get(pin)

    @property
    def output_pin_names(self) -> List[str]:
        return [p.name for p in self.cell.output_pins]

    @property
    def input_pin_names(self) -> List[str]:
        return [p.name for p in self.cell.input_pins]


@dataclass
class Net:
    """A signal net with one driver and a list of sinks.

    Attributes:
        name: Net name, unique within the netlist.
        driver: ``(gate, pin)`` driving the net, or ``None`` if the net is
            driven by the primary input of the same name (or is floating).
        sinks: Gate input pins the net fans out to.
        is_primary_input: True if the net is a top-level input.
        primary_outputs: Names of top-level outputs fed by this net.
    """

    name: str
    driver: Optional[PinRef] = None
    sinks: List[PinRef] = field(default_factory=list)
    is_primary_input: bool = False
    primary_outputs: List[str] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        """Number of sinks including primary outputs."""
        return len(self.sinks) + len(self.primary_outputs)

    def has_driver(self) -> bool:
        return self.driver is not None or self.is_primary_input


class Netlist:
    """A flat, single-module gate-level netlist."""

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

    def remove_gate(self, name: str) -> None:
        """Remove gate ``name``, disconnecting all of its pins."""
        gate = self.gates[name]
        for pin in list(gate.connections):
            self.disconnect_pin(name, pin)
        del self.gates[name]
        self._bump_version()

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
    def driver_of(self, net_name: str) -> Optional[PinRef]:
        return self.nets[net_name].driver

    def sinks_of(self, net_name: str) -> List[PinRef]:
        return list(self.nets[net_name].sinks)

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

    def iter_connections(self) -> Iterator[Tuple[str, PinRef]]:
        """Yield every (net name, sink pin) pair in the design."""
        for net in self.nets.values():
            for sink in net.sinks:
                yield net.name, sink

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
    def copy(self, new_name: Optional[str] = None) -> "Netlist":
        """Return a deep, independent copy of the netlist.

        The copy is rebuilt from the gates' pin connections, as if every pin
        were reconnected through :meth:`connect_pin` in gate order: net
        drivers come from output pins, sink lists follow gate iteration order
        and each net's primary outputs follow ``output_nets`` order.  The
        source netlist is consistent, so the per-pin checks are skipped.  The
        copy's ``topology_version`` counts one edit per net and per pin, as
        that replay would.
        """
        clone = Netlist(new_name if new_name is not None else self.name, self.library)
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
        return (
            f"Netlist(name={self.name!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, pis={len(self.primary_inputs)}, "
            f"pos={len(self.primary_outputs)})"
        )
