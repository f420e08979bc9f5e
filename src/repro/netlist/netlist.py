"""Gate-level netlist data model.

A :class:`Netlist` is integer columns:

* gate and net name tables with their id maps, and one cell per gate
  (an index into the netlist's per-cell pin tables, :class:`CellPins`);
* the net on every gate pin, as two CSRs by gate in the cell's pin order:
  *fan-in rows* (input pins) and *fan-out rows* (output pins), ``-1`` for
  an unconnected pin;
* each net's driver (a fan-out row or ``-1``) and its sinks (fan-in rows,
  in the order they were connected);
* the primary input and output tables and a ``dont_touch`` flag per gate.

Every net has at most one driver — a gate output pin or the primary input of
the same name — and any number of sinks (gate input pins and/or primary
outputs).  Connectivity edits go through the :class:`Netlist` methods
(:meth:`~Netlist.add_gate`, :meth:`~Netlist.connect_pin`,
:meth:`~Netlist.disconnect_pin`, :meth:`~Netlist.move_sink`,
:meth:`~Netlist.retarget_primary_output`, :meth:`~Netlist.set_dont_touch`),
so the driver/sink bookkeeping can never go stale, and each structural edit
bumps :attr:`~Netlist.topology_version`.  :meth:`Netlist.from_columns`
builds a whole netlist in bulk from its pin columns, as that edit sequence
would.

``netlist.gates`` and ``netlist.nets`` are read-only name → :class:`Gate` /
:class:`Net` mappings over the netlist's current columns: every lookup
builds a fresh object, and editing that object changes nothing.  Code that reads the whole netlist
reads its integer snapshot instead (:func:`repro.netlist.arrays.netlist_arrays`).

The netlist randomizer of the protection scheme (``repro.core.randomizer``)
only ever *re-targets sink pins to different nets*; gates, pins and net
drivers are untouched, exactly as in the paper where drivers keep their output
wire and only the driver→sink association is swapped.
"""

from __future__ import annotations

import enum
import weakref
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from itertools import chain
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

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
    """An instantiated library cell, as a netlist lookup builds it.

    Attributes:
        name: Instance name, unique within the netlist.
        cell: The :class:`~repro.netlist.cells.Cell` master.
        connections: Mapping of pin name to net name (absent = unconnected),
            in the order the pins were connected.
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
    """A signal net with one driver and a list of sinks, as a netlist lookup
    builds it.

    Attributes:
        name: Net name, unique within the netlist.
        driver: ``(gate, pin)`` driving the net, or ``None`` if the net is
            driven by the primary input of the same name (or is floating).
        sinks: Gate input pins the net fans out to, in connection order.
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


class CellPins:
    """Per-cell pin tables, shared by every gate of one cell master (and by
    copies and snapshots of the netlist)."""

    def __init__(self, cell: Cell):
        self.cell = cell
        self.inputs = tuple(pin.name for pin in cell.input_pins)
        self.outputs = tuple(pin.name for pin in cell.output_pins)
        self.input_caps = [pin.capacitance_ff for pin in cell.input_pins]
        self.input_position = {name: i for i, name in enumerate(self.inputs)}
        self.output_position = {name: i for i, name in enumerate(self.outputs)}
        #: ``(pin name, is output, position)`` in pin-name order.
        self.by_name = sorted(
            [(name, False, i) for i, name in enumerate(self.inputs)]
            + [(name, True, i) for i, name in enumerate(self.outputs)]
        )
        #: ``(output position, kind, input positions)`` per ``logic_ops``
        #: op; a pin the cell lacks is ``-1`` (never connected).
        self.ops: Optional[List[Tuple[int, str, Tuple[int, ...]]]] = None
        if cell.logic_ops is not None:
            self.ops = [
                (self.output_position.get(out_pin, -1), kind,
                 tuple(self.input_position.get(pin, -1) for pin in in_pins))
                for out_pin, kind, in_pins in cell.logic_ops
            ]


#: One pin table per cell of each library, shared by every netlist on it:
#: a library never replaces a cell (``CellLibrary.add`` refuses a duplicate
#: name) and a :class:`Cell` is frozen.
_PIN_TABLES: "weakref.WeakKeyDictionary[CellLibrary, Dict[str, CellPins]]" = (
    weakref.WeakKeyDictionary()
)


def cell_pins(library: CellLibrary, cell_name: str) -> CellPins:
    """The shared :class:`CellPins` of ``library[cell_name]``."""
    tables = _PIN_TABLES.get(library)
    if tables is None:
        tables = _PIN_TABLES.setdefault(library, {})
    table = tables.get(cell_name)
    if table is None:
        table = tables.setdefault(cell_name, CellPins(library[cell_name]))
    return table


class _Table(Mapping):
    """Read-only name → object mapping over a netlist's columns.  It reads
    the netlist's current name table and id map on every call, so it sees
    every later edit."""

    __slots__ = ("_netlist", "_names", "_ids", "_build")

    def __init__(self, netlist: "Netlist", names: str, ids: str, build):
        self._netlist = netlist
        self._names = names
        self._ids = ids
        self._build = build

    def __getitem__(self, name: str):
        return self._build(getattr(self._netlist, self._ids)[name])

    def __contains__(self, name) -> bool:
        return name in getattr(self._netlist, self._ids)

    def __iter__(self) -> Iterator[str]:
        return iter(getattr(self._netlist, self._names))

    def __len__(self) -> int:
        return len(getattr(self._netlist, self._names))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{len(self)} entries>"


class Netlist:
    """A flat, single-module gate-level netlist (see the module docstring)."""

    def __init__(self, name: str, library: Optional[CellLibrary] = None):
        self.name = name
        self.library = library if library is not None else default_library()
        #: Per-cell pin tables in first-use order; ``_cell_id`` by cell name.
        self._cells: List[CellPins] = []
        self._cell_id: Dict[str, int] = {}
        # Gates (append-only) and their pins.
        self._gate_names: List[str] = []
        self._gate_id: Dict[str, int] = {}
        self._gate_cell = array("q")
        self._dont_touch = bytearray()
        self._fanin_start = array("q", [0])
        self._fanin_net = array("q")
        self._fanout_start = array("q", [0])
        self._fanout_net = array("q")
        #: The connected pins, in connection order, of every gate whose pins
        #: were not connected in pin order (inputs, then outputs).  A
        #: gate's ``Gate.connections`` and a copy's sink lists follow it.
        self._pin_order: Dict[int, List[str]] = {}
        # Nets.
        self._net_names: List[str] = []
        self._net_id: Dict[str, int] = {}
        self._net_driver = array("q")
        self._net_sinks: List[List[int]] = []
        self._net_pi = bytearray()
        #: Primary outputs fed by a net, by net id, in ``Net.primary_outputs`` order.
        self._net_pos: Dict[int, List[str]] = {}
        # Ports.
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        #: Net feeding each primary output (often the net of the same name).
        self.output_nets: Dict[str, str] = {}
        #: Monotonic counter bumped on every structural edit; consumers such
        #: as the compiled simulation engine key their compiled-plan caches
        #: on it so stale plans are never executed.
        self._topology_version: int = 0
        #: Counter bumped by every ``dont_touch`` change (not a structural
        #: edit); views that carry the flags key on it too.
        self._marks: int = 0
        #: True while a snapshot shares the name tables and id maps; the
        #: next gate or net copies them first.
        self._shared_names = False

    @property
    def topology_version(self) -> int:
        """Current structural-edit generation of the netlist."""
        return self._topology_version

    def _bump_version(self) -> None:
        self._topology_version += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Mapping:
        """Read-only gate name → fresh :class:`Gate` mapping, in gate order."""
        return _Table(self, "_gate_names", "_gate_id", self._gate)

    @property
    def nets(self) -> Mapping:
        """Read-only net name → fresh :class:`Net` mapping, in net order."""
        return _Table(self, "_net_names", "_net_id", self._net)

    def _pin_nets(self, g: int) -> Dict[str, int]:
        """Gate ``g``'s connected pins and their nets, in pin order."""
        table = self._cells[self._gate_cell[g]]
        start = self._fanin_start[g]
        nets = {pin: net for pin, net in zip(
            table.inputs, self._fanin_net[start:start + len(table.inputs)]) if net >= 0}
        start = self._fanout_start[g]
        nets.update((pin, net) for pin, net in zip(
            table.outputs, self._fanout_net[start:start + len(table.outputs)]) if net >= 0)
        return nets

    def _gate(self, g: int) -> Gate:
        names = self._net_names
        nets = self._pin_nets(g)
        order = self._pin_order.get(g, nets)
        return Gate(self._gate_names[g], self._cells[self._gate_cell[g]].cell,
                    {pin: names[nets[pin]] for pin in order},
                    bool(self._dont_touch[g]))

    def _input_ref(self, row: int) -> PinRef:
        g = bisect_right(self._fanin_start, row) - 1
        pin = self._cells[self._gate_cell[g]].inputs[row - self._fanin_start[g]]
        return (self._gate_names[g], pin)

    def _output_ref(self, row: int) -> PinRef:
        g = bisect_right(self._fanout_start, row) - 1
        pin = self._cells[self._gate_cell[g]].outputs[row - self._fanout_start[g]]
        return (self._gate_names[g], pin)

    def _order_pins(self, g: int, pin: str, connected: bool) -> None:
        """Keep ``_pin_order`` after ``pin`` of gate ``g`` was connected
        (it is now the last connection) or disconnected."""
        order = self._pin_order.get(g)
        if order is None:
            if not connected:
                return  # dropping a pin keeps pin order
            order = [other for other in self._pin_nets(g) if other != pin]
        elif not connected:
            order.remove(pin)
        if connected:
            order.append(pin)
        if order == list(self._pin_nets(g)):
            self._pin_order.pop(g, None)
        else:
            self._pin_order[g] = order

    def _net(self, n: int) -> Net:
        driver = self._net_driver[n]
        return Net(self._net_names[n],
                   None if driver < 0 else self._output_ref(driver),
                   [self._input_ref(row) for row in self._net_sinks[n]],
                   bool(self._net_pi[n]), list(self._net_pos.get(n, ())))

    def _pin_row(self, gate_name: str, pin_name: str) -> Tuple[int, bool]:
        """``(row, is output)`` of a gate pin; raises ``KeyError`` for an
        unknown gate or pin."""
        g = self._gate_id[gate_name]
        table = self._cells[self._gate_cell[g]]
        position = table.input_position.get(pin_name)
        if position is not None:
            return self._fanin_start[g] + position, False
        position = table.output_position.get(pin_name)
        if position is not None:
            return self._fanout_start[g] + position, True
        table.cell.pin(pin_name)  # raises KeyError naming the cell
        raise KeyError(pin_name)  # pragma: no cover - pin() raised

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_primary_input(self, name: str) -> None:
        """Declare a primary input; creates (or marks) the net of that name."""
        if name in self.primary_inputs:
            raise NetlistError(f"primary input {name!r} already declared")
        net = self._net_id.get(name)
        if net is None:
            net = self._new_net(name)
        if self._net_driver[net] >= 0:
            raise NetlistError(f"net {name!r} already has a gate driver")
        self._net_pi[net] = 1
        self.primary_inputs.append(name)
        self._bump_version()

    def add_primary_output(self, name: str, net_name: Optional[str] = None) -> None:
        """Declare a primary output fed by ``net_name`` (default: same name)."""
        if name in self.primary_outputs:
            raise NetlistError(f"primary output {name!r} already declared")
        net_name = net_name if net_name is not None else name
        net = self._net_id.get(net_name)
        if net is None:
            net = self._new_net(net_name)
        self.primary_outputs.append(name)
        self.output_nets[name] = net_name
        self._net_pos.setdefault(net, []).append(name)
        self._bump_version()

    def add_net(self, name: str) -> None:
        if name in self._net_id:
            raise NetlistError(f"net {name!r} already exists")
        self._new_net(name)

    def get_or_add_net(self, name: str) -> None:
        if name not in self._net_id:
            self._new_net(name)

    def _new_net(self, name: str) -> int:
        net = len(self._net_names)
        if self._shared_names:
            self._unshare_names()
        self._net_names.append(name)
        self._net_id[name] = net
        self._net_driver.append(-1)
        self._net_sinks.append([])
        self._net_pi.append(0)
        self._bump_version()
        return net

    def _share_names(self) -> Tuple[List[str], List[str], Dict[str, int], Dict[str, int]]:
        """The gate and net name tables and id maps, to be read and never
        changed; the netlist copies them before its next gate or net."""
        self._shared_names = True
        return self._gate_names, self._net_names, self._gate_id, self._net_id

    def _unshare_names(self) -> None:
        self._gate_names = list(self._gate_names)
        self._net_names = list(self._net_names)
        self._gate_id = dict(self._gate_id)
        self._net_id = dict(self._net_id)
        self._shared_names = False

    def _cell_table(self, cell_name: str) -> int:
        """Index of ``cell_name``'s pin table (added on first use)."""
        index = self._cell_id.get(cell_name)
        if index is None:
            table = cell_pins(self.library, cell_name)
            index = self._cell_id[cell_name] = len(self._cells)
            self._cells.append(table)
        return index

    @classmethod
    def from_columns(cls, name: str, library: CellLibrary, net_names: List[str],
                     primary_inputs: List[str], gate_names: List[str],
                     cell_names: List[str], gate_cell, fanin_net, fanout_net,
                     output_nets: Dict[str, str]) -> "Netlist":
        """A netlist built in bulk from its connectivity.

        ``cell_names`` lists the cells in use in first-use (gate) order and
        ``gate_cell`` holds each gate's cell as an index into it;
        ``fanin_net``/``fanout_net`` hold the net id (an index into
        ``net_names``, ``-1`` for unconnected) on every input/output pin of
        every gate, gate by gate in the cell's pin order.  The three columns
        are integer sequences or arrays.  The result equals declaring the
        primary inputs, adding each gate and connecting its pins in pin
        order (inputs, then outputs), gate by gate, and then declaring
        ``output_nets`` in order, with each net created where ``net_names``
        lists it; ``topology_version`` counts those edits.  Raises
        :class:`NetlistError` when the cell or a pin column does not match
        the gates; other inconsistencies (two drivers on a net, a
        gate-driven primary input) are left to :meth:`validate`.
        """
        netlist = cls(name, library)
        cells = np.asarray(gate_cell, dtype=np.int64)
        if len(cells) != len(gate_names):
            raise NetlistError("the cell column does not match the gates")
        for cell_name in cell_names:
            netlist._cell_table(cell_name)
        tables = netlist._cells
        starts = []
        for pins in ([len(table.inputs) for table in tables],
                     [len(table.outputs) for table in tables]):
            start = np.zeros(len(cells) + 1, dtype=np.int64)
            np.cumsum(np.asarray(pins, dtype=np.int64)[cells], out=start[1:])
            starts.append(array("q", start.tobytes()))
        fanin_start, fanout_start = starts
        if fanin_start[-1] != len(fanin_net) or fanout_start[-1] != len(fanout_net):
            raise NetlistError("pin columns do not match the gates' cells")
        num_nets = len(net_names)
        netlist._gate_names = list(gate_names)
        netlist._gate_id = dict(zip(gate_names, range(len(gate_names))))
        netlist._gate_cell = array("q", cells.tobytes())
        netlist._dont_touch = bytearray(len(gate_names))
        netlist._fanin_start, netlist._fanout_start = fanin_start, fanout_start
        netlist._fanin_net = array("q", np.asarray(fanin_net, dtype=np.int64).tobytes())
        netlist._fanout_net = array("q", np.asarray(fanout_net, dtype=np.int64).tobytes())
        netlist._net_names = list(net_names)
        netlist._net_id = net_id = dict(zip(net_names, range(num_nets)))
        driver = np.full(num_nets, -1, dtype=np.int64)
        outputs = np.frombuffer(netlist._fanout_net, dtype=np.int64)
        rows = np.flatnonzero(outputs >= 0)
        driver[outputs[rows]] = rows
        netlist._net_driver = array("q", driver.tobytes())
        # Each net's sinks in row order: the order pin-by-pin connection
        # gives them.
        inputs = np.frombuffer(netlist._fanin_net, dtype=np.int64)
        sink_rows = np.flatnonzero(inputs >= 0)
        sink_rows = sink_rows[np.argsort(inputs[sink_rows], kind="stable")]
        bounds = np.zeros(num_nets + 1, dtype=np.int64)
        np.cumsum(np.bincount(inputs[sink_rows], minlength=num_nets), out=bounds[1:])
        flat, bounds = sink_rows.tolist(), bounds.tolist()
        netlist._net_sinks = [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]
        netlist._net_pi = bytearray(num_nets)
        for pi in primary_inputs:
            netlist._net_pi[net_id[pi]] = 1
        netlist.primary_inputs = list(primary_inputs)
        for po, net_name in output_nets.items():
            netlist.primary_outputs.append(po)
            netlist._net_pos.setdefault(net_id[net_name], []).append(po)
        netlist.output_nets = dict(output_nets)
        netlist._topology_version = (num_nets + len(primary_inputs) + len(gate_names)
                                     + len(flat) + len(rows) + len(output_nets))
        return netlist

    def add_gate(self, name: str, cell_name: str,
                 connections: Optional[Dict[str, str]] = None) -> None:
        """Instantiate ``cell_name`` as gate ``name`` and connect its pins.

        ``connections`` maps pin names to net names; nets are created on
        demand.
        """
        if name in self._gate_id:
            raise NetlistError(f"gate {name!r} already exists")
        index = self._cell_table(cell_name)
        table = self._cells[index]
        g = len(self._gate_names)
        if self._shared_names:
            self._unshare_names()
        self._gate_names.append(name)
        self._gate_id[name] = g
        self._gate_cell.append(index)
        self._dont_touch.append(0)
        num_in, num_out = len(table.inputs), len(table.outputs)
        self._fanin_start.append(self._fanin_start[-1] + num_in)
        self._fanin_net.extend([-1] * num_in)
        self._fanout_start.append(self._fanout_start[-1] + num_out)
        self._fanout_net.extend([-1] * num_out)
        self._bump_version()
        if connections:
            for pin, net_name in connections.items():
                self.connect_pin(name, pin, net_name)

    def set_dont_touch(self, gate_name: str, value: bool = True) -> None:
        """Mark (or unmark) gate ``gate_name`` as *do not touch*.  A flag,
        not a structural edit: ``topology_version`` stays."""
        self._dont_touch[self._gate_id[gate_name]] = bool(value)
        self._marks += 1

    # ------------------------------------------------------------------
    # Connectivity editing
    # ------------------------------------------------------------------
    def connect_pin(self, gate_name: str, pin_name: str, net_name: str) -> None:
        """Connect ``gate_name.pin_name`` to ``net_name`` (created on demand)."""
        row, output = self._pin_row(gate_name, pin_name)
        pin_net = self._fanout_net if output else self._fanin_net
        if pin_net[row] >= 0:
            self.disconnect_pin(gate_name, pin_name)
        net = self._net_id.get(net_name)
        if net is None:
            net = self._new_net(net_name)
        if output:
            driver = self._net_driver[net]
            if driver >= 0 and driver != row:
                raise NetlistError(
                    f"net {net_name!r} already driven by {self._output_ref(driver)}; "
                    f"cannot also connect driver {gate_name}.{pin_name}"
                )
            if self._net_pi[net]:
                raise NetlistError(
                    f"net {net_name!r} is a primary input and cannot be driven "
                    f"by {gate_name}.{pin_name}"
                )
            self._net_driver[net] = row
        else:
            self._net_sinks[net].append(row)
        pin_net[row] = net
        self._order_pins(self._gate_id[gate_name], pin_name, True)
        self._bump_version()

    def disconnect_pin(self, gate_name: str, pin_name: str) -> None:
        """Disconnect ``gate_name.pin_name`` from its net (if any)."""
        g = self._gate_id[gate_name]
        table = self._cells[self._gate_cell[g]]
        position = table.input_position.get(pin_name)
        if position is not None:
            row = self._fanin_start[g] + position
            net = self._fanin_net[row]
            if net < 0:
                return
            self._net_sinks[net].remove(row)
            self._fanin_net[row] = -1
            self._order_pins(g, pin_name, False)
        else:
            position = table.output_position.get(pin_name)
            if position is None:
                return
            row = self._fanout_start[g] + position
            net = self._fanout_net[row]
            if net < 0:
                return
            if self._net_driver[net] == row:
                self._net_driver[net] = -1
            self._fanout_net[row] = -1
            self._order_pins(g, pin_name, False)
        self._bump_version()

    def move_sink(self, gate_name: str, pin_name: str, new_net: str) -> str:
        """Re-target the sink ``gate_name.pin_name`` to ``new_net``.

        Returns the name of the net the sink was previously connected to.
        This is the primitive operation used by the netlist randomizer and by
        the BEOL restoration step.
        """
        row, output = self._pin_row(gate_name, pin_name)
        if output:
            raise NetlistError(f"{gate_name}.{pin_name} is not an input pin")
        old_net = self._fanin_net[row]
        if old_net < 0:
            raise NetlistError(f"{gate_name}.{pin_name} is not connected")
        self.disconnect_pin(gate_name, pin_name)
        self.connect_pin(gate_name, pin_name, new_net)
        return self._net_names[old_net]

    def retarget_primary_output(self, po_name: str, new_net: str) -> str:
        """Re-target primary output ``po_name`` to ``new_net``; returns old net."""
        if po_name not in self.output_nets:
            raise NetlistError(f"unknown primary output {po_name!r}")
        old_net_name = self.output_nets[po_name]
        self._net_pos[self._net_id[old_net_name]].remove(po_name)
        net = self._net_id.get(new_net)
        if net is None:
            net = self._new_net(new_net)
        self._net_pos.setdefault(net, []).append(po_name)
        self.output_nets[po_name] = new_net
        self._bump_version()
        return old_net_name

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def fanout_gates(self, gate_name: str) -> List[str]:
        """Return the gates driven (directly) by any output of ``gate_name``."""
        g = self._gate_id[gate_name]
        result: List[str] = []
        for net in self._fanout_net[self._fanout_start[g]:self._fanout_start[g + 1]]:
            if net >= 0:
                result += [self._input_ref(row)[0] for row in self._net_sinks[net]]
        return result

    def fanin_gates(self, gate_name: str) -> List[str]:
        """Return the gates driving the inputs of ``gate_name``."""
        g = self._gate_id[gate_name]
        result: List[str] = []
        for net in self._fanin_net[self._fanin_start[g]:self._fanin_start[g + 1]]:
            if net >= 0:
                driver = self._net_driver[net]
                if driver >= 0:
                    result.append(self._output_ref(driver)[0])
        return result

    def gate_output_net(self, gate_name: str) -> Optional[str]:
        """Return the net on the first connected output pin of ``gate_name``."""
        g = self._gate_id[gate_name]
        for net in self._fanout_net[self._fanout_start[g]:self._fanout_start[g + 1]]:
            if net >= 0:
                return self._net_names[net]
        return None

    # ------------------------------------------------------------------
    # Statistics / validation
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self._gate_names)

    @property
    def num_nets(self) -> int:
        return len(self._net_names)

    @property
    def num_connections(self) -> int:
        """Total number of sink-pin connections (two-pin-net equivalent count)."""
        return sum(map(len, self._net_sinks))

    def cell_area_um2(self) -> float:
        """Total standard-cell area (BEOL-only cells contribute zero)."""
        areas = [table.cell.area_um2 for table in self._cells]
        return sum([areas[cell] for cell in self._gate_cell])

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

        Checks cover: every connected gate pin is its net's driver or one of
        its sinks, every net driver and sink points back at a pin on that
        net, no net is both a primary input and gate-driven, every net with
        sinks has a driver, and primary outputs reference existing nets and
        are listed on them.
        """
        problems: List[str] = []
        num_nets = len(self._net_names)
        fanin_net = np.asarray(self._fanin_net, dtype=np.int64)
        fanout_net = np.asarray(self._fanout_net, dtype=np.int64)
        driver = np.asarray(self._net_driver, dtype=np.int64)
        sinks = self._net_sinks
        counts = np.fromiter(map(len, sinks), dtype=np.int64, count=num_nets)
        sink_row = np.fromiter(chain.from_iterable(sinks), dtype=np.int64,
                               count=int(counts.sum()))
        sink_net = np.repeat(np.arange(num_nets, dtype=np.int64), counts)
        if (fanin_net >= num_nets).any() or (fanout_net >= num_nets).any():
            problems.append("a gate pin references an unknown net")
            return problems
        # Drivers: every connected output pin drives its net, and back.
        rows = np.flatnonzero(fanout_net >= 0)
        for row in rows[driver[fanout_net[rows]] != rows].tolist():
            gate, pin = self._output_ref(row)
            problems.append(f"net {self._net_names[self._fanout_net[row]]} driver "
                            f"inconsistent with {gate}.{pin}")
        driven = np.flatnonzero(driver >= 0)
        for net in driven[fanout_net[driver[driven]] != driven].tolist():
            gate, pin = self._output_ref(self._net_driver[net])
            problems.append(f"net {self._net_names[net]} driver backref broken "
                            f"({gate}.{pin})")
        pi = np.frombuffer(bytes(self._net_pi), dtype=np.uint8).astype(bool)
        for net in np.flatnonzero(pi & (driver >= 0)).tolist():
            problems.append(f"net {self._net_names[net]} is both primary input "
                            f"and gate-driven")
        # Sinks: every connected input pin is listed once, on its own net.
        wrong = fanin_net[sink_row] != sink_net
        for net, row in zip(sink_net[wrong].tolist(), sink_row[wrong].tolist()):
            gate, pin = self._input_ref(row)
            problems.append(f"net {self._net_names[net]} sink backref broken "
                            f"({gate}.{pin})")
        listed = np.bincount(sink_row[~wrong], minlength=len(fanin_net))
        for row in np.flatnonzero((fanin_net >= 0) & (listed != 1)).tolist():
            gate, pin = self._input_ref(row)
            problems.append(f"net {self._net_names[self._fanin_net[row]]} missing "
                            f"sink {gate}.{pin}")
        loaded = counts > 0
        for net, pos in self._net_pos.items():
            loaded[net] |= bool(pos)
        for net in np.flatnonzero(loaded & (driver < 0) & ~pi).tolist():
            problems.append(f"net {self._net_names[net]} has sinks but no driver")
        for po in self.primary_outputs:
            net = self._net_id.get(self.output_nets.get(po))
            if net is None or po not in self._net_pos.get(net, ()):
                problems.append(f"primary output {po} references unknown net")
        return problems

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, new_name: Optional[str] = None) -> "Netlist":
        """Return a deep, independent copy of the netlist.

        The copy's columns are the source's, with each net's sinks and
        primary outputs listed as if every pin were reconnected through
        :meth:`connect_pin` in gate order (each gate's pins in connection
        order) and every output in ``output_nets`` order.  Its
        ``topology_version`` counts one edit per net and per connected pin,
        as that replay would.
        """
        clone = Netlist.__new__(Netlist)
        clone.name = new_name if new_name is not None else self.name
        clone.library = self.library
        clone._cells = list(self._cells)
        clone._cell_id = dict(self._cell_id)
        clone._gate_names = list(self._gate_names)
        clone._gate_id = dict(self._gate_id)
        clone._gate_cell = self._gate_cell[:]
        clone._dont_touch = bytearray(self._dont_touch)
        for column in ("_fanin_start", "_fanin_net", "_fanout_start", "_fanout_net",
                       "_net_names", "_net_driver"):
            setattr(clone, column, getattr(self, column)[:])
        clone._pin_order = {g: list(order) for g, order in self._pin_order.items()}
        clone._net_id = dict(self._net_id)
        clone._net_pi = bytearray(self._net_pi)
        # Each net's sinks in gate order, each gate's in connection order:
        # a gate's rows, ranked in that order, keep the gate's row range.
        fanin_net = np.asarray(self._fanin_net, dtype=np.int64)
        rank = np.arange(len(fanin_net))
        for g, order in self._pin_order.items():
            inputs = self._cells[self._gate_cell[g]].input_position
            start = self._fanin_start[g]
            rows = [start + inputs[pin] for pin in order if pin in inputs]
            rank[rows] = start + np.arange(len(rows))
        rows = np.flatnonzero(fanin_net >= 0)
        rows = rows[np.argsort(rank[rows], kind="stable")]
        rows = rows[np.argsort(fanin_net[rows], kind="stable")]
        starts = np.zeros(len(self._net_names) + 1, dtype=np.int64)
        np.cumsum(np.bincount(fanin_net[rows], minlength=len(self._net_names)),
                  out=starts[1:])
        flat, bounds = rows.tolist(), starts.tolist()
        clone._net_sinks = [flat[start:stop]
                            for start, stop in zip(bounds, bounds[1:])]
        clone.primary_inputs = list(self.primary_inputs)
        clone.primary_outputs = list(self.primary_outputs)
        clone.output_nets = dict(self.output_nets)
        clone._net_pos = {}
        net_id = self._net_id
        for po, net_name in self.output_nets.items():
            clone._net_pos.setdefault(net_id[net_name], []).append(po)
        connected = len(flat) + sum(net >= 0 for net in self._fanout_net)
        clone._topology_version = len(self._net_names) + connected
        clone._marks = 0
        clone._shared_names = False
        return clone

    # ------------------------------------------------------------------
    # Pickling: the id maps and pin tables are rebuilt on load.
    # ------------------------------------------------------------------
    _DERIVED = ("_cells", "_cell_id", "_gate_id", "_net_id", "_shared_names")

    def __getstate__(self):
        state = {key: value for key, value in self.__dict__.items()
                 if key not in self._DERIVED}
        state["_cell_names"] = [table.cell.name for table in self._cells]
        return state

    def __setstate__(self, state):
        cell_names = state.pop("_cell_names")
        self.__dict__.update(state)
        self._cells = [cell_pins(self.library, name) for name in cell_names]
        self._cell_id = {name: i for i, name in enumerate(cell_names)}
        self._gate_id = {name: g for g, name in enumerate(self._gate_names)}
        self._net_id = {name: n for n, name in enumerate(self._net_names)}
        self._shared_names = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist(name={self.name!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, pis={len(self.primary_inputs)}, "
            f"pos={len(self.primary_outputs)})"
        )

