"""One integer view of a netlist, and netlists with some sinks moved.

:class:`NetlistArrays` is a netlist's connectivity as integer columns in
netlist order: gates index ``gate_names``, nets index ``net_names`` and
every gate input pin is a *fan-in row* (gate by gate, pins in the cell's
input-pin order), every gate output pin a *fan-out row*.  It is built once
per :attr:`~repro.netlist.netlist.Netlist.topology_version` by
:func:`netlist_arrays`, the way :meth:`repro.layout.layout.Layout.arrays`
is cached on the geometry versions, and it holds no reference to the
netlist.  Simulation plans (:mod:`repro.netlist.engine`), the STA and power
passes (:mod:`repro.timing`) and the graph orderings
(:mod:`repro.netlist.graph`) read it instead of walking ``Gate``/``Net``
objects by name.

:class:`NetlistOverlay` is a netlist with some sink pins moved to other
nets, as two override columns over a :class:`NetlistArrays`: the fan-in
column and the primary-output net column.  A network-flow recovery is one
(:func:`repro.attacks.network_flow.network_flow_attack`); it is compiled and
simulated as it stands, and a :class:`~repro.netlist.netlist.Netlist` is
built from it only when a caller asks (:meth:`NetlistOverlay.netlist`).

Float sums over groups are left folds in element order
(:func:`group_sum`), so they equal the per-object ``sum()`` loops bit for
bit; ``np.add.reduce``/``reduceat`` add pairwise and are not.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cells import Cell
from repro.netlist.netlist import Netlist


def group_sum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-group **left-fold** float sums over CSR ``bounds``.

    Bit-exact with ``sum(values[start:stop])`` in Python for every group:
    ``np.add.reduceat`` (and ``np.sum``) use unrolled/pairwise accumulation
    that reorders the additions from four elements up, so instead the fold
    runs one vectorized ``+=`` per element *rank* — every group accumulates
    its elements strictly left to right, starting from 0.0, exactly like the
    per-object ``sum()`` loops this replaces.  Groups are processed sorted by
    size so each rank's pass touches only the still-active groups; the total
    work is ``O(len(values))`` element additions.
    """
    counts = np.diff(bounds)
    n = len(counts)
    acc = np.zeros(n, dtype=np.float64)
    if n == 0 or values.size == 0:
        return acc
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    sorted_starts = bounds[:-1][order]
    for rank in range(int(sorted_counts[-1])):
        lo = int(np.searchsorted(sorted_counts, rank, side="right"))
        # Each active group appears exactly once per rank, so the fancy-index
        # in-place add is well-defined (no duplicate destination indices).
        acc[order[lo:]] += values[sorted_starts[lo:] + rank]
    return acc


def left_fold(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...`` in that order (``np.cumsum``
    accumulates sequentially; ``np.sum`` does not)."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def csr(counts: np.ndarray) -> np.ndarray:
    """Row starts (length ``n + 1``) of groups of the given sizes."""
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


class _CellTable:
    """Per-cell pin tables, shared by every gate of one cell master."""

    def __init__(self, cell: Cell):
        self.cell = cell
        self.inputs = tuple(pin.name for pin in cell.input_pins)
        self.outputs = tuple(pin.name for pin in cell.output_pins)
        self.input_caps = [pin.capacitance_ff for pin in cell.input_pins]
        self.input_position = {name: i for i, name in enumerate(self.inputs)}
        #: ``(output position, kind, input positions)`` per ``logic_ops``
        #: op; a pin the cell lacks is ``-1`` (never connected).
        self.ops: Optional[List[Tuple[int, str, Tuple[int, ...]]]] = None
        if cell.logic_ops is not None:
            out_position = {name: i for i, name in enumerate(self.outputs)}
            self.ops = [
                (out_position.get(out_pin, -1), kind,
                 tuple(self.input_position.get(pin, -1) for pin in in_pins))
                for out_pin, kind, in_pins in cell.logic_ops
            ]


class NetlistArrays:
    """A netlist's connectivity as integer columns (see the module docstring).

    Attributes:
        version: The netlist's ``topology_version`` the columns describe.
        gate_names / net_names: Name tables in netlist order.
        cells: One :class:`_CellTable` per distinct cell master;
            ``gate_cell`` maps every gate to its entry.
        sequential: Per gate, whether its cell is sequential.
        fanin_start / fanin_net / fanin_gate / fanin_cap: CSR of the gate
            input pins by gate (cell input-pin order): the net of each pin
            (``-1`` unconnected), its gate and its input capacitance (fF).
        fanout_start / fanout_net / fanout_gate: the same for output pins.
        net_driver: Driver gate of every net (``-1`` for none).
        sink_start / sink_row: CSR of each net's sinks in ``Net.sinks``
            order, as fan-in rows.
        fanout_count: Sinks plus primary outputs per net (``Net.fanout``).
        pin_cap: Summed sink-pin capacitance per net, folded left to right
            in ``Net.sinks`` order.
        primary_outputs / po_net / po_net_names: Primary outputs, the index
            of the net feeding each (``-1`` for a net the netlist lacks) and
            that net's name.
        first_output: Net on each gate's first connected output pin
            (``-1`` for none).
        input_nets: Nets of the simulation inputs: primary inputs, then the
            first connected output of every sequential gate.
    """

    def __init__(self, netlist: Netlist):
        self.version = netlist.topology_version
        self.gate_names: List[str] = list(netlist.gates)
        self.net_names: List[str] = list(netlist.nets)
        self.gate_id: Dict[str, int] = {n: i for i, n in enumerate(self.gate_names)}
        self.net_id: Dict[str, int] = {n: i for i, n in enumerate(self.net_names)}
        net_get = self.net_id.get

        tables: List[_CellTable] = []
        table_of: Dict[int, int] = {}  # id(cell) -> table index
        gate_cell: List[int] = []
        fanin: List[int] = []
        fanout: List[int] = []
        for gate in netlist.gates.values():
            cell = gate.cell
            index = table_of.get(id(cell))
            if index is None:
                index = table_of[id(cell)] = len(tables)
                tables.append(_CellTable(cell))
            table = tables[index]
            gate_cell.append(index)
            pin_net = gate.connections.get
            fanin.extend([net_get(pin_net(pin), -1) for pin in table.inputs])
            fanout.extend([net_get(pin_net(pin), -1) for pin in table.outputs])
        self.cells = tables
        num_gates = len(gate_cell)
        self.gate_cell = np.asarray(gate_cell, dtype=np.intp)
        num_inputs = np.asarray([len(t.inputs) for t in tables], dtype=np.int64)
        num_outputs = np.asarray([len(t.outputs) for t in tables], dtype=np.int64)
        self.sequential = np.asarray(
            [t.cell.is_sequential for t in tables], dtype=bool)[self.gate_cell]
        gates = np.arange(num_gates)
        fanin_count = num_inputs[self.gate_cell]
        fanout_count = num_outputs[self.gate_cell]
        self.fanin_start = csr(fanin_count)
        self.fanin_net = np.asarray(fanin, dtype=np.int64)
        self.fanin_gate = np.repeat(gates, fanin_count)
        positions = np.arange(len(fanin)) - self.fanin_start[self.fanin_gate]
        cell_caps = np.asarray([c for t in tables for c in t.input_caps], dtype=np.float64)
        self.fanin_cap = cell_caps[
            csr(num_inputs)[self.gate_cell[self.fanin_gate]] + positions
        ]
        self.fanout_start = csr(fanout_count)
        self.fanout_net = np.asarray(fanout, dtype=np.int64)
        self.fanout_gate = np.repeat(gates, fanout_count)

        gate_id = self.gate_id
        fanin_start = self.fanin_start.tolist()
        position_of = [t.input_position for t in tables]
        driver: List[int] = []
        sink_count: List[int] = []
        sink_row: List[int] = []
        net_fanout: List[int] = []
        for net in netlist.nets.values():
            ref = net.driver
            driver.append(-1 if ref is None else gate_id[ref[0]])
            sinks = net.sinks
            sink_count.append(len(sinks))
            for gate_name, pin in sinks:
                g = gate_id[gate_name]
                sink_row.append(fanin_start[g] + position_of[gate_cell[g]][pin])
            net_fanout.append(len(sinks) + len(net.primary_outputs))
        self.net_driver = np.asarray(driver, dtype=np.int64)
        self.sink_start = csr(np.asarray(sink_count, dtype=np.int64))
        self.sink_row = np.asarray(sink_row, dtype=np.int64)
        self.fanout_count = np.asarray(net_fanout, dtype=np.int64)
        self.pin_cap = group_sum(self.fanin_cap[self.sink_row], self.sink_start)

        self.primary_outputs: List[str] = list(netlist.primary_outputs)
        self.po_net_names: List[str] = [
            netlist.output_nets[po] for po in self.primary_outputs
        ]
        self.po_net = np.asarray(
            [net_get(name, -1) for name in self.po_net_names], dtype=np.int64
        )
        # Net on each gate's first connected output pin (``-1`` for none),
        # as ``Netlist.gate_output_net``.
        self.first_output = np.full(num_gates, -1, dtype=np.int64)
        for position in range(int(fanout_count.max(initial=0)) - 1, -1, -1):
            gates_with = np.flatnonzero(fanout_count > position)
            nets = self.fanout_net[self.fanout_start[gates_with] + position]
            self.first_output[gates_with[nets >= 0]] = nets[nets >= 0]
        self.input_nets: List[int] = [self.net_id[pi] for pi in netlist.primary_inputs]
        self.input_nets += [
            net for net in self.first_output[self.sequential].tolist() if net >= 0
        ]
        self._rank: Optional[List[int]] = None
        self._order: Optional[List[int]] = None
        self._levels: Optional[np.ndarray] = None
        self._kahn: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    @property
    def num_gates(self) -> int:
        return len(self.gate_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def cell_column(self, attribute: str) -> np.ndarray:
        """A float cell attribute (e.g. ``"leakage_nw"``) per gate."""
        values = [getattr(table.cell, attribute) for table in self.cells]
        return np.asarray(values, dtype=np.float64)[self.gate_cell]

    def pin_name(self, row: int) -> str:
        """Name of the input pin of fan-in row ``row``."""
        gate = int(self.fanin_gate[row])
        return self.cells[self.gate_cell[gate]].inputs[row - int(self.fanin_start[gate])]

    # -- orderings -----------------------------------------------------------
    def successors(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Combinational gate graph of the netlist as it stands: nets in
        netlist order, sinks in ``Net.sinks`` order (see
        :func:`combinational_successors`)."""
        sink_net = np.repeat(np.arange(self.num_nets), np.diff(self.sink_start))
        return combinational_successors(self, sink_net, self.fanin_gate[self.sink_row])

    def name_rank(self) -> List[int]:
        """Each gate's position in name order (the orderings' tie rule)."""
        if self._rank is None:
            rank = [0] * self.num_gates
            names = self.gate_names
            for position, gate in enumerate(sorted(range(self.num_gates),
                                                   key=names.__getitem__)):
                rank[gate] = position
            self._rank = rank
        return self._rank

    def pseudo_order(self) -> List[int]:
        """Combinational gates in :func:`pseudo_order` (cached)."""
        if self._order is None:
            self._order = pseudo_order(self, *self.successors())
        return self._order

    def kahn(self) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """``(order, succ_start, succ)``: combinational gates in Kahn order
        with a FIFO queue (shorter than the combinational gate count exactly
        when the logic is cyclic) and the successor CSR (cached)."""
        if self._kahn is None:
            succ_start, succ, in_degree = self.successors()
            degree = in_degree.tolist()
            order = np.flatnonzero(~self.sequential & (in_degree == 0)).tolist()
            starts = succ_start.tolist()
            targets = succ.tolist()
            for gate in order:  # ``order`` grows while walked: a FIFO queue.
                for nxt in targets[starts[gate]:starts[gate + 1]]:
                    degree[nxt] -= 1
                    if degree[nxt] == 0:
                        order.append(nxt)
            self._kahn = (order, succ_start, succ)
        return self._kahn

    def is_acyclic(self) -> bool:
        return len(self.kahn()[0]) == int(np.count_nonzero(~self.sequential))

    def levels(self) -> Optional[np.ndarray]:
        """Longest distance of every combinational gate from the sources of
        the combinational graph (sequential gates: 0), or ``None`` when the
        combinational logic is cyclic (cached)."""
        if self._levels is None and self.is_acyclic():
            order, succ_start, succ = self.kahn()
            starts = succ_start.tolist()
            targets = succ.tolist()
            level = [0] * self.num_gates
            for gate in order:
                nxt_level = level[gate] + 1
                for nxt in targets[starts[gate]:starts[gate + 1]]:
                    if level[nxt] < nxt_level:
                        level[nxt] = nxt_level
            self._levels = np.asarray(level, dtype=np.int64)
        return self._levels


def combinational_successors(arrays: NetlistArrays, sink_net: np.ndarray,
                             sink_gate: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(succ_start, succ, in_degree)`` of the combinational gate graph.

    ``(sink_net[i], sink_gate[i])`` lists every sink pin in the order the
    graph is read: an edge runs from a net's driver gate to each sink gate,
    both combinational, and each gate's successor list keeps the order of
    first appearance (parallel pins counted once).  Self-loops stay.
    """
    comb = ~arrays.sequential
    num_gates = arrays.num_gates
    driver = arrays.net_driver[sink_net]
    keep = driver >= 0
    keep[keep] = comb[driver[keep]] & comb[sink_gate[keep]]
    driver = driver[keep]
    gate = sink_gate[keep]
    first = np.unique(driver * num_gates + gate, return_index=True)[1]
    first.sort()
    driver = driver[first]
    gate = gate[first]
    by_driver = np.argsort(driver, kind="stable")
    return (
        csr(np.bincount(driver, minlength=num_gates)),
        gate[by_driver],
        np.bincount(gate, minlength=num_gates),
    )


def pseudo_order(arrays: NetlistArrays, succ_start: np.ndarray, succ: np.ndarray,
                 in_degree: np.ndarray) -> List[int]:
    """Evaluation order of the combinational gates that tolerates loops.

    Gates are peeled off in Kahn order with a LIFO ``ready`` list, seeded
    with the gates without open fan-ins in descending name order; when only
    cyclic gates remain, the unscheduled gate with the fewest open fan-ins
    (ties broken by name) is emitted next.  The candidates sit in a lazy
    min-heap of ``(in_degree, name rank, gate)`` entries, built at the
    first cycle break and fed on every later in-degree decrement.  Degrees
    only fall, so an unscheduled gate's current entry sorts before its
    stale ones: popping past the entries of scheduled gates yields the gate
    a linear scan would pick.
    """
    rank = arrays.name_rank()
    comb = np.flatnonzero(~arrays.sequential).tolist()
    degree = in_degree.tolist()
    starts = succ_start.tolist()
    targets = succ.tolist()
    scheduled = bytearray(arrays.num_gates)
    ready = sorted((g for g in comb if degree[g] == 0), key=rank.__getitem__,
                   reverse=True)
    for gate in ready:
        scheduled[gate] = 1
    order: List[int] = []
    heap: Optional[List[Tuple[int, int, int]]] = None
    while len(order) < len(comb):
        if not ready:
            if heap is None:
                heap = [(degree[g], rank[g], g) for g in comb if not scheduled[g]]
                heapq.heapify(heap)
            victim = heapq.heappop(heap)[2]
            while scheduled[victim]:
                victim = heapq.heappop(heap)[2]
            scheduled[victim] = 1
            ready.append(victim)
        gate = ready.pop()
        order.append(gate)
        for nxt in targets[starts[gate]:starts[gate + 1]]:
            if scheduled[nxt]:
                continue
            degree[nxt] -= 1
            if degree[nxt] <= 0:
                scheduled[nxt] = 1
                ready.append(nxt)
            elif heap is not None:
                heapq.heappush(heap, (degree[nxt], rank[nxt], nxt))
    return order


def _last_edits(rows: np.ndarray) -> np.ndarray:
    """Positions of the last edit of every distinct row, in edit order."""
    last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
    last.sort()
    return last


_ARRAYS_CACHE: "weakref.WeakKeyDictionary[Netlist, NetlistArrays]" = weakref.WeakKeyDictionary()


def netlist_arrays(netlist: Netlist) -> NetlistArrays:
    """The cached :class:`NetlistArrays` of ``netlist``, rebuilt whenever
    its ``topology_version`` changes."""
    cached = _ARRAYS_CACHE.get(netlist)
    if cached is not None and cached.version == netlist.topology_version:
        return cached
    arrays = NetlistArrays(netlist)
    _ARRAYS_CACHE[netlist] = arrays
    return arrays


class NetlistOverlay:
    """``netlist`` with some sink pins re-targeted, as override columns.

    The edits are replayed, in order, as :meth:`Netlist.disconnect_pin` plus
    :meth:`Netlist.connect_pin` of every moved gate sink (a target of
    ``-1`` leaves the pin unconnected) and
    :meth:`Netlist.retarget_primary_output` of every moved primary output
    (a target of ``-1`` leaves it where it is), on a :meth:`Netlist.copy`
    named ``name``.  The overlay answers what the simulation plan needs
    from that edited copy without building it: the fan-in column
    ``fanin_net``, the output column ``po_net`` and the evaluation order
    (:meth:`pseudo_order`).  :meth:`netlist` builds the copy on request.

    The columns are a snapshot of ``netlist`` at construction;
    :meth:`netlist` raises if the netlist was edited since.
    """

    def __init__(self, netlist: Netlist, name: str, sink_rows: Sequence[int],
                 sink_nets: Sequence[int], po_rows: Sequence[int],
                 po_nets: Sequence[int]):
        self.name = name
        self.base = netlist
        self.arrays = arrays = netlist_arrays(netlist)
        #: Moved gate sinks (fan-in rows) and their nets, in edit order.
        self.sink_rows = np.asarray(sink_rows, dtype=np.int64)
        self.sink_nets = np.asarray(sink_nets, dtype=np.int64)
        #: Moved primary outputs (positions) and their nets, in edit order.
        self.po_rows = np.asarray(po_rows, dtype=np.int64)
        self.po_nets = np.asarray(po_nets, dtype=np.int64)
        # A row edited twice ends where its last edit put it.
        self._last = _last_edits(self.sink_rows)
        self.fanin_net = arrays.fanin_net.copy()
        self.fanin_net[self.sink_rows[self._last]] = self.sink_nets[self._last]
        retargets = np.flatnonzero(self.po_nets >= 0)
        retargets = retargets[_last_edits(self.po_rows[retargets])]
        self.po_net = arrays.po_net.copy()
        self.po_net[self.po_rows[retargets]] = self.po_nets[retargets]
        self._order: Optional[List[int]] = None
        self._netlist: Optional[Netlist] = None

    @property
    def topology_version(self) -> int:
        """The snapshot's version; an overlay never changes."""
        return self.arrays.version

    def pseudo_order(self) -> List[int]:
        """:func:`pseudo_order` of the edited copy.

        A copy lists each net's sinks in gate order; a moved sink leaves
        its net and is appended to its target net's sinks in edit order.
        """
        if self._order is None:
            arrays = self.arrays
            key = arrays.fanin_gate.copy()
            key[self.sink_rows[self._last]] = arrays.num_gates + self._last
            rows = np.flatnonzero(self.fanin_net >= 0)
            rows = rows[np.lexsort((key[rows], self.fanin_net[rows]))]
            self._order = pseudo_order(arrays, *combinational_successors(
                arrays, self.fanin_net[rows], arrays.fanin_gate[rows]))
        return self._order

    def netlist(self) -> Netlist:
        """The edited copy as a :class:`Netlist` (built once)."""
        if self._netlist is None:
            base = self.base
            arrays = self.arrays
            if base.topology_version != arrays.version:
                raise RuntimeError(
                    f"netlist {base.name!r} was edited after the overlay was made"
                )
            recovered = base.copy(self.name)
            gate_names, net_names = arrays.gate_names, arrays.net_names
            for row, net in zip(self.sink_rows.tolist(), self.sink_nets.tolist()):
                gate = gate_names[arrays.fanin_gate[row]]
                pin = arrays.pin_name(row)
                recovered.disconnect_pin(gate, pin)
                if net >= 0:
                    recovered.connect_pin(gate, pin, net_names[net])
            for po, net in zip(self.po_rows.tolist(), self.po_nets.tolist()):
                if net >= 0:
                    recovered.retarget_primary_output(arrays.primary_outputs[po],
                                                      net_names[net])
            self._netlist = recovered
        return self._netlist
