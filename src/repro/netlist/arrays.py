"""One integer view of a netlist, and netlists with some sinks moved.

:class:`NetlistArrays` is a snapshot of a netlist's integer columns as
numpy arrays, in netlist order: gates index ``gate_names``, nets index
``net_names`` and every gate input pin is a *fan-in row* (gate by gate,
pins in the cell's input-pin order), every gate output pin a *fan-out
row*.  :func:`netlist_arrays` takes it once per
:attr:`~repro.netlist.netlist.Netlist.topology_version`, the way
:meth:`repro.layout.layout.Layout.arrays` is cached on the geometry
versions, and it holds no reference to the netlist.  It carries the
orderings and loop checks (:meth:`~NetlistArrays.kahn`,
:meth:`~NetlistArrays.is_acyclic`, :meth:`~NetlistArrays.pseudo_order`,
:meth:`~NetlistArrays.levels`).  Every ``src/`` reader of a netlist reads
it — simulation plans (:mod:`repro.netlist.engine`), the STA and power
passes (:mod:`repro.timing`), the placement and routing skeletons
(:mod:`repro.layout`), the writers, the defenses, the restore step and the
store fingerprint (:mod:`repro.store.codec`); only
:mod:`repro.netlist.netlist` builds a ``Gate`` or ``Net``.

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
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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


def _column(values: "array[int]") -> np.ndarray:
    """A copy of a netlist's ``array("q")`` column as an int64 array."""
    return np.frombuffer(values, dtype=np.int64).copy()


class NetlistArrays:
    """A netlist's connectivity as integer columns (see the module docstring).

    Attributes:
        version / marks: The netlist's ``topology_version`` and
            ``dont_touch`` change count the columns describe.
        gate_names / net_names: Name tables in netlist order.
        gate_id / net_id: Name → index maps of those tables.
        cells: The netlist's :class:`~repro.netlist.netlist.CellPins`, one
            per distinct cell master; ``gate_cell`` maps every gate to its
            entry.
        sequential / dont_touch: Per gate, whether its cell is sequential
            and whether it is marked *do not touch*.
        fanin_start / fanin_net / fanin_gate / fanin_cap: CSR of the gate
            input pins by gate (cell input-pin order): the net of each pin
            (``-1`` unconnected), its gate and its input capacitance (fF).
        fanout_start / fanout_net / fanout_gate: the same for output pins.
        net_driver / net_driver_row: Driver gate and fan-out row of every
            net (``-1`` for none).
        net_is_pi: Per net, whether it is a primary input.
        sink_start / sink_row: CSR of each net's sinks in ``Net.sinks``
            order, as fan-in rows.
        net_po_start / net_po: CSR of each net's primary outputs (positions
            in ``primary_outputs``) in ``Net.primary_outputs`` order.
        fanout_count: Sinks plus primary outputs per net (``Net.fanout``).
        pin_cap: Summed sink-pin capacitance per net, folded left to right
            in ``Net.sinks`` order.
        primary_inputs: The primary input names.
        primary_outputs / po_net / po_net_names: Primary outputs, the index
            of the net feeding each (``-1`` for a net the netlist lacks) and
            that net's name.
        first_output: Net on each gate's first connected output pin
            (``-1`` for none).
        input_nets: Nets of the simulation inputs: primary inputs, then the
            first connected output of every sequential gate.
    """

    def __init__(self, netlist: Netlist):
        # A snapshot of the netlist's own columns: no name is looked up.
        # Columns derived from these are computed on first use.
        self.version = netlist.topology_version
        self.marks = netlist._marks
        # The name tables are shared, never copied: the netlist copies its
        # own before it next adds a gate or net.
        self.gate_names, self.net_names, self.gate_id, self.net_id = (
            netlist._share_names())
        self.cells = list(netlist._cells)
        self.gate_cell = _column(netlist._gate_cell).astype(np.intp, copy=False)
        self.dont_touch = np.frombuffer(bytes(netlist._dont_touch),
                                        dtype=np.uint8).astype(bool)
        self.fanin_start = _column(netlist._fanin_start)
        self.fanin_net = _column(netlist._fanin_net)
        self.fanout_start = _column(netlist._fanout_start)
        self.fanout_net = _column(netlist._fanout_net)
        self.net_driver_row = _column(netlist._net_driver)
        self.net_is_pi = np.frombuffer(bytes(netlist._net_pi), dtype=np.uint8).astype(bool)
        sinks = netlist._net_sinks
        self.sink_start = csr(np.fromiter(map(len, sinks), dtype=np.int64,
                                          count=len(sinks)))
        self.sink_row = np.fromiter(chain.from_iterable(sinks), dtype=np.int64,
                                    count=int(self.sink_start[-1]))
        self.primary_inputs: List[str] = list(netlist.primary_inputs)
        self.primary_outputs: List[str] = list(netlist.primary_outputs)
        self.po_net_names: List[str] = [
            netlist.output_nets[po] for po in self.primary_outputs
        ]
        # Each net's primary outputs (positions), in ``Net.primary_outputs`` order.
        po_position = {po: i for i, po in enumerate(self.primary_outputs)}
        net_pos = netlist._net_pos
        po_count = np.zeros(len(sinks), dtype=np.int64)
        po_rows: List[int] = []
        for net in sorted(net_pos):
            po_count[net] = len(net_pos[net])
            po_rows += [po_position[po] for po in net_pos[net]]
        self.net_po_start = csr(po_count)
        self.net_po = np.asarray(po_rows, dtype=np.int64)
        self._rank: Optional[List[int]] = None
        self._order: Optional[List[int]] = None
        self._levels: Optional[np.ndarray] = None
        self._kahn: Optional[Tuple[List[int], np.ndarray, np.ndarray]] = None

    @cached_property
    def fanin_gate(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_gates), np.diff(self.fanin_start))

    @cached_property
    def fanout_gate(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_gates), np.diff(self.fanout_start))

    @cached_property
    def net_driver(self) -> np.ndarray:
        driver = np.full(self.num_nets, -1, dtype=np.int64)
        driven = self.net_driver_row >= 0
        driver[driven] = self.fanout_gate[self.net_driver_row[driven]]
        return driver

    @cached_property
    def sequential(self) -> np.ndarray:
        return np.asarray([t.cell.is_sequential for t in self.cells],
                          dtype=bool)[self.gate_cell]

    @cached_property
    def fanin_cap(self) -> np.ndarray:
        num_inputs = np.asarray([len(t.inputs) for t in self.cells], dtype=np.int64)
        caps = np.asarray([c for t in self.cells for c in t.input_caps], dtype=np.float64)
        gate = self.fanin_gate
        positions = np.arange(len(self.fanin_net)) - self.fanin_start[gate]
        return caps[csr(num_inputs)[self.gate_cell[gate]] + positions]

    @cached_property
    def fanout_count(self) -> np.ndarray:
        return np.diff(self.sink_start) + np.diff(self.net_po_start)

    @cached_property
    def pin_cap(self) -> np.ndarray:
        """Summed sink-pin capacitance per net (fF), folded left to right in
        ``Net.sinks`` order."""
        return group_sum(self.fanin_cap[self.sink_row], self.sink_start)

    @cached_property
    def po_net(self) -> np.ndarray:
        return np.asarray([self.net_id.get(name, -1) for name in self.po_net_names],
                          dtype=np.int64)

    @cached_property
    def first_output(self) -> np.ndarray:
        """Net on each gate's first connected output pin (``-1`` for none),
        as ``Netlist.gate_output_net``."""
        fanout_count = np.diff(self.fanout_start)
        first = np.full(self.num_gates, -1, dtype=np.int64)
        for position in range(int(fanout_count.max(initial=0)) - 1, -1, -1):
            gates_with = np.flatnonzero(fanout_count > position)
            nets = self.fanout_net[self.fanout_start[gates_with] + position]
            first[gates_with[nets >= 0]] = nets[nets >= 0]
        return first

    @cached_property
    def input_nets(self) -> List[int]:
        nets = [self.net_id[pi] for pi in self.primary_inputs]
        return nets + [net for net in self.first_output[self.sequential].tolist()
                       if net >= 0]

    @property
    def num_gates(self) -> int:
        return len(self.gate_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def driven_loaded_nets(self) -> List[str]:
        """Names of the nets with a driver (a gate or a primary input) and
        at least one gate sink, in net order."""
        keep = (np.diff(self.sink_start) > 0) & ((self.net_driver_row >= 0) | self.net_is_pi)
        return [self.net_names[net] for net in np.flatnonzero(keep).tolist()]

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
    """The cached :class:`NetlistArrays` of ``netlist``, taken again
    whenever its ``topology_version`` or a ``dont_touch`` flag changes."""
    cached = _ARRAYS_CACHE.get(netlist)
    if (cached is not None and cached.version == netlist.topology_version
            and cached.marks == netlist._marks):
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
