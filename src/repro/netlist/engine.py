"""Compiled, vectorized bit-parallel simulation engine.

This module is the fast path behind :mod:`repro.netlist.simulate`.  Instead of
walking Python dicts and arbitrary-precision integers gate by gate, a netlist
is compiled once into an **evaluation plan**:

* every net gets an integer *slot* in a ``(num_slots, num_words)`` NumPy
  ``uint64`` value matrix (pattern *i* lives in bit ``i % 64`` of word
  ``i // 64``);
* gates are walked in the same loop-tolerant pseudo-topological order as the
  per-gate interpreter and grouped into *batches* of mutually independent
  gates;
* within a batch, gates of the same logic kind (NAND2, INV, AOI21, ...) are
  fused into a single gather → NumPy-kernel → scatter operation over index
  arrays, so one ``np.bitwise_and`` call evaluates every NAND2 of a level at
  once.

Plans are cached per netlist (keyed on :attr:`Netlist.topology_version`, so
any structural edit transparently invalidates the cache) and executed over
``uint64``-packed pattern blocks.  Execution is **bit-exact** with the
per-gate interpreter: batches preserve the sequential read/write semantics
of the pseudo-topological order even on (attacker-induced) combinational
loops because every batch gathers all of its inputs before scattering any
output.

Netlists containing cells without :attr:`~repro.netlist.cells.Cell.logic_ops`
metadata (user-defined custom functions) raise :class:`UnsupportedNetlist`;
:mod:`repro.netlist.simulate` runs those through its per-gate interpreter,
the only path that can call a cell's ``function``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.graph import pseudo_topological_order
from repro.netlist.netlist import Gate, Netlist

#: Patterns packed per machine word.
BITS_PER_WORD = 64


class UnsupportedNetlist(RuntimeError):
    """Raised when a netlist contains cells the engine cannot compile."""


# ---------------------------------------------------------------------------
# Packing helpers: Python bigints <-> uint64 word arrays (little endian).
# ---------------------------------------------------------------------------


def num_words(num_patterns: int) -> int:
    """Number of ``uint64`` words needed for ``num_patterns`` packed bits."""
    return max(1, (num_patterns + BITS_PER_WORD - 1) // BITS_PER_WORD)


def pack_bigint(value: int, words: int) -> np.ndarray:
    """Pack a non-negative bigint into a ``(words,)`` ``uint64`` array."""
    raw = value.to_bytes(words * 8, "little")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)


def unpack_bigint(row: np.ndarray, num_patterns: int) -> int:
    """Unpack a word row back into a bigint, masked to ``num_patterns`` bits."""
    value = int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")
    rem = num_patterns % BITS_PER_WORD
    if rem:
        value &= (1 << num_patterns) - 1
    return value


if hasattr(np, "bitwise_count"):

    def popcount_words(array: np.ndarray) -> int:
        """Total number of set bits in a ``uint64`` array."""
        return int(np.bitwise_count(array).sum())

    def popcount_rows(matrix: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a 2-D ``uint64`` array."""
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)

    def popcount_words(array: np.ndarray) -> int:
        return int(_POP8[np.ascontiguousarray(array).view(np.uint8)].sum())

    def popcount_rows(matrix: np.ndarray) -> np.ndarray:
        bytes_view = np.ascontiguousarray(matrix).view(np.uint8)
        return _POP8[bytes_view].sum(axis=1, dtype=np.int64)


def mask_tail(array: np.ndarray, num_patterns: int) -> None:
    """Zero the bits above ``num_patterns`` in the last word (in place)."""
    rem = num_patterns % BITS_PER_WORD
    if rem:
        array[..., -1] &= np.uint64((1 << rem) - 1)


# ---------------------------------------------------------------------------
# Plan representation
# ---------------------------------------------------------------------------


#: One fused group: same op kind, same arity, independent gates.
#: ``ins`` holds one index array per op input position, ``outs`` the
#: destination slots.
GroupOp = Tuple[str, Tuple[np.ndarray, ...], np.ndarray]


@dataclass
class SimPlan:
    """A compiled evaluation plan for one netlist topology revision.

    The plan carries two executable forms of the same topologically sorted
    op list:

    * :attr:`arc_program` — the flat per-gate op list with integer net
      indices, in the per-gate interpreter's evaluation order.  It is executed
      either by a tuple-program interpreter (first execution) or by a
      code-generated Python function over packed bigints (re-executed plans;
      see :func:`run_plan_bigints`).  For narrow, deep netlists the bigint
      ops (~0.1 µs per 4096-bit word op) beat per-call NumPy dispatch
      overhead by an order of magnitude.
    * level-fused gather/scatter groups for the NumPy ``uint64``-packed
      executor (:func:`run_plan`), built lazily from the arc levels; this
      amortizes best on wide netlists and large pattern blocks.

    :meth:`prefer_bigints` picks the executor from the plan shape.
    """

    netlist_name: str
    version: int
    num_slots: int
    #: Constant slot that always carries the X fill (never written).
    x_slot: int
    #: ``(input name, slot)`` for primary inputs + sequential pseudo inputs.
    input_slots: List[Tuple[str, int]]
    #: Flat ``(kind, input slots, output slot)`` list in the per-gate
    #: interpreter's evaluation order (the sequential program).
    arc_program: List[Tuple[str, Tuple[int, ...], int]] = field(default_factory=list)
    #: Batch (level) index per arc; arcs sharing a level are independent.
    arc_levels: List[int] = field(default_factory=list)
    #: Number of levels (batches of the NumPy executor).
    num_batches: int = 0
    #: ``(primary output name, slot)``.
    output_slots: List[Tuple[str, int]] = field(default_factory=list)
    #: ``(net name, slot)`` of every net the per-gate interpreter would have
    #: recorded in its values dict (inputs first, then driven nets).
    value_slots: List[Tuple[str, int]] = field(default_factory=list)
    #: Slots produced by the bigint executors, in order.
    result_slots: List[int] = field(default_factory=list, repr=False)
    #: Lazily built gather/scatter batches for the NumPy executor.
    _batches: Optional[List[List[GroupOp]]] = field(default=None, repr=False, compare=False)
    #: Code-generated bigint executor (built once the plan proves hot).
    _bigint_fn: Optional[object] = field(default=None, repr=False, compare=False)
    #: How many times the bigint program has executed (codegen trigger).
    _bigint_runs: int = field(default=0, repr=False, compare=False)

    @property
    def num_groups(self) -> int:
        return sum(len(batch) for batch in self.batches())

    @property
    def num_arcs(self) -> int:
        return len(self.arc_program)

    def batches(self) -> List[List[GroupOp]]:
        """The (lazily built) fused groups for the NumPy executor."""
        if self._batches is None:
            self._batches = _build_batches(self)
        return self._batches

    def prefer_bigints(self, num_patterns: int) -> bool:
        """Whether the bigint executor likely beats the NumPy one.

        NumPy wins when its fixed per-call dispatch cost is amortized over
        many gates per fused group and many packed words per row; otherwise
        the bigint program's ~10x cheaper per-op cost dominates.
        """
        if not self.arc_program:
            return True
        gates_per_batch = self.num_arcs / max(1, self.num_batches)
        return gates_per_batch < 16 or num_words(num_patterns) < 64


@dataclass
class _UnsupportedMarker:
    """Cached negative compile verdict, so interpreter-only netlists don't
    pay a full compile attempt on every simulate/metric call."""

    version: int
    message: str


_PLAN_CACHE: "weakref.WeakKeyDictionary[Netlist, object]" = weakref.WeakKeyDictionary()


def plan_input_names(netlist: Netlist) -> List[str]:
    """Primary inputs plus sequential-cell outputs (pseudo primary inputs)."""
    names = list(netlist.primary_inputs)
    for gate in netlist.gates.values():
        if gate.cell.is_sequential:
            net = netlist.gate_output_net(gate.name)
            if net is not None:
                names.append(net)
    return names


def compile_plan(netlist: Netlist) -> SimPlan:
    """Return the (cached) evaluation plan for ``netlist``.

    Raises:
        UnsupportedNetlist: When a combinational cell carries no
            ``logic_ops`` metadata and therefore cannot be vectorized.
    """
    cached = _PLAN_CACHE.get(netlist)
    if cached is not None and cached.version == netlist.topology_version:
        if isinstance(cached, _UnsupportedMarker):
            raise UnsupportedNetlist(cached.message)
        return cached
    try:
        plan = _compile(netlist)
    except UnsupportedNetlist as error:
        _PLAN_CACHE[netlist] = _UnsupportedMarker(netlist.topology_version, str(error))
        raise
    _PLAN_CACHE[netlist] = plan
    return plan


def gate_arcs(
    gate: Gate, net_slot: Mapping[str, int], x_slot: int,
) -> List[Tuple[str, Tuple[str, ...], Tuple[int, ...], int, str]]:
    """``(kind, input pins, input slots, output slot, output net)`` per op.

    One entry per ``logic_ops`` op of the combinational ``gate`` whose output
    pin is connected (the per-gate interpreter drops unconnected outputs too).
    An unconnected input pin reads ``x_slot``, the X fill.

    Raises:
        UnsupportedNetlist: When the cell carries no ``logic_ops`` metadata.
    """
    cell = gate.cell
    if cell.logic_ops is None:
        raise UnsupportedNetlist(
            f"cell {cell.name!r} (gate {gate.name!r}) has no logic_ops "
            "metadata; vectorized simulation is unavailable"
        )
    connections = gate.connections
    arcs = []
    for out_pin, kind, in_pins in cell.logic_ops:
        out_net = connections.get(out_pin)
        if out_net is None:
            continue
        in_slots = []
        for pin in in_pins:
            net_name = connections.get(pin)
            in_slots.append(x_slot if net_name is None else net_slot[net_name])
        arcs.append((kind, in_pins, tuple(in_slots), net_slot[out_net], out_net))
    return arcs


def _compile(netlist: Netlist) -> SimPlan:
    net_slot = {name: i for i, name in enumerate(netlist.nets)}
    x_slot = len(net_slot)
    input_names = plan_input_names(netlist)
    input_slots = [(name, net_slot[name]) for name in input_names]
    value_slots: List[Tuple[str, int]] = list(input_slots)

    # Schedule every gate into a batch (level).  Walking the same
    # pseudo-topological order as the per-gate interpreter, a gate lands in the
    # earliest batch compatible with the sequential read semantics:
    #
    # * a read from an *earlier* gate of the order must observe that gate's
    #   value -> reader level must exceed the writer's level;
    # * a read from a *later* gate (a loop-broken edge) must observe the X
    #   fill -> the writer's level must not precede the reader's; batches
    #   gather all inputs before scattering any output, so sharing a level
    #   also reads the pre-batch X value.
    #
    # On acyclic netlists this degenerates to plain longest-path levelling.
    order = pseudo_topological_order(netlist)
    gates = netlist.gates
    #: Driving gate per slot; None for undriven nets and the X slot.
    slot_driver = [
        None if net.driver is None else net.driver[0] for net in netlist.nets.values()
    ] + [None]
    level: Dict[str, int] = {}
    deferred_min_level: Dict[str, int] = {}
    arc_program: List[Tuple[str, Tuple[int, ...], int]] = []
    arc_levels: List[int] = []
    for gate_name in order:
        gate = gates[gate_name]
        if gate.cell.is_sequential:
            continue
        arcs = gate_arcs(gate, net_slot, x_slot)
        unresolved_writers: List[str] = []
        gate_level = deferred_min_level.get(gate_name, 0)
        for _kind, _in_pins, in_slots, _out_slot, _out_net in arcs:
            for slot in in_slots:
                driver_gate = slot_driver[slot]
                if driver_gate is None:
                    continue
                if driver_gate in level:
                    driver_level = level[driver_gate]
                    if driver_level >= gate_level:
                        gate_level = driver_level + 1
                elif (
                    driver_gate in gates
                    and not gates[driver_gate].cell.is_sequential
                ):
                    unresolved_writers.append(driver_gate)
        level[gate_name] = gate_level
        for writer in unresolved_writers:
            deferred_min_level[writer] = max(
                deferred_min_level.get(writer, 0), gate_level
            )
        for kind, _in_pins, in_slots, out_slot, out_net in arcs:
            value_slots.append((out_net, out_slot))
            arc_program.append((kind, in_slots, out_slot))
            arc_levels.append(gate_level)

    output_slots = [
        (po, net_slot.get(netlist.output_nets[po], x_slot))
        for po in netlist.primary_outputs
    ]
    result_slots: List[int] = []
    seen_result: set = set()
    for _name, slot in value_slots:
        if slot not in seen_result:
            seen_result.add(slot)
            result_slots.append(slot)
    for _po, slot in output_slots:
        if slot not in seen_result:
            seen_result.add(slot)
            result_slots.append(slot)
    return SimPlan(
        netlist_name=netlist.name,
        version=netlist.topology_version,
        num_slots=x_slot + 1,
        x_slot=x_slot,
        input_slots=input_slots,
        arc_program=arc_program,
        arc_levels=arc_levels,
        num_batches=max(arc_levels) + 1 if arc_levels else 0,
        output_slots=output_slots,
        value_slots=value_slots,
        result_slots=result_slots,
    )


def _build_batches(plan: SimPlan) -> List[List[GroupOp]]:
    """Fuse arcs of each (level, kind, arity) into one gather/scatter group."""
    grouped: List[Dict[Tuple[str, int], Tuple[List[List[int]], List[int]]]] = [
        {} for _ in range(plan.num_batches)
    ]
    for (kind, in_slots, out_slot), arc_level in zip(plan.arc_program, plan.arc_levels):
        pending = grouped[arc_level]
        key = (kind, len(in_slots))
        if key not in pending:
            pending[key] = ([[] for _ in in_slots], [])
        in_cols, outs = pending[key]
        for col, slot in zip(in_cols, in_slots):
            col.append(slot)
        outs.append(out_slot)

    batches: List[List[GroupOp]] = []
    for pending in grouped:
        groups: List[GroupOp] = []
        for (kind, _arity), (in_cols, outs) in pending.items():
            ins = tuple(np.asarray(col, dtype=np.intp) for col in in_cols)
            groups.append((kind, ins, np.asarray(outs, dtype=np.intp)))
        batches.append(groups)
    return batches


# ---------------------------------------------------------------------------
# Kernels: each consumes privately gathered (k, words) uint64 arrays and may
# clobber them freely.  Bits above num_patterns in the last word may carry
# garbage (from inversions); callers mask at extraction time.
# ---------------------------------------------------------------------------


def _k_buf(srcs: Sequence[np.ndarray]) -> np.ndarray:
    return srcs[0]


def _k_inv(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = srcs[0]
    np.bitwise_not(r, out=r)
    return r


def _k_and(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = srcs[0]
    for s in srcs[1:]:
        np.bitwise_and(r, s, out=r)
    return r


def _k_nand(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = _k_and(srcs)
    np.bitwise_not(r, out=r)
    return r


def _k_or(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = srcs[0]
    for s in srcs[1:]:
        np.bitwise_or(r, s, out=r)
    return r


def _k_nor(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = _k_or(srcs)
    np.bitwise_not(r, out=r)
    return r


def _k_xor(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = srcs[0]
    for s in srcs[1:]:
        np.bitwise_xor(r, s, out=r)
    return r


def _k_xnor(srcs: Sequence[np.ndarray]) -> np.ndarray:
    r = _k_xor(srcs)
    np.bitwise_not(r, out=r)
    return r


def _k_aoi21(srcs: Sequence[np.ndarray]) -> np.ndarray:
    a1, a2, b = srcs
    np.bitwise_and(a1, a2, out=a1)
    np.bitwise_or(a1, b, out=a1)
    np.bitwise_not(a1, out=a1)
    return a1


def _k_oai21(srcs: Sequence[np.ndarray]) -> np.ndarray:
    a1, a2, b = srcs
    np.bitwise_or(a1, a2, out=a1)
    np.bitwise_and(a1, b, out=a1)
    np.bitwise_not(a1, out=a1)
    return a1


def _k_mux2(srcs: Sequence[np.ndarray]) -> np.ndarray:
    a, b, s = srcs  # Z = (B & S) | (A & ~S)
    np.bitwise_and(b, s, out=b)
    np.bitwise_not(s, out=s)
    np.bitwise_and(s, a, out=s)
    np.bitwise_or(b, s, out=b)
    return b


_KERNELS = {
    "BUF": _k_buf,
    "INV": _k_inv,
    "AND": _k_and,
    "NAND": _k_nand,
    "OR": _k_or,
    "NOR": _k_nor,
    "XOR": _k_xor,
    "XNOR": _k_xnor,
    "AOI21": _k_aoi21,
    "OAI21": _k_oai21,
    "MUX2": _k_mux2,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_plan(plan: SimPlan, inputs: Mapping[str, int], num_patterns: int,
             x_value: int = 0) -> np.ndarray:
    """Execute ``plan`` over packed patterns; returns the value matrix.

    Args:
        plan: A plan from :func:`compile_plan`.
        inputs: Bigint bit-vector per input name; every name in
            ``plan.input_slots`` must be present (extra names are ignored).
        num_patterns: Number of patterns packed per bit-vector.
        x_value: Bigint pattern assumed for undriven/unconnected nets.

    Returns:
        The ``(num_slots, num_words)`` ``uint64`` value matrix.  Bits above
        ``num_patterns`` in the last word are unspecified; use
        :func:`unpack_bigint` / :func:`mask_tail` when extracting.
    """
    words = num_words(num_patterns)
    mask = (1 << num_patterns) - 1
    values = np.empty((plan.num_slots, words), dtype=np.uint64)
    x_masked = x_value & mask
    if x_masked == 0:
        values.fill(0)
    else:
        values[:] = pack_bigint(x_masked, words)
    for name, slot in plan.input_slots:
        values[slot] = pack_bigint(inputs[name] & mask, words)

    for batch in plan.batches():
        # Gather-before-scatter keeps batches faithful to the sequential
        # interpreter even when a (loop-broken) gate feeds a batch mate.
        gathered = [
            (kind, tuple(values[index] for index in ins), outs)
            for kind, ins, outs in batch
        ]
        for kind, srcs, outs in gathered:
            values[outs] = _KERNELS[kind](srcs)
    return values


# ---------------------------------------------------------------------------
# Bigint executors
#
# The arc program is a plain statement sequence over packed-bigint net
# values; CPython bigint bit-ops on packed pattern words cost ~0.1 us per
# 4096-bit operand — an order of magnitude below NumPy's per-call dispatch —
# which makes this the fastest execution form for the narrow, deep netlists
# the benchmark generators produce.  Execution is tiered:
#
# * the first run of a plan walks the op tuples through a small interpreter
#   (no start-up cost for plans that run once or twice, such as those of
#   attack-recovered netlists); the randomizer's incremental candidate program
#   (:mod:`repro.core.randomizer`) runs these same interpreter ops;
# * a re-executed plan is specialized via exec() into one Python function
#   whose locals are the live net slots (`v37 = (v12 & v31) ^ M`), removing
#   the interpreter's dispatch overhead for hot plans.
#
# Both forms replay the per-gate interpreter's statement sequence, so
# bit-exactness is structural.
# ---------------------------------------------------------------------------


def _i_buf(vals, ins, M):
    return vals[ins[0]]


def _i_inv(vals, ins, M):
    return vals[ins[0]] ^ M


def _i_and(vals, ins, M):
    r = M
    for s in ins:
        r &= vals[s]
    return r


def _i_nand(vals, ins, M):
    return _i_and(vals, ins, M) ^ M


def _i_or(vals, ins, M):
    r = 0
    for s in ins:
        r |= vals[s]
    return r


def _i_nor(vals, ins, M):
    return _i_or(vals, ins, M) ^ M


def _i_xor(vals, ins, M):
    r = 0
    for s in ins:
        r ^= vals[s]
    return r


def _i_xnor(vals, ins, M):
    return _i_xor(vals, ins, M) ^ M


def _i_aoi21(vals, ins, M):
    return ((vals[ins[0]] & vals[ins[1]]) | vals[ins[2]]) ^ M


def _i_oai21(vals, ins, M):
    return ((vals[ins[0]] | vals[ins[1]]) & vals[ins[2]]) ^ M


def _i_mux2(vals, ins, M):
    sel = vals[ins[2]]
    return (vals[ins[1]] & sel) | (vals[ins[0]] & (sel ^ M))


_INTERPRETER_OPS = {
    "BUF": _i_buf,
    "INV": _i_inv,
    "AND": _i_and,
    "NAND": _i_nand,
    "OR": _i_or,
    "NOR": _i_nor,
    "XOR": _i_xor,
    "XNOR": _i_xnor,
    "AOI21": _i_aoi21,
    "OAI21": _i_oai21,
    "MUX2": _i_mux2,
}


_BIGINT_TEMPLATES = {
    "BUF": lambda ins: ins[0],
    "INV": lambda ins: f"{ins[0]} ^ M",
    "AND": lambda ins: " & ".join(ins),
    "NAND": lambda ins: f"({' & '.join(ins)}) ^ M",
    "OR": lambda ins: " | ".join(ins),
    "NOR": lambda ins: f"({' | '.join(ins)}) ^ M",
    "XOR": lambda ins: " ^ ".join(ins),
    "XNOR": lambda ins: f"{' ^ '.join(ins)} ^ M",
    "AOI21": lambda ins: f"(({ins[0]} & {ins[1]}) | {ins[2]}) ^ M",
    "OAI21": lambda ins: f"(({ins[0]} | {ins[1]}) & {ins[2]}) ^ M",
    "MUX2": lambda ins: f"({ins[1]} & {ins[2]}) | ({ins[0]} & ({ins[2]} ^ M))",
}


def _build_bigint_fn(plan: SimPlan):
    """exec-compile the arc program into a function over bigint patterns."""
    input_slot_set = {slot for _, slot in plan.input_slots}
    lines = ["def _plan_exec(IN, M, X):"]
    for position, (_name, slot) in enumerate(plan.input_slots):
        lines.append(f"    v{slot} = IN[{position}]")
    # Slots read (or returned) before being written observe the X fill.
    written: set = set()
    x_init: List[int] = []
    seen_x: set = set(input_slot_set)
    for kind, ins, out in plan.arc_program:
        if kind not in _BIGINT_TEMPLATES:
            raise UnsupportedNetlist(f"unknown logic op kind {kind!r}")
        for slot in ins:
            if slot not in written and slot not in seen_x:
                seen_x.add(slot)
                x_init.append(slot)
        written.add(out)
    for slot in plan.result_slots:
        if slot not in written and slot not in seen_x:
            seen_x.add(slot)
            x_init.append(slot)
    for slot in x_init:
        lines.append(f"    v{slot} = X")
    for kind, ins, out in plan.arc_program:
        expr = _BIGINT_TEMPLATES[kind]([f"v{slot}" for slot in ins])
        lines.append(f"    v{out} = {expr}")
    returns = ", ".join(f"v{slot}" for slot in plan.result_slots)
    lines.append(f"    return ({returns}{',' if len(plan.result_slots) == 1 else ''})")
    source = "\n".join(lines)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<simplan:{plan.netlist_name}>", "exec"), namespace)
    return namespace["_plan_exec"]


def run_plan_bigints(plan: SimPlan, inputs: Mapping[str, int], num_patterns: int,
                     x_value: int = 0) -> Dict[int, int]:
    """Execute the plan's bigint program; returns ``{slot: bit-vector}``.

    Covers every slot in ``plan.value_slots`` and ``plan.output_slots``.
    Bit-exact with both :func:`run_plan` and the per-gate interpreter.  The
    first execution of a plan is interpreted; re-executions are served by a
    code-generated specialization (see the section comment above).
    """
    mask = (1 << num_patterns) - 1
    x_masked = x_value & mask
    if plan._bigint_fn is None and plan._bigint_runs >= 1:
        plan._bigint_fn = _build_bigint_fn(plan)
    plan._bigint_runs += 1
    if plan._bigint_fn is not None:
        packed_inputs = [inputs[name] & mask for name, _slot in plan.input_slots]
        results = plan._bigint_fn(packed_inputs, mask, x_masked)
        return dict(zip(plan.result_slots, results))

    vals: List[int] = [x_masked] * plan.num_slots
    for name, slot in plan.input_slots:
        vals[slot] = inputs[name] & mask
    ops = _INTERPRETER_OPS
    for kind, ins, out in plan.arc_program:
        vals[out] = ops[kind](vals, ins, mask)
    return {slot: vals[slot] for slot in plan.result_slots}


def extract_outputs(plan: SimPlan, values: np.ndarray,
                    num_patterns: int) -> Dict[str, int]:
    """Primary-output bigints of an executed plan."""
    return {
        po: unpack_bigint(values[slot], num_patterns)
        for po, slot in plan.output_slots
    }


def extract_values(plan: SimPlan, values: np.ndarray,
                   num_patterns: int) -> Dict[str, int]:
    """Per-net bigints matching the per-gate interpreter's values dict."""
    return {
        net: unpack_bigint(values[slot], num_patterns)
        for net, slot in plan.value_slots
    }


def value_popcounts(plan: SimPlan, values: np.ndarray,
                    num_patterns: int) -> Dict[str, int]:
    """Set-bit count per recorded net (for toggle/probability statistics)."""
    slots = np.asarray([slot for _, slot in plan.value_slots], dtype=np.intp)
    if slots.size == 0:
        return {}
    rows = values[slots]
    mask_tail(rows, num_patterns)
    counts = popcount_rows(rows)
    return {
        net: int(count)
        for (net, _), count in zip(plan.value_slots, counts)
    }
