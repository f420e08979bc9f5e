"""Compiled bit-parallel simulation engine.

This module is the execution path behind :mod:`repro.netlist.simulate`.  A
netlist is compiled once into an **evaluation plan**: every net gets an
integer *slot*, and the combinational gates become a flat op list
(:attr:`SimPlan.arc_program`) in the loop-tolerant pseudo-topological order
of :func:`~repro.netlist.arrays.pseudo_order`.  The plan runs as a
program over packed Python bigints (bit *i* of a net's value is the net's
value under pattern *i*); see :func:`run_plan_bigints`.

A plan is compiled from the netlist's integer view
(:class:`~repro.netlist.arrays.NetlistArrays`), or from a
:class:`~repro.netlist.arrays.NetlistOverlay` (a netlist with some sinks
moved, such as a network-flow recovery) through its override columns,
without building the edited netlist.  Plans are cached per netlist or
overlay, keyed on ``topology_version``, so any structural edit
transparently invalidates the cache.  The op list
replays the statement sequence of a per-gate interpreter that calls each
cell's ``function`` in that order (the reference simulator of the equivalence
tests, ``tests/sim_oracle.py``), so execution is **bit-exact** with it, also
on (attacker-induced) combinational loops: a read from a gate later in the
order observes the X fill.

Netlists containing a combinational cell without
:attr:`~repro.netlist.cells.Cell.logic_ops` metadata (a user-defined custom
function) cannot be compiled and raise :class:`UnsupportedNetlist`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.netlist.arrays import NetlistOverlay, netlist_arrays
from repro.netlist.netlist import Netlist

#: What a plan is compiled from: a netlist, or a netlist with sinks moved.
PlanSource = Union[Netlist, NetlistOverlay]


class UnsupportedNetlist(RuntimeError):
    """Raised when a netlist contains cells the engine cannot compile."""


@dataclass
class SimPlan:
    """A compiled evaluation plan for one netlist topology revision.

    :attr:`arc_program` is the flat per-gate op list with integer net
    indices, in the per-gate interpreter's evaluation order.  It runs through
    a tuple-program interpreter on its first execution and through a
    code-generated Python function over packed bigints once the plan is
    re-executed (see :func:`run_plan_bigints`).
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
    #: ``(primary output name, slot)``.
    output_slots: List[Tuple[str, int]] = field(default_factory=list)
    #: ``(net name, slot)`` of every net the per-gate interpreter would have
    #: recorded in its values dict (inputs first, then driven nets).
    value_slots: List[Tuple[str, int]] = field(default_factory=list)
    #: Slots produced by the bigint executors, in order.
    result_slots: List[int] = field(default_factory=list, repr=False)
    #: Code-generated bigint executor (built once the plan proves hot).
    _bigint_fn: Optional[object] = field(default=None, repr=False, compare=False)
    #: How many times the bigint program has executed (codegen trigger).
    _bigint_runs: int = field(default=0, repr=False, compare=False)


@dataclass
class _UnsupportedMarker:
    """Cached negative compile verdict, so a netlist with custom cells
    doesn't pay a full compile attempt on every simulate/metric call."""

    version: int
    message: str


_PLAN_CACHE: "weakref.WeakKeyDictionary[PlanSource, object]" = weakref.WeakKeyDictionary()


def plan_input_names(source: PlanSource) -> List[str]:
    """Primary inputs plus sequential-cell outputs (pseudo primary inputs),
    read off the integer view (an overlay's is its snapshot's, which moving
    sinks never changes)."""
    arrays = source.arrays if isinstance(source, NetlistOverlay) else netlist_arrays(source)
    net_names = arrays.net_names
    return [net_names[net] for net in arrays.input_nets]


def compile_plan(source: PlanSource) -> SimPlan:
    """Return the (cached) evaluation plan for ``source``, a netlist or a
    :class:`~repro.netlist.arrays.NetlistOverlay`.

    Raises:
        UnsupportedNetlist: When a combinational cell carries no
            ``logic_ops`` metadata and therefore cannot be compiled.
    """
    cached = _PLAN_CACHE.get(source)
    if cached is not None and cached.version == source.topology_version:
        if isinstance(cached, _UnsupportedMarker):
            raise UnsupportedNetlist(cached.message)
        return cached
    try:
        plan = _compile(source)
    except UnsupportedNetlist as error:
        _PLAN_CACHE[source] = _UnsupportedMarker(source.topology_version, str(error))
        raise
    _PLAN_CACHE[source] = plan
    return plan


def _compile(source: PlanSource) -> SimPlan:
    if isinstance(source, NetlistOverlay):
        arrays = source.arrays
        fanin_net, po_net, order = source.fanin_net, source.po_net, source.pseudo_order()
    else:
        arrays = netlist_arrays(source)
        fanin_net, po_net, order = arrays.fanin_net, arrays.po_net, arrays.pseudo_order()
    net_names = arrays.net_names
    x_slot = len(net_names)
    input_slots = [(net_names[net], net) for net in arrays.input_nets]
    value_slots: List[Tuple[str, int]] = list(input_slots)
    arc_program: List[Tuple[str, Tuple[int, ...], int]] = []
    # One extra fan-in slot reads X: a logic_ops pin the cell lacks.
    slots = [x_slot if net < 0 else net for net in fanin_net.tolist()] + [x_slot]
    missing = len(slots) - 1
    fanin_start = arrays.fanin_start.tolist()
    fanout_start = arrays.fanout_start.tolist()
    fanout_net = arrays.fanout_net.tolist()
    gate_cell = arrays.gate_cell.tolist()
    cells = arrays.cells
    for gate in order:
        table = cells[gate_cell[gate]]
        if table.ops is None:
            raise UnsupportedNetlist(
                f"cell {table.cell.name!r} (gate {arrays.gate_names[gate]!r}) has "
                "no logic_ops metadata; compiled simulation is unavailable"
            )
        first_in = fanin_start[gate]
        first_out = fanout_start[gate]
        for out_pos, kind, in_pos in table.ops:
            out = fanout_net[first_out + out_pos] if out_pos >= 0 else -1
            if out < 0:
                continue
            ins = tuple([slots[first_in + p if p >= 0 else missing] for p in in_pos])
            value_slots.append((net_names[out], out))
            arc_program.append((kind, ins, out))

    output_slots = [
        (po, x_slot if net < 0 else net)
        for po, net in zip(arrays.primary_outputs, po_net.tolist())
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
        netlist_name=source.name,
        version=source.topology_version,
        num_slots=x_slot + 1,
        x_slot=x_slot,
        input_slots=input_slots,
        arc_program=arc_program,
        output_slots=output_slots,
        value_slots=value_slots,
        result_slots=result_slots,
    )


# ---------------------------------------------------------------------------
# Bigint execution
#
# The arc program is a plain statement sequence over packed-bigint net
# values; CPython bigint bit-ops on packed pattern words cost ~0.1 us per
# 4096-bit operand.  Execution is tiered:
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
    Bit-exact with the per-gate interpreter.  The first execution of a plan
    is interpreted; re-executions are served by a code-generated
    specialization (see the section comment above).
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
