"""Per-gate reference simulator for the compiled engine's equivalence tests.

:func:`simulate_reference` walks the netlist gate by gate in
:func:`~repro.netlist.graph.pseudo_topological_order` and calls each cell's
``function`` (through :meth:`Cell.evaluate`) over Python bigints.  It needs no
``logic_ops`` metadata and no compiled plan, so it is an independent check of
:mod:`repro.netlist.engine`: outputs, net values, OER, HD and toggle rates of
:mod:`repro.netlist.simulate` must equal the values derived from it bit for
bit.  Input patterns come from the library's own pattern helpers, so both
sides see the same stimuli.  The evaluation order is the name-keyed
``graph_oracle.pseudo_topological_order``.

:func:`compile_reference` is the name-keyed plan compiler the engine had
before it compiled from :class:`~repro.netlist.arrays.NetlistArrays`: a
walk of ``pseudo_topological_order`` through :func:`gate_arcs`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from graph_oracle import pseudo_topological_order
from repro.netlist.engine import SimPlan, UnsupportedNetlist
from repro.netlist.netlist import Gate, Netlist
from repro.netlist.simulate import (
    SimulationResult,
    _resolved_inputs,
    _shared_input_patterns,
)


def simulate_reference(netlist: Netlist, inputs: Dict[str, int],
                       num_patterns: int, x_value: int = 0) -> SimulationResult:
    """Per-gate evaluation over Python bigints.

    ``inputs`` holds one bit-vector per (pseudo) primary input; undriven and
    unconnected nets, and nets read before the gate driving them (on
    combinational loops), observe ``x_value``.
    """
    mask = (1 << num_patterns) - 1
    values: Dict[str, int] = dict(inputs)

    # The pseudo-topological order degrades gracefully on (attacker-induced)
    # combinational loops instead of refusing to simulate.
    for gate_name in pseudo_topological_order(netlist):
        gate = netlist.gates[gate_name]
        if gate.cell.is_sequential:
            continue  # Outputs already seeded as pseudo inputs.
        gate_inputs: Dict[str, int] = {}
        for pin in gate.input_pin_names:
            net_name = gate.net_on(pin)
            if net_name is None:
                gate_inputs[pin] = x_value & mask
            else:
                gate_inputs[pin] = values.get(net_name, x_value & mask)
        outputs = gate.cell.evaluate(gate_inputs, mask)
        for pin, value in outputs.items():
            net_name = gate.net_on(pin)
            if net_name is not None:
                values[net_name] = value & mask

    observed: Dict[str, int] = {}
    for po in netlist.primary_outputs:
        net_name = netlist.output_nets[po]
        observed[po] = values.get(net_name, x_value & mask)

    return SimulationResult(
        num_patterns=num_patterns,
        inputs=inputs,
        outputs=observed,
        net_values=values,
    )


def simulate_seeded_reference(netlist: Netlist, num_patterns: int,
                              seed: Optional[int], x_value: int = 0,
                              patterns: Optional[Dict[str, int]] = None) -> SimulationResult:
    """:func:`simulate_reference` on the inputs ``simulate`` would draw."""
    inputs = _resolved_inputs(netlist, patterns, num_patterns, seed)
    return simulate_reference(netlist, inputs, num_patterns, x_value)


def error_rate_and_hamming_reference(reference: Netlist, candidate: Netlist,
                                     num_patterns: int,
                                     seed: Optional[int]) -> Tuple[float, float]:
    """``(OER, HD)`` in percent from two reference simulations."""
    patterns = _shared_input_patterns(reference, candidate, num_patterns, seed)
    ref = simulate_seeded_reference(reference, num_patterns, seed, patterns=patterns)
    cand = simulate_seeded_reference(candidate, num_patterns, seed, patterns=patterns)
    error_mask = 0
    differing = 0
    for po, ref_value in ref.outputs.items():
        error_mask |= ref_value ^ cand.outputs[po]
        differing += (ref_value ^ cand.outputs[po]).bit_count()
    oer = 100.0 * error_mask.bit_count() / num_patterns
    hd = 100.0 * differing / (num_patterns * len(ref.outputs)) if ref.outputs else 0.0
    return oer, hd


def toggle_rates_reference(netlist: Netlist, num_patterns: int,
                           seed: Optional[int]) -> Dict[str, float]:
    """``2 p (1 - p)`` per recorded net, ``p`` its signal probability."""
    result = simulate_seeded_reference(netlist, num_patterns, seed)
    rates: Dict[str, float] = {}
    for net, value in result.net_values.items():
        p = value.bit_count() / num_patterns
        rates[net] = 2.0 * p * (1.0 - p)
    return rates


def plan_input_names_reference(netlist: Netlist) -> List[str]:
    """Primary inputs plus sequential-cell outputs, walking the gates."""
    names = list(netlist.primary_inputs)
    for gate in netlist.gates.values():
        if gate.cell.is_sequential:
            net = netlist.gate_output_net(gate.name)
            if net is not None:
                names.append(net)
    return names


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
            "metadata; compiled simulation is unavailable"
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


def compile_reference(netlist: Netlist) -> SimPlan:
    """The evaluation plan of ``netlist``, compiled by name."""
    net_slot = {name: i for i, name in enumerate(netlist.nets)}
    x_slot = len(net_slot)
    input_slots = [(name, net_slot[name]) for name in plan_input_names_reference(netlist)]
    value_slots: List[Tuple[str, int]] = list(input_slots)
    arc_program: List[Tuple[str, Tuple[int, ...], int]] = []
    for gate_name in pseudo_topological_order(netlist):
        gate = netlist.gates[gate_name]
        if gate.cell.is_sequential:
            continue
        for kind, _in_pins, in_slots, out_slot, out_net in gate_arcs(gate, net_slot, x_slot):
            value_slots.append((out_net, out_slot))
            arc_program.append((kind, in_slots, out_slot))
    output_slots = [
        (po, net_slot.get(netlist.output_nets[po], x_slot))
        for po in netlist.primary_outputs
    ]
    result_slots = list(dict.fromkeys(slot for _name, slot in value_slots + output_slots))
    return SimPlan(
        netlist_name=netlist.name,
        version=netlist.topology_version,
        num_slots=x_slot + 1,
        x_slot=x_slot,
        input_slots=input_slots,
        arc_program=arc_program,
        output_slots=output_slots,
        value_slots=value_slots,
        result_slots=result_slots,
    )


def plan_fields(plan: SimPlan) -> tuple:
    """Everything a plan computes, ``version`` (a cache key) aside."""
    return (plan.netlist_name, plan.num_slots, plan.x_slot, plan.input_slots,
            plan.arc_program, plan.output_slots, plan.value_slots, plan.result_slots)
