"""Per-object STA and power walks: test oracles for ``repro.timing``.

These are the bodies :func:`repro.timing.sta.static_timing_analysis` and
:func:`repro.timing.power.estimate_power` had before they became array
passes over :class:`repro.netlist.arrays.NetlistArrays`: a walk of
``netlist.nets`` and of the gates in topological order (Kahn, FIFO, over
the name-keyed graph of ``graph_oracle``), looking pins up by name.  Tests
hold the array passes to them with ``==`` on the whole reports.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from graph_oracle import topological_gate_order
from repro.netlist.netlist import Net, Netlist
from repro.timing.power import (
    DEFAULT_FREQUENCY_MHZ,
    DEFAULT_TOGGLE_RATE,
    DEFAULT_VDD_V,
    PowerReport,
)
from repro.timing.sta import DEFAULT_FANOUT_WIRELENGTH_UM, TimingReport, WireModel


def wire_resistance(model: WireModel, length_um: float, layer: int = 2) -> float:
    """Wire resistance (kOhm) of one net, per scalar."""
    scale = model.layer_resistance_scale[min(layer, len(model.layer_resistance_scale)) - 1]
    return model.resistance_kohm_per_um * scale * length_um


def wire_capacitance(model: WireModel, length_um: float, layer: int = 2) -> float:
    """Wire capacitance (fF) of one net, per scalar."""
    scale = model.layer_capacitance_scale[min(layer, len(model.layer_capacitance_scale)) - 1]
    return model.capacitance_ff_per_um * scale * length_um


def _sink_pin_cap(netlist: Netlist, net: Net) -> float:
    """Summed input-pin capacitance (fF) of a net's gate sinks."""
    pin_cap = 0.0
    for sink_gate, sink_pin in net.sinks:
        pin_cap += netlist.gates[sink_gate].cell.pin(sink_pin).capacitance_ff
    return pin_cap


def _net_length(net_name: str, netlist: Netlist,
                net_lengths_um: Optional[Mapping[str, float]],
                net_layers: Optional[Mapping[str, int]]) -> Tuple[float, int]:
    """Routed (length, dominant layer) of a net, or the fanout-based
    estimate on layer 2 when the net has no routed length."""
    if net_lengths_um is not None and net_name in net_lengths_um:
        layer = net_layers.get(net_name, 2) if net_layers else 2
        return net_lengths_um[net_name], layer
    fanout = max(1, netlist.nets[net_name].fanout)
    return DEFAULT_FANOUT_WIRELENGTH_UM * fanout, 2


def static_timing_analysis(
    netlist: Netlist,
    net_lengths_um: Optional[Mapping[str, float]] = None,
    net_layers: Optional[Mapping[str, int]] = None,
    wire_model: Optional[WireModel] = None,
    disabled_arcs: Optional[Mapping[str, List[Tuple[str, str]]]] = None,
) -> TimingReport:
    """Run STA over the combinational portion of ``netlist``.

    Args:
        netlist: The design; its combinational logic must be acyclic.
        net_lengths_um: Optional routed length per net (from the router); nets
            not listed fall back to a fanout-based estimate.
        net_layers: Optional dominant metal layer per net (affects wire RC).
        wire_model: Interconnect parameters; defaults to :class:`WireModel`.
        disabled_arcs: Per-gate list of ``(input_pin, output_pin)`` timing arcs
            to ignore.  The protection flow disables the erroneous arcs of
            correction cells (``set_disable_timing`` in the paper) so only
            true paths are timed.

    Returns:
        A :class:`TimingReport` with the critical path and per-gate data.
    """
    wire_model = wire_model if wire_model is not None else WireModel()
    disabled_arcs = disabled_arcs or {}

    # Load on each net: sink pin caps + wire cap.
    net_loads: Dict[str, float] = {}
    net_wire_delay: Dict[str, float] = {}
    for net_name, net in netlist.nets.items():
        pin_cap = _sink_pin_cap(netlist, net)
        length, layer = _net_length(net_name, netlist, net_lengths_um, net_layers)
        wire_cap = wire_capacitance(wire_model, length, layer)
        wire_res = wire_resistance(wire_model, length, layer)
        net_loads[net_name] = pin_cap + wire_cap
        # Elmore delay of the distributed wire driving the lumped pin load.
        net_wire_delay[net_name] = wire_res * (wire_cap / 2.0 + pin_cap)

    arrival: Dict[str, float] = {}
    gate_delay: Dict[str, float] = {}
    best_pred: Dict[str, Optional[str]] = {}

    def net_arrival(net_name: Optional[str]) -> float:
        if net_name is None:
            return 0.0
        return arrival.get(net_name, 0.0)

    order = topological_gate_order(netlist)
    for gate_name in order:
        gate = netlist.gates[gate_name]
        cell = gate.cell
        gate_disabled = set(disabled_arcs.get(gate_name, []))
        for out_pin in gate.output_pin_names:
            out_net = gate.net_on(out_pin)
            if out_net is None:
                continue
            load = net_loads.get(out_net, 0.0)
            delay = cell.intrinsic_delay_ps + cell.drive_resistance_kohm * load
            if cell.is_sequential:
                # Flop outputs launch at clk-to-q; treat as path start.
                arrival[out_net] = delay
                gate_delay[gate_name] = delay
                best_pred[out_net] = None
                continue
            worst_in = 0.0
            worst_net: Optional[str] = None
            for in_pin in gate.input_pin_names:
                if (in_pin, out_pin) in gate_disabled:
                    continue
                in_net = gate.net_on(in_pin)
                t = net_arrival(in_net)
                if t >= worst_in:
                    worst_in = t
                    worst_net = in_net
            total = worst_in + delay + net_wire_delay.get(out_net, 0.0)
            if total > arrival.get(out_net, -1.0):
                arrival[out_net] = total
                best_pred[out_net] = worst_net
            gate_delay[gate_name] = max(gate_delay.get(gate_name, 0.0), delay)

    # Critical path: trace back from the worst primary output.
    worst_po_net: Optional[str] = None
    worst_time = 0.0
    for po in netlist.primary_outputs:
        net_name = netlist.output_nets[po]
        t = arrival.get(net_name, 0.0)
        if t >= worst_time:
            worst_time = t
            worst_po_net = net_name

    path: List[str] = []
    current = worst_po_net
    seen = set()
    while current is not None and current not in seen:
        seen.add(current)
        path.append(current)
        current = best_pred.get(current)
    path.reverse()

    return TimingReport(
        critical_path_ps=worst_time,
        critical_path=path,
        arrival_times_ps=arrival,
        gate_delays_ps=gate_delay,
        net_loads_ff=net_loads,
    )


def estimate_power(
    netlist: Netlist,
    net_lengths_um: Optional[Mapping[str, float]] = None,
    net_layers: Optional[Mapping[str, int]] = None,
    toggle_rates: Optional[Mapping[str, float]] = None,
    wire_model: Optional[WireModel] = None,
    vdd_v: float = DEFAULT_VDD_V,
    frequency_mhz: float = DEFAULT_FREQUENCY_MHZ,
) -> PowerReport:
    """Estimate the power of ``netlist``.

    Args:
        netlist: The design to analyse.
        net_lengths_um: Routed length per net (falls back to a fanout-based
            estimate for missing nets).
        net_layers: Dominant metal layer per net (affects wire capacitance).
        toggle_rates: Per-net switching activity in [0, 1]; missing nets use
            :data:`DEFAULT_TOGGLE_RATE`.
        wire_model: Interconnect parameters shared with the STA.
        vdd_v: Supply voltage.
        frequency_mhz: Clock / evaluation frequency.
    """
    wire_model = wire_model if wire_model is not None else WireModel()
    toggle_rates = toggle_rates or {}
    frequency_hz = frequency_mhz * 1e6

    leakage_nw = sum(gate.cell.leakage_nw for gate in netlist.gates.values())

    internal_uw = 0.0
    for gate in netlist.gates.values():
        out_net = netlist.gate_output_net(gate.name)
        alpha = toggle_rates.get(out_net, DEFAULT_TOGGLE_RATE) if out_net else DEFAULT_TOGGLE_RATE
        # switch_energy is in fJ per toggle -> power = E * alpha * f.
        internal_uw += gate.cell.switch_energy_fj * 1e-15 * alpha * frequency_hz * 1e6

    switching_uw = 0.0
    for net_name, net in netlist.nets.items():
        pin_cap_ff = _sink_pin_cap(netlist, net)
        length, layer = _net_length(net_name, netlist, net_lengths_um, net_layers)
        wire_cap_ff = wire_capacitance(wire_model, length, layer)
        total_cap_f = (pin_cap_ff + wire_cap_ff) * 1e-15
        alpha = toggle_rates.get(net_name, DEFAULT_TOGGLE_RATE)
        # P = alpha * C * V^2 * f, reported in µW.
        switching_uw += alpha * total_cap_f * vdd_v ** 2 * frequency_hz * 1e6

    return PowerReport(
        leakage_uw=leakage_nw / 1000.0,
        internal_uw=internal_uw,
        switching_uw=switching_uw,
    )
