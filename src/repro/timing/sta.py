"""Static timing analysis with an Elmore wire-delay model.

The analysis is intentionally simple but carries the effects the paper's
evaluation depends on:

* gate delay = intrinsic delay + drive resistance × load capacitance, where
  the load is the sum of sink-pin capacitances plus wire capacitance;
* wire delay per net = Elmore delay of a lumped RC whose R and C scale with
  the routed (or, pre-route, the estimated half-perimeter) wirelength;
* the critical path is the longest primary-input→primary-output path through
  the combinational logic.

Lifting nets to high BEOL layers makes them longer, which increases both the
load seen by their drivers and the wire delay — exactly the mechanism behind
the delay overheads reported in the paper (Sec. 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.netlist.graph import topological_gate_order
from repro.netlist.netlist import Net, Netlist


@dataclass(frozen=True)
class WireModel:
    """Per-unit-length electrical parameters of the routed interconnect.

    Values are representative of a 45 nm metal stack.  Higher layers are
    thicker/wider: lower resistance, slightly lower capacitance.  The
    ``layer_resistance_scale`` table captures that trend.
    """

    resistance_kohm_per_um: float = 0.004
    capacitance_ff_per_um: float = 0.2
    #: Multipliers applied per metal layer (index 1..10).
    layer_resistance_scale: Tuple[float, ...] = (
        1.0, 1.0, 0.9, 0.9, 0.7, 0.7, 0.45, 0.45, 0.25, 0.25
    )
    layer_capacitance_scale: Tuple[float, ...] = (
        1.0, 1.0, 0.95, 0.95, 0.9, 0.9, 0.85, 0.85, 0.8, 0.8
    )

    def wire_resistance(self, length_um: float, layer: int = 2) -> float:
        scale = self.layer_resistance_scale[min(layer, len(self.layer_resistance_scale)) - 1]
        return self.resistance_kohm_per_um * scale * length_um

    def wire_capacitance(self, length_um: float, layer: int = 2) -> float:
        scale = self.layer_capacitance_scale[min(layer, len(self.layer_capacitance_scale)) - 1]
        return self.capacitance_ff_per_um * scale * length_um


@dataclass
class TimingReport:
    """Result of a timing analysis run."""

    critical_path_ps: float
    critical_path: List[str]
    arrival_times_ps: Dict[str, float] = field(default_factory=dict)
    gate_delays_ps: Dict[str, float] = field(default_factory=dict)
    net_loads_ff: Dict[str, float] = field(default_factory=dict)

    @property
    def max_delay_ns(self) -> float:
        return self.critical_path_ps / 1000.0


#: Default wirelength assumed for a net when no physical information exists
#: (pre-placement timing); roughly one standard-cell pitch per fanout.
DEFAULT_FANOUT_WIRELENGTH_UM = 4.0


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
        wire_cap = wire_model.wire_capacitance(length, layer)
        wire_res = wire_model.wire_resistance(length, layer)
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
