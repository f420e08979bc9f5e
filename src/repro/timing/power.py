"""Power estimation: leakage + internal + wire switching power.

The power of a mapped, routed design is estimated as

* **leakage** — sum of per-cell leakage (library values);
* **internal** — per-cell switching energy × toggle rate × clock frequency;
* **net switching** — ``alpha * C_net * Vdd^2 * f`` per net, where ``C_net``
  combines sink-pin and wire capacitance.

Toggle rates come from the bit-parallel simulator (signal-probability based)
or default to 0.2, a common assumption.  The absolute numbers are not meant
to match a sign-off tool; only the *relative* overhead of the protected
layout versus the original matters for the paper's Fig. 6 and the PPA-budget
loop, and that ratio is dominated by the extra wire capacitance of lifted
nets, which this model captures directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.netlist.netlist import Netlist
from repro.timing.sta import WireModel, _net_length, _sink_pin_cap


@dataclass
class PowerReport:
    """Breakdown of estimated power in microwatts."""

    leakage_uw: float
    internal_uw: float
    switching_uw: float

    @property
    def total_uw(self) -> float:
        return self.leakage_uw + self.internal_uw + self.switching_uw


#: Default electrical/operating assumptions (paper: slow corner, 0.95 V).
DEFAULT_VDD_V = 0.95
DEFAULT_FREQUENCY_MHZ = 500.0
DEFAULT_TOGGLE_RATE = 0.2


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
        wire_cap_ff = wire_model.wire_capacitance(length, layer)
        total_cap_f = (pin_cap_ff + wire_cap_ff) * 1e-15
        alpha = toggle_rates.get(net_name, DEFAULT_TOGGLE_RATE)
        # P = alpha * C * V^2 * f, reported in µW.
        switching_uw += alpha * total_cap_f * vdd_v ** 2 * frequency_hz * 1e6

    return PowerReport(
        leakage_uw=leakage_nw / 1000.0,
        internal_uw=internal_uw,
        switching_uw=switching_uw,
    )
