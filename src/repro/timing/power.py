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

The model runs on the netlist's integer view
(:class:`~repro.netlist.arrays.NetlistArrays`) as elementwise array
expressions plus three sums: leakage and internal power over the gates in
netlist order, switching power over the nets in netlist order.  Every sum
is a left fold (``np.cumsum``, or :func:`repro.netlist.arrays.group_sum`
for the per-net sink-pin loads), never ``np.add.reduce``/``reduceat``,
which add pairwise, so reports are bit-identical to the per-object loops
of the test oracle ``tests/timing_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.netlist.arrays import NetlistArrays, left_fold, netlist_arrays
from repro.netlist.netlist import Netlist
from repro.timing.sta import NetWires, WireModel, net_wires, wire_lengths


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


def power_pass(arrays: NetlistArrays, wires: NetWires,
               toggle_rates: Optional[Mapping[str, float]] = None,
               vdd_v: float = DEFAULT_VDD_V,
               frequency_mhz: float = DEFAULT_FREQUENCY_MHZ) -> PowerReport:
    """The power model over the integer view; see :func:`estimate_power`."""
    frequency_hz = frequency_mhz * 1e6
    if toggle_rates:
        alpha = np.asarray([toggle_rates.get(name, DEFAULT_TOGGLE_RATE)
                            for name in arrays.net_names], dtype=np.float64)
    else:
        alpha = np.full(arrays.num_nets, DEFAULT_TOGGLE_RATE)

    leakage_nw = left_fold(arrays.cell_column("leakage_nw"))

    # Each gate toggles with the activity of its first connected output.
    gate_alpha = np.append(alpha, DEFAULT_TOGGLE_RATE)[arrays.first_output]
    # switch_energy is in fJ per toggle -> power = E * alpha * f.
    internal_uw = left_fold(
        arrays.cell_column("switch_energy_fj") * 1e-15 * gate_alpha
        * frequency_hz * 1e6
    )

    total_cap_f = wires.load() * 1e-15
    # P = alpha * C * V^2 * f, reported in µW.
    switching_uw = left_fold(alpha * total_cap_f * vdd_v ** 2 * frequency_hz * 1e6)

    return PowerReport(
        leakage_uw=leakage_nw / 1000.0,
        internal_uw=internal_uw,
        switching_uw=switching_uw,
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
    arrays = netlist_arrays(netlist)
    length, layer = wire_lengths(arrays, net_lengths_um, net_layers)
    return power_pass(arrays, net_wires(arrays, length, layer, wire_model),
                      toggle_rates, vdd_v, frequency_mhz)
