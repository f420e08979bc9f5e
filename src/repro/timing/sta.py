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

The analysis runs on the netlist's integer view
(:class:`~repro.netlist.arrays.NetlistArrays`): one array pass over the
sequential launch points, then one per combinational level.  Each value is
the same IEEE operation sequence as a per-gate walk in topological order,
so reports are bit-identical to that walk (the test oracle
``tests/timing_oracle.py``):

* wire RC is ``(per_um * layer_scale) * length``;
* an output's arrival is ``worst_input + gate_delay + wire_delay``, where
  the worst input is the last one (in pin order) at or above the running
  maximum, which starts at 0.0 — the ``>=`` tie rule that also picks the
  critical-path predecessor;
* float sums are left folds in netlist order: a net's sink-pin load adds
  its sinks left to right (:func:`repro.netlist.arrays.group_sum`), and
  ``np.cumsum`` is a left fold, while ``np.add.reduce``/``reduceat`` add
  pairwise and are not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.netlist.arrays import NetlistArrays, netlist_arrays
from repro.netlist.graph import CombinationalLoopError
from repro.netlist.netlist import Netlist


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


#: The per-net and per-gate dicts of a :class:`TimingReport`.
_DETAIL_FIELDS = ("arrival_times_ps", "gate_delays_ps", "net_loads_ff")


@dataclass
class TimingReport:
    """Result of a timing analysis run.

    A report from :func:`static_timing_analysis` builds its per-net and
    per-gate dicts from the analysis columns on first read of any of them.
    """

    critical_path_ps: float
    critical_path: List[str]
    arrival_times_ps: Dict[str, float] = field(default_factory=dict)
    gate_delays_ps: Dict[str, float] = field(default_factory=dict)
    net_loads_ff: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def _deferred(cls, critical_path_ps: float, critical_path: List[str],
                  details: Callable[[], Tuple[Dict[str, float], ...]]) -> "TimingReport":
        report = cls.__new__(cls)
        report.critical_path_ps = critical_path_ps
        report.critical_path = critical_path
        report.__dict__["_details"] = details
        return report

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: a deferred detail dict.
        details = self.__dict__.get("_details")
        if details is None or name not in _DETAIL_FIELDS:
            raise AttributeError(name)
        del self.__dict__["_details"]
        self.__dict__.update(zip(_DETAIL_FIELDS, details()))
        return self.__dict__[name]

    def __getstate__(self):
        for name in _DETAIL_FIELDS:
            getattr(self, name)
        return self.__dict__


#: Default wirelength assumed for a net when no physical information exists
#: (pre-placement timing); roughly one standard-cell pitch per fanout.
DEFAULT_FANOUT_WIRELENGTH_UM = 4.0


def wire_lengths(arrays: NetlistArrays,
                 net_lengths_um: Optional[Mapping[str, float]] = None,
                 net_layers: Optional[Mapping[str, int]] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(length, layer)`` per net: the routed length (and layer, default 2)
    of every net ``net_lengths_um`` lists; elsewhere the pre-route estimate,
    one :data:`DEFAULT_FANOUT_WIRELENGTH_UM` per fanout (at least one) on
    layer 2."""
    length = DEFAULT_FANOUT_WIRELENGTH_UM * np.maximum(1, arrays.fanout_count)
    layer = np.full(arrays.num_nets, 2, dtype=np.int64)
    if net_lengths_um:
        routed = [(i, name) for i, name in enumerate(arrays.net_names)
                  if name in net_lengths_um]
        if routed:
            rows = np.asarray([i for i, _ in routed], dtype=np.int64)
            length[rows] = [net_lengths_um[name] for _, name in routed]
            if net_layers:
                layer[rows] = [net_layers.get(name, 2) for _, name in routed]
    return length, layer


@dataclass
class NetWires:
    """Per-net electrical columns shared by the STA and the power model."""

    #: Summed sink-pin capacitance (fF), folded in sink order.
    pin_cap: np.ndarray
    #: Wire capacitance (fF) and resistance (kΩ).
    wire_cap: np.ndarray
    wire_res: np.ndarray

    def load(self) -> np.ndarray:
        """Load on each net: sink pin caps + wire cap (fF)."""
        return self.pin_cap + self.wire_cap


def net_wires(arrays: NetlistArrays, length: np.ndarray, layer: np.ndarray,
              wire_model: Optional[WireModel] = None) -> NetWires:
    """Wire RC of every net from its length and layer (:class:`WireModel`
    elementwise: ``(per_um * layer_scale) * length``)."""
    model = wire_model if wire_model is not None else WireModel()
    res_scale = np.asarray(model.layer_resistance_scale, dtype=np.float64)
    cap_scale = np.asarray(model.layer_capacitance_scale, dtype=np.float64)
    wire_res = (model.resistance_kohm_per_um
                * res_scale[np.minimum(layer, len(res_scale)) - 1] * length)
    wire_cap = (model.capacitance_ff_per_um
                * cap_scale[np.minimum(layer, len(cap_scale)) - 1] * length)
    return NetWires(arrays.pin_cap, wire_cap, wire_res)


def _drop_disabled(arrays: NetlistArrays, arc_row: np.ndarray, inputs: List[list],
                   slots: List[int],
                   disabled_arcs: Mapping[str, List[Tuple[str, str]]]) -> None:
    """Remove the disabled ``(input, output)`` arcs from ``inputs``, the
    input-slot lists of the timing arcs whose fan-out rows are ``arc_row``."""
    arc_of_row = np.full(len(arrays.fanout_net), -1, dtype=np.int64)
    arc_of_row[arc_row] = np.arange(len(arc_row))
    for gate_name, arcs in disabled_arcs.items():
        gate = arrays.gate_id.get(gate_name)
        if gate is None:
            continue
        table = arrays.cells[arrays.gate_cell[gate]]
        first_in = int(arrays.fanin_start[gate])
        by_output: Dict[int, List[int]] = {}
        for in_pin, out_pin in set(arcs):
            if in_pin in table.input_position and out_pin in table.outputs:
                arc = int(arc_of_row[arrays.fanout_start[gate] + table.outputs.index(out_pin)])
                if arc >= 0:
                    by_output.setdefault(arc, []).append(table.input_position[in_pin])
        for arc, positions in by_output.items():
            inputs[arc] = [slots[first_in + p] for p in range(len(table.inputs))
                           if p not in positions]


def timing_pass(arrays: NetlistArrays, wires: NetWires,
                disabled_arcs: Optional[Mapping[str, List[Tuple[str, str]]]] = None
                ) -> TimingReport:
    """STA over the integer view; see :func:`static_timing_analysis`.

    Raises:
        CombinationalLoopError: When the combinational logic is cyclic.
    """
    levels = arrays.levels()
    if levels is None:
        raise CombinationalLoopError("combinational logic contains a cycle")
    num_nets = arrays.num_nets
    load = wires.load()
    # Elmore delay of the distributed wire driving the lumped pin load.
    wire_delay = wires.wire_res * (wires.wire_cap / 2.0 + wires.pin_cap)

    # One timing arc per connected output pin, in fan-out row order.
    arc_row = np.flatnonzero(arrays.fanout_net >= 0)
    arc_gate = arrays.fanout_gate[arc_row]
    arc_net = arrays.fanout_net[arc_row]
    arc_pos = arc_row - arrays.fanout_start[arc_gate]
    delay = (arrays.cell_column("intrinsic_delay_ps")[arc_gate]
             + arrays.cell_column("drive_resistance_kohm")[arc_gate] * load[arc_net])
    sequential = arrays.sequential[arc_gate]

    # Arrival per net, plus one slot an unconnected input reads (0.0).
    arrival = np.zeros(num_nets + 1)
    timed = np.zeros(num_nets, dtype=bool)
    best_pred = np.full(num_nets, -1, dtype=np.int64)
    # Flop outputs launch at clk-to-q and start paths.
    launch = arc_net[sequential]
    arrival[launch] = delay[sequential]
    timed[launch] = True

    # A flop's delay is its last connected output's; a gate's the largest
    # (``max`` from 0.0 keeps the incumbent on ties), output pins in order.
    gate_delay = np.zeros(arrays.num_gates)
    has_delay = np.zeros(arrays.num_gates, dtype=bool)
    has_delay[arc_gate] = True
    for position in range(int(arc_pos.max(initial=-1)) + 1):
        at = arc_pos == position
        gates, delays = arc_gate[at], delay[at]
        current = gate_delay[gates]
        gate_delay[gates] = np.where(
            sequential[at] | (delays > current), delays, current
        )

    # Gates in level order; the recurrence over the levels is a scalar
    # loop, because the circuits are deep and narrow (c7552: 1,282 levels
    # of at most 10 gates), where a per-level array pass costs more than it
    # saves.  Each input reads the arrival slot of its net; an unconnected
    # input reads slot ``num_nets`` (always 0.0, "no net" as predecessor).
    comb = np.flatnonzero(~sequential)
    comb = comb[np.argsort(levels[arc_gate[comb]], kind="stable")]
    gates = arc_gate[comb]
    slots = np.where(arrays.fanin_net < 0, num_nets, arrays.fanin_net).tolist()
    inputs = [slots[lo:hi] for lo, hi in zip(arrays.fanin_start[gates].tolist(),
                                             arrays.fanin_start[gates + 1].tolist())]
    if disabled_arcs:
        _drop_disabled(arrays, arc_row[comb], inputs, slots, disabled_arcs)
    reads = arrival.tolist()
    preds = best_pred.tolist()
    wire = wire_delay.tolist()
    for out, ins, gate_delay_ps in zip(arc_net[comb].tolist(), inputs, delay[comb].tolist()):
        worst_in = 0.0
        worst_slot = num_nets
        for slot in ins:
            t = reads[slot]
            if t >= worst_in:
                worst_in = t
                worst_slot = slot
        total = worst_in + gate_delay_ps + wire[out]
        if total > -1.0:
            reads[out] = total
            preds[out] = worst_slot
    arrival = np.asarray(reads)
    best_pred = np.asarray(preds, dtype=np.int64)
    timed |= best_pred > -1
    best_pred[best_pred == num_nets] = -1

    # Critical path: trace back from the worst primary output.
    po_net = arrays.po_net
    po_arrival = arrival[np.where(po_net < 0, num_nets, po_net)].tolist()
    worst_po: Optional[int] = None
    worst_time = 0.0
    for position, t in enumerate(po_arrival):
        if t >= worst_time:
            worst_time = t
            worst_po = position
    path: List[str] = []
    if worst_po is not None:
        net = int(po_net[worst_po])
        if net < 0:
            path.append(arrays.po_net_names[worst_po])
        seen = set()
        while net >= 0 and net not in seen:
            seen.add(net)
            path.append(arrays.net_names[net])
            net = int(best_pred[net])
        path.reverse()

    def details() -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        net_names, gate_names = arrays.net_names, arrays.gate_names
        nets = np.flatnonzero(timed)
        gates = np.flatnonzero(has_delay)
        return (
            dict(zip([net_names[i] for i in nets.tolist()], arrival[nets].tolist())),
            dict(zip([gate_names[i] for i in gates.tolist()], gate_delay[gates].tolist())),
            dict(zip(net_names, load.tolist())),
        )

    return TimingReport._deferred(worst_time, path, details)


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

    Raises:
        CombinationalLoopError: When the combinational logic is cyclic.
    """
    arrays = netlist_arrays(netlist)
    length, layer = wire_lengths(arrays, net_lengths_um, net_layers)
    return timing_pass(arrays, net_wires(arrays, length, layer, wire_model), disabled_arcs)
