"""Seeded random logic generator.

Produces mapped, loop-free netlists with controllable size, I/O counts,
depth and fanout statistics.  Both benchmark families
(:mod:`repro.circuits.iscas85` and :mod:`repro.circuits.superblue`) are thin
parameterisations of this generator.

The construction is topological: gates are created in level order, and each
gate draws its inputs from already-created signals with a locality bias —
signals created recently (and therefore close in the logical hierarchy) are
preferred.  This mirrors real designs, where most nets are short/local, and
gives the physical-design flow the proximity structure that proximity attacks
exploit.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.netlist.cells import Cell, CellLibrary, default_library
from repro.netlist.netlist import Gate, Net, Netlist
from repro.utils.rng import make_rng

#: (cell name, weight) — combinational cell mix used for generated logic.
DEFAULT_CELL_MIX: Tuple[Tuple[str, float], ...] = (
    ("NAND2_X1", 0.22),
    ("NOR2_X1", 0.14),
    ("INV_X1", 0.14),
    ("AND2_X1", 0.09),
    ("OR2_X1", 0.09),
    ("NAND3_X1", 0.07),
    ("NOR3_X1", 0.05),
    ("XOR2_X1", 0.06),
    ("XNOR2_X1", 0.04),
    ("AOI21_X1", 0.04),
    ("OAI21_X1", 0.03),
    ("BUF_X1", 0.02),
    ("NAND4_X1", 0.005),
    ("NOR4_X1", 0.005),
    ("AND3_X1", 0.005),
    ("OR3_X1", 0.005),
)


@dataclass
class RandomLogicSpec:
    """Parameters of a generated circuit.

    Attributes:
        name: Netlist name.
        num_gates: Number of combinational gates to create.
        num_inputs: Number of primary inputs.
        num_outputs: Number of primary outputs.
        seed: Generator seed; the same spec + seed always yields the same
            netlist.
        locality_window: Number of most-recently-created signals a gate's
            inputs are preferentially drawn from.  Real designs have bounded
            local structure (a gate talks to its logic cone neighbours), so
            this is an absolute count, independent of design size.
        global_net_fraction: Probability that an input is instead drawn
            uniformly from *all* existing signals — these become the long,
            global nets every real design has.
        sequential_fraction: Fraction of gates replaced by D flip-flops
            (superblue-like designs are register-rich; ISCAS-85 uses 0).
        cell_mix: Weighted combinational cell mix.
    """

    name: str
    num_gates: int
    num_inputs: int
    num_outputs: int
    seed: int = 0
    locality_window: int = 16
    global_net_fraction: float = 0.10
    sequential_fraction: float = 0.0
    cell_mix: Tuple[Tuple[str, float], ...] = DEFAULT_CELL_MIX

    def __post_init__(self) -> None:
        if self.num_gates < 1:
            raise ValueError("num_gates must be >= 1")
        if self.num_inputs < 1:
            raise ValueError("num_inputs must be >= 1")
        if self.num_outputs < 1:
            raise ValueError("num_outputs must be >= 1")
        if self.locality_window < 1:
            raise ValueError("locality_window must be >= 1")
        if not (0.0 <= self.global_net_fraction <= 1.0):
            raise ValueError("global_net_fraction must be in [0, 1]")
        if not (0.0 <= self.sequential_fraction < 1.0):
            raise ValueError("sequential_fraction must be in [0, 1)")
        total = sum(weight for _, weight in self.cell_mix)
        if not (total > 0.0 and math.isfinite(total)):
            raise ValueError("cell_mix weights must have a positive, finite total")


def generate_random_logic(spec: RandomLogicSpec,
                          library: Optional[CellLibrary] = None) -> Netlist:
    """Generate a mapped netlist according to ``spec``.

    The result is guaranteed to be combinational-loop-free (construction is
    topological), every primary output is driven, and the netlist passes
    :meth:`Netlist.validate`.

    The gate and net tables are filled directly, as :meth:`Netlist.copy`
    does: the result, its iteration orders and its ``topology_version`` are
    those of adding every port, gate and pin through the edit API in
    creation order, with the same RNG draws (the oracle
    ``generate_random_logic_reference`` in ``tests/netlist_oracle.py``).
    """
    library = library if library is not None else default_library()
    rng = make_rng(spec.seed, "random_logic", spec.name)
    random, randrange = rng.random, rng.randrange
    window, global_fraction = spec.locality_window, spec.global_net_fraction
    netlist = Netlist(spec.name, library)
    gates, nets = netlist.gates, netlist.nets

    signals: List[str] = [f"pi_{i}" for i in range(spec.num_inputs)]
    netlist.primary_inputs = list(signals)
    clock_net = "clk" if spec.sequential_fraction > 0.0 else None
    if clock_net is not None:
        netlist.primary_inputs.append(clock_net)
    for name in netlist.primary_inputs:
        nets[name] = Net(name, is_primary_input=True)
    # Each primary input is a new net plus the port itself.
    edits = 2 * len(nets)

    def pick_source() -> str:
        """A source signal, biased towards the most recent ones."""
        n = len(signals)
        local = random() >= global_fraction
        # Local picks come from the trailing window; global ones (long/global
        # nets) from every signal.
        draw = randrange(window if local and window < n else n)
        return signals[n - 1 - draw] if local else signals[draw]

    # ``rng.choices(cell_names, weights=...)`` draws exactly this.
    cell_names = [name for name, _ in spec.cell_mix]
    cum_weights = list(accumulate(weight for _, weight in spec.cell_mix))
    total = cum_weights[-1] + 0.0
    last = len(cum_weights) - 1
    cells: Dict[str, Tuple[Cell, List[str], str]] = {}

    for i in range(spec.num_gates):
        out_net = f"n_{i}"
        if clock_net is not None and random() < spec.sequential_fraction:
            name = f"ff_{i}"
            source = pick_source()
            gates[name] = Gate(name, library["DFF_X1"],
                               {"D": source, "CK": clock_net, "Q": out_net})
            nets[source].sinks.append((name, "D"))
            nets[clock_net].sinks.append((name, "CK"))
            nets[out_net] = Net(out_net, driver=(name, "Q"))
            signals.append(out_net)
            edits += 5  # the gate, its three pins and its output net
            continue
        cell_name = cell_names[bisect(cum_weights, random() * total, 0, last)]
        entry = cells.get(cell_name)
        if entry is None:
            cell = library[cell_name]
            entry = cells[cell_name] = (
                cell, [pin.name for pin in cell.input_pins], cell.output_pins[0].name,
            )
        cell, input_pins, output_pin = entry
        sources: List[str] = []
        for _pin in input_pins:
            source = pick_source()
            # Avoid duplicate inputs where possible (keeps functions non-trivial).
            retries = 0
            while source in sources and retries < 4 and len(signals) > len(sources):
                source = pick_source()
                retries += 1
            sources.append(source)
        name = f"g_{i}"
        connections = dict(zip(input_pins, sources))
        connections[output_pin] = out_net
        gates[name] = Gate(name, cell, connections)
        for pin, source in zip(input_pins, sources):
            nets[source].sinks.append((name, pin))
        nets[out_net] = Net(out_net, driver=(name, output_pin))
        signals.append(out_net)
        edits += len(connections) + 2  # the gate, its pins and its output net

    edits += _assign_outputs(netlist, spec, rng)
    netlist._topology_version = edits

    problems = netlist.validate()
    if problems:  # pragma: no cover - construction should always be clean
        raise RuntimeError(f"generated netlist is inconsistent: {problems[:3]}")
    return netlist


def _assign_outputs(netlist: Netlist, spec: RandomLogicSpec, rng) -> int:
    """Choose primary outputs, preferring gate outputs with no fanout.

    Dangling gate outputs that are not selected as primary outputs are still
    exported as outputs when room permits; otherwise they remain unconnected
    (harmless for simulation and physical design).  Returns the number of
    outputs declared.
    """
    nets = netlist.nets
    dangling = [
        net.name for net in nets.values()
        if net.driver is not None and not net.sinks and not net.primary_outputs
    ]
    rng.shuffle(dangling)
    chosen: List[str] = list(dangling[: spec.num_outputs])
    if len(chosen) < spec.num_outputs:
        candidates = [
            net.name for net in nets.values()
            if net.driver is not None and net.name not in chosen
        ]
        rng.shuffle(candidates)
        chosen.extend(candidates[: spec.num_outputs - len(chosen)])
    chosen = chosen[: spec.num_outputs]
    for index, net_name in enumerate(chosen):
        po = f"po_{index}"
        netlist.primary_outputs.append(po)
        netlist.output_nets[po] = net_name
        nets[net_name].primary_outputs.append(po)
    return len(chosen)
