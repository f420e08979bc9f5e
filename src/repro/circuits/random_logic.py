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

from repro.netlist.cells import CellLibrary, default_library
from repro.netlist.netlist import Netlist
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

    The draws produce net ids, which :meth:`Netlist.from_columns` turns into
    the netlist: the result, its iteration orders and its
    ``topology_version`` are those of adding every port, gate and pin
    through the edit API in creation order, with the same RNG draws (the
    oracle ``generate_random_logic_reference`` in
    ``tests/netlist_oracle.py``).
    """
    library = library if library is not None else default_library()
    rng = make_rng(spec.seed, "random_logic", spec.name)
    # ``randrange(n)`` of a positive int is ``_randbelow(n)``: the same draws
    # without the argument checks.
    random, randrange = rng.random, rng._randbelow
    window, global_fraction = spec.locality_window, spec.global_net_fraction
    num_gates = spec.num_gates

    pi_names = [f"pi_{i}" for i in range(spec.num_inputs)]
    clock_net = "clk" if spec.sequential_fraction > 0.0 else None
    if clock_net is not None:
        pi_names.append(clock_net)
    num_pis, num_inputs = len(pi_names), spec.num_inputs
    # Net ids: the primary inputs, then gate ``i``'s output net ``n_i``.
    # The signals are the primary inputs and the gate outputs made so far,
    # in creation order; the clock is a net but never a signal, so signal
    # ``k`` is net ``k``, or ``k + shift`` once past the primary inputs.
    clock, shift = num_inputs, num_pis - num_inputs

    def pick_source(n: int) -> int:
        """The net of one of the ``n`` signals, biased towards the most
        recent ones."""
        local = random() >= global_fraction
        # Local picks come from the trailing window; global ones (long/global
        # nets) from every signal.
        draw = randrange(window if local and window < n else n)
        signal = n - 1 - draw if local else draw
        return signal if signal < num_inputs else signal + shift

    # ``rng.choices(cell_names, weights=...)`` draws exactly this.
    cell_names = [name for name, _ in spec.cell_mix]
    cum_weights = list(accumulate(weight for _, weight in spec.cell_mix))
    total = cum_weights[-1] + 0.0
    last = len(cum_weights) - 1
    #: cell name -> (index in first-use order, input count, unconnected
    #: output pins past the first)
    cells: Dict[str, Tuple[int, int, List[int]]] = {}
    gate_names: List[str] = []
    gate_cell: List[int] = []
    fanin_net: List[int] = []
    fanout_net: List[int] = []

    sequential_fraction = spec.sequential_fraction
    for i in range(num_gates):
        n = num_inputs + i
        if clock_net is not None and random() < sequential_fraction:
            name = f"ff_{i}"
            cell_name = "DFF_X1"
            # A flip-flop's pins connect in D, CK, Q order.
            sources = [pick_source(n), clock]
        else:
            name = f"g_{i}"
            cell_name = cell_names[bisect(cum_weights, random() * total, 0, last)]
            sources = None
        entry = cells.get(cell_name)
        if entry is None:
            cell = library[cell_name]
            entry = cells[cell_name] = (len(cells), len(cell.input_pins),
                                        [-1] * (len(cell.output_pins) - 1))
        if sources is None:
            sources = []
            for _pin in range(entry[1]):
                source = pick_source(n)
                # Avoid duplicate inputs where possible (keeps functions non-trivial).
                retries = 0
                while source in sources and retries < 4 and n > len(sources):
                    source = pick_source(n)
                    retries += 1
                sources.append(source)
        gate_names.append(name)
        gate_cell.append(entry[0])
        fanin_net += sources
        # The first output pin drives the gate's own net; any other stays
        # unconnected.
        fanout_net.append(num_pis + i)
        fanout_net += entry[2]

    # Gate outputs no gate input loads, in creation order.
    loaded = bytearray(num_pis + num_gates)
    for net in fanin_net:
        loaded[net] = 1
    dangling = [net for net in range(num_pis, num_pis + num_gates) if not loaded[net]]
    net_names = pi_names + [f"n_{i}" for i in range(num_gates)]
    chosen = _choose_outputs(dangling, num_pis, num_gates, spec, rng)
    netlist = Netlist.from_columns(
        spec.name, library, net_names, pi_names, gate_names, list(cells), gate_cell,
        fanin_net, fanout_net,
        {f"po_{index}": net_names[net] for index, net in enumerate(chosen)})

    problems = netlist.validate()
    if problems:  # pragma: no cover - construction should always be clean
        raise RuntimeError(f"generated netlist is inconsistent: {problems[:3]}")
    return netlist


def _choose_outputs(dangling: List[int], num_pis: int, num_gates: int,
                    spec: RandomLogicSpec, rng) -> List[int]:
    """Choose the nets of the primary outputs, preferring gate outputs with
    no fanout (``dangling``, ids of gate output nets, which are
    ``num_pis .. num_pis + num_gates - 1``).

    Dangling gate outputs that are not selected as primary outputs are still
    exported as outputs when room permits; otherwise they remain unconnected
    (harmless for simulation and physical design).
    """
    rng.shuffle(dangling)
    chosen: List[int] = list(dangling[: spec.num_outputs])
    if len(chosen) < spec.num_outputs:
        taken = set(chosen)
        candidates = [net for net in range(num_pis, num_pis + num_gates)
                      if net not in taken]
        rng.shuffle(candidates)
        chosen.extend(candidates[: spec.num_outputs - len(chosen)])
    return chosen[: spec.num_outputs]
