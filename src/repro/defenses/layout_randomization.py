"""Layout-randomization strategies of Sengupta et al. (ICCAD'17, [8]).

Sengupta et al. take an information-theoretic view and randomize cell
locations so that the mutual information between FEOL observables and the
missing connectivity shrinks.  They evaluate four strategies, which the
paper's Table 4 quotes as *Random*, *G-Color*, *G-Type1* and *G-Type2*:

* **random** — all cells participate; positions are randomly permuted
  (bounded by a displacement budget);
* **g_color** — only cells in alternating "colouring" groups of the netlist
  graph are permuted among themselves;
* **g_type1** — cells are permuted only within groups of the same logic
  function (NAND with NAND, NOR with NOR...);
* **g_type2** — cells are permuted within groups of the same function *and*
  drive strength.

All strategies preserve row legality by swapping existing legal positions.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


class LayoutRandomizationStrategy(enum.Enum):
    """The four strategies evaluated by Sengupta et al."""

    RANDOM = "random"
    G_COLOR = "g_color"
    G_TYPE1 = "g_type1"
    G_TYPE2 = "g_type2"


def _groups(netlist: Netlist, strategy: LayoutRandomizationStrategy,
            seed: int) -> Dict[str, List[str]]:
    """Partition gate names into permutation groups according to the strategy."""
    rng = make_rng(seed, "layout_randomization_groups", netlist.name)
    groups: Dict[str, List[str]] = {}
    if strategy is LayoutRandomizationStrategy.RANDOM:
        groups["all"] = list(netlist.gates)
    elif strategy is LayoutRandomizationStrategy.G_COLOR:
        # Two-colouring by parity of a BFS-ish ordering: alternating cells may
        # swap within their colour class.
        for index, name in enumerate(netlist.gates):
            groups.setdefault(f"color{index % 2}", []).append(name)
    elif strategy is LayoutRandomizationStrategy.G_TYPE1:
        for name, gate in netlist.gates.items():
            function = gate.cell.name.split("_")[0]
            groups.setdefault(function, []).append(name)
    elif strategy is LayoutRandomizationStrategy.G_TYPE2:
        for name, gate in netlist.gates.items():
            groups.setdefault(gate.cell.name, []).append(name)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown strategy {strategy}")
    for members in groups.values():
        rng.shuffle(members)
    return groups


def layout_randomization_defense(
    netlist: Netlist,
    strategy: LayoutRandomizationStrategy = LayoutRandomizationStrategy.RANDOM,
    randomize_fraction: float = 0.5,
    max_displacement_fraction: float = 0.5,
    floorplan: Optional[Floorplan] = None,
    utilization: float = 0.70,
    seed: int = 0,
) -> Layout:
    """Build a layout protected by one of the Sengupta et al. strategies.

    Args:
        netlist: Design to protect.
        strategy: Which permutation-group strategy to use.
        randomize_fraction: Fraction of each group that takes part in the
            permutation.
        max_displacement_fraction: Pairs whose swap would displace either cell
            by more than this fraction of the die half-perimeter are skipped —
            this is the (coarse) stand-in for the scheme's PPA budget; Table 4
            of the paper notes the techniques become impractical for larger
            designs precisely because lifting this budget is expensive.
        floorplan / utilization / seed: Physical-design knobs.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    rng = make_rng(seed, "layout_randomization", netlist.name, strategy.value)
    row_of = {name: row for row, name in enumerate(placement.gate_positions)}
    xs = placement.gate_x.tolist()
    ys = placement.gate_y.tolist()
    max_displacement = floorplan.half_perimeter_um * max_displacement_fraction

    swapped = 0
    for members in _groups(netlist, strategy, seed).values():
        members = [m for m in members if m in row_of]
        participating = members[: max(0, int(len(members) * randomize_fraction))]
        rng.shuffle(participating)
        for first, second in zip(participating[0::2], participating[1::2]):
            a, b = row_of[first], row_of[second]
            displacement = abs(xs[a] - xs[b]) + abs(ys[a] - ys[b])  # manhattan
            if displacement > max_displacement:
                continue
            xs[a], xs[b] = xs[b], xs[a]
            ys[a], ys[b] = ys[b], ys[a]
            swapped += 1
    placement.set_coordinates(gate_x=xs, gate_y=ys)

    routing = route(netlist, placement, RouterConfig())
    return Layout(
        name=f"{netlist.name}_randomized_{strategy.value}",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={
            "defense": "layout_randomization",
            "strategy": strategy.value,
            "swapped_pairs": swapped,
            "seed": seed,
        },
    )
