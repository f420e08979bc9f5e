"""End-to-end protection flow with PPA-budget control (paper Fig. 2).

:func:`protect` runs the whole pipeline for one benchmark:

1. build the **original** (unprotected) layout and measure its PPA;
2. randomize the netlist, place the erroneous design, restore the true
   functionality through the BEOL (:mod:`repro.core.restore`);
3. evaluate the protected layout's PPA against the original;
4. if the budget is not expended, repeat with more randomization; otherwise
   keep the largest randomization that stayed within budget;
5. optionally build the **naive-lifting** baseline over the same set of nets
   (the paper's Table 2 comparison explicitly uses the same nets), routed
   over the original layout's placement: the original netlist is placed
   once.

The returned :class:`ProtectionResult` carries the three layouts plus all the
bookkeeping the experiments need (swap records, OER, PPA overheads).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.lifting import build_naive_lifted_layout
from repro.core.randomizer import (
    RandomizationResult,
    RandomizerConfig,
    eligible_sink_rows,
    randomize_netlist,
)
from repro.core.restore import build_protected_layout
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.layout import Layout, build_layout
from repro.layout.router import RouterConfig
from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist
from repro.timing.power import power_pass
from repro.timing.sta import net_wires, timing_pass, wire_lengths


@dataclass
class PPAReport:
    """Area / power / delay of one layout."""

    area_um2: float
    power_uw: float
    delay_ps: float
    wirelength_um: float

    def overhead_vs(self, baseline: "PPAReport") -> Dict[str, float]:
        """Percentage overheads of ``self`` relative to ``baseline``."""

        def pct(new: float, old: float) -> float:
            return 0.0 if old == 0 else 100.0 * (new - old) / old

        return {
            "area_percent": pct(self.area_um2, baseline.area_um2),
            "power_percent": pct(self.power_uw, baseline.power_uw),
            "delay_percent": pct(self.delay_ps, baseline.delay_ps),
            "wirelength_percent": pct(self.wirelength_um, baseline.wirelength_um),
        }


@dataclass
class ProtectionConfig:
    """Knobs of the end-to-end protection flow.

    Attributes:
        lift_layer: Correction-cell pin layer (6 for ISCAS-85, 8 for
            superblue, following the paper).
        utilization: Core utilization of the shared floorplan.
        ppa_budget_percent: Allowed power/delay overhead (20 % for ISCAS-85,
            5 % for superblue in the paper).
        swap_fraction_steps: Randomization intensities to try, as fractions of
            the design's sink connections; the flow keeps the largest step
            whose PPA stays within budget.
        max_swaps: Hard cap on swapped sinks (keeps large designs tractable).
        target_oer_percent: OER the randomizer must reach.
        oer_patterns: Patterns per OER estimate.
        build_naive_baseline: Also build the naive-lifting baseline layout.
        seed: Master seed for placement and randomization.
    """

    lift_layer: int = 6
    utilization: float = 0.70
    ppa_budget_percent: float = 20.0
    swap_fraction_steps: Sequence[float] = (0.02, 0.05, 0.10, 0.15)
    max_swaps: int = 800
    target_oer_percent: float = 99.0
    oer_patterns: int = 1024
    build_naive_baseline: bool = True
    seed: int = 0


@dataclass
class ProtectionResult:
    """Everything produced by one :func:`protect` run."""

    benchmark: str
    config: ProtectionConfig
    original_layout: Layout
    protected_layout: Layout
    randomization: RandomizationResult
    ppa_original: PPAReport
    ppa_protected: PPAReport
    naive_lifted_layout: Optional[Layout] = None
    ppa_naive_lifted: Optional[PPAReport] = None
    #: PPA overhead of every randomization step tried by the budget loop.
    budget_trace: List[Dict[str, float]] = field(default_factory=list)

    @property
    def overheads(self) -> Dict[str, float]:
        return self.ppa_protected.overhead_vs(self.ppa_original)

    @property
    def protected_nets(self) -> List[str]:
        return sorted(self.protected_layout.protected_nets)

    def summary(self) -> Dict[str, float]:
        over = self.overheads
        return {
            "benchmark": self.benchmark,
            "num_swaps": self.randomization.num_swaps,
            "protected_nets": len(self.protected_layout.protected_nets),
            "oer_percent": round(self.randomization.oer_percent, 2),
            "area_overhead_percent": round(over["area_percent"], 2),
            "power_overhead_percent": round(over["power_percent"], 2),
            "delay_overhead_percent": round(over["delay_percent"], 2),
        }


def evaluate_ppa(layout: Layout) -> PPAReport:
    """Measure area, power and critical-path delay of a routed layout.

    The STA and power passes read each routed net's length and top layer
    straight from the routing columns (nets it does not route get the
    fanout estimate), on the netlist's integer view.

    The last report is kept on the layout (:meth:`Layout.cached
    <repro.layout.layout.Layout.cached>`), so measuring an unchanged layout
    again returns an equal copy without re-measuring.
    """
    return replace(layout.cached("_ppa_cache", lambda: _measure_ppa(layout)))


def _measure_ppa(layout: Layout) -> PPAReport:
    arrays = netlist_arrays(layout.netlist)
    routing = layout.routing
    nets = routing.net_index
    if routing.net_names != arrays.net_names:
        known = arrays.net_id
        nets = np.asarray([known.get(routing.net_names[i], -1) for i in nets.tolist()],
                          dtype=np.int64)
    routed = nets >= 0
    length, layer = wire_lengths(arrays)
    length[nets[routed]] = routing.net_lengths()[routed]
    layer[nets[routed]] = routing.net_top_layers()[routed]
    wires = net_wires(arrays, length, layer)
    timing = timing_pass(arrays, wires)
    power = power_pass(arrays, wires)
    return PPAReport(
        area_um2=layout.die_area_um2(),
        power_uw=power.total_uw,
        delay_ps=timing.critical_path_ps,
        wirelength_um=layout.total_wirelength_um(),
    )


def protect(netlist: Netlist, config: Optional[ProtectionConfig] = None) -> ProtectionResult:
    """Run the full protection flow of the paper on ``netlist``.

    Returns a :class:`ProtectionResult` with the original, protected and
    (optionally) naive-lifting layouts, all sharing one floorplan so the die
    area is identical by construction.
    """
    config = config if config is not None else ProtectionConfig()
    floorplan = build_floorplan(netlist, config.utilization)
    router_config = RouterConfig()

    original_layout = build_layout(
        netlist,
        name=f"{netlist.name}_original",
        floorplan=floorplan,
        router_config=router_config,
        seed=config.seed,
    )
    ppa_original = evaluate_ppa(original_layout)

    eligible = len(eligible_sink_rows(netlist_arrays(netlist)))
    best: Optional[ProtectionResult] = None
    budget_trace: List[Dict[str, float]] = []

    for step_index, fraction in enumerate(config.swap_fraction_steps):
        target_swaps = min(config.max_swaps, max(2, int(eligible * fraction)))
        # The budget step sets the *minimum* amount of randomization; swapping
        # continues past it until the OER target is reached (paper Fig. 2),
        # bounded by the global cap.
        randomizer_config = RandomizerConfig(
            target_oer_percent=config.target_oer_percent,
            max_swaps=max(config.max_swaps, target_swaps),
            min_swaps=target_swaps,
            batch_pairs=max(8, target_swaps // 8),
            oer_patterns=config.oer_patterns,
            seed=config.seed,
        )
        randomization = randomize_netlist(netlist, randomizer_config)
        protected_layout = build_protected_layout(
            randomization,
            lift_layer=config.lift_layer,
            floorplan=floorplan,
            router_config=router_config,
            seed=config.seed,
        )
        ppa_protected = evaluate_ppa(protected_layout)
        overheads = ppa_protected.overhead_vs(ppa_original)
        trace_entry = {
            "step": float(step_index),
            "swap_fraction": fraction,
            "num_swaps": float(randomization.num_swaps),
            **overheads,
        }
        budget_trace.append(trace_entry)

        within_budget = (
            overheads["power_percent"] <= config.ppa_budget_percent
            and overheads["delay_percent"] <= config.ppa_budget_percent
        )
        candidate = ProtectionResult(
            benchmark=netlist.name,
            config=config,
            original_layout=original_layout,
            protected_layout=protected_layout,
            randomization=randomization,
            ppa_original=ppa_original,
            ppa_protected=ppa_protected,
            budget_trace=budget_trace,
        )
        if within_budget or best is None:
            best = candidate
        if not within_budget:
            # Budget expended: keep the last within-budget candidate (or this
            # smallest step when even it overshoots) and stop.
            break

    assert best is not None  # at least one step always runs
    best.budget_trace = budget_trace

    if config.build_naive_baseline:
        lifted_nets = sorted(best.randomization.protected_nets)
        naive = build_naive_lifted_layout(
            original_layout, lifted_nets, lift_layer=config.lift_layer,
            router_config=router_config,
        )
        best.naive_lifted_layout = naive
        best.ppa_naive_lifted = evaluate_ppa(naive)
    return best


def run_baseline_flow(netlist: Netlist, utilization: float = 0.70,
                      seed: int = 0) -> Layout:
    """Build just the unprotected layout (convenience wrapper for examples)."""
    return build_layout(netlist, utilization=utilization, seed=seed)
