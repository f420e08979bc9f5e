"""Table 4 — comparison with placement-perturbation schemes (ISCAS-85).

For every ISCAS-85 benchmark the experiment runs the network-flow attack on

* the original (unprotected) layout,
* the selective placement perturbation of Wang et al. [5],
* the four layout-randomization strategies of Sengupta et al. [8]
  (CCR only, as in the paper), and
* the proposed scheme,

and reports CCR / OER / HD averaged over splits after M3, M4 and M5 — the
same averaging the paper applies because the prior art does not state its
split layer.

The experiment is a scenario grid over the defense registry: one
:class:`~repro.api.spec.ScenarioSpec` per (benchmark, scheme) cell with the
``network_flow`` attack and the ``security`` metric; the original row comes
from the ``original`` variant of the proposed scheme's own build (the same
layout the legacy path scored).
"""

from __future__ import annotations

from typing import List, Optional

from repro.api.spec import ScenarioSpec
from repro.api.workspace import default_workspace
from repro.experiments.common import ExperimentConfig, make_experiment_sweep
from repro.utils.tables import Table

#: Sengupta et al. strategies in the paper's column order.
RANDOMIZATION_STRATEGIES = ("random", "g_color", "g_type1", "g_type2")


def _scheme_cells(config: ExperimentConfig, benchmark: str) -> List[ScenarioSpec]:
    """The per-benchmark scenario cells, proposed first (it carries the
    original-layout row), then the prior-art schemes in column order."""
    common = dict(
        split_layers=tuple(config.iscas_split_layers),
        attacks=("network_flow",),
        metrics=("security",),
    )
    cells = [
        config.scenario(benchmark, layouts=("original", "protected"), **common),
        config.scenario(benchmark, scheme="placement_perturbation", **common),
    ]
    for strategy in RANDOMIZATION_STRATEGIES:
        cells.append(config.scenario(
            benchmark, scheme="layout_randomization",
            scheme_params={"strategy": strategy}, **common,
        ))
    return cells


def scenarios(config: Optional[ExperimentConfig] = None) -> List[ScenarioSpec]:
    """The scenario grid behind Table 4."""
    config = config if config is not None else ExperimentConfig()
    specs: List[ScenarioSpec] = []
    for benchmark in config.iscas_benchmarks:
        specs.extend(_scheme_cells(config, benchmark))
    return specs


def run(config: Optional[ExperimentConfig] = None) -> Table:
    """Regenerate Table 4."""
    config = config if config is not None else ExperimentConfig()
    table = Table(
        title="Table 4: Comparison with placement perturbation schemes "
              "(CCR/OER/HD %, averaged over splits M3-M5)",
        columns=["Benchmark", "Orig CCR", "Orig OER", "Orig HD",
                 "PlacePerturb CCR", "Random CCR", "G-Color CCR", "G-Type1 CCR",
                 "G-Type2 CCR", "Proposed CCR", "Proposed OER", "Proposed HD"],
    )
    workspace = default_workspace()
    for benchmark in config.iscas_benchmarks:
        cells = workspace.run_scenarios(_scheme_cells(config, benchmark))
        proposed_cell, perturb_cell, *random_cells = cells
        original = proposed_cell.security_mean(layout="original")
        proposed = proposed_cell.security_mean(layout="protected")
        perturbed = perturb_cell.security_mean()
        randomized = [cell.security_mean()["ccr"] for cell in random_cells]
        table.add_row([
            benchmark,
            round(original["ccr"], 1), round(original["oer"], 1), round(original["hd"], 1),
            round(perturbed["ccr"], 1),
            *[round(ccr, 1) for ccr in randomized],
            round(proposed["ccr"], 1), round(proposed["oer"], 1), round(proposed["hd"], 1),
        ])
    return table


#: Monte-Carlo sweep of this experiment's grid: ``sweep(seeds, config, jobs)``.
sweep = make_experiment_sweep(scenarios)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    from repro.utils.tables import format_table

    print(format_table(run()))
