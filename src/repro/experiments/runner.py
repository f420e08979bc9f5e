"""Run every experiment and return the regenerated tables.

``repro run <experiment>`` (see :mod:`repro.api.cli`) is the command-line
entry point; :func:`run_all` is the library one.

The runner shares one artefact cache across all experiments, so the expensive
protection flows run once per benchmark regardless of how many tables consume
them.  With ``jobs`` > 1 the independent per-benchmark protection flows are
prewarmed in parallel worker processes before the (cheap) table generation
runs serially against the warm cache.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.api.workspace import default_workspace
from repro.experiments import (
    figure4_distance_distributions,
    figure5_wirelength_layers,
    figure6_ppa,
    headline,
    table1_distances,
    table2_vias,
    table3_crouting,
    table4_placement_schemes,
    table5_routing_schemes,
    table6_magana,
)
from repro.experiments.common import ExperimentConfig
from repro.utils.tables import Table

#: Experiment id → run() callable, in the order they are reported.
EXPERIMENTS: Dict[str, Callable[[Optional[ExperimentConfig]], Table]] = {
    "table1": table1_distances.run,
    "table2": table2_vias.run,
    "table3": table3_crouting.run,
    "table4": table4_placement_schemes.run,
    "table5": table5_routing_schemes.run,
    "table6": table6_magana.run,
    "figure4": figure4_distance_distributions.run,
    "figure5": figure5_wirelength_layers.run,
    "figure6": figure6_ppa.run,
    "headline": headline.run,
}

#: Experiment id → scenarios(config) callable: the declarative grid behind
#: each experiment, consumed by seed sweeps (``repro run <exp> --seeds``).
SCENARIO_GRIDS: Dict[str, Callable] = {
    "table1": table1_distances.scenarios,
    "table2": table2_vias.scenarios,
    "table3": table3_crouting.scenarios,
    "table4": table4_placement_schemes.scenarios,
    "table5": table5_routing_schemes.scenarios,
    "table6": table6_magana.scenarios,
    "figure4": figure4_distance_distributions.scenarios,
    "figure5": figure5_wirelength_layers.scenarios,
    "figure6": figure6_ppa.scenarios,
    "headline": headline.scenarios,
}

#: Benchmarks each experiment draws artefacts for: a config suite name
#: ("iscas" / "superblue") or an explicit tuple for single-benchmark figures
#: (prewarming a whole suite for those would waste the most expensive step).
EXPERIMENT_SUITES: Dict[str, object] = {
    "table1": "superblue",
    "table2": "superblue",
    "table3": "superblue",
    "table4": "iscas",
    "table5": "iscas",
    "table6": "superblue",
    "figure4": (figure4_distance_distributions.DEFAULT_BENCHMARK,),
    "figure5": "superblue",
    "figure6": "iscas",
    "headline": "iscas",
}


def quick_config() -> ExperimentConfig:
    """A reduced configuration for smoke runs and CI."""
    return ExperimentConfig(
        iscas_benchmarks=("c432", "c880", "c1908"),
        superblue_benchmarks=("superblue18", "superblue5"),
        superblue_scale=0.0025,
        iscas_split_layers=(4,),
        num_patterns=512,
    )


def benchmarks_for(selected: List[str], config: ExperimentConfig) -> List[str]:
    """The benchmarks the selected experiments will request artefacts for."""
    benchmarks: List[str] = []
    seen = set()
    for name in selected:
        spec = EXPERIMENT_SUITES.get(name)
        if spec == "iscas":
            wanted = config.iscas_benchmarks
        elif spec == "superblue":
            wanted = config.superblue_benchmarks
        else:
            wanted = spec or ()
        for benchmark in wanted:
            if benchmark not in seen:
                seen.add(benchmark)
                benchmarks.append(benchmark)
    return benchmarks


def run_all(config: Optional[ExperimentConfig] = None,
            only: Optional[List[str]] = None,
            jobs: int = 1) -> Dict[str, Table]:
    """Run the selected experiments and return their tables.

    Args:
        config: Shared experiment configuration (default full config).
        only: Subset of experiment names (default all).
        jobs: Worker processes for the parallel artefact prewarm; 1 keeps
            everything serial and in-process.
    """
    config = config if config is not None else ExperimentConfig()
    selected = only if only else list(EXPERIMENTS)
    for name in selected:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if jobs > 1:
        default_workspace().prewarm(
            [config.scenario(benchmark)
             for benchmark in benchmarks_for(selected, config)],
            jobs=jobs,
        )
    results: Dict[str, Table] = {}
    for name in selected:
        start = time.time()
        results[name] = EXPERIMENTS[name](config)
        results[name].title += f"   [{time.time() - start:.1f}s]"
    return results
