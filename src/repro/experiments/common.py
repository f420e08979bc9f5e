"""Shared configuration for the experiment harness.

:class:`ExperimentConfig` holds the knobs every table and figure shares and
turns them into :class:`~repro.api.spec.ScenarioSpec` cells
(:meth:`ExperimentConfig.scenario`).  The artefacts themselves live in the
:class:`repro.api.Workspace` (see ``repro/api/workspace.py``): builds are
keyed by the full canonical build hash of their scenario spec, so every
:class:`ProtectionConfig` field is part of the key.  Code that wants the
protection flow's artefacts asks the workspace directly, e.g.
``default_workspace().protection(b, cfg.protection_config(b),
scale=cfg.benchmark_scale(b))``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api.registry import params_to_dict
from repro.api.schemes import ProposedParams
from repro.api.spec import AttackSpec, MetricSpec, ScenarioSpec
from repro.api.workspace import default_workspace
from repro.circuits.superblue import SUPERBLUE_PROFILES
from repro.core.flow import ProtectionConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by every experiment.

    The defaults keep a full run of all tables/figures in the range of a few
    minutes on a laptop; raise ``superblue_scale`` (towards the paper's full
    designs) for higher-fidelity numbers at the cost of runtime.
    """

    #: ISCAS-85 benchmarks (Tables 4, 5, Fig. 6).
    iscas_benchmarks: Tuple[str, ...] = (
        "c432", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
    )
    #: superblue benchmarks (Tables 1, 2, 3, 6, Figs. 4, 5).
    superblue_benchmarks: Tuple[str, ...] = (
        "superblue1", "superblue5", "superblue10", "superblue12", "superblue18",
    )
    #: Down-scaling factor for the superblue designs.
    superblue_scale: float = 0.005
    #: Split layers averaged for the ISCAS security tables (paper: M3, M4, M5).
    iscas_split_layers: Tuple[int, ...] = (3, 4, 5)
    #: Lift layer for ISCAS-85 (paper: M6) and superblue (paper: M8).
    iscas_lift_layer: int = 6
    superblue_lift_layer: int = 8
    #: Split layer used for the superblue routing-centric evaluation.
    superblue_split_layer: int = 6
    #: PPA budgets (paper: 20 % ISCAS-85, 5 % superblue).
    iscas_ppa_budget_percent: float = 20.0
    superblue_ppa_budget_percent: float = 5.0
    #: Randomization intensities tried by the budget loop.
    iscas_swap_fractions: Tuple[float, ...] = (0.05, 0.10)
    superblue_swap_fractions: Tuple[float, ...] = (0.02,)
    #: Patterns for OER/HD estimates.  The vectorized simulation engine makes
    #: large pattern blocks cheap; 4096 keeps the security metrics' sampling
    #: error well below the table resolution (see README).
    num_patterns: int = 4096
    #: Master seed.
    seed: int = 1

    def is_superblue(self, benchmark: str) -> bool:
        return benchmark in SUPERBLUE_PROFILES

    def protection_config(self, benchmark: str) -> ProtectionConfig:
        """Per-benchmark :class:`ProtectionConfig` following the paper's setup."""
        if self.is_superblue(benchmark):
            return ProtectionConfig(
                lift_layer=self.superblue_lift_layer,
                utilization=SUPERBLUE_PROFILES[benchmark].utilization_percent / 100.0,
                ppa_budget_percent=self.superblue_ppa_budget_percent,
                swap_fraction_steps=self.superblue_swap_fractions,
                max_swaps=600,
                oer_patterns=min(self.num_patterns, 256),
                seed=self.seed,
            )
        return ProtectionConfig(
            lift_layer=self.iscas_lift_layer,
            utilization=0.70,
            ppa_budget_percent=self.iscas_ppa_budget_percent,
            swap_fraction_steps=self.iscas_swap_fractions,
            max_swaps=800,
            oer_patterns=self.num_patterns,
            seed=self.seed,
        )

    def benchmark_scale(self, benchmark: str) -> Optional[float]:
        """The scale passed to the benchmark generator (None for ISCAS)."""
        if self.is_superblue(benchmark):
            return self.superblue_scale if self.superblue_scale != 1.0 else None
        return None

    def split_layers(self, benchmark: str) -> Tuple[int, ...]:
        if self.is_superblue(benchmark):
            return (self.superblue_split_layer,)
        return tuple(self.iscas_split_layers)

    # -- scenario-spec construction ---------------------------------------

    def proposed_scheme_params(self, benchmark: str) -> Dict[str, Any]:
        """The ``proposed`` scheme parameters for ``benchmark`` as plain data."""
        config = self.protection_config(benchmark)
        return params_to_dict(ProposedParams.from_protection_config(config))

    def scenario(self, benchmark: str, *, scheme: str = "proposed",
                 scheme_params: Optional[Mapping[str, Any]] = None,
                 layouts: Tuple[str, ...] = ("protected",),
                 split_layers: Optional[Tuple[int, ...]] = None,
                 attacks: Iterable[Any] = (),
                 metrics: Iterable[Any] = ()) -> ScenarioSpec:
        """Build one :class:`ScenarioSpec` following this config's conventions.

        The ``proposed`` scheme's parameters default to the per-benchmark
        :meth:`protection_config`; other schemes default to their registered
        parameter defaults.
        """
        if scheme_params is None and scheme == "proposed":
            scheme_params = self.proposed_scheme_params(benchmark)
        return ScenarioSpec(
            benchmark=benchmark,
            scheme=scheme,
            scheme_params=scheme_params or {},
            scale=self.benchmark_scale(benchmark),
            layouts=layouts,
            split_layers=(
                split_layers if split_layers is not None
                else self.split_layers(benchmark)
            ),
            attacks=tuple(AttackSpec.coerce(a) for a in attacks),
            metrics=tuple(MetricSpec.coerce(m) for m in metrics),
            num_patterns=self.num_patterns,
            seed=self.seed,
        )

    # -- serialization (CLI / JSON-driven runs) ----------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in data.items()
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise TypeError(
                f"unknown ExperimentConfig field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(fields))}"
            )
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        }
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Monte-Carlo seed sweeps
# ---------------------------------------------------------------------------


def make_experiment_sweep(scenarios_fn):
    """The standard ``sweep(seeds, config, jobs)`` entry of an experiment module.

    Every experiment module exposes ``sweep = make_experiment_sweep(scenarios)``
    — a Monte-Carlo sweep of its scenario grid returning one aggregated
    :class:`~repro.api.SweepResult` (per-seed values plus mean/std/CI per
    metric leaf) per scenario; render with :func:`sweep_report_table`.
    """
    def sweep(seeds: Any, config: Optional[ExperimentConfig] = None,
              jobs: Optional[int] = None,
              on_error: Optional[str] = None) -> List["SweepResult"]:
        return run_scenario_sweep(
            scenarios_fn(config), seeds, jobs=jobs, on_error=on_error
        )

    sweep.__doc__ = (
        "Monte-Carlo sweep of this experiment's scenario grid across "
        "``seeds``.\n\n    See "
        ":func:`repro.experiments.common.make_experiment_sweep`."
    )
    return sweep


def run_scenario_sweep(specs: Iterable[ScenarioSpec], seeds: Any,
                       jobs: Optional[int] = None,
                       on_error: Optional[str] = None) -> List["SweepResult"]:
    """Run a scenario grid as a Monte-Carlo sweep over ``seeds``.

    Every spec is re-declared with the given seed set (a list of ints or a
    ``{"start", "count"}`` range) and executed through
    :meth:`repro.api.Workspace.run_sweeps`, which batches the per-seed builds
    through the prewarm process pool.  Returns one aggregated
    :class:`~repro.api.SweepResult` per input spec.

    ``on_error="skip"`` drops failed seeds into ``SweepResult.failures``
    and aggregates the survivors (``None`` keeps the workspace default).
    """
    swept = [spec.with_seeds(seeds) for spec in specs]
    return default_workspace().run_sweeps(swept, jobs=jobs, on_error=on_error)


def sweep_report_table(sweeps: List["SweepResult"], title: str) -> "Table":
    """Render sweep aggregates as a plain-text table (per-seed + mean/std/CI).

    One row per metric leaf: layout/compare metrics are labelled
    ``metric[layout].leaf``, attack-scope metrics
    ``metric[layout@M<split>:attack].leaf``.

    Partial sweeps (``on_error="skip"`` dropped seeds) are surfaced
    honestly: the Seeds column shows ``surviving/requested`` and every
    dropped seed gets a ``failure[seed=N]`` row naming the error.
    """
    from repro.api.workspace import flatten_sweep_aggregate
    from repro.utils.tables import Table

    table = Table(
        title=title,
        columns=["Benchmark", "Scheme", "Seeds", "Quantity",
                 "Mean", "Std", "CI95", "Per-seed"],
    )

    def seeds_cell(sweep) -> Any:
        if not sweep.failures:
            return len(sweep.seeds)
        return f"{len(sweep.seeds)}/{len(sweep.seeds) + len(sweep.failures)}"

    def add_rows(sweep, label_prefix: str, aggregate: Any) -> None:
        for leaf, stat in flatten_sweep_aggregate(aggregate, label_prefix):
            per_seed = stat.get("per_seed", [])
            if "mean" not in stat:  # non-numeric leaf: report values only
                table.add_row([
                    sweep.benchmark, sweep.scheme, seeds_cell(sweep), leaf,
                    None, None, None,
                    " ".join(str(v) for v in per_seed),
                ])
                continue
            table.add_row([
                sweep.benchmark, sweep.scheme, seeds_cell(sweep), leaf,
                round(stat["mean"], 4), round(stat["std"], 4),
                round(stat["ci95"], 4),
                " ".join(format(float(v), ".4g") for v in per_seed),
            ])

    for sweep in sweeps:
        for metric_name, per_layout in sweep.layout_metrics.items():
            for layout, aggregate in per_layout.items():
                add_rows(sweep, f"{metric_name}[{layout}]", aggregate)
        for record in sweep.attack_records:
            for metric_name, aggregate in record.metrics.items():
                add_rows(
                    sweep,
                    f"{metric_name}[{record.layout}@M{record.split_layer}"
                    f":{record.attack}]",
                    aggregate,
                )
        for failure in sweep.failures:
            table.add_row([
                sweep.benchmark, sweep.scheme, seeds_cell(sweep),
                f"failure[seed={failure.seed}]",
                None, None, None,
                f"{failure.error_type} after {failure.attempts} attempt(s): "
                f"{failure.message}",
            ])
    return table
