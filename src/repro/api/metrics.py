"""Built-in metric registrations for the scenario API.

Metrics come in three scopes (``entry.extra["scope"]``):

* ``attack`` — evaluated once per (layout, split layer, attack) run:
  ``fn(view, outcome, params, ctx)``;
* ``layout`` — evaluated once per layout variant: ``fn(layout, params, ctx)``;
* ``compare`` — evaluated per layout variant against the scenario's original
  baseline: ``fn(layout, baseline, params, ctx)``.

Every metric returns plain data (numbers / dicts / lists) so scenario
results serialise to JSON without bespoke encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.api.attacks import AttackOutcome
from repro.api.registry import METRICS
from repro.attacks.crouting import CRoutingAttackResult
from repro.layout.layout import Layout
from repro.metrics.distances import distance_stats
from repro.metrics.ppa import ppa_overheads, ppa_report
from repro.metrics.security import evaluate_attack
from repro.metrics.solution_space import (
    log10_num_perfect_matchings,
    log10_solution_space_from_candidates,
)
from repro.metrics.vias import (
    total_via_delta_percent,
    via_counts_by_name,
    via_delta_percent,
)
from repro.metrics.wirelength import beol_wirelength_fraction, wirelength_share_by_layer
from repro.sm.split import FEOLView

#: Scopes a metric can be registered under.
METRIC_SCOPES = ("attack", "layout", "compare")


@dataclass
class MetricContext:
    """Everything a metric may need beyond its direct subject."""

    benchmark: str
    scheme: str
    layout_name: str
    num_patterns: int
    seed: int
    #: Nets the scheme protected (used as the default measurement net set).
    protected_nets: Set[str] = field(default_factory=set)
    #: Default for security scoring: restrict to protected connections?
    restrict_to_protected: bool = False
    #: Split layer of the current FEOL view (attack-scope metrics only).
    split_layer: Optional[int] = None


def _nets_for(selector: str, ctx: MetricContext) -> Optional[Set[str]]:
    if selector == "all":
        return None
    if selector == "protected":
        return set(ctx.protected_nets) or None
    raise ValueError(f"unknown net selector {selector!r}; use 'protected' or 'all'")


# -- attack-scope metrics -------------------------------------------------


@dataclass(frozen=True)
class SecurityParams:
    """CCR/OER/HD scoring knobs.

    ``restrict_to_protected=None`` defers to the scenario default (restrict
    exactly when scoring the proposed scheme's protected layout, the paper's
    convention); ``num_patterns=None`` uses the scenario's pattern count.
    """

    restrict_to_protected: Optional[bool] = None
    num_patterns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_patterns is not None and self.num_patterns < 1:
            raise ValueError(
                f"security num_patterns must be at least 1, got {self.num_patterns}"
            )


@METRICS.register("security", params=SecurityParams, scope="attack",
                  summary="CCR / OER / HD of an attack run (percent)")
def metric_security(view: FEOLView, outcome: AttackOutcome,
                    params: SecurityParams, ctx: MetricContext) -> Dict[str, float]:
    restrict = (
        params.restrict_to_protected
        if params.restrict_to_protected is not None else ctx.restrict_to_protected
    )
    patterns = params.num_patterns if params.num_patterns is not None else ctx.num_patterns
    report = evaluate_attack(
        view, outcome.assignment, outcome.recovery,
        restrict_to_protected=restrict, num_patterns=patterns, seed=ctx.seed,
    )
    return {
        "ccr": report.ccr_percent,
        "oer": report.oer_percent,
        "hd": report.hd_percent,
        "num_connections_scored": report.num_connections_scored,
    }


@dataclass(frozen=True)
class CRoutingStatsParams:
    """No knobs; the bounding boxes come from the attack's own parameters."""


@METRICS.register("crouting_stats", params=CRoutingStatsParams, scope="attack",
                  summary="Vpin count, E[LS] and match-in-list of a crouting run")
def metric_crouting_stats(view: FEOLView, outcome: AttackOutcome,
                          params: CRoutingStatsParams, ctx: MetricContext) -> Dict[str, Any]:
    raw = outcome.raw
    if not isinstance(raw, CRoutingAttackResult):
        raise ValueError(
            f"crouting_stats requires the 'crouting' attack, got {outcome.attack!r}"
        )
    return {
        "num_vpins": raw.num_vpins,
        "expected_list_size": {int(bb): v for bb, v in raw.expected_list_size.items()},
        "match_in_list": {int(bb): v for bb, v in raw.match_in_list.items()},
    }


@dataclass(frozen=True)
class SolutionSpaceParams:
    """Bounding box (gcells) to read candidate lists from; None = largest."""

    bounding_box: Optional[int] = None


@METRICS.register("solution_space", params=SolutionSpaceParams, scope="attack",
                  summary="log10 solution-space estimate from an attack run")
def metric_solution_space(view: FEOLView, outcome: AttackOutcome,
                          params: SolutionSpaceParams, ctx: MetricContext) -> Dict[str, float]:
    raw = outcome.raw
    if isinstance(raw, CRoutingAttackResult) and raw.candidate_counts:
        boxes = sorted(raw.candidate_counts)
        box = params.bounding_box if params.bounding_box is not None else boxes[-1]
        if box not in raw.candidate_counts:
            raise ValueError(f"bounding box {box} not evaluated; available: {boxes}")
        return {
            "log10_solution_space": log10_solution_space_from_candidates(
                raw.candidate_counts[box]
            ),
            "bounding_box": float(box),
        }
    connections = view.columns.num_connections
    return {
        "log10_solution_space": log10_num_perfect_matchings(connections),
        "num_connections": float(connections),
    }


# -- layout-scope metrics -------------------------------------------------


@dataclass(frozen=True)
class DistanceParams:
    """Distance statistics over the driver→sink pairs of a net set."""

    nets: str = "protected"
    include_values: bool = False


@METRICS.register("distances", params=DistanceParams, scope="layout",
                  summary="Mean / median / std of connected-gate distances (µm)")
def metric_distances(layout: Layout, params: DistanceParams,
                     ctx: MetricContext) -> Dict[str, Any]:
    stats = distance_stats(layout, _nets_for(params.nets, ctx))
    result: Dict[str, Any] = {
        "mean": stats.mean,
        "median": stats.median,
        "std_dev": stats.std_dev,
        "count": stats.count,
    }
    if params.include_values:
        result["values"] = list(stats.values)
    return result


@dataclass(frozen=True)
class WirelengthLayersParams:
    """Per-metal-layer wirelength shares of a net set."""

    nets: str = "protected"
    split_layer: Optional[int] = None


@METRICS.register("wirelength_layers", params=WirelengthLayersParams, scope="layout",
                  summary="Wirelength share per metal layer (percent)")
def metric_wirelength_layers(layout: Layout, params: WirelengthLayersParams,
                             ctx: MetricContext) -> Dict[str, Any]:
    nets = _nets_for(params.nets, ctx)
    shares = wirelength_share_by_layer(layout, nets)
    result: Dict[str, Any] = {"shares": {int(layer): v for layer, v in shares.items()}}
    if params.split_layer is not None:
        result["above_split"] = beol_wirelength_fraction(layout, params.split_layer, nets)
        result["split_layer"] = params.split_layer
    return result


@dataclass(frozen=True)
class ViaCountsParams:
    """No knobs; counts every via layer pair."""


@METRICS.register("via_counts", params=ViaCountsParams, scope="layout",
                  summary="Via counts per layer pair (V12 … V910) and total")
def metric_via_counts(layout: Layout, params: ViaCountsParams,
                      ctx: MetricContext) -> Dict[str, Any]:
    return {"counts": via_counts_by_name(layout), "total": layout.total_vias()}


@dataclass(frozen=True)
class PPAParams:
    """No knobs; reports area / power / delay / wirelength."""


@METRICS.register("ppa", params=PPAParams, scope="layout",
                  summary="Area / power / delay / wirelength of a layout")
def metric_ppa(layout: Layout, params: PPAParams, ctx: MetricContext) -> Dict[str, float]:
    report = ppa_report(layout)
    return {
        "area_um2": report.area_um2,
        "power_uw": report.power_uw,
        "delay_ps": report.delay_ps,
        "wirelength_um": report.wirelength_um,
    }


# -- compare-scope metrics (layout vs original baseline) ------------------


@dataclass(frozen=True)
class ViaDeltaParams:
    """No knobs; percentage via increases per layer pair vs the baseline."""


@METRICS.register("via_delta", params=ViaDeltaParams, scope="compare",
                  summary="Additional vias per layer pair vs the original (percent)")
def metric_via_delta(layout: Layout, baseline: Layout, params: ViaDeltaParams,
                     ctx: MetricContext) -> Dict[str, Any]:
    deltas = via_delta_percent(layout, baseline)
    return {**deltas, "total": total_via_delta_percent(layout, baseline)}


@dataclass(frozen=True)
class PPAOverheadsParams:
    """No knobs; percentage overheads vs the baseline."""


@METRICS.register("ppa_overheads", params=PPAOverheadsParams, scope="compare",
                  summary="Area / power / delay overheads vs the original (percent)")
def metric_ppa_overheads(layout: Layout, baseline: Layout, params: PPAOverheadsParams,
                         ctx: MetricContext) -> Dict[str, float]:
    return ppa_overheads(layout, baseline)
