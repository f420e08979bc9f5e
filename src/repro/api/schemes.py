"""Built-in protection-scheme registrations for the scenario API.

A *scheme* builds the layout(s) a scenario attacks and measures.  Every
entry is registered with a uniform signature ``fn(netlist, params, seed) ->
SchemeBuild``.  The paper's own flow is the ``proposed`` scheme (the full
randomize → place → restore pipeline of :func:`repro.core.flow.protect`);
``original`` is the unprotected baseline; the remaining entries are the
prior-art defenses the paper compares against (Tables 4–6).

Builders replicate the exact construction the historical experiment modules
used (same floorplan derivation, same placer/router configs, same seeds), so
scenario runs are bit-identical with the legacy entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple


from repro.api.registry import DEFENSES
from repro.core.flow import ProtectionConfig, ProtectionResult, protect
from repro.defenses.layout_randomization import (
    LayoutRandomizationStrategy,
    layout_randomization_defense,
)
from repro.defenses.pin_swapping import pin_swapping_defense
from repro.defenses.placement_perturbation import placement_perturbation_defense
from repro.defenses.routing_blockage import routing_blockage_defense
from repro.defenses.routing_perturbation import routing_perturbation_defense
from repro.defenses.synergistic import synergistic_defense
from repro.layout.floorplan import build_floorplan
from repro.layout.layout import Layout, build_layout, build_layout_batch
from repro.layout.placer import PlacerConfig
from repro.layout.router import RouterConfig
from repro.netlist.netlist import Netlist


@dataclass
class SchemeBuild:
    """Artefacts one scheme produced for one benchmark.

    ``layout`` is the scheme's own (attack-target) layout — the ``protected``
    variant of a scenario.  Schemes that run the full proposed flow also
    carry the :class:`ProtectionResult`, which additionally exposes the
    ``original`` and ``lifted`` variants plus PPA/randomization bookkeeping.
    """

    scheme: str
    layout: Layout
    baseline: Optional[Layout] = None
    protection: Optional[ProtectionResult] = None
    #: Whether security metrics should score only the protected connections
    #: by default (the paper's convention for its own scheme).
    restrict_to_protected: bool = False

    def variant(self, name: str) -> Layout:
        """Resolve a layout variant name to a concrete layout."""
        if name == "protected":
            return self.layout
        if name == "original":
            if self.baseline is not None:
                return self.baseline
            raise ValueError(
                f"scheme {self.scheme!r} has no 'original' variant; "
                "declare a separate scenario with scheme='original'"
            )
        if name == "lifted":
            if self.protection is not None and self.protection.naive_lifted_layout is not None:
                return self.protection.naive_lifted_layout
            raise ValueError(
                f"scheme {self.scheme!r} has no 'lifted' variant "
                "(only 'proposed' with build_naive_baseline=True)"
            )
        raise ValueError(f"unknown layout variant {name!r}")

    def available_variants(self) -> List[str]:
        names = ["protected"]
        if self.baseline is not None:
            names.insert(0, "original")
        if self.protection is not None and self.protection.naive_lifted_layout is not None:
            names.insert(1, "lifted")
        return names

    @property
    def protected_nets(self) -> Set[str]:
        """Nets the scheme protected (scored/measured sets default to these)."""
        if self.protection is not None:
            return set(self.protection.protected_layout.protected_nets)
        return set(self.layout.protected_nets)


@dataclass(frozen=True)
class ProposedParams:
    """Knobs of the paper's protection flow (mirrors ProtectionConfig)."""

    lift_layer: int = 6
    utilization: float = 0.70
    ppa_budget_percent: float = 20.0
    swap_fraction_steps: Tuple[float, ...] = (0.02, 0.05, 0.10, 0.15)
    max_swaps: int = 800
    target_oer_percent: float = 99.0
    oer_patterns: int = 1024
    build_naive_baseline: bool = True

    def __post_init__(self) -> None:
        if self.oer_patterns < 1:
            raise ValueError(
                f"proposed oer_patterns must be at least 1, got {self.oer_patterns}"
            )

    def to_protection_config(self, seed: int) -> ProtectionConfig:
        return ProtectionConfig(
            lift_layer=self.lift_layer,
            utilization=self.utilization,
            ppa_budget_percent=self.ppa_budget_percent,
            swap_fraction_steps=tuple(self.swap_fraction_steps),
            max_swaps=self.max_swaps,
            target_oer_percent=self.target_oer_percent,
            oer_patterns=self.oer_patterns,
            build_naive_baseline=self.build_naive_baseline,
            seed=seed,
        )

    @classmethod
    def from_protection_config(cls, config: ProtectionConfig) -> "ProposedParams":
        return cls(
            lift_layer=config.lift_layer,
            utilization=config.utilization,
            ppa_budget_percent=config.ppa_budget_percent,
            swap_fraction_steps=tuple(config.swap_fraction_steps),
            max_swaps=config.max_swaps,
            target_oer_percent=config.target_oer_percent,
            oer_patterns=config.oer_patterns,
            build_naive_baseline=config.build_naive_baseline,
        )


@DEFENSES.register("proposed", params=ProposedParams,
                   summary="The paper's concerted lifting flow (randomize + restore)")
def build_proposed(netlist: Netlist, params: ProposedParams, seed: int) -> SchemeBuild:
    result = protect(netlist, params.to_protection_config(seed))
    return SchemeBuild(
        scheme="proposed",
        layout=result.protected_layout,
        baseline=result.original_layout,
        protection=result,
        restrict_to_protected=True,
    )


@dataclass(frozen=True)
class OriginalParams:
    """Unprotected baseline build.

    ``floorplan_utilization`` controls the floorplan sizing separately from
    the placement utilization — the proposed flow sizes superblue floorplans
    with the profile utilization while placing at the default, and the
    independent baseline must replicate that to stay bit-identical.
    """

    utilization: float = 0.70
    floorplan_utilization: Optional[float] = None


@DEFENSES.register("original", params=OriginalParams,
                   summary="Unprotected baseline layout (place + route only)")
def build_original(netlist: Netlist, params: OriginalParams, seed: int) -> SchemeBuild:
    floorplan_util = (
        params.floorplan_utilization
        if params.floorplan_utilization is not None else params.utilization
    )
    floorplan = build_floorplan(netlist, floorplan_util)
    layout = build_layout(
        netlist,
        floorplan=floorplan,
        utilization=params.utilization,
        placer_config=PlacerConfig(seed=seed),
        router_config=RouterConfig(),
        seed=seed,
    )
    return SchemeBuild(scheme="original", layout=layout, baseline=layout)


def build_original_batch(netlist: Netlist, params: OriginalParams,
                         seeds: List[int]) -> List[SchemeBuild]:
    """Seed-batched :func:`build_original`: one shared netlist skeleton.

    Bit-exact per seed with ``build_original(netlist, params, seed)`` — same
    floorplan derivation, same placer/router configs — but placement and
    routing for the whole batch run as one array program
    (:func:`repro.layout.layout.build_layout_batch`).  This is the build the
    workspace sweep path amortizes Monte-Carlo sweeps with.

    Returns:
        One :class:`SchemeBuild` per seed, in ``seeds`` order.
    """
    floorplan_util = (
        params.floorplan_utilization
        if params.floorplan_utilization is not None else params.utilization
    )
    floorplan = build_floorplan(netlist, floorplan_util)
    layouts = build_layout_batch(
        netlist,
        list(seeds),
        floorplan=floorplan,
        utilization=params.utilization,
        placer_config=PlacerConfig(),
        router_config=RouterConfig(),
    )
    return [
        SchemeBuild(scheme="original", layout=layout, baseline=layout)
        for layout in layouts
    ]


@dataclass(frozen=True)
class PlacementPerturbationParams:
    perturb_fraction: float = 0.10
    max_displacement_fraction: float = 0.15
    utilization: float = 0.70


@DEFENSES.register("placement_perturbation", params=PlacementPerturbationParams,
                   summary="Selective placement perturbation (Wang et al., DAC'16)")
def build_placement_perturbation(netlist: Netlist, params: PlacementPerturbationParams,
                                 seed: int) -> SchemeBuild:
    layout = placement_perturbation_defense(
        netlist,
        perturb_fraction=params.perturb_fraction,
        max_displacement_fraction=params.max_displacement_fraction,
        utilization=params.utilization,
        seed=seed,
    )
    return SchemeBuild(scheme="placement_perturbation", layout=layout)


@dataclass(frozen=True)
class LayoutRandomizationParams:
    strategy: str = "random"
    randomize_fraction: float = 0.5
    max_displacement_fraction: float = 0.5
    utilization: float = 0.70

    def __post_init__(self) -> None:
        # Validate at params-resolution time (spec.validate / hashing), not
        # deep inside the build after the netlist has been generated.
        valid = [s.value for s in LayoutRandomizationStrategy]
        if self.strategy not in valid:
            raise ValueError(
                f"unknown layout_randomization strategy {self.strategy!r}; "
                f"choose from {', '.join(valid)}"
            )


@DEFENSES.register("layout_randomization", params=LayoutRandomizationParams,
                   summary="Layout randomization strategies (Sengupta et al., ICCAD'17)")
def build_layout_randomization(netlist: Netlist, params: LayoutRandomizationParams,
                               seed: int) -> SchemeBuild:
    layout = layout_randomization_defense(
        netlist,
        LayoutRandomizationStrategy(params.strategy),
        randomize_fraction=params.randomize_fraction,
        max_displacement_fraction=params.max_displacement_fraction,
        utilization=params.utilization,
        seed=seed,
    )
    return SchemeBuild(scheme="layout_randomization", layout=layout)


@dataclass(frozen=True)
class PinSwappingParams:
    swap_fraction: float = 0.5
    utilization: float = 0.70
    lift_layer: int = 4


@DEFENSES.register("pin_swapping", params=PinSwappingParams,
                   summary="Block-level pin swapping (Rajendran et al., DATE'13)")
def build_pin_swapping(netlist: Netlist, params: PinSwappingParams, seed: int) -> SchemeBuild:
    layout = pin_swapping_defense(
        netlist,
        swap_fraction=params.swap_fraction,
        utilization=params.utilization,
        lift_layer=params.lift_layer,
        seed=seed,
    )
    return SchemeBuild(scheme="pin_swapping", layout=layout)


@dataclass(frozen=True)
class RoutingPerturbationParams:
    perturb_fraction: float = 0.3
    decoy_distance_fraction: float = 0.25
    utilization: float = 0.70
    lift_layer: int = 5


@DEFENSES.register("routing_perturbation", params=RoutingPerturbationParams,
                   summary="Routing perturbation (Wang et al., ASP-DAC'17)")
def build_routing_perturbation(netlist: Netlist, params: RoutingPerturbationParams,
                               seed: int) -> SchemeBuild:
    layout = routing_perturbation_defense(
        netlist,
        perturb_fraction=params.perturb_fraction,
        decoy_distance_fraction=params.decoy_distance_fraction,
        utilization=params.utilization,
        lift_layer=params.lift_layer,
        seed=seed,
    )
    return SchemeBuild(scheme="routing_perturbation", layout=layout)


@dataclass(frozen=True)
class SynergisticParams:
    protect_fraction: float = 0.35
    displacement_fraction: float = 0.35
    utilization: float = 0.70
    lift_layer: int = 5


@DEFENSES.register("synergistic", params=SynergisticParams,
                   summary="Synergistic placement+routing scheme (Feng et al., ICCAD'17)")
def build_synergistic(netlist: Netlist, params: SynergisticParams, seed: int) -> SchemeBuild:
    layout = synergistic_defense(
        netlist,
        protect_fraction=params.protect_fraction,
        displacement_fraction=params.displacement_fraction,
        utilization=params.utilization,
        lift_layer=params.lift_layer,
        seed=seed,
    )
    return SchemeBuild(scheme="synergistic", layout=layout)


@dataclass(frozen=True)
class RoutingBlockageParams:
    blockage_probability: float = 0.25
    promote_layers: int = 2
    utilization: float = 0.70
    floorplan_utilization: Optional[float] = None


@DEFENSES.register("routing_blockage", params=RoutingBlockageParams,
                   summary="Routing blockages (Magaña et al., ICCAD'16/TCAD'17)")
def build_routing_blockage(netlist: Netlist, params: RoutingBlockageParams,
                           seed: int) -> SchemeBuild:
    floorplan = None
    if params.floorplan_utilization is not None:
        floorplan = build_floorplan(netlist, params.floorplan_utilization)
    layout = routing_blockage_defense(
        netlist,
        blockage_probability=params.blockage_probability,
        promote_layers=params.promote_layers,
        floorplan=floorplan,
        utilization=params.utilization,
        seed=seed,
    )
    return SchemeBuild(scheme="routing_blockage", layout=layout)
