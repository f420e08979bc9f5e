"""Built-in attack registrations for the scenario API.

Every attack is registered under a stable name with a uniform signature
``fn(view, params) -> AttackOutcome``; the outcome normalises what the
downstream metrics need (assignment, recovery) while keeping the attack's
native result reachable via ``raw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api.registry import ATTACKS
from repro.attacks.crouting import CRoutingAttackConfig, crouting_attack
from repro.attacks.network_flow import NetworkFlowAttackConfig, network_flow_attack
from repro.attacks.proximity import proximity_attack
from repro.netlist.arrays import NetlistOverlay
from repro.netlist.netlist import Netlist
from repro.sm.split import FEOLView


@dataclass(frozen=True)
class ProximityAttackParams:
    """The plain proximity attack takes no knobs (kept for uniformity)."""


@dataclass
class AttackOutcome:
    """Normalised result of one attack run."""

    attack: str
    #: Sink-vpin → driver-vpin assignment (empty for non-assigning attacks).
    assignment: Dict[int, int] = field(default_factory=dict)
    #: What the attacker reconstructed, as an overlay on the layout's
    #: netlist (``None`` when not applicable); the security metric
    #: simulates it as it stands.
    recovery: Optional[NetlistOverlay] = None
    #: The attack's native result object.
    raw: object = None

    @property
    def recovered_netlist(self) -> Optional[Netlist]:
        """The recovery as a :class:`Netlist`, built on first read."""
        return None if self.recovery is None else self.recovery.netlist()


@ATTACKS.register("proximity", params=ProximityAttackParams,
                  summary="Nearest-driver proximity baseline attack")
def run_proximity(view: FEOLView, params: ProximityAttackParams) -> AttackOutcome:
    result = proximity_attack(view)
    return AttackOutcome("proximity", assignment=dict(result.assignment), raw=result)


@ATTACKS.register("network_flow", params=NetworkFlowAttackConfig,
                  summary="Network-flow proximity attack (Wang et al., DAC'16)")
def run_network_flow(view: FEOLView, params: NetworkFlowAttackConfig) -> AttackOutcome:
    result = network_flow_attack(view, params)
    return AttackOutcome(
        "network_flow",
        assignment=dict(result.assignment),
        recovery=result.recovery,
        raw=result,
    )


@ATTACKS.register("crouting", params=CRoutingAttackConfig,
                  summary="Routing-centric candidate-list attack (Magaña et al., ICCAD'16)")
def run_crouting(view: FEOLView, params: CRoutingAttackConfig) -> AttackOutcome:
    result = crouting_attack(view, params)
    return AttackOutcome("crouting", raw=result)
