"""The :class:`Layout` container: netlist + floorplan + placement + routing.

A :class:`Layout` is the unit every downstream consumer works on:

* the split-manufacturing model (:mod:`repro.sm`) derives FEOL views from it;
* the security metrics measure gate distances, wirelength shares and via
  counts on it;
* the PPA metrics feed its routed net lengths into the STA and power models.

:func:`build_layout` is the convenience "run the whole physical-design flow"
entry point used for *unprotected* (original) layouts; the protection flow in
:mod:`repro.core.flow` assembles its protected layouts from the same pieces
but with the erroneous netlist placed and the true connectivity restored in
the BEOL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.layout.arrays import LayoutArrays, RoutingArrays
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point
from repro.layout.placer import PlacementResult, PlacerConfig, place, place_batch
from repro.layout.router import RouterConfig, route, route_batch
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.netlist.netlist import Netlist

T = TypeVar("T")


@dataclass
class Layout:
    """A fully placed-and-routed design.

    Attributes:
        name: Layout name (usually ``<benchmark>_<variant>``).
        netlist: The *functional* netlist the layout implements.  For the
            paper's protected layouts this is the original (restored) netlist
            even though placement was optimized for the erroneous one.
        placement: Cell and I/O positions (coordinate columns).
        routing: The routing columns, also the read-only mapping net name
            → :class:`~repro.layout.router.RoutedNet` (``def_io`` reads it).
        protected_nets: Names of nets whose connectivity was randomized and
            restored through the BEOL (empty for unprotected layouts).
        lift_layer: Correction/lifting cell pin layer, when applicable.
        metadata: Free-form provenance (seed, variant, PPA budget...).
    """

    name: str
    netlist: Netlist
    placement: PlacementResult
    routing: RoutingArrays
    protected_nets: Set[str] = field(default_factory=set)
    lift_layer: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Monotonic counter bumped on every in-place mutation of the routing
    #: columns.  Placement moves are tracked separately by
    #: ``placement.geometry_version``; together the two counters key the
    #: cached columnar view returned by :meth:`arrays`.
    geometry_version: int = 0

    def bump_geometry_version(self) -> int:
        """Record an in-place routing/geometry mutation (invalidates caches)."""
        self.geometry_version += 1
        return self.geometry_version

    #: ``__dict__`` entries of the caches kept by :meth:`cached`.
    _CACHES = ("_geometry_cache", "_ppa_cache")

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._CACHES:
            state.pop(name, None)  # rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Columnar view
    # ------------------------------------------------------------------
    def cached(self, name: str, build: Callable[[], T]) -> T:
        """The value ``build()`` returned for this layout, kept under
        ``name`` (one of :attr:`_CACHES`) and built again whenever the
        netlist's ``topology_version``, the placement's
        ``geometry_version`` or this layout's own ``geometry_version``
        changes."""
        key = (
            self.netlist.topology_version,
            self.placement.geometry_version,
            self.geometry_version,
        )
        entry = self.__dict__.get(name)
        if entry is not None and entry[0] == key:
            return entry[1]
        value = build()
        self.__dict__[name] = (key, value)
        return value

    def arrays(self) -> LayoutArrays:
        """The cached array-backed view of this layout.

        Rebuilt automatically whenever the netlist's ``topology_version``,
        the placement's ``geometry_version`` or this layout's own
        ``geometry_version`` changes; see :mod:`repro.layout.arrays` for the
        invalidation contract.
        """
        return self.cached("_geometry_cache", lambda: LayoutArrays.build(
            self.netlist, self.placement, self.routing))

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    @property
    def floorplan(self) -> Floorplan:
        return self.placement.floorplan

    def gate_position(self, gate_name: str) -> Point:
        return self.placement.gate_positions[gate_name]

    def port_position(self, port_name: str) -> Point:
        return self.placement.port_positions[port_name]

    def net_terminal_positions(self, net_name: str) -> List[Point]:
        """Positions of every terminal (driver + sinks + POs) of a net."""
        net = self.netlist.nets[net_name]
        points: List[Point] = []
        if net.driver is not None and net.driver[0] in self.placement.gate_positions:
            points.append(self.gate_position(net.driver[0]))
        elif net.is_primary_input and net.name in self.placement.port_positions:
            points.append(self.port_position(net.name))
        for sink_gate, _pin in net.sinks:
            if sink_gate in self.placement.gate_positions:
                points.append(self.gate_position(sink_gate))
        for po in net.primary_outputs:
            if po in self.placement.port_positions:
                points.append(self.port_position(po))
        return points

    # ------------------------------------------------------------------
    # Wirelength / via accounting
    # ------------------------------------------------------------------
    def total_wirelength_um(self) -> float:
        """Routed wirelength (µm), summed straight off the routing columns."""
        lengths = self.routing.segment_lengths()
        return float(lengths.sum()) if lengths.size else 0.0

    def wirelength_by_layer(self) -> Dict[int, float]:
        """Routed wirelength per metal layer (µm) — one bincount pass."""
        return self.arrays().wirelength_by_layer(NUM_METAL_LAYERS)

    def via_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of vias per adjacent layer pair, e.g. ``{(1, 2): 812, ...}``."""
        return self.arrays().via_counts(NUM_METAL_LAYERS)

    def total_vias(self) -> int:
        return sum(self.via_counts().values())

    def net_lengths_um(self) -> Dict[str, float]:
        """Routed length per net (µm) — consumed by the STA/power models.

        Array-native on the routing columns (left-fold group sums, so the
        values are bit-exact with ``RoutedNet.length``).
        """
        return dict(zip(self.routing, self.routing.net_lengths().tolist()))

    def net_top_layers(self) -> Dict[str, int]:
        """Topmost layer used per net — consumed by the wire RC models."""
        return dict(zip(self.routing, self.routing.net_top_layers().tolist()))

    def die_area_um2(self) -> float:
        return self.floorplan.area_um2

    # ------------------------------------------------------------------
    # Connection-level views (used by metrics and attacks)
    # ------------------------------------------------------------------
    def connected_gate_distances(self, nets: Optional[Set[str]] = None) -> List[float]:
        """Distances (µm) between the driver and each sink gate of every net.

        This is the quantity behind the paper's Table 1 and Fig. 4: for
        protected layouts the *true* connectivity (stored in ``self.netlist``)
        is measured against the placement that was optimized for the
        erroneous netlist, so the distances blow up.

        Args:
            nets: Restrict to these nets (e.g. the protected nets); default all.
        """
        return self.connected_gate_distance_array(nets).tolist()

    def connected_gate_distance_array(self, nets: Optional[Set[str]] = None) -> "np.ndarray":
        """Vectorized :meth:`connected_gate_distances` (float64 array).

        One elementwise pass over the cached connection-pair arrays; values
        and ordering are bit-exact with the historical per-pair
        ``manhattan`` loop over ``netlist.nets``.
        """
        from repro.layout.arrays import placement_arrays

        # Only the placement view is needed — don't force a rebuild of the
        # (larger) segment/via columns after a placement-only edit.
        placement = placement_arrays(self.netlist, self.placement)
        distances = placement.pair_distances()
        if nets is None:
            return distances
        return distances[placement.pair_mask_for_nets(nets)]

    def stats(self) -> Dict[str, float]:
        """Headline layout statistics."""
        return {
            "gates": self.netlist.num_gates,
            "nets": self.netlist.num_nets,
            "die_area_um2": round(self.die_area_um2(), 2),
            "total_wirelength_um": round(self.total_wirelength_um(), 2),
            "total_vias": self.total_vias(),
            "protected_nets": len(self.protected_nets),
        }


def build_layout(netlist: Netlist, name: Optional[str] = None,
                 utilization: float = 0.70,
                 floorplan: Optional[Floorplan] = None,
                 router_config: Optional[RouterConfig] = None,
                 min_layer_per_net: Optional[Mapping[str, int]] = None,
                 seed: int = 0) -> Layout:
    """Run the full (unprotected) physical-design flow on ``netlist``.

    Args:
        netlist: Design to place and route.
        name: Layout name; defaults to ``<netlist name>_original``.
        utilization: Core utilization for the floorplan.
        floorplan: Reuse an existing floorplan (for apples-to-apples area).
        router_config: Router knobs.
        min_layer_per_net: Optional per-net lift floor (used by the
            naive-lifting baseline).
        seed: Placement seed (the placer's only knob).

    Returns:
        A routed :class:`Layout`.
    """
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placement = place(netlist, floorplan, utilization, PlacerConfig(seed=seed))
    routing = route(netlist, placement, router_config, min_layer_per_net)
    return Layout(
        name=name if name is not None else f"{netlist.name}_original",
        netlist=netlist,
        placement=placement,
        routing=routing,
        metadata={"utilization": utilization, "seed": seed},
    )


def build_layout_batch(netlist: Netlist, seeds: List[int],
                       name: Optional[str] = None,
                       utilization: float = 0.70,
                       floorplan: Optional[Floorplan] = None,
                       router_config: Optional[RouterConfig] = None,
                       min_layer_per_net: Optional[Mapping[str, int]] = None
                       ) -> List[Layout]:
    """Run the unprotected flow once per seed as a single batched program.

    Semantically ``[build_layout(netlist, ..., seed=s) for s in seeds]`` —
    and bit-exact with it seed by seed — but placement and routing share
    one netlist skeleton across the whole batch
    (:func:`repro.layout.placer.place_batch`,
    :func:`repro.layout.router.route_batch`).

    Returns:
        One routed :class:`Layout` per seed, in ``seeds`` order.
    """
    if not seeds:
        return []
    if floorplan is None:
        floorplan = build_floorplan(netlist, utilization)
    placements = place_batch(netlist, seeds, floorplan, utilization)
    routings = route_batch(netlist, placements, router_config, min_layer_per_net)
    return [
        Layout(
            name=name if name is not None else f"{netlist.name}_original",
            netlist=netlist,
            placement=placement,
            routing=routing,
            metadata={"utilization": utilization, "seed": seed},
        )
        for seed, placement, routing in zip(seeds, placements, routings)
    ]
