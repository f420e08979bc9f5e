"""Equivalence suite: vectorized place-and-route vs the per-object oracles.

The vectorized build path (``place`` / ``route`` / ``route_requests``) must
be **bit-exact** with the seed implementations kept in
``tests/build_oracle.py`` as ``place_reference`` / ``route_reference`` /
``route_connection`` — same gate ordering, identical IEEE coordinates,
identical segment/via object graphs.

Tier-1 covers a fast circuit subset; the ``slow``-marked cases extend the
check to every ISCAS-85 circuit (full CI) per the acceptance criteria.
"""

from __future__ import annotations

import random

import pytest

from build_oracle import place_reference, route_connection, route_reference
from repro.circuits import iscas85_netlist
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route, route_requests

ISCAS_CIRCUITS = tuple(ISCAS85_PROFILES)
FAST_CIRCUITS = ("c432", "c880")
SLOW_CIRCUITS = tuple(c for c in ISCAS_CIRCUITS if c not in FAST_CIRCUITS)

PLACER_CONFIGS = [
    PlacerConfig(seed=0),
    PlacerConfig(seed=3, refinement_rounds=2),
    PlacerConfig(seed=5, refinement_rounds=1, iterations_per_round=5, damping=0.3),
    PlacerConfig(seed=2, ordering="insertion", refinement_rounds=3),
]


def assert_placements_identical(a, b) -> None:
    """Same gate insertion order, bit-identical coordinates."""
    assert list(a.gate_positions) == list(b.gate_positions)
    for name, pos in a.gate_positions.items():
        other = b.gate_positions[name]
        assert pos.x == other.x and pos.y == other.y, name
    assert a.port_positions == b.port_positions


def assert_routings_identical(a, b) -> None:
    """Same net order, identical connection/segment/via object graphs."""
    assert list(a) == list(b)
    for name in a:
        ra, rb = a[name], b[name]
        assert ra.driver_point == rb.driver_point, name
        assert ra.driver_vias == rb.driver_vias, name
        assert len(ra.connections) == len(rb.connections), name
        for ca, cb in zip(ra.connections, rb.connections):
            assert ca.sink == cb.sink and ca.h_layer == cb.h_layer, name
            assert ca.v_layer == cb.v_layer, name
            assert ca.segments == cb.segments, (name, ca.sink)
            assert ca.vias == cb.vias, (name, ca.sink)
            assert ca.source_hint == cb.source_hint, name
            assert ca.target_hint == cb.target_hint, name
            assert ca.protected == cb.protected, name


def _lift_map(netlist, lift_layer: int, every: int = 3):
    return {
        name: lift_layer
        for i, name in enumerate(netlist.nets)
        if i % every == 0
    }


def check_circuit(circuit: str) -> None:
    netlist = iscas85_netlist(circuit, seed=1)
    floorplan = build_floorplan(netlist, 0.70)
    for config in PLACER_CONFIGS:
        reference = place_reference(netlist, floorplan, config=config)
        vectorized = place(netlist, floorplan, config=config)
        assert_placements_identical(reference, vectorized)

    placement = place(netlist, floorplan, config=PlacerConfig(seed=1))
    for router_config, lifts in [
        (RouterConfig(), None),
        (RouterConfig(), _lift_map(netlist, 6)),
        (RouterConfig(jog_pitch_fraction=0.1), _lift_map(netlist, 8, every=5)),
    ]:
        assert_routings_identical(
            route_reference(netlist, placement, router_config, lifts),
            route(netlist, placement, router_config, lifts),
        )


@pytest.mark.parametrize("circuit", FAST_CIRCUITS)
def test_build_equivalence_fast(circuit):
    check_circuit(circuit)


@pytest.mark.slow
@pytest.mark.parametrize("circuit", SLOW_CIRCUITS)
def test_build_equivalence_all_iscas(circuit):
    check_circuit(circuit)


@pytest.mark.slow
def test_build_equivalence_superblue():
    from repro.circuits.superblue import superblue_netlist

    netlist = superblue_netlist("superblue18", scale=0.0025, seed=1)
    floorplan = build_floorplan(netlist, 0.70)
    for config in (PlacerConfig(seed=1), PlacerConfig(seed=1, refinement_rounds=2)):
        assert_placements_identical(
            place_reference(netlist, floorplan, config=config),
            place(netlist, floorplan, config=config),
        )
    placement = place(netlist, floorplan, config=PlacerConfig(seed=1))
    assert_routings_identical(
        route_reference(netlist, placement),
        route(netlist, placement),
    )


def check_circuit_batched(netlist) -> None:
    """Seed-batched place/route vs references and vs the single-seed path."""
    from repro.layout.placer import place_batch
    from repro.layout.router import route_batch

    floorplan = build_floorplan(netlist, 0.70)
    seeds = [0, 3, 7, 1]
    for config in (PlacerConfig(), PlacerConfig(refinement_rounds=2)):
        placements = place_batch(netlist, seeds, floorplan, config=config)
        for seed, placement in zip(seeds, placements):
            import dataclasses

            per_seed = dataclasses.replace(config, seed=seed)
            assert_placements_identical(
                place_reference(netlist, floorplan, config=per_seed), placement
            )
            assert_placements_identical(
                place(netlist, floorplan, config=per_seed), placement
            )
    placements = place_batch(netlist, seeds, floorplan)
    for router_config, lifts in [
        (RouterConfig(), None),
        (RouterConfig(), _lift_map(netlist, 6)),
    ]:
        routings = route_batch(netlist, placements, router_config, lifts)
        for placement, routing in zip(placements, routings):
            assert_routings_identical(
                route_reference(netlist, placement, router_config, lifts),
                routing,
            )
            assert_routings_identical(
                route(netlist, placement, router_config, lifts), routing
            )


@pytest.mark.parametrize("circuit", FAST_CIRCUITS)
def test_batched_build_equivalence_fast(circuit):
    check_circuit_batched(iscas85_netlist(circuit, seed=1))


@pytest.mark.slow
@pytest.mark.parametrize("circuit", SLOW_CIRCUITS)
def test_batched_build_equivalence_all_iscas(circuit):
    check_circuit_batched(iscas85_netlist(circuit, seed=1))


@pytest.mark.slow
def test_batched_build_equivalence_superblue():
    from repro.circuits.superblue import superblue_netlist

    check_circuit_batched(superblue_netlist("superblue18", scale=0.0025, seed=1))


def test_batch_order_and_composition_invariance():
    """Batch membership never changes any seed's result (Hypothesis).

    A seed's placement and routing must be a pure function of
    ``(netlist, floorplan, seed)`` — the batch it rides in (order, size,
    which other seeds are present) must be invisible.
    """
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from repro.layout.placer import place_batch
    from repro.layout.router import route_batch

    netlist = iscas85_netlist("c432", seed=1)
    floorplan = build_floorplan(netlist, 0.70)
    solo: dict = {}

    def solo_build(seed: int):
        if seed not in solo:
            placement = place(netlist, floorplan, config=PlacerConfig(seed=seed))
            solo[seed] = (placement, route(netlist, placement))
        return solo[seed]

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=5, unique=True))
    def run(seeds):
        placements = place_batch(netlist, seeds, floorplan)
        routings = route_batch(netlist, placements)
        for seed, placement, routing in zip(seeds, placements, routings):
            expected_placement, expected_routing = solo_build(seed)
            assert_placements_identical(expected_placement, placement)
            assert_routings_identical(expected_routing, routing)

    run()


def test_batch_of_one_matches_single_path():
    """Batch size 1 falls back to exactly the single-seed vectorized result."""
    from repro.layout.placer import place_batch
    from repro.layout.router import route_batch

    netlist = iscas85_netlist("c880", seed=1)
    floorplan = build_floorplan(netlist, 0.70)
    [placement] = place_batch(netlist, [4], floorplan)
    single = place(netlist, floorplan, config=PlacerConfig(seed=4))
    assert_placements_identical(single, placement)
    [routing] = route_batch(netlist, [placement])
    assert_routings_identical(route(netlist, placement), routing)


def test_empty_batch():
    from repro.layout.placer import place_batch
    from repro.layout.router import route_batch

    netlist = iscas85_netlist("c432", seed=1)
    assert place_batch(netlist, []) == []
    assert route_batch(netlist, []) == []


def _routed_connections(requests, config, half_perimeter):
    """The connections of ``requests`` routed as one ``route_requests`` net,
    materialized from the columns."""
    routing = route_requests(requests, config, half_perimeter).lazy_nets()
    return [c for routed in routing.values() for c in routed.connections]


class TestConnectionBatch:
    """Batched ``route_requests`` columns vs per-connection route_connection."""

    def _random_requests(self, rng, count, span=100.0):
        requests = []
        for i in range(count):
            source = Point(rng.uniform(0, span), rng.uniform(0, span))
            kind = rng.randrange(4)
            if kind == 0:      # degenerate (same point)
                target = Point(source.x, source.y)
            elif kind == 1:    # straight horizontal
                target = Point(rng.uniform(0, span), source.y)
            elif kind == 2:    # straight vertical
                target = Point(source.x, rng.uniform(0, span))
            else:              # general staircase
                target = Point(rng.uniform(0, span), rng.uniform(0, span))
            pair = rng.choice(RouterConfig().layer_pairs)
            hints = (
                (Point(1.0, 2.0), None), (None, Point(3.0, 4.0)), (None, None)
            )[rng.randrange(3)]
            requests.append(
                (f"n{i}", (f"g{i}", "A"), source, target, pair, *hints)
            )
        return requests

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_per_connection(self, seed):
        rng = random.Random(seed)
        config = RouterConfig()
        half_perimeter = 200.0
        requests = self._random_requests(rng, 200)
        batched = _routed_connections(requests, config, half_perimeter)
        assert len(batched) == len(requests)
        for request, got in zip(requests, batched):
            expected = route_connection(
                request[0], request[1], request[2], request[3], request[4],
                config, half_perimeter,
                source_hint=request[5], target_hint=request[6],
            )
            assert got.segments == expected.segments
            assert got.vias == expected.vias
            assert got.source_hint == expected.source_hint
            assert got.target_hint == expected.target_hint
            assert got.h_layer == expected.h_layer
            assert got.v_layer == expected.v_layer

    def test_zero_half_perimeter(self):
        config = RouterConfig()
        requests = [
            ("n0", ("g0", "A"), Point(0.0, 0.0), Point(5.0, 7.0), (2, 3), None, None)
        ]
        batched = _routed_connections(requests, config, 0.0)
        expected = route_connection(
            "n0", ("g0", "A"), Point(0.0, 0.0), Point(5.0, 7.0), (2, 3), config, 0.0
        )
        assert batched[0].segments == expected.segments
        assert batched[0].vias == expected.vias

    def test_empty_batch(self):
        assert route_requests([], RouterConfig(), 100.0).lazy_nets() == {}


def test_selection_with_fewer_thresholds_than_pairs():
    """Ratios past every threshold fall through to the *last* pair.

    Regression: the batched selection used to saturate at the threshold
    count, picking a middle pair where the reference scan falls through to
    ``layer_pairs[-1]``.
    """
    netlist = iscas85_netlist("c432", seed=1)
    placement = place(netlist, config=PlacerConfig(seed=1))
    config = RouterConfig(length_thresholds=(0.05, 0.1))  # 5 pairs, 2 thresholds
    assert_routings_identical(
        route_reference(netlist, placement, config),
        route(netlist, placement, config),
    )


def test_selection_fallback_for_subclassed_config():
    """A subclassed router policy still routes identically (method fallback)."""

    class TightJogs(RouterConfig):
        def num_jogs(self, length, half_perimeter):
            return 2 + super().num_jogs(length, half_perimeter)

    netlist = iscas85_netlist("c432", seed=1)
    placement = place(netlist, config=PlacerConfig(seed=1))
    config = TightJogs()
    assert_routings_identical(
        route_reference(netlist, placement, config),
        route(netlist, placement, config),
    )
