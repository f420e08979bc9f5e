"""Tests for the global router."""

import pytest

from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route, route_requests
from repro.netlist.cells import NUM_METAL_LAYERS


@pytest.fixture(scope="module")
def routed_c432(c432_module=None):
    # Local build to keep module scope independent of conftest session fixtures.
    from repro.circuits import iscas85_netlist

    netlist = iscas85_netlist("c432", seed=1)
    placement = place(netlist, config=PlacerConfig(seed=1))
    return netlist, placement, route(netlist, placement)


class TestRouterConfig:
    def test_pair_for_length_monotonic(self):
        config = RouterConfig()
        hp = 100.0
        pairs = [config.pair_for_length(length, hp) for length in (1, 20, 45, 70, 95)]
        layers = [p[0] for p in pairs]
        assert layers == sorted(layers)
        assert pairs[0] == (2, 3)

    def test_pair_for_lifted_is_floor(self):
        config = RouterConfig()
        assert config.pair_for_lifted(1.0, 100.0, 6)[0] >= 6
        # A long net that would naturally sit higher keeps its natural pair.
        natural = config.pair_for_length(90.0, 100.0)
        lifted = config.pair_for_lifted(90.0, 100.0, 6)
        assert lifted[0] >= natural[0]

    def test_lifted_escalation(self):
        config = RouterConfig()
        short = config.pair_for_lifted(5.0, 100.0, 8)
        long = config.pair_for_lifted(60.0, 100.0, 8)
        assert long[0] >= short[0]
        assert long[1] <= NUM_METAL_LAYERS

    def test_num_jogs_grows_with_length(self):
        config = RouterConfig()
        assert config.num_jogs(5.0, 100.0) <= config.num_jogs(80.0, 100.0)
        assert config.num_jogs(5.0, 100.0) >= 1


def route_one(net, sink, source, target, pair, config, half_perimeter):
    """One 2-pin connection routed by ``route_requests`` and materialized."""
    (routed,) = route_requests(
        [(net, sink, source, target, pair, None, None)], config, half_perimeter
    ).lazy_nets().values()
    (connection,) = routed.connections
    return connection


class TestRouteConnection:
    def test_l_shape_route(self):
        config = RouterConfig()
        connection = route_one(
            "n", ("g", "A"), Point(0, 0), Point(10, 4), (2, 3), config, 100.0
        )
        assert connection.length == pytest.approx(14.0)
        layers = {segment.layer for segment in connection.segments}
        assert layers <= {2, 3}
        # Sink via stack from M1 to M2 plus at least one bend via.
        assert any(v.lower == 1 and v.upper == 2 for v in connection.vias)
        assert any(v.lower == 2 and v.upper == 3 for v in connection.vias)

    def test_straight_route_has_no_bend(self):
        config = RouterConfig()
        connection = route_one(
            "n", ("g", "A"), Point(0, 0), Point(10, 0), (2, 3), config, 100.0
        )
        bend_vias = [v for v in connection.vias if v.lower == 2]
        assert not bend_vias
        assert connection.length == pytest.approx(10.0)

    def test_coincident_pins(self):
        config = RouterConfig()
        connection = route_one(
            "n", ("g", "A"), Point(5, 5), Point(5, 5), (2, 3), config, 100.0
        )
        assert connection.length == 0.0

    def test_default_hints_point_at_partner(self):
        config = RouterConfig()
        connection = route_one(
            "n", ("g", "A"), Point(0, 0), Point(10, 4), (2, 3), config, 100.0
        )
        assert connection.source_hint == Point(10, 4)
        assert connection.target_hint == Point(0, 0)

    def test_top_layer(self):
        config = RouterConfig()
        connection = route_one(
            "n", ("g", "A"), Point(0, 0), Point(30, 30), (6, 7), config, 100.0
        )
        assert connection.top_layer == 7


class TestRouteNetlist:
    def test_every_driven_net_routed(self, routed_c432):
        netlist, _placement, routing = routed_c432
        for net_name, net in netlist.nets.items():
            if net.has_driver() and net.fanout > 0:
                assert net_name in routing

    def test_connection_count_matches_netlist(self, routed_c432):
        netlist, _placement, routing = routed_c432
        total = sum(len(r.connections) for r in routing.values())
        expected = sum(
            len(net.sinks) + len(net.primary_outputs)
            for net in netlist.nets.values() if net.has_driver()
        )
        assert total == expected

    def test_driver_stack_reaches_highest_connection_layer(self, routed_c432):
        _netlist, _placement, routing = routed_c432
        for routed in routing.values():
            if not routed.connections or not routed.driver_vias:
                continue
            top_h = max(c.h_layer for c in routed.connections)
            assert max(v.upper for v in routed.driver_vias) == top_h

    def test_min_layer_override(self, routed_c432):
        netlist, placement, _routing = routed_c432
        target_net = next(
            name for name, net in netlist.nets.items() if net.has_driver() and net.sinks
        )
        routing = route(netlist, placement, RouterConfig(), {target_net: 6})
        assert all(c.h_layer >= 6 for c in routing[target_net].connections)

    def test_wirelength_by_layer_sums_to_total(self, routed_c432):
        _netlist, _placement, routing = routed_c432
        for routed in routing.values():
            assert sum(routed.wirelength_by_layer().values()) == pytest.approx(routed.length)

    def test_via_counts_consistent(self, routed_c432):
        _netlist, _placement, routing = routed_c432
        for routed in routing.values():
            assert sum(routed.via_counts().values()) == len(list(routed.all_vias()))

    def test_vias_span_adjacent_layers_only(self, routed_c432):
        _netlist, _placement, routing = routed_c432
        for routed in routing.values():
            for via in routed.all_vias():
                assert via.upper == via.lower + 1
