"""Columnar routing end-to-end: lazy materialization and array-native consumers.

The router returns :class:`~repro.layout.arrays.RoutingArrays`-backed
``RoutedNet`` shells; per-object graphs are materialized only on first
attribute access.  These tests pin the contract:

* every array-native consumer (net lengths, top layers, the layout's
  columnar view, the codec encode path, the routing-perturbation defense)
  is bit-exact with the per-object walk **and never materializes** — the
  backing's ``materialized_count`` stays zero;
* consumers may run in any order, on any batch size, with identical
  results (Hypothesis property);
* laziness is observation-invisible: attribute access, pickling and the
  codec round-trip behave exactly like eager objects.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from build_oracle import (
    _via_stack,
    route_connection,
    route_reference,
    routing_perturbation_reference,
)
from repro.circuits import iscas85_netlist
from repro.layout.arrays import routing_backing
from repro.layout.floorplan import build_floorplan
from repro.layout.layout import build_layout, build_layout_batch
from repro.layout.placer import PlacerConfig, place
from repro.layout.router import RouterConfig, route
from repro.store import codec

CIRCUIT = "c432"


@pytest.fixture(scope="module")
def netlist():
    return iscas85_netlist(CIRCUIT, seed=1)


@pytest.fixture(scope="module")
def placement(netlist):
    floorplan = build_floorplan(netlist, 0.70)
    return place(netlist, floorplan, 0.70, PlacerConfig(seed=3))


def _reference_routing(netlist, placement):
    return route_reference(netlist, placement, RouterConfig())


# -- laziness: array-native consumers never build objects -------------------


def test_route_returns_clean_backing(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    backing = routing_backing(routing)
    assert backing is not None
    assert backing.materialized_count == 0
    assert backing.num_nets == len(routing)


def test_metric_consumers_never_materialize(netlist):
    layout = build_layout(netlist, seed=3)
    backing = routing_backing(layout.routing)
    assert backing is not None
    layout.net_lengths_um()
    layout.net_top_layers()
    layout.total_wirelength_um()
    layout.wirelength_by_layer()
    layout.via_counts()
    layout.arrays()
    assert backing.materialized_count == 0


def test_codec_encode_never_materializes(netlist):
    from repro.api.schemes import SchemeBuild

    layout = build_layout(netlist, seed=3)
    backing = routing_backing(layout.routing)
    build = SchemeBuild(scheme="original", layout=layout, baseline=layout)
    codec.encode_build(build, netlist)
    assert backing.materialized_count == 0


def test_defense_never_materializes(netlist):
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    layout = routing_perturbation_defense(netlist, seed=5)
    backing = routing_backing(layout.routing)
    assert backing is not None
    assert backing.materialized_count == 0


def test_attribute_access_materializes_and_dirties_backing(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    backing = routing_backing(routing)
    name = next(iter(routing))
    _ = routing[name].connections
    assert backing.materialized_count == 1
    # A dirtied backing is rejected (fast paths must not trust columns whose
    # object twins may have been edited).
    assert routing_backing(routing) is None


# -- bit-exactness vs the router oracle --------------------------------------


def test_lazy_equals_reference_objects(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    reference = _reference_routing(netlist, placement)
    assert list(routing) == list(reference)
    for name in reference:
        lazy, ref = routing[name], reference[name]
        assert lazy.driver_point == ref.driver_point
        assert lazy.driver_vias == ref.driver_vias
        assert len(lazy.connections) == len(ref.connections)
        for a, b in zip(lazy.connections, ref.connections):
            assert a.segments == b.segments and a.vias == b.vias
            assert a.source_hint == b.source_hint
            assert a.target_hint == b.target_hint


def test_lazy_shell_pickles_like_eager_net(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    reference = _reference_routing(netlist, placement)
    for name in list(reference)[:5]:
        assert pickle.dumps(routing[name]) == pickle.dumps(reference[name])


def test_fast_metrics_match_object_walk(netlist):
    layout = build_layout(netlist, seed=3)
    lengths = layout.net_lengths_um()
    tops = layout.net_top_layers()
    # The per-object fallback on fully materialized nets is the ground truth.
    assert lengths == {
        name: routed.length for name, routed in layout.routing.items()
    }
    assert tops == {
        name: routed.top_layer for name, routed in layout.routing.items()
    }


# -- consumer-order / batch-size equivalence property -----------------------

_CONSUMERS = {
    "net_lengths": lambda layout: layout.net_lengths_um(),
    "net_top_layers": lambda layout: layout.net_top_layers(),
    "total_wirelength": lambda layout: layout.total_wirelength_um(),
    "via_counts": lambda layout: layout.via_counts(),
    "wirelength_by_layer": lambda layout: layout.wirelength_by_layer(),
}


@settings(max_examples=15, deadline=None)
@given(
    order=st.permutations(sorted(_CONSUMERS)),
    batch_size=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_columnar_consumers_equal_materialized_any_order(order, batch_size, data):
    """Any consumer order, any batch size: columnar == fully materialized."""
    netlist = iscas85_netlist("c17", seed=1)
    seeds = list(range(batch_size))
    layouts = build_layout_batch(netlist, seeds)
    # Interleave: optionally materialize some layouts *before* consuming,
    # forcing those onto the per-object fallback paths mid-sequence.
    for layout in layouts:
        eager = data.draw(st.booleans())
        if eager:
            for routed in layout.routing.values():
                _ = routed.connections  # dirties the backing
    for layout, seed in zip(layouts, seeds):
        expected = build_layout(netlist, seed=seed)
        for routed in expected.routing.values():
            _ = routed.connections
        for name in order:
            assert _CONSUMERS[name](layout) == _CONSUMERS[name](expected), name


# -- codec: byte identity and lazy decode -----------------------------------


def _build_of(layout):
    from repro.api.schemes import SchemeBuild

    return SchemeBuild(scheme="original", layout=layout, baseline=layout)


def _assert_payloads_identical(a, b):
    record_a, arrays_a = a
    record_b, arrays_b = b
    assert record_a == record_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].dtype == arrays_b[key].dtype, key
        assert np.array_equal(
            arrays_a[key], arrays_b[key]
        ), key


def test_encode_fast_path_byte_identical_to_object_walk(netlist):
    lazy = build_layout(netlist, seed=3)
    eager = build_layout(netlist, seed=3)
    for routed in eager.routing.values():
        _ = routed.connections  # force the legacy object-walk encoder
    assert routing_backing(eager.routing) is None
    _assert_payloads_identical(
        codec.encode_build(_build_of(lazy), netlist),
        codec.encode_build(_build_of(eager), netlist),
    )


def test_decode_yields_clean_lazy_backing(netlist):
    layout = build_layout(netlist, seed=3)
    record, arrays = codec.encode_build(_build_of(layout), netlist)
    decoded = codec.decode_build(record, arrays, netlist)
    backing = routing_backing(decoded.layout.routing)
    assert backing is not None and backing.materialized_count == 0
    # Warm-decode consumers stay columnar...
    assert decoded.layout.net_lengths_um() == layout.net_lengths_um()
    re_record, re_arrays = codec.encode_build(_build_of(decoded.layout), netlist)
    assert backing.materialized_count == 0
    _assert_payloads_identical((record, arrays), (re_record, re_arrays))
    # ...and the decoded objects still equal the in-memory ones on demand.
    for name in list(layout.routing)[:5]:
        ours, theirs = layout.routing[name], decoded.layout.routing[name]
        assert ours.driver_vias == theirs.driver_vias
        assert ours.connections == theirs.connections


# -- defense: columnar hint overrides == object-walk oracle ------------------


def test_defense_backing_path_matches_object_path(netlist):
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    fast = routing_perturbation_defense(netlist, seed=7)
    assert routing_backing(fast.routing).materialized_count == 0
    slow = routing_perturbation_reference(netlist, seed=7)
    assert fast.metadata == slow.metadata
    assert list(fast.routing) == list(slow.routing)
    for name in fast.routing:
        assert len(fast.routing[name].connections) == len(
            slow.routing[name].connections
        ), name
        for a, b in zip(fast.routing[name].connections,
                        slow.routing[name].connections):
            assert a.source_hint == b.source_hint, name
            assert a.target_hint == b.target_hint, name
            assert a.segments == b.segments, name


# -- from_nets: the one object → columns builder -----------------------------


def test_from_nets_round_trip_equals_eager_objects(netlist, placement):
    from repro.layout.arrays import RoutingArrays

    eager = _reference_routing(netlist, placement)
    rebuilt = RoutingArrays.from_nets(eager).lazy_nets()
    assert list(rebuilt) == list(eager)
    for name in eager:
        assert rebuilt[name] == eager[name], name


def test_from_nets_reads_edited_objects(netlist, placement):
    from repro.layout.arrays import RoutingArrays
    from repro.layout.geometry import Point

    routing = route(netlist, placement, RouterConfig())
    names = list(routing)
    # Edit a few nets through their objects, the way the synergistic
    # defense does: hints re-aimed, one dropped, a flag and a name changed.
    edited = names[3:5] + names[-1:]
    for name in edited:
        for connection in routing[name].connections:
            connection.source_hint = Point(1.5, 2.5)
            connection.target_hint = None
            connection.protected = True
    routing[names[3]].connections[0].net = names[0]
    routing[names[4]].driver_point = None
    columns = RoutingArrays.from_nets(routing)
    assert columns.conn_net_names is not None
    rebuilt = columns.lazy_nets()
    assert list(rebuilt) == names
    for name in names:
        assert rebuilt[name] == routing[name], name


def test_from_nets_reproduces_the_router_columns(netlist, placement):
    from repro.layout.arrays import RoutingArrays

    routing = route(netlist, placement, RouterConfig())
    backing = routing_backing(routing)
    columns = RoutingArrays.from_nets(routing)
    for name in ("conn_starts", "dvia_starts", "seg_starts", "via_starts",
                 "sx", "ty", "h_layer", "v_layer", "seg_x1", "via_lower",
                 "dvia_upper", "protected"):
        ours, theirs = getattr(columns, name), getattr(backing, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    # Router default hints become explicit hint columns.
    assert np.array_equal(columns.hint_sx, backing.tx)
    assert np.array_equal(columns.hint_ty, backing.sy)
    assert not columns.hint_default.any()


def test_from_nets_of_empty_routing():
    from repro.layout.arrays import RoutingArrays

    columns = RoutingArrays.from_nets({})
    assert columns.num_nets == 0 and columns.num_connections == 0
    assert columns.conn_starts.tolist() == [0]
    assert columns.lazy_nets() == {}


# -- producers: the paper's own layouts are column-backed --------------------


def _protect(netlist, **overrides):
    from repro.core import ProtectionConfig, protect

    config = dict(lift_layer=6, swap_fraction_steps=(0.08,),
                  oer_patterns=256, seed=1)
    config.update(overrides)
    return protect(netlist, ProtectionConfig(**config))


def test_protected_layout_shells_pickle_like_eager_nets(netlist, monkeypatch):
    """The protected layout used to be assembled from eager RoutedNets built
    by the per-connection router; its lazy shells must pickle to the very
    same bytes, shared objects (placement points, hint points) included."""
    from repro.core import restore
    from repro.layout.router import RoutedNet

    calls = []
    real = restore.route_requests

    def spy(requests, config, half_perimeter, net_starts, protected):
        calls.append((list(requests), config, half_perimeter,
                      list(net_starts), list(protected)))
        return real(requests, config, half_perimeter,
                    net_starts=net_starts, protected=protected)

    monkeypatch.setattr(restore, "route_requests", spy)
    layout = _protect(netlist, build_naive_baseline=False).protected_layout
    assert routing_backing(layout.routing) is not None
    (requests, config, half_perimeter, starts, protected), = calls
    assert any(protected)

    eager = {}
    bounds = starts + [len(requests)]
    for lo, hi in zip(bounds, bounds[1:]):
        connections = []
        for request, is_protected in zip(requests[lo:hi], protected[lo:hi]):
            connection = route_connection(
                *request[:5], config, half_perimeter, request[5], request[6])
            if is_protected:
                connection.protected = True
            connections.append(connection)
        name, _sink, source = requests[lo][:3]
        net = RoutedNet(name=name, driver_point=source, connections=connections)
        top = max([config.pin_layer] + [c.h_layer for c in connections])
        net.driver_vias = _via_stack(source.x, source.y, config.pin_layer, top)
        eager[name] = net

    assert list(layout.routing) == list(eager)
    for name in list(eager)[:10]:
        assert pickle.dumps(layout.routing[name]) == pickle.dumps(eager[name])
    assert pickle.dumps(layout.routing) == pickle.dumps(eager)


def test_attack_and_metric_pipeline_never_materializes(netlist):
    """extract → proximity / network-flow / crouting → metrics on routed,
    decoded, protected and lifted layouts leaves every backing clean."""
    from repro.attacks.crouting import crouting_attack
    from repro.attacks.network_flow import network_flow_attack
    from repro.attacks.proximity import proximity_attack
    from repro.metrics.distances import distance_stats
    from repro.metrics.ppa import ppa_report
    from repro.metrics.security import evaluate_attack
    from repro.metrics.vias import via_counts_by_name
    from repro.metrics.wirelength import wirelength_by_layer
    from repro.sm.split import extract_feol

    routed = build_layout(netlist, seed=3)
    record, arrays = codec.encode_build(_build_of(routed), netlist)
    decoded = codec.decode_build(record, arrays, netlist).layout
    protection = _protect(netlist)
    layouts = {
        "routed": routed,
        "decoded": decoded,
        "protected": protection.protected_layout,
        "lifted": protection.naive_lifted_layout,
    }
    for kind, layout in layouts.items():
        backing = routing_backing(layout.routing)
        assert backing is not None, kind
        for split in (3, 6):
            view = extract_feol(layout, split)
            proximity = proximity_attack(view)
            flow = network_flow_attack(view)
            crouting_attack(view)
            evaluate_attack(view, proximity.assignment, None)
            evaluate_attack(view, flow.assignment, flow.recovered_netlist,
                            num_patterns=64)
        distance_stats(layout)
        wirelength_by_layer(layout)
        via_counts_by_name(layout)
        ppa_report(layout)
        assert backing.materialized_count == 0, kind
