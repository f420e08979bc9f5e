"""Columnar routing end-to-end: one column representation, objects on demand.

A routing is a :class:`~repro.layout.arrays.RoutingArrays`: the columns
every consumer reads, and the read-only mapping net name → ``RoutedNet``
whose lookups build fresh objects (``materialize_into``).  Placements are
coordinate columns behind read-only name → ``Point`` views.  These tests
pin the contract:

* every array-native consumer (net lengths, top layers, the layout's
  columnar view, the codec, FEOL extraction, the attacks, the metrics, the
  routing-perturbation defense) is bit-exact with the per-object walk and
  builds no ``RoutedNet`` and no placement ``Point``;
* consumers may run in any order, on any batch size, with identical
  results (Hypothesis property);
* objects built on lookup equal the seed router's eager objects, survive
  pickling, and editing them changes nothing.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from build_oracle import (
    protected_routing_reference,
    route_reference,
    routing_from_nets,
    routing_perturbation_reference,
)
from repro.circuits import iscas85_netlist
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.layout.arrays import RoutingArrays
from repro.layout.floorplan import build_floorplan
from repro.layout.layout import Layout, build_layout, build_layout_batch
from repro.layout.placer import PlacementResult, PlacerConfig, PositionView, place
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


@pytest.fixture()
def objects_built(monkeypatch):
    """Counts of ``RoutedNet``s materialized and placement ``Point``s built
    through the position views while the test runs."""
    counts = {"nets": 0, "points": 0}
    materialize = RoutingArrays.materialize_into
    lookup = PositionView.__getitem__

    def counting_materialize(self, net, index):
        counts["nets"] += 1
        materialize(self, net, index)

    def counting_lookup(self, name):
        counts["points"] += 1
        return lookup(self, name)

    monkeypatch.setattr(RoutingArrays, "materialize_into", counting_materialize)
    monkeypatch.setattr(PositionView, "__getitem__", counting_lookup)
    return counts


def _reference_routing(netlist, placement):
    return route_reference(netlist, placement, RouterConfig())


# -- array-native consumers never build objects ------------------------------


def test_route_returns_clean_backing(netlist, placement, objects_built):
    routing = route(netlist, placement, RouterConfig())
    assert isinstance(routing, RoutingArrays)
    assert routing.num_nets == len(routing) == len(list(routing))
    assert routing.num_connections == int(routing.conn_starts[-1])
    assert objects_built == {"nets": 0, "points": 0}


def test_metric_consumers_never_materialize(netlist, objects_built):
    layout = build_layout(netlist, seed=3)
    layout.net_lengths_um()
    layout.net_top_layers()
    layout.total_wirelength_um()
    layout.wirelength_by_layer()
    layout.via_counts()
    layout.arrays()
    layout.connected_gate_distances()
    assert objects_built == {"nets": 0, "points": 0}


def test_codec_encode_never_materializes(netlist, objects_built):
    from repro.api.schemes import SchemeBuild

    layout = build_layout(netlist, seed=3)
    build = SchemeBuild(scheme="original", layout=layout, baseline=layout)
    codec.encode_build(build, netlist)
    assert objects_built == {"nets": 0, "points": 0}


def test_defense_never_materializes(netlist, objects_built):
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    routing_perturbation_defense(netlist, seed=5)
    assert objects_built["nets"] == 0


def test_lookup_materializes_fresh_objects(netlist, placement, objects_built):
    """A lookup builds a new object graph from the columns each time;
    editing it reaches neither the columns nor later lookups."""
    routing = route(netlist, placement, RouterConfig())
    name = next(iter(routing))
    first = routing[name]
    assert objects_built["nets"] == 1
    second = routing[name]
    assert objects_built["nets"] == 2
    assert first == second and first is not second
    assert first.connections[0].source is not second.connections[0].source
    lengths = routing.net_lengths().tolist()
    first.connections[0].segments.clear()
    first.connections[0].source_hint = None
    assert routing[name] == second
    assert routing.net_lengths().tolist() == lengths
    assert name in routing and "no such net" not in routing
    with pytest.raises(KeyError):
        routing["no such net"]


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
    """Looked-up nets and whole routings survive pickling equal to the
    oracle's eager nets."""
    routing = route(netlist, placement, RouterConfig())
    reference = _reference_routing(netlist, placement)
    for name in list(reference)[:5]:
        assert pickle.loads(pickle.dumps(routing[name])) == reference[name]
    clone = pickle.loads(pickle.dumps(routing))
    assert isinstance(clone, RoutingArrays)
    assert clone == reference


def test_fast_metrics_match_object_walk(netlist):
    layout = build_layout(netlist, seed=3)
    lengths = layout.net_lengths_um()
    tops = layout.net_top_layers()
    # The per-object properties of the materialized nets are the ground truth.
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
    """Any consumer order, any batch size, objects looked up or not:
    batched columns == a single-seed layout rebuilt from its objects."""
    netlist = iscas85_netlist("c17", seed=1)
    seeds = list(range(batch_size))
    layouts = build_layout_batch(netlist, seeds)
    for layout in layouts:
        if data.draw(st.booleans()):
            for routed in layout.routing.values():
                routed.connections.clear()  # edits a copy: changes nothing
    for layout, seed in zip(layouts, seeds):
        built = build_layout(netlist, seed=seed)
        expected = Layout(built.name, netlist, built.placement,
                          routing_from_nets(built.routing, netlist))
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
    """A layout built from the router's columns and one rebuilt from its
    objects (``PlacementResult.from_positions``, whose name table is not
    the netlist's, and ``routing_from_nets``) encode to identical
    payloads."""
    columnar = build_layout(netlist, seed=3)
    placement = columnar.placement
    objects = Layout(columnar.name, netlist,
                     PlacementResult.from_positions(
                         placement.floorplan, dict(placement.gate_positions),
                         dict(placement.port_positions), placement.config),
                     routing_from_nets(columnar.routing, netlist),
                     metadata=dict(columnar.metadata))
    assert objects.placement.gate_names != placement.gate_names
    _assert_payloads_identical(
        codec.encode_build(_build_of(columnar), netlist),
        codec.encode_build(_build_of(objects), netlist),
    )


def test_decode_yields_clean_lazy_backing(netlist, objects_built):
    layout = build_layout(netlist, seed=3)
    record, arrays = codec.encode_build(_build_of(layout), netlist)
    decoded = codec.decode_build(record, arrays, netlist)
    assert isinstance(decoded.layout.routing, RoutingArrays)
    # Warm-decode consumers stay columnar...
    assert decoded.layout.net_lengths_um() == layout.net_lengths_um()
    re_record, re_arrays = codec.encode_build(_build_of(decoded.layout), netlist)
    assert objects_built == {"nets": 0, "points": 0}
    _assert_payloads_identical((record, arrays), (re_record, re_arrays))
    # ...and the decoded objects still equal the in-memory ones on demand.
    assert decoded.layout.placement == layout.placement
    for name in list(layout.routing)[:5]:
        ours, theirs = layout.routing[name], decoded.layout.routing[name]
        assert ours.driver_vias == theirs.driver_vias
        assert ours.connections == theirs.connections


# -- defense: columnar hint overrides == object-walk oracle ------------------


def test_defense_backing_path_matches_object_path(netlist):
    from repro.defenses.routing_perturbation import routing_perturbation_defense

    fast = routing_perturbation_defense(netlist, seed=7)
    slow = routing_perturbation_reference(netlist, seed=7)
    assert fast.metadata == slow.metadata
    assert list(fast.routing) == list(slow.routing)
    for name in fast.routing:
        fast_net, slow_net = fast.routing[name], slow.routing[name]
        assert len(fast_net.connections) == len(slow_net.connections), name
        for a, b in zip(fast_net.connections, slow_net.connections):
            assert a.source_hint == b.source_hint, name
            assert a.target_hint == b.target_hint, name
            assert a.segments == b.segments, name


# -- routing_from_nets: the oracles' object → columns builder ----------------


def test_from_nets_round_trip_equals_eager_objects(netlist, placement):
    eager = _reference_routing(netlist, placement)
    rebuilt = routing_from_nets(eager, netlist)
    assert list(rebuilt) == list(eager)
    for name in eager:
        assert rebuilt[name] == eager[name], name


def test_from_nets_reads_edited_objects(netlist, placement):
    from repro.layout.geometry import Point

    routing = dict(route(netlist, placement, RouterConfig()).items())
    names = list(routing)
    # Edit a few nets through their objects: hints re-aimed, one dropped, a
    # flag and a name changed.
    edited = names[3:5] + names[-1:]
    for name in edited:
        for connection in routing[name].connections:
            connection.source_hint = Point(1.5, 2.5)
            connection.target_hint = None
            connection.protected = True
    routing[names[3]].connections[0].net = names[0]
    routing[names[4]].driver_point = None
    columns = routing_from_nets(routing, netlist)
    owners = np.repeat(columns.net_index, np.diff(columns.conn_starts))
    assert not np.array_equal(columns.conn_net, owners)
    assert list(columns) == names
    for name in names:
        assert columns[name] == routing[name], name


def test_from_nets_reproduces_the_router_columns(netlist, placement):
    routing = route(netlist, placement, RouterConfig())
    columns = routing_from_nets(dict(routing.items()), netlist)
    for name in ("net_index", "conn_starts", "dvia_starts", "seg_starts",
                 "via_starts", "conn_net", "sink_gate", "sink_token", "sx",
                 "ty", "h_layer", "v_layer", "seg_x1", "via_lower",
                 "dvia_upper", "protected", "hint_sx", "hint_ty",
                 "hint_src_present"):
        ours, theirs = getattr(columns, name), getattr(routing, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert columns.sink_tokens == routing.sink_tokens
    # Router default hints are the partner endpoints.
    assert np.array_equal(columns.hint_sx, routing.tx)
    assert np.array_equal(columns.hint_ty, routing.sy)


def test_from_nets_of_empty_routing(netlist):
    columns = routing_from_nets({}, netlist)
    assert columns.num_nets == 0 and columns.num_connections == 0
    assert columns.conn_starts.tolist() == [0]
    assert dict(columns) == {}


# -- producers: the paper's own layouts are column-backed --------------------


def _protect(netlist, **overrides):
    from repro.core import ProtectionConfig, protect

    config = dict(lift_layer=6, swap_fraction_steps=(0.08,),
                  oer_patterns=256, seed=1)
    config.update(overrides)
    return protect(netlist, ProtectionConfig(**config))


def assert_protected_routing_matches_oracle(randomization, layout, lift_layer):
    """The protected layout's routing equals the per-connection restore
    oracle: hint and protected columns, every net, and the routing after a
    pickle round trip."""
    oracle = protected_routing_reference(
        randomization, layout.placement, lift_layer
    )
    routing = layout.routing
    expected = routing_from_nets(oracle, randomization.original)
    for name in ("protected", "hint_sx", "hint_sy", "hint_tx", "hint_ty",
                 "hint_src_present", "hint_tgt_present"):
        ours, theirs = getattr(routing, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert routing.protected.sum() == len(randomization.swaps)
    assert list(routing) == list(oracle)
    for name, net in oracle.items():
        assert routing[name] == net, name
    assert pickle.loads(pickle.dumps(routing)) == oracle


def test_protected_layout_shells_pickle_like_eager_nets(netlist):
    """The protected layout of a ``protect`` run: its lazy shells
    materialize, and survive a pickle round trip, equal to the eager nets of
    the per-connection restore oracle."""
    protection = _protect(netlist, build_naive_baseline=False)
    assert_protected_routing_matches_oracle(
        protection.randomization, protection.protected_layout, lift_layer=6
    )


PROTECTED_FAST = ("c17", "c432", "c880")


@pytest.mark.parametrize("name, scale, lift_layer", [
    *[pytest.param(circuit, None, 6, id=circuit) for circuit in PROTECTED_FAST],
    *[pytest.param(circuit, None, 6, id=circuit, marks=pytest.mark.slow)
      for circuit in ISCAS85_PROFILES if circuit not in PROTECTED_FAST],
    pytest.param("superblue18", 0.002, 8, id="superblue18@0.002",
                 marks=pytest.mark.slow),
])
def test_protected_routing_matches_oracle(name, scale, lift_layer):
    """``build_protected_layout`` (one ``route()`` call plus hint overrides)
    vs the per-connection restore oracle, ISCAS-85 at lift 6 and a
    superblue slice at lift 8."""
    from repro.circuits import get_benchmark
    from repro.core.randomizer import RandomizerConfig, randomize_netlist
    from repro.core.restore import build_protected_layout

    design = get_benchmark(name, seed=1, scale=scale)
    randomization = randomize_netlist(design, RandomizerConfig(
        min_swaps=max(2, len(design.gates) // 10), oer_patterns=256, seed=1,
    ))
    layout = build_protected_layout(randomization, lift_layer, seed=1)
    assert_protected_routing_matches_oracle(randomization, layout, lift_layer)


def test_attack_and_metric_pipeline_never_materializes(netlist, objects_built):
    """extract → proximity / network-flow / crouting → metrics on routed,
    decoded, protected and lifted layouts builds no routed net."""
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
        assert objects_built["nets"] == 0, kind


# -- the seed-sweep path builds no objects -----------------------------------


@pytest.fixture(scope="module")
def superblue_sweep():
    from repro.api import ScenarioSpec

    return ScenarioSpec.from_dict({
        "benchmark": "superblue18", "scale": 0.002, "scheme": "original",
        "netlist_seed": 1, "seeds": {"start": 0, "count": 2},
        "attacks": ["proximity"], "split_layers": [6],
        "metrics": ["security", "distances", "wirelength_layers", "via_counts"],
    })


def test_sweep_build_and_save_build_no_objects(superblue_sweep, tmp_path,
                                               objects_built):
    """``build_original_batch`` → metrics → store save (a cold sweep)."""
    from repro.api import Workspace

    workspace = Workspace(store=tmp_path / "store")
    sweep = workspace.run_sweeps([superblue_sweep], jobs=1)[0]
    assert not sweep.failures
    assert workspace.stats()["builds_run"] == 2
    assert len(workspace.store.verify()) == 2
    assert objects_built == {"nets": 0, "points": 0}


def test_sweep_decode_metrics_and_reencode_build_no_objects(
        superblue_sweep, tmp_path, objects_built):
    """Store decode → security/distances/wirelength_layers/via_counts →
    re-encode (a warm sweep), byte-identical to the cold builds."""
    from repro.api import Workspace
    from repro.store import ArtifactStore

    store_dir = tmp_path / "store"
    cold_workspace = Workspace(store=store_dir)
    cold = cold_workspace.run_sweeps([superblue_sweep], jobs=1)[0]
    cold_builds = [cold_workspace.build(spec)
                   for spec in superblue_sweep.expand_seeds()]
    objects_built.update(nets=0, points=0)
    workspace = Workspace(store=store_dir)
    warm = workspace.run_sweeps([superblue_sweep], jobs=1)[0]
    assert workspace.stats()["store_hits"] == 2
    assert workspace.stats()["builds_run"] == 0
    assert warm.layout_metrics == cold.layout_metrics
    assert [r.to_dict() for r in warm.attack_records] == \
        [r.to_dict() for r in cold.attack_records]
    store = ArtifactStore(store_dir)
    for spec, cold_build in zip(superblue_sweep.expand_seeds(), cold_builds):
        decoded = store.load(spec.build_key())
        netlist = decoded.layout.netlist
        _assert_payloads_identical(
            codec.encode_build(decoded, netlist),
            codec.encode_build(cold_build, netlist),
        )
    assert objects_built == {"nets": 0, "points": 0}
