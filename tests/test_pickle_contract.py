"""Pickle contract: everything the process-pool prewarm ships must pickle.

``Workspace.prewarm`` builds scheme artefacts in worker processes, so every
registered scheme/attack/metric entry — the builder function, its parameter
dataclass, a defaults-filled parameter instance — and the artefacts they
produce must round-trip through :mod:`pickle` (ROADMAP: keep cell functions
module-level or dataclass-based, no closures/lambdas).  This suite turns
that note into a regression gate: a registration that silently captures a
closure breaks here, not deep inside a broken pool run.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins

ensure_builtins()


def _entries(registry):
    return sorted(registry.entries(), key=lambda entry: entry.name)


def _registry_cases():
    for registry_name, registry in (
        ("attacks", ATTACKS), ("defenses", DEFENSES), ("metrics", METRICS),
    ):
        for entry in _entries(registry):
            yield pytest.param(registry, entry.name,
                               id=f"{registry_name}:{entry.name}")


@pytest.mark.parametrize("registry, name", _registry_cases())
def test_registered_entry_pickles(registry, name):
    entry = registry.get(name)
    # The builder function ships to workers by reference: it must be an
    # importable module-level callable, not a closure or lambda.
    fn = pickle.loads(pickle.dumps(entry.fn))
    assert fn is entry.fn
    # The parameter dataclass itself, and a defaults-filled instance.
    if entry.params_type is not None:
        params_cls = pickle.loads(pickle.dumps(entry.params_type))
        assert params_cls is entry.params_type
    instance = entry.make_params({})
    clone = pickle.loads(pickle.dumps(instance))
    assert clone == instance


@pytest.mark.parametrize("registry, name", _registry_cases())
def test_canonical_params_round_trip_through_make_params(registry, name):
    """Canonical payloads rebuild an equal instance (pool argument contract)."""
    entry = registry.get(name)
    canonical = entry.canonical_params({})
    assert entry.make_params(canonical) == entry.make_params({})


def test_scheme_build_artefact_pickles():
    """A whole SchemeBuild (what workers return) survives the pickle trip."""
    from repro.api.spec import ScenarioSpec
    from repro.api.workspace import Workspace

    build = Workspace().build(ScenarioSpec(benchmark="c17", scheme="original"))
    clone = pickle.loads(pickle.dumps(build))
    assert clone.scheme == build.scheme
    assert list(clone.layout.routing) == list(build.layout.routing)
    for net in build.layout.routing:
        assert clone.layout.routing[net].connections == \
            build.layout.routing[net].connections
    assert clone.layout.placement.gate_positions == \
        build.layout.placement.gate_positions


class TestBatchDeltaProtocol:
    """Seed-batched pool protocol: coordinate deltas over the wire.

    Batched sweep tasks ship the shared netlist/floorplan skeleton implicitly
    (the parent regenerates it) and move only per-seed coordinate deltas —
    three flat arrays per seed — across the process boundary.  This suite
    pins the two halves of that contract: the delta payload round-trips
    through pickle bit-exactly into the same builds, and it stays small
    (the whole point of the protocol).
    """

    BENCHMARK = "c880"
    SEEDS = [0, 3, 7]

    @pytest.fixture(scope="class")
    def netlist(self):
        from repro.circuits import iscas85_netlist

        return iscas85_netlist(self.BENCHMARK, seed=1)

    @pytest.fixture(scope="class")
    def params(self):
        from repro.api.schemes import OriginalParams

        return OriginalParams()

    def test_delta_round_trip_is_bit_exact(self, netlist, params):
        """pickle(deltas) -> builds == build_original per seed, bit for bit."""
        from repro.api.registry import DEFENSES
        from repro.api.schemes import (
            batch_placement_deltas,
            builds_from_placement_deltas,
        )

        deltas = batch_placement_deltas(netlist, params, self.SEEDS)
        wire = pickle.loads(pickle.dumps(deltas))
        assert wire["seeds"] == self.SEEDS
        builds = builds_from_placement_deltas(netlist, params, wire)
        build_one = DEFENSES.get("original").fn
        for seed, build in zip(self.SEEDS, builds):
            expected = build_one(netlist, params, seed)
            got_pos = build.layout.placement.gate_positions
            want_pos = expected.layout.placement.gate_positions
            assert list(got_pos) == list(want_pos)
            for name, point in want_pos.items():
                assert got_pos[name].x == point.x, (seed, name)
                assert got_pos[name].y == point.y, (seed, name)
            assert list(build.layout.routing) == list(expected.layout.routing)
            for net in expected.layout.routing:
                got, want = build.layout.routing[net], expected.layout.routing[net]
                assert got.driver_point == want.driver_point, (seed, net)
                assert got.driver_vias == want.driver_vias, (seed, net)
                for gc, wc in zip(got.connections, want.connections):
                    assert gc.segments == wc.segments, (seed, net)
                    assert gc.vias == wc.vias, (seed, net)

    def test_delta_payload_beats_full_builds_5x(self, netlist, params):
        """Per-seed delta bytes must stay >= 5x under full-build shipping.

        Regression gate for the acceptance criterion: if the delta dict
        quietly grows back into a full artefact (someone adds routing or the
        floorplan to it), this trips before the pool protocol regresses.
        """
        from repro.api.schemes import batch_placement_deltas, build_original_batch

        deltas = batch_placement_deltas(netlist, params, self.SEEDS)
        delta_bytes = len(pickle.dumps(deltas, protocol=pickle.HIGHEST_PROTOCOL))
        builds = build_original_batch(netlist, params, self.SEEDS)
        full_bytes = len(pickle.dumps(builds, protocol=pickle.HIGHEST_PROTOCOL))
        per_seed_delta = delta_bytes / len(self.SEEDS)
        per_seed_full = full_bytes / len(self.SEEDS)
        assert per_seed_delta * 5 <= per_seed_full, (
            f"delta payload {per_seed_delta:.0f} B/seed vs "
            f"full build {per_seed_full:.0f} B/seed"
        )

    def test_delta_arrays_are_flat_and_typed(self, netlist, params):
        """The wire format is exactly three flat arrays per seed."""
        import numpy as np

        from repro.api.schemes import batch_placement_deltas

        deltas = batch_placement_deltas(netlist, params, self.SEEDS)
        assert sorted(deltas) == ["orders", "seeds", "xs", "ys"]
        n_gates = len(netlist.gates)
        for order, x, y in zip(deltas["orders"], deltas["xs"], deltas["ys"]):
            assert order.dtype == np.int64 and order.ndim == 1
            assert x.dtype == np.float64 and y.dtype == np.float64
            assert len(order) == len(x) == len(y) == n_gates


def test_batched_router_objects_pickle():
    """Fast-path Segment/Via objects (built via __dict__) pickle like normal."""
    from repro.layout.geometry import Point
    from repro.layout.router import RouterConfig, route_requests

    (routed,) = route_requests(
        [("n0", ("g0", "A"), Point(0.0, 0.0), Point(30.0, 40.0), (4, 5),
          None, None)],
        RouterConfig(), 100.0,
    ).lazy_nets().values()
    (connection,) = routed.connections
    clone = pickle.loads(pickle.dumps(connection))
    assert clone.segments == connection.segments
    assert clone.vias == connection.vias
    assert clone.h_layer == 4 and clone.v_layer == 5
