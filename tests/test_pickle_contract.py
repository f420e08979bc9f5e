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


def test_scheme_build_pickle_ships_columns():
    """A pickled build carries its layout as columns: the placement and
    routing column objects, and not one routed-net, segment, via or
    ``Point`` object."""
    import pickletools

    from repro.api.spec import ScenarioSpec
    from repro.api.workspace import Workspace

    build = Workspace().build(ScenarioSpec(benchmark="c432", scheme="original"))
    data = pickle.dumps(build, protocol=pickle.HIGHEST_PROTOCOL)
    strings = {arg for _op, arg, _pos in pickletools.genops(data)
               if isinstance(arg, str)}
    assert {"PlacementResult", "RoutingArrays"} <= strings
    for name in ("RoutedNet", "RoutedConnection", "Segment", "Via", "Point"):
        assert name not in strings, name


def test_batched_router_objects_pickle():
    """Fast-path Segment/Via objects (built via __dict__) pickle like normal."""
    from build_oracle import kernel_connections
    from repro.layout.geometry import Point
    from repro.layout.router import RouterConfig

    (connection,) = kernel_connections(
        [(Point(0.0, 0.0), Point(30.0, 40.0))], [(4, 5)], RouterConfig(), 100.0
    )
    clone = pickle.loads(pickle.dumps(connection))
    assert clone.segments == connection.segments
    assert clone.vias == connection.vias
    assert clone.h_layer == 4 and clone.v_layer == 5
