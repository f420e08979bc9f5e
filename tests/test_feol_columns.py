"""The seed-sweep and service paths build no vpin objects, and the placer's
integer DFS ordering equals the string walk.

:func:`repro.sm.split.extract_feol` fills only columns; a view's
``driver_vpins`` / ``sink_vpins`` / ``open_connections`` lists are built by
one function, ``split._materialize``, when something reads them.  Every
attack and metric reads the columns, so a cold superblue sweep and a warm
service job must not call it once.  ``_PlacerSkeleton.ordering_ranks``
walks an integer CSR adjacency; the string walk it replaced is
``ordering_ranks_reference`` in ``tests/build_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from build_oracle import ordering_ranks_reference
from repro.api import ScenarioSpec, Workspace
from repro.circuits.registry import available_benchmarks, get_benchmark
from repro.circuits.superblue import SUPERBLUE_PROFILES
from repro.layout.floorplan import build_floorplan
from repro.layout.placer import _PlacerSkeleton
from repro.service.jobs import JobManager
from repro.sm import split
from repro.sm.split import extract_feol

#: Superblue scales of the goldens and the end-to-end bench (tier 1), and
#: of the default config and the registry default (slow tier).
SUPERBLUE_SCALES = (0.002, 0.0025)
SLOW_SUPERBLUE_SCALES = (0.005, 0.01)
ISCAS = [name for name in available_benchmarks() if name not in SUPERBLUE_PROFILES]


@pytest.fixture
def vpin_lists_built(monkeypatch):
    """Views whose vpin/open-connection objects were built while the test ran."""
    built = []
    materialize = split._materialize

    def counting(view):
        built.append(view)
        return materialize(view)

    monkeypatch.setattr(split, "_materialize", counting)
    return built


def test_reading_the_lists_materializes_once(c432_layout, vpin_lists_built):
    view = extract_feol(c432_layout, 4)
    columns = view.arrays()
    assert vpin_lists_built == []
    drivers, sinks = view.driver_vpins, view.sink_vpins
    assert view.open_connections and len(drivers) == len(sinks)
    assert vpin_lists_built == [view]
    # Reading the lists does not invalidate the extracted columns.
    assert view.arrays() is columns


def test_cold_sweep_builds_no_vpins(tmp_path, vpin_lists_built):
    """A ``sweep_cold``-shaped batched superblue sweep into an empty store."""
    spec = ScenarioSpec.from_dict({
        "benchmark": "superblue18", "scale": 0.002, "scheme": "original",
        "netlist_seed": 1, "seeds": {"start": 0, "count": 2},
        "attacks": ["proximity"], "split_layers": [6],
        "metrics": ["security", "distances", "wirelength_layers", "via_counts"],
    })
    workspace = Workspace(store=tmp_path / "store")
    sweep = workspace.run_sweeps([spec], jobs=1)[0]
    assert not sweep.failures
    assert workspace.stats()["builds_run"] == 2
    assert vpin_lists_built == []


def test_warm_service_job_builds_no_vpins(tmp_path, vpin_lists_built):
    """A ``service_warm``-shaped c880 job over a warm store."""
    payload = {
        "benchmark": "c880", "scheme": "original",
        "attacks": ["proximity"], "split_layers": [4],
        "metrics": ["security", "distances"], "num_patterns": 256, "seed": 7,
    }
    store = tmp_path / "store"
    Workspace(store=store).build(ScenarioSpec.from_dict(payload))
    manager = JobManager(Workspace(store=store), max_workers=1)
    try:
        job, _created = manager.submit(payload)
        assert job.wait(120)
        assert job.record.state == "done"
        assert manager.workspace.stats()["store_hits"] == 1
    finally:
        manager.close()
    assert vpin_lists_built == []


def assert_ordering_matches(netlist, seeds):
    skeleton = _PlacerSkeleton(netlist, build_floorplan(netlist, 0.7))
    for seed in seeds:
        assert np.array_equal(
            skeleton.ordering_ranks(seed), ordering_ranks_reference(netlist, seed)
        ), seed


@pytest.mark.parametrize("name", ISCAS)
def test_ordering_matches_the_string_walk(name):
    assert_ordering_matches(get_benchmark(name), range(32))


@pytest.mark.parametrize("scale", SUPERBLUE_SCALES)
@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
def test_superblue_ordering_matches_the_string_walk(name, scale):
    assert_ordering_matches(get_benchmark(name, seed=1, scale=scale), range(32))


@pytest.mark.slow
@pytest.mark.parametrize("scale", SLOW_SUPERBLUE_SCALES)
@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
def test_superblue_ordering_matches_at_larger_scales(name, scale):
    assert_ordering_matches(get_benchmark(name, seed=1, scale=scale), range(32))
