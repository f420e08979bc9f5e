"""The Workspace publish path: events and counters for every way a build lands.

A build reaches the in-memory cache along one of several routes — a serial
``build()``, a store hit, an in-process seed batch, a pooled single, a
pooled seed-batch chunk, or the original layout a proposed build carries.
Each route must announce itself to progress listeners and count itself in
``stats()`` the same way.  The characterisation below pins, per route, the
edges every key receives (in order, per key — pools interleave keys
nondeterministically) and the workspace counters afterwards.

The three bug tests at the bottom pin behaviour the routes once disagreed
on: a pooled single whose worker failed to save it still lands in the
store, a serial sweep probes the store once per key, and a store hit inside
``build()`` emits ``store_hit``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

import pytest

import repro.api.workspace as workspace_module
from repro.api import ScenarioSpec, Workspace
from repro.api.workspace import build_label
from repro.store import ArtifactStore, StoreError

ZERO_STATS = {
    "build_hits": 0, "build_misses": 0,
    "scenario_hits": 0, "scenario_misses": 0,
    "store_hits": 0, "store_misses": 0,
    "builds_run": 0, "inflight_waits": 0,
}


def stats(**counts: int) -> Dict[str, int]:
    return dict(ZERO_STATS, **counts)


def sweep(seeds, **fields: Any) -> ScenarioSpec:
    return ScenarioSpec(benchmark="c17", scheme="original",
                        metrics=("distances",), seeds=tuple(seeds), **fields)


def single(seed: int = 0, **fields: Any) -> ScenarioSpec:
    return ScenarioSpec(benchmark="c17", scheme="original",
                        metrics=("distances",), seed=seed, **fields)


class Recorder:
    """Progress listener: event names per key, keys shown as build labels."""

    def __init__(self, ws: Workspace, specs=()):
        self.names: Dict[str, str] = {}
        for spec in specs:
            for expanded in spec.expand_seeds():
                self.names[expanded.build_key()] = build_label(expanded)
        self.events: Dict[str, List[str]] = {}
        ws.add_progress_listener(self)

    def __call__(self, fields: Dict[str, Any]) -> None:
        if fields["event"] == "scenario_completed":
            name = f"scenario:seed{fields['seed']}"
        else:
            name = self.names.get(fields["key"], fields["key"])
            # Chunk task keys carry a hash of the group's shared build dict.
            name = re.sub(r"^seedbatch:[0-9a-f]{16}:", "seedbatch:", name)
        self.events.setdefault(name, []).append(fields["event"])


BUILT = ["build_dispatched", "build_completed"]


def test_cold_build(tmp_path):
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [single()])
    ws.build(single())
    assert recorder.events == {"c17:original:seed0": BUILT}
    assert ws.stats() == stats(build_misses=1, store_misses=1, builds_run=1)
    assert ArtifactStore(tmp_path).has(single().build_key())


def test_warm_build(tmp_path):
    Workspace(store=tmp_path).build(single())
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [single()])
    ws.build(single())
    ws.build(single())
    assert recorder.events == {"c17:original:seed0": ["store_hit"]}
    assert ws.stats() == stats(build_hits=1, build_misses=1, store_hits=1)


def test_serial_unbatched_sweep_cold_then_warm(tmp_path):
    spec = sweep((0, 1))
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [spec])
    ws.run_sweeps([spec], jobs=1)
    assert recorder.events == {
        "c17:original:seed0": BUILT,
        "c17:original:seed1": BUILT,
        "scenario:seed0": ["scenario_completed"],
        "scenario:seed1": ["scenario_completed"],
    }
    assert ws.stats() == stats(build_misses=2, scenario_misses=2,
                               store_misses=2, builds_run=2)

    warm = Workspace(store=tmp_path)
    recorder = Recorder(warm, [spec])
    warm.run_sweeps([spec], jobs=1)
    assert recorder.events == {
        "c17:original:seed0": ["store_hit"],
        "c17:original:seed1": ["store_hit"],
        "scenario:seed0": ["scenario_completed"],
        "scenario:seed1": ["scenario_completed"],
    }
    # Unbatched keys resolve in build() when their scenario runs: a memory
    # miss served from disk.
    assert warm.stats() == stats(build_misses=2, scenario_misses=2,
                                 store_hits=2)


def test_serial_batched_sweep(tmp_path):
    spec = sweep((0, 1, 2), netlist_seed=1)
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [spec])
    ws.run_sweeps([spec], jobs=1)
    # Seed batches announce only the completion of each member.
    assert recorder.events == {
        **{f"c17:original:seed{seed}": ["build_completed"] for seed in (0, 1, 2)},
        **{f"scenario:seed{seed}": ["scenario_completed"] for seed in (0, 1, 2)},
    }
    assert ws.stats() == stats(build_hits=3, scenario_misses=3,
                               store_misses=3, builds_run=3)
    store = ArtifactStore(tmp_path)
    assert all(store.has(s.build_key()) for s in spec.expand_seeds())


def test_pooled_sweep_singles_and_chunks(tmp_path):
    batched = sweep((0, 1, 2, 3), netlist_seed=1)
    unbatched = sweep((5, 6))
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [batched, unbatched])
    ws.run_sweeps([batched, unbatched], jobs=2)
    # Chunk edges are keyed by the chunk task, not by its member builds.
    assert recorder.events == {
        "seedbatch:0": BUILT,
        "seedbatch:1": BUILT,
        "c17:original:seed5": BUILT,
        "c17:original:seed6": BUILT,
        **{f"scenario:seed{seed}": ["scenario_completed"]
           for seed in (0, 1, 2, 3, 5, 6)},
    }
    assert ws.stats() == stats(build_hits=6, scenario_misses=6,
                               store_misses=6, builds_run=6)
    store = ArtifactStore(tmp_path)
    for spec in (batched, unbatched):
        assert all(store.has(s.build_key()) for s in spec.expand_seeds())


def test_proposed_build_publishes_its_baseline(tmp_path):
    proposed = ScenarioSpec(benchmark="c17", scheme="proposed",
                            scheme_params={"oer_patterns": 64}, seed=1)
    baseline = ScenarioSpec(benchmark="c17", scheme="original",
                            scheme_params={"utilization": 0.70}, seed=1)
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [proposed, baseline])
    built = ws.build(proposed)
    assert ws.build(baseline).layout is built.protection.original_layout
    assert recorder.events == {"c17:proposed:seed1": BUILT}
    assert ws.stats() == stats(build_hits=1, build_misses=1, store_misses=1,
                               builds_run=1)
    # The proposed build is unstorable; the baseline it carries is not.
    store = ArtifactStore(tmp_path)
    assert not store.has(proposed.build_key())
    assert store.has(baseline.build_key())


# -- regressions -------------------------------------------------------------


class _UnwritableStore(ArtifactStore):
    def save(self, *args: Any, **kwargs: Any) -> bool:
        raise StoreError("disk full")


def test_pooled_single_lands_in_store_when_worker_save_fails(tmp_path,
                                                             monkeypatch):
    def worker_store(cls, payload):
        return None if payload is None else _UnwritableStore(payload["root"])

    monkeypatch.setattr(workspace_module.ArtifactStore, "from_worker_payload",
                        classmethod(worker_store))
    spec = single(5)
    ws = Workspace(store=tmp_path)
    ws.prewarm([spec], jobs=1)
    assert ws.has_build(spec)
    assert ArtifactStore(tmp_path).has(spec.build_key())


def test_serial_sweep_probes_store_once_per_key(tmp_path, monkeypatch):
    probes: List[str] = []
    has = ArtifactStore.has

    def counting_has(self, key):
        probes.append(key)
        return has(self, key)

    monkeypatch.setattr(ArtifactStore, "has", counting_has)
    spec = sweep((0, 1))
    ws = Workspace(store=tmp_path)
    ws.run_sweeps([spec], jobs=1)
    assert ws.stats()["store_misses"] == 2
    # Saving a fresh build checks for an existing entry; lookups probe once.
    keys = [s.build_key() for s in spec.expand_seeds()]
    lookups = [key for key in probes if key in keys]
    assert sorted(lookups) == sorted(keys * 2)


@pytest.mark.parametrize("route", ["build", "compare_baseline"])
def test_store_hit_inside_build_is_announced(tmp_path, route):
    stored = single(2)
    Workspace(store=tmp_path).build(stored)
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [stored])
    if route == "build":
        ws.build(stored)
    else:
        # A compare-scope metric resolves its original baseline via build().
        ws.run_scenario(ScenarioSpec(benchmark="c17", scheme="pin_swapping",
                                     metrics=("via_delta",), seed=2))
    assert recorder.events.get("c17:original:seed2") == ["store_hit"]
