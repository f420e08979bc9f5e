"""The Workspace publish path: events and counters for every way a build lands.

A build reaches the in-memory cache along one of several routes — a serial
``build()``, a store hit, an in-process seed batch (under any ``jobs``), a
pooled single, or the original layout a proposed build carries.
Each route must announce itself to progress listeners and count itself in
``stats()`` the same way.  The characterisation below pins, per route, the
edges every key receives (in order, per key — pools interleave keys
nondeterministically) and the workspace counters afterwards.

The three bug tests after them pin behaviour the routes once disagreed
on: a pooled single whose worker failed to save it still lands in the
store, a serial sweep probes the store once per key, and a store hit inside
``build()`` emits ``store_hit``.  The residency tests at the bottom pin what
memory keeps once a build has landed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

import pytest

import repro.api.workspace as workspace_module
from repro.api import ScenarioSpec, Workspace
from repro.api.workspace import build_label
from repro.exec import PoolSupervisor
from repro.store import ArtifactStore, StoreError

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

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
    held = ws.build(single())
    assert ws.build(single()) is held
    assert recorder.events == {"c17:original:seed0": ["store_hit"]}
    assert ws.stats() == stats(build_hits=1, build_misses=1, store_hits=1)


def test_warm_build_dropped_reference(tmp_path):
    """Memory keeps a stored build only while it is held: once the caller
    drops it, the next build() is a second store hit, not a rebuild."""
    Workspace(store=tmp_path).build(single())
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [single()])
    ws.build(single())
    ws.build(single())
    assert recorder.events == {"c17:original:seed0": ["store_hit", "store_hit"]}
    assert ws.stats() == stats(build_misses=2, store_hits=2)


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
    """A ``jobs=2`` sweep: the pinned seeds build as one in-process seed
    batch, the unpinned ones as pooled singles."""
    batched = sweep((0, 1, 2, 3), netlist_seed=1)
    unbatched = sweep((5, 6))
    ws = Workspace(store=tmp_path)
    recorder = Recorder(ws, [batched, unbatched])
    ws.run_sweeps([batched, unbatched], jobs=2)
    # Pinned seeds land like the serial seed batch; unpinned seeds are
    # pooled singles.
    assert recorder.events == {
        **{f"c17:original:seed{seed}": ["build_completed"] for seed in (0, 1, 2, 3)},
        "c17:original:seed5": BUILT,
        "c17:original:seed6": BUILT,
        **{f"scenario:seed{seed}": ["scenario_completed"]
           for seed in (0, 1, 2, 3, 5, 6)},
    }
    assert ws.stats() == stats(build_hits=6, scenario_misses=6,
                               store_misses=6, builds_run=6)
    assert sorted(ws.last_report.outcomes) == sorted(
        s.build_key() for s in unbatched.expand_seeds()
    )
    store = ArtifactStore(tmp_path)
    for spec in (batched, unbatched):
        assert all(store.has(s.build_key()) for s in spec.expand_seeds())


def strip_elapsed(payload):
    if isinstance(payload, dict):
        return {key: strip_elapsed(value)
                for key, value in payload.items() if key != "elapsed_s"}
    if isinstance(payload, list):
        return [strip_elapsed(value) for value in payload]
    return payload


def test_pooled_batched_example_starts_no_pool(monkeypatch):
    spec = ScenarioSpec.from_json((EXAMPLES / "batched_sweep.json").read_text())

    def no_pool(self):
        raise AssertionError("a pinned-netlist sweep started a process pool")

    monkeypatch.setattr(PoolSupervisor, "_make_pool", no_pool)
    ws = Workspace()
    recorder = Recorder(ws, [spec])
    [pooled] = ws.run_sweeps([spec], jobs=2)
    assert ws.last_report.outcomes == {}
    assert not any("build_dispatched" in events
                   for events in recorder.events.values())
    [serial] = Workspace().run_sweeps([spec], jobs=1)
    assert strip_elapsed(pooled.to_dict()) == strip_elapsed(serial.to_dict())


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


# -- residency ---------------------------------------------------------------
#
# Memory keeps a build the store can serve again only while something holds
# it; a build nothing else can bring back stays resident.


def test_unstorable_proposed_build_stays_resident(tmp_path):
    proposed = ScenarioSpec(benchmark="c17", scheme="proposed",
                            scheme_params={"oer_patterns": 64}, seed=1)
    ws = Workspace(store=tmp_path)
    ws.build(proposed)
    ws.build(proposed)
    assert ws.stats() == stats(build_hits=1, build_misses=1, store_misses=1,
                               builds_run=1)
    assert not ArtifactStore(tmp_path).has(proposed.build_key())


def test_build_whose_save_fails_stays_resident(tmp_path):
    ws = Workspace(store=_UnwritableStore(tmp_path))
    ws.build(single(3))
    ws.build(single(3))
    assert ws.stats() == stats(build_hits=1, build_misses=1, store_misses=1,
                               builds_run=1)
    assert len(ws) == 1


def test_build_without_store_stays_resident():
    ws = Workspace(store=None)
    ws.build(single())
    ws.build(single())
    assert ws.stats() == stats(build_hits=1, build_misses=1, builds_run=1)
    assert len(ws) == 1


def test_held_build_and_its_netlist_come_back_identical(tmp_path):
    Workspace(store=tmp_path).run_scenarios([single(0), single(1)])
    ws = Workspace(store=tmp_path)
    held = ws.build(single(0))
    ws.run_scenarios([single(0), single(1)])
    assert ws.build(single(0)) is held
    assert ws.netlist("c17", seed=0) is held.layout.netlist
    assert ws.stats()["store_hits"] == 2 and ws.stats()["builds_run"] == 0
    # The seed-1 build was pinned by run_scenarios only.
    assert len(ws) == 1


def test_one_call_loads_each_stored_build_once(tmp_path):
    other = ScenarioSpec(benchmark="c17", scheme="original",
                         attacks=("proximity",), metrics=("security",), seed=0)
    assert other.build_key() == single(0).build_key()
    Workspace(store=tmp_path).build(single(0))
    ws = Workspace(store=tmp_path)
    ws.run_scenarios([single(0), other])
    assert ws.stats() == stats(build_hits=1, build_misses=1, scenario_misses=2,
                               store_hits=1)
    assert len(ws) == 0


def test_pooled_prewarm_keeps_no_build_in_its_report(tmp_path):
    """The kept ``last_report`` drops each published value: after a pooled
    prewarm into a store nothing pins the builds it made."""
    specs = [single(5), single(6)]
    ws = Workspace(store=tmp_path)
    ws.prewarm(specs, jobs=2)
    assert sorted(ws.last_report.outcomes) == sorted(s.build_key() for s in specs)
    assert all(outcome.value is None and outcome.ok and outcome.attempts >= 1
               for outcome in ws.last_report.outcomes.values())
    assert ws.last_report.failed() == {}
    assert len(ws) == 0
    assert all(ArtifactStore(tmp_path).has(s.build_key()) for s in specs)
