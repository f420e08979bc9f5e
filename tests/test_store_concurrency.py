"""Cross-process artefact-store contracts (slow tier).

Two guarantees the single-process suite cannot exercise:

* Two unrelated processes racing on one store directory install each
  payload exactly once (one ``rename`` wins, the loser defers), and both
  end up computing bit-identical results.
* A writer killed mid-payload (`REPRO_STORE_CHAOS=slow_write=…` holds the
  torn-write window open) never publishes a torn entry: the staged files
  stay in ``tmp/``, readers see a plain miss, and a later rebuild heals
  the store.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, Workspace
from repro.store import ArtifactStore

pytestmark = pytest.mark.slow

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_CHILD = """
import json, sys

from repro.api import ScenarioSpec, Workspace
from repro.store import ArtifactStore

root, out_path = sys.argv[1], sys.argv[2]


def strip(payload):
    if isinstance(payload, dict):
        return {k: strip(v) for k, v in payload.items() if k != "elapsed_s"}
    if isinstance(payload, list):
        return [strip(v) for v in payload]
    return payload


store = ArtifactStore(root)
ws = Workspace(jobs=1, store=store)
spec = ScenarioSpec(
    benchmark="c432", scheme="layout_randomization", seed=1,
    metrics=["wirelength_layers"],
)
result = strip(ws.run_scenario(spec).to_dict())
with open(out_path, "w") as handle:
    json.dump({"result": result, "stats": store.stats}, handle)
"""


def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_STORE_READONLY", None)
    env.pop("REPRO_STORE_CHAOS", None)
    env.update(extra)
    return env


def test_two_processes_race_exactly_once(tmp_path):
    root = tmp_path / "store"
    script = tmp_path / "child.py"
    script.write_text(_CHILD)

    # slow_write holds every payload write open for a while, so both
    # children are guaranteed to be staging concurrently.
    env = _child_env(REPRO_STORE_CHAOS="slow_write=0.5")
    outs = [tmp_path / f"out{i}.json" for i in range(2)]
    children = [
        subprocess.Popen(
            [sys.executable, str(script), str(root), str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for out in outs
    ]
    for child in children:
        _stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr.decode()

    reports = [json.loads(out.read_text()) for out in outs]
    # Bit-identical scenario results, whichever process built vs replayed.
    assert reports[0]["result"] == reports[1]["result"]

    store = ArtifactStore(root, readonly=True)
    entries = store.entries()
    assert entries, "the race must leave at least the scenario's entry"
    # Exactly-once install: across both processes every entry was saved
    # once; any double-attempt surfaced as a save_race, not a second copy.
    total_saves = sum(r["stats"]["saves"] for r in reports)
    assert total_saves == len(entries)
    # No torn reads anywhere: nothing was quarantined and every entry
    # still decodes bit-clean.
    assert store.quarantined() == []
    assert sum(r["stats"]["quarantined"] for r in reports) == 0
    report = store.verify()
    assert report and all(row["ok"] for row in report)
    # Staging leftovers would mean a tmp dir escaped its finally-cleanup.
    assert list((root / "tmp").iterdir()) == []


def test_kill_mid_write_never_publishes_torn_entry(tmp_path):
    root = tmp_path / "store"
    script = tmp_path / "child.py"
    script.write_text(_CHILD)

    env = _child_env(REPRO_STORE_CHAOS="slow_write=60")
    child = subprocess.Popen(
        [sys.executable, str(script), str(root), str(tmp_path / "out.json")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        # Wait for the half-written payload to appear in the staging area,
        # then kill the writer inside the torn-write window.
        deadline = time.time() + 240
        staged = None
        while time.time() < deadline:
            tmp_dir = root / "tmp"
            if tmp_dir.exists():
                staged = next(
                    (p for d in tmp_dir.iterdir() if d.is_dir()
                     for p in d.glob("payload.bin")),
                    None,
                )
            if staged is not None:
                break
            assert child.poll() is None, child.stderr.read().decode()
            time.sleep(0.05)
        assert staged is not None, "writer never reached the payload stage"
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait(timeout=60)

    # The kill landed mid-write: nothing was published, the torn payload
    # is still quarantined inside tmp/ where readers never look.
    store = ArtifactStore(root)
    spec = ScenarioSpec(
        benchmark="c432", scheme="layout_randomization", seed=1,
        metrics=["wirelength_layers"],
    )
    key = spec.build_key()
    assert not store.has(key)
    assert store.load(key) is None
    assert store.quarantined() == []

    # A later run rebuilds, installs cleanly and verifies bit-clean.
    ws = Workspace(jobs=1, store=store)
    ws.run_scenario(spec)
    assert store.has(key)
    report = store.verify()
    assert report and all(row["ok"] for row in report)
