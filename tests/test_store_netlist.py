"""The netlist in a store payload: a hit decodes it instead of running the
benchmark generator.

* For every netlist ``tests/golden/netlist_fingerprints.json`` pins,
  ``decode_build`` of ``encode_build``'s payload, given no netlist, builds
  the netlist back (equal fingerprint, ``topology_version`` and structure
  document text) and a build equal to the original.
* Names with quotes, escapes, NUL and lone surrogates round-trip.
* A warm Workspace replay runs no generator and decodes each distinct
  netlist once.
* An entry of another store format or generator version (a format-3
  ``payload.npz`` entry included) is a plain miss that the next save
  replaces; ``verify`` reports it as ``STALE_FORMAT``,
  and regenerates every other entry's netlist (the deep check no load runs).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json

import numpy as np
import pytest

from netlist_oracle import netlist_document_text
from test_generation_equivalence import ESCAPED_NAMES, _odd_netlist
from test_golden_tables import GOLDEN_NETLISTS
from test_store import assert_builds_equal
from repro.api import ScenarioSpec, Workspace
from repro.circuits import iscas85
from repro.circuits.registry import GENERATOR_VERSION, get_benchmark
from repro.netlist.netlist import Netlist
from repro.store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    CodecError,
    UnstorableBuild,
    decode_build,
    encode_build,
    netlist_fingerprint,
)
from repro.store import codec, store as store_module
from repro.store.store import _decode_payload, _payload_chunks


def _column_file(arrays) -> bytes:
    return b"".join(bytes(chunk) for chunk in _payload_chunks(arrays))


def _through_payload(arrays):
    """``arrays`` after the store's column file and its one-read decode."""
    return _decode_payload(_column_file(arrays))


def _assert_same_netlist(got: Netlist, want: Netlist) -> None:
    assert got is not want
    assert netlist_fingerprint(got) == netlist_fingerprint(want)
    assert got.topology_version == want.topology_version
    assert netlist_document_text(got) == netlist_document_text(want)


@pytest.fixture(scope="module")
def plain_ws():
    return Workspace(jobs=1, store=None)


@pytest.mark.parametrize("name,seed,scale", GOLDEN_NETLISTS)
def test_decode_builds_the_netlist_from_the_payload(plain_ws, name, seed, scale):
    build = plain_ws.build(ScenarioSpec(benchmark=name, scheme="original", seed=3,
                                        netlist_seed=seed, scale=scale))
    netlist = build.layout.netlist
    record, arrays = encode_build(build, netlist)
    decoded = decode_build(record, _through_payload(arrays))
    _assert_same_netlist(decoded.layout.netlist, netlist)
    assert_builds_equal(build, decoded)


def _names_round_trip(netlist: Netlist) -> None:
    arrays = {}
    codec._encode_netlist(netlist, arrays)
    _assert_same_netlist(codec._decode_netlist(_through_payload(arrays)), netlist)


@pytest.mark.parametrize("odd", ESCAPED_NAMES)
def test_odd_names_round_trip(odd):
    _names_round_trip(_odd_netlist(odd))


def test_decoded_netlist_that_differs_is_damage(plain_ws, tmp_path):
    """A payload netlist that does not match the record raises
    ``CodecError`` and quarantines the entry."""
    spec = ScenarioSpec(benchmark="c432", scheme="original", seed=1)
    build = plain_ws.build(spec)
    record, arrays = encode_build(build, build.layout.netlist)
    fanin = arrays["netlist.fanin_net"].copy()
    fanin[[0, 5]] = fanin[[5, 0]]
    with pytest.raises(CodecError, match="fingerprint"):
        decode_build(record, dict(arrays, **{"netlist.fanin_net": fanin}))

    store = ArtifactStore(tmp_path / "store")
    key = spec.build_key()
    assert store.save(key, build, spec.build_dict(), build.layout.netlist)
    entry = store._entry_dir(key)
    raw = _column_file(dict(_decode_payload((entry / "payload.bin").read_bytes()),
                            **{"netlist.fanin_net": fanin}))
    (entry / "payload.bin").write_bytes(raw)
    manifest = json.loads((entry / "manifest.json").read_text())
    manifest["payload_sha256"] = hashlib.sha256(raw).hexdigest()
    (entry / "manifest.json").write_text(json.dumps(manifest))
    assert store.load(key) is None
    (bad,) = store.quarantined()
    assert "fingerprint" in (bad / "reason.txt").read_text()


def test_netlist_from_columns_cannot_rebuild_is_unstorable(plain_ws):
    build = plain_ws.build(ScenarioSpec(benchmark="c432", scheme="original", seed=1))
    marked = get_benchmark("c432")
    marked.set_dont_touch(next(iter(marked.gates)))
    with pytest.raises(UnstorableBuild):
        encode_build(build, marked)


# -- no generator on a hit ----------------------------------------------------

def test_warm_replay_runs_no_generator(tmp_path, monkeypatch):
    """Eight c880 seeds, two schemes each: every build is a store hit, the
    generator never runs and each netlist is decoded once."""
    specs = [ScenarioSpec(benchmark="c880", scheme=scheme, seeds=tuple(range(8)),
                          metrics=["distances"])
             for scheme in ("original", "layout_randomization")]
    cold = Workspace(jobs=1, store=tmp_path / "store")
    expected = [sweep.to_dict() for sweep in cold.run_sweeps(specs, jobs=1)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a store hit ran the generator")

    monkeypatch.setattr(iscas85, "generate_random_logic", forbidden)
    monkeypatch.setattr(store_module, "regenerate_netlist", forbidden)
    decoded = []
    decode_netlist = codec._decode_netlist

    def counting(arrays):
        netlist = decode_netlist(arrays)
        decoded.append(netlist_fingerprint(netlist))
        return netlist

    monkeypatch.setattr(codec, "_decode_netlist", counting)
    warm = Workspace(jobs=1, store=tmp_path / "store")
    replayed = [sweep.to_dict() for sweep in warm.run_sweeps(specs, jobs=1)]

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "elapsed_s"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    assert strip(replayed) == strip(expected)
    stats = warm.stats()
    assert stats["builds_run"] == 0 and stats["store_hits"] == 16
    assert len(decoded) == len(set(decoded)) == 8


# -- upgrades and the deep check ----------------------------------------------

def _rewrite_manifests(root, **fields):
    for manifest_path in (root / "objects").glob("*/*/manifest.json"):
        manifest = json.loads(manifest_path.read_text())
        manifest.update(fields)
        manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("fields", [
    {"store_format_version": 2},
    {"generator_version": GENERATOR_VERSION + 1},
])
def test_older_store_warms_after_one_round(tmp_path, capsys, fields):
    from repro.api.cli import main

    root = tmp_path / "store"
    spec = ScenarioSpec(benchmark="c432", scheme="original", seeds=(0, 1, 2),
                        metrics=["distances"])
    Workspace(jobs=1, store=root).run_sweeps([spec], jobs=1)
    _rewrite_manifests(root, **fields)

    assert main(["cache", "verify", "--store", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.count("STALE_FORMAT") == 3 and "QUARANTINED" not in out
    assert "0/3 entries verified" in out

    first = Workspace(jobs=1, store=root)
    first.run_sweeps([spec], jobs=1)
    assert first.stats()["builds_run"] == 3
    second = Workspace(jobs=1, store=root)
    second.run_sweeps([spec], jobs=1)
    assert second.stats()["builds_run"] == 0
    assert second.stats()["store_hits"] == 3

    store = ArtifactStore(root)
    assert store.quarantined() == [] and len(store.entries()) == 3
    assert list((root / "tmp").iterdir()) == []
    for entry in store.entries():
        manifest = store.manifest(entry.key)
        assert manifest["store_format_version"] == STORE_FORMAT_VERSION
        assert manifest["generator_version"] == GENERATOR_VERSION
    assert [item["status"] for item in store.verify()] == ["ok"] * 3


def _as_format_3(root) -> None:
    """Rewrite every entry under ``root`` as store format 3 wrote it: the
    same columns in a ``payload.npz`` zip (``np.savez``) and a format-3
    manifest checksumming it."""
    for entry in (root / "objects").glob("*/*"):
        buffer = io.BytesIO()
        np.savez(buffer, **_decode_payload((entry / "payload.bin").read_bytes()))
        (entry / "payload.bin").unlink()
        (entry / "payload.npz").write_bytes(buffer.getvalue())
        manifest = json.loads((entry / "manifest.json").read_text())
        manifest.update(store_format_version=3,
                        payload_sha256=hashlib.sha256(buffer.getvalue()).hexdigest(),
                        payload_bytes=len(buffer.getvalue()))
        (entry / "manifest.json").write_text(json.dumps(manifest))


def test_format_3_store_warms_after_one_round(tmp_path):
    """An entry is recognised by its manifest, not by its payload's file
    name: a format-3 entry (``payload.npz``) is listed as ``STALE_FORMAT``,
    counted with all its bytes, replaced by the next save (never a save
    race) and evictable."""
    root = tmp_path / "store"
    spec = ScenarioSpec(benchmark="c432", scheme="original", seeds=(0, 1, 2),
                        metrics=["distances"])
    Workspace(jobs=1, store=root).run_sweeps([spec], jobs=1)
    _as_format_3(root)
    keys = sorted(single.build_key() for single in spec.expand_seeds())

    old = ArtifactStore(root)
    assert sorted(entry.key for entry in old.entries()) == keys
    assert all(old.has(key) and old.payload_path(key) is None for key in keys)
    assert all(entry.bytes > (entry.path / "manifest.json").stat().st_size
               for entry in old.entries())
    assert [item["status"] for item in old.verify()] == ["STALE_FORMAT"] * 3
    assert old.load(keys[0]) is None and old.quarantined() == []

    first = Workspace(jobs=1, store=root)
    first.run_sweeps([spec], jobs=1)
    assert first.stats()["builds_run"] == 3
    assert first.store.stats["saves"] == 3 and first.store.stats["save_races"] == 0
    second = Workspace(jobs=1, store=root)
    second.run_sweeps([spec], jobs=1)
    assert second.stats()["builds_run"] == 0 and second.stats()["store_hits"] == 3
    assert not list((root / "objects").glob("*/*/payload.npz"))
    assert list((root / "tmp").iterdir()) == []

    _as_format_3(root)
    assert ArtifactStore(root).gc(max_entries=1)["removed"] == 2
    assert len(ArtifactStore(root).entries()) == 1


def test_verify_regenerates_each_netlist_once(tmp_path, monkeypatch):
    """``verify`` compares every entry with its regenerated netlist (once
    per netlist); a generator that drifted quarantines the entries a plain
    load still serves."""
    root = tmp_path / "store"
    spec = ScenarioSpec(benchmark="c432", scheme="original", seeds=(0, 1, 2),
                        netlist_seed=4)
    Workspace(jobs=1, store=root).run_sweeps([spec], jobs=1)
    calls = []
    regenerate = store_module.regenerate_netlist

    def counting(build):
        calls.append(build["seed"])
        return regenerate(build)

    monkeypatch.setattr(store_module, "regenerate_netlist", counting)
    assert [item["status"] for item in ArtifactStore(root).verify()] == ["ok"] * 3
    assert len(calls) == 1

    monkeypatch.setattr(store_module, "regenerate_netlist",
                        lambda build: get_benchmark("c432", seed=5))
    store = ArtifactStore(root)
    key = spec.expand_seeds()[0].build_key()
    assert store.load(key) is not None
    assert [item["status"] for item in store.verify()] == ["QUARANTINED"] * 3
    assert all("generator makes another netlist" in (bad / "reason.txt").read_text()
               for bad in store.quarantined())


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4, unique=True))
def test_arbitrary_names_round_trip(names):
    for source, other, net, port in itertools.islice(itertools.permutations(names), 6):
        netlist = Netlist(port)
        netlist.add_primary_input(source)
        netlist.add_primary_input(other)
        netlist.add_gate(net, "NAND2_X1", {"A1": source, "A2": other, "ZN": net})
        netlist.add_primary_output(port, net)
        _names_round_trip(netlist)
