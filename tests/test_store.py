"""Persistent artefact store (:mod:`repro.store`): codec, disk tier, CLI.

The contract under test is bit-exactness: a build that round-trips through
the columnar ``.npz`` codec — in memory or via the disk store — must be
structurally identical to the freshly built artefact, down to float bits
and metadata value types.  Damage (corrupt payloads, stale entries) must
degrade to a rebuild, never a crash.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import BuildError, ScenarioSpec, Workspace
from repro.store import (
    CODEC_FORMAT_VERSION,
    STORE_FORMAT_VERSION,
    ArtifactStore,
    StaleEntry,
    UnstorableBuild,
    decode_build,
    encode_build,
    netlist_fingerprint,
    regenerate_netlist,
)
from repro.store.codec import _decode_jsonable, _encode_jsonable

STORABLE_SCHEMES = [
    "original",
    "layout_randomization",
    "pin_swapping",
    "placement_perturbation",
    "routing_blockage",
    "routing_perturbation",
    "synergistic",
]


def _spec(scheme: str = "layout_randomization", seed: int = 1,
          **overrides) -> ScenarioSpec:
    return ScenarioSpec(benchmark="c432", scheme=scheme, seed=seed, **overrides)


def _metric_spec(scheme: str = "layout_randomization", seed: int = 1
                 ) -> ScenarioSpec:
    return ScenarioSpec(
        benchmark="c432", scheme=scheme, seed=seed,
        metrics=["wirelength_layers"],
    )


def _typed(value):
    """Value annotated with its concrete type, recursively.

    Plain ``==`` would let ``1 == 1.0`` and ``(1, 2) == [1, 2]`` slip
    through; metadata round trips must preserve exact types.
    """
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_typed(v) for v in value))
    return (type(value).__name__, value)


def assert_layouts_equal(a, b) -> None:
    assert a.name == b.name
    assert a.lift_layer == b.lift_layer
    assert a.geometry_version == b.geometry_version
    assert a.protected_nets == b.protected_nets
    assert _typed(a.metadata) == _typed(b.metadata)
    assert a.placement == b.placement
    assert set(a.routing) == set(b.routing)
    for name in a.routing:
        assert a.routing[name] == b.routing[name], f"net {name!r} differs"


def assert_builds_equal(a, b) -> None:
    assert a.scheme == b.scheme
    assert a.restrict_to_protected == b.restrict_to_protected
    assert_layouts_equal(a.layout, b.layout)
    if a.baseline is None:
        assert b.baseline is None
    else:
        # Storable baselines are always the layout itself ("same").
        assert a.baseline is a.layout
        assert b.baseline is b.layout


@pytest.fixture(scope="module")
def plain_ws():
    """A workspace with no disk tier (source of reference builds)."""
    return Workspace(jobs=1, store=None)


@pytest.fixture(scope="module")
def reference_builds(plain_ws):
    """One freshly built artefact per storable scheme, plus its netlist."""
    out = {}
    for scheme in STORABLE_SCHEMES:
        spec = _spec(scheme)
        out[scheme] = (spec, plain_ws.build(spec))
    return out


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", STORABLE_SCHEMES)
def test_codec_roundtrip_bit_identical(scheme, reference_builds):
    spec, build = reference_builds[scheme]
    netlist = build.layout.netlist
    record, arrays = encode_build(build, netlist)
    assert record["codec_version"] == CODEC_FORMAT_VERSION
    assert record["netlist_fingerprint"] == netlist_fingerprint(netlist)
    decoded = decode_build(record, arrays, netlist)
    assert_builds_equal(build, decoded)


def test_codec_roundtrip_survives_npz(reference_builds):
    """Arrays that pass through actual .npz bytes stay bit-exact."""
    import io

    spec, build = reference_builds["synergistic"]
    netlist = build.layout.netlist
    record, arrays = encode_build(build, netlist)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as payload:
        loaded = {name: payload[name] for name in payload.files}
    decoded = decode_build(
        json.loads(json.dumps(record)), loaded, netlist
    )
    assert_builds_equal(build, decoded)


def test_decode_ignores_the_retired_placer_keys(reference_builds):
    """Entries written while the placer config had six fields still load.

    Older records carry ``ordering``, ``refinement_rounds``,
    ``iterations_per_round``, ``damping`` and ``max_fanout_for_attraction``
    (always at these defaults) beside ``seed``; the payload columns are the
    same, so such a record decodes to the same layout and re-encodes to the
    same bytes.
    """
    import copy

    spec, build = reference_builds["placement_perturbation"]
    netlist = build.layout.netlist
    record, arrays = encode_build(build, netlist)
    assert list(record["layout"]["placement"]["config"]) == ["seed"]
    old = copy.deepcopy(record)
    old["layout"]["placement"]["config"].update(
        ordering="dfs", refinement_rounds=0, iterations_per_round=3,
        damping=0.5, max_fanout_for_attraction=64,
    )
    decoded = decode_build(old, arrays, netlist)
    assert_layouts_equal(decode_build(record, arrays, netlist).layout,
                         decoded.layout)
    assert_builds_equal(build, decoded)
    re_record, re_arrays = encode_build(decoded, netlist)
    assert re_record == record
    assert list(re_arrays) == list(arrays)
    for name, column in arrays.items():
        assert re_arrays[name].dtype == column.dtype, name
        assert re_arrays[name].tobytes() == column.tobytes(), name


def test_proposed_build_is_unstorable(plain_ws):
    build = plain_ws.build(_spec("proposed"))
    with pytest.raises(UnstorableBuild):
        encode_build(build, build.layout.netlist)


def test_decode_rejects_wrong_netlist(reference_builds):
    """A fingerprint mismatch is a *stale* entry, not silent corruption."""
    from repro.circuits.registry import get_benchmark

    spec, build = reference_builds["layout_randomization"]
    record, arrays = encode_build(build, build.layout.netlist)
    other = get_benchmark("c432", seed=99)
    with pytest.raises(StaleEntry):
        decode_build(record, arrays, other)


def test_decode_rejects_future_codec_version(reference_builds):
    from repro.store import CodecError

    spec, build = reference_builds["layout_randomization"]
    record, arrays = encode_build(build, build.layout.netlist)
    record = dict(record, codec_version=CODEC_FORMAT_VERSION + 1)
    with pytest.raises(CodecError):
        decode_build(record, arrays, build.layout.netlist)


def test_jsonable_metadata_types_round_trip():
    value = {
        "tuple": (1, 2.5, "x"),
        "nested": {"list": [1, (2, 3)], "none": None},
        "bool": True,
        "float": 0.1 + 0.2,
    }
    encoded = json.loads(json.dumps(_encode_jsonable(value)))
    assert _typed(_decode_jsonable(encoded)) == _typed(value)


# ---------------------------------------------------------------------------
# Disk store
# ---------------------------------------------------------------------------


def _save(store, spec, build) -> str:
    key = spec.build_key()
    assert store.save(key, build, spec.build_dict(), build.layout.netlist)
    return key


def test_store_save_load_roundtrip(tmp_path, reference_builds):
    store = ArtifactStore(tmp_path / "store")
    spec, build = reference_builds["layout_randomization"]
    key = _save(store, spec, build)
    assert store.has(key)
    # Second save of the same key is a no-op, not an error.
    assert not store.save(key, build, spec.build_dict(),
                          build.layout.netlist)

    # A fresh store handle builds the netlist from the payload alone.
    fresh = ArtifactStore(tmp_path / "store")
    loaded = fresh.load(key)
    assert loaded is not None
    assert fresh.stats["hits"] == 1
    assert_builds_equal(build, loaded)
    assert loaded.layout.netlist.topology_version == \
        build.layout.netlist.topology_version


def test_regenerate_netlist_matches_fingerprint(reference_builds):
    spec, build = reference_builds["original"]
    regenerated = regenerate_netlist(spec.build_dict())
    assert netlist_fingerprint(regenerated) == \
        netlist_fingerprint(build.layout.netlist)


def test_corrupt_payload_is_quarantined_not_fatal(tmp_path, reference_builds):
    store = ArtifactStore(tmp_path / "store")
    spec, build = reference_builds["layout_randomization"]
    key = _save(store, spec, build)

    payload = store._entry_dir(key) / "payload.npz"
    raw = bytearray(payload.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    payload.write_bytes(bytes(raw))

    assert store.load(key) is None
    assert not store.has(key)
    assert store.stats["quarantined"] == 1
    bad = store.quarantined()
    assert len(bad) == 1
    assert "checksum" in (bad[0] / "reason.txt").read_text()
    # The slot is free again: a rebuild re-installs cleanly.
    assert store.save(key, build, spec.build_dict(), build.layout.netlist)
    assert store.load(key) is not None


def test_truncated_payload_with_fixed_checksum_is_quarantined(
        tmp_path, reference_builds):
    """Damage the payload *and* the manifest checksum: decode must catch it."""
    store = ArtifactStore(tmp_path / "store")
    spec, build = reference_builds["layout_randomization"]
    key = _save(store, spec, build)

    entry = store._entry_dir(key)
    payload = entry / "payload.npz"
    truncated = payload.read_bytes()[: payload.stat().st_size // 2]
    payload.write_bytes(truncated)
    manifest_path = entry / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    import hashlib

    manifest["payload_sha256"] = hashlib.sha256(truncated).hexdigest()
    manifest_path.write_text(json.dumps(manifest))

    assert store.load(key) is None
    assert store.stats["quarantined"] == 1
    assert not store.has(key)


def test_store_format_version_mismatch_is_plain_miss(tmp_path,
                                                     reference_builds):
    store = ArtifactStore(tmp_path / "store")
    spec, build = reference_builds["layout_randomization"]
    key = _save(store, spec, build)

    manifest_path = store._entry_dir(key) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["store_format_version"] = STORE_FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))

    assert store.load(key) is None
    # Another format's entry is not damage: no quarantine.
    assert store.stats["quarantined"] == 0
    assert store.quarantined() == []


def test_readonly_store_semantics(tmp_path, reference_builds):
    root = tmp_path / "store"
    rw = ArtifactStore(root)
    spec, build = reference_builds["layout_randomization"]
    key = _save(rw, spec, build)

    ro = ArtifactStore(root, readonly=True)
    assert ro.load(key) is not None
    other = _spec("pin_swapping")
    _, other_build = reference_builds["pin_swapping"]
    assert not ro.save(other.build_key(), other_build, other.build_dict(),
                       other_build.layout.netlist)
    assert not ro.has(other.build_key())
    from repro.store import ReadOnlyStoreError

    with pytest.raises(ReadOnlyStoreError):
        ro.gc(max_entries=0)


def test_gc_evicts_least_recently_used(tmp_path, plain_ws):
    store = ArtifactStore(tmp_path / "store")
    keys = []
    for seed in (1, 2, 3):
        spec = _spec(seed=seed)
        keys.append(_save(store, spec, plain_ws.build(spec)))
    # Pin a deterministic LRU order (saves can share an mtime tick).
    for offset, key in enumerate(keys):
        manifest = store._entry_dir(key) / "manifest.json"
        os.utime(manifest, (1_000_000 + offset, 1_000_000 + offset))

    assert [e.key for e in store.entries()] == keys
    result = store.gc(max_entries=2)
    assert result["removed"] == 1
    assert store.stats["evicted"] == 1
    assert [e.key for e in store.entries()] == keys[1:]
    assert not store.has(keys[0])

    result = store.gc(max_bytes=0)
    assert result["remaining"] == 0
    assert store.entries() == []


def test_auto_evict_enforces_budget_on_save(tmp_path, plain_ws):
    store = ArtifactStore(tmp_path / "store", max_entries=1)
    first = _spec(seed=1)
    second = _spec(seed=2)
    _save(store, first, plain_ws.build(first))
    key2 = _save(store, second, plain_ws.build(second))
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0].key == key2


def test_export_import_round_trip(tmp_path, reference_builds):
    src = ArtifactStore(tmp_path / "src")
    for scheme in ("layout_randomization", "pin_swapping"):
        spec, build = reference_builds[scheme]
        _save(src, spec, build)

    assert src.export_entries(tmp_path / "dest") == 2
    dest = ArtifactStore(tmp_path / "dest", readonly=True)
    assert len(dest.entries()) == 2
    for scheme in ("layout_randomization", "pin_swapping"):
        spec, build = reference_builds[scheme]
        loaded = dest.load(spec.build_key())
        assert loaded is not None
        assert_builds_equal(build, loaded)

    third = ArtifactStore(tmp_path / "third")
    assert third.import_entries(tmp_path / "dest") == 2
    assert third.import_entries(tmp_path / "dest") == 0  # idempotent
    report = third.verify()
    assert len(report) == 2 and all(row["ok"] for row in report)


def test_open_arrays_and_mmap_agree(tmp_path, reference_builds):
    """``open_arrays(key)`` returns exactly the encoded payload columns."""
    store = ArtifactStore(tmp_path / "store")
    spec, build = reference_builds["synergistic"]
    key = _save(store, spec, build)

    plain = store.open_arrays(key)
    assert plain is not None
    _record, arrays = encode_build(build, build.layout.netlist)
    assert set(plain) == set(arrays)
    for name, array in arrays.items():
        assert plain[name].dtype == np.asarray(array).dtype, name
        assert np.array_equal(plain[name], array), name


# ---------------------------------------------------------------------------
# Workspace integration: memory -> disk -> build
# ---------------------------------------------------------------------------


def _strip_elapsed(payload):
    if isinstance(payload, dict):
        return {k: _strip_elapsed(v) for k, v in payload.items()
                if k != "elapsed_s"}
    if isinstance(payload, list):
        return [_strip_elapsed(v) for v in payload]
    return payload


def _result_dict(result):
    return _strip_elapsed(result.to_dict())


def test_workspace_disk_tier_round_trip(tmp_path):
    root = tmp_path / "store"
    spec = _metric_spec()

    first = Workspace(jobs=1, store=ArtifactStore(root))
    reference = _result_dict(first.run_scenario(spec))
    assert first.stats()["store_misses"] >= 1
    assert ArtifactStore(root, readonly=True).has(spec.build_key())

    second = Workspace(jobs=1, store=ArtifactStore(root))
    replayed = _result_dict(second.run_scenario(spec))
    assert second.stats()["store_hits"] == 1
    assert second.stats()["build_misses"] == 1  # memory miss, served from disk
    assert replayed == reference

    build_a = first.build(spec)
    build_b = second.build(spec)
    assert_builds_equal(build_a, build_b)


def test_workspace_string_store_coerced(tmp_path):
    ws = Workspace(jobs=1, store=str(tmp_path / "store"))
    assert isinstance(ws.store, ArtifactStore)


def test_workspace_readonly_store_forbids_rebuild(tmp_path):
    root = tmp_path / "store"
    spec = _metric_spec()
    Workspace(jobs=1, store=ArtifactStore(root)).run_scenario(spec)

    ro = Workspace(jobs=1, store=ArtifactStore(root, readonly=True))
    # The stored key replays fine...
    assert _result_dict(ro.run_scenario(spec)) is not None
    # ...but an absent key must not silently rebuild.
    missing = _metric_spec(seed=7)
    with pytest.raises(BuildError, match="read-only"):
        ro.build(missing)
    with pytest.raises(BuildError, match="read-only"):
        ro.prewarm([_metric_spec(seed=8)], on_error="raise")


def test_workspace_rebuilds_after_disk_corruption(tmp_path):
    root = tmp_path / "store"
    spec = _metric_spec()
    first = Workspace(jobs=1, store=ArtifactStore(root))
    reference = _result_dict(first.run_scenario(spec))

    payload = ArtifactStore(root)._entry_dir(spec.build_key()) / "payload.npz"
    raw = bytearray(payload.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    payload.write_bytes(bytes(raw))

    second = Workspace(jobs=1, store=ArtifactStore(root))
    rebuilt = _result_dict(second.run_scenario(spec))
    assert rebuilt == reference
    assert second.store.stats["quarantined"] == 1
    # The rebuild healed the store: a third workspace hits clean.
    third = Workspace(jobs=1, store=ArtifactStore(root))
    assert _result_dict(third.run_scenario(spec)) == reference
    assert third.stats()["store_hits"] == 1


def test_sweep_replays_from_store_without_rebuilding(tmp_path):
    """The golden resume property: rerunning a sweep is pure disk replay."""
    root = tmp_path / "store"
    spec = ScenarioSpec(
        benchmark="c432", scheme="layout_randomization",
        metrics=["wirelength_layers"], seeds=[1, 2, 3], netlist_seed=1,
    )
    first = Workspace(jobs=1, store=ArtifactStore(root))
    reference = _strip_elapsed(first.run_sweep(spec).to_dict())

    second = Workspace(jobs=1, store=ArtifactStore(root))
    replayed = _strip_elapsed(second.run_sweep(spec).to_dict())
    assert replayed == reference
    assert second.stats()["store_hits"] == len(spec.seeds)
    assert second.stats()["store_misses"] == 0
    assert second.store.stats["saves"] == 0


def test_prewarm_resolves_from_store(tmp_path):
    root = tmp_path / "store"
    specs = [_metric_spec(seed=seed) for seed in (1, 2)]
    first = Workspace(jobs=1, store=ArtifactStore(root))
    first.prewarm(specs)
    # Saves may happen on a worker-side store handle; check the disk.
    assert len(ArtifactStore(root, readonly=True).entries()) >= 2

    second = Workspace(jobs=1, store=ArtifactStore(root))
    second.prewarm(specs)
    assert second.stats()["store_hits"] == 2
    assert second.store.stats["saves"] == 0
    for spec in specs:
        assert second.has_build(spec)


def test_spec_from_build_dict_round_trips_key():
    for spec in (
        _spec(),
        _spec("original", seed=3),
        ScenarioSpec(benchmark="c880", scheme="pin_swapping",
                     scheme_params={"swap_fraction": 0.25}, seed=5,
                     netlist_seed=2),
    ):
        restored = ScenarioSpec.from_build_dict(spec.build_dict())
        assert restored.build_key() == spec.build_key()

    with pytest.raises(TypeError):
        ScenarioSpec.from_build_dict({"scheme": "original"})  # no benchmark
    with pytest.raises(TypeError):
        ScenarioSpec.from_build_dict(
            {"benchmark": "c432", "unexpected": 1})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _populated_store(tmp_path, reference_builds) -> str:
    root = tmp_path / "store"
    store = ArtifactStore(root)
    for scheme in ("layout_randomization", "original"):
        spec, build = reference_builds[scheme]
        _save(store, spec, build)
    return str(root)


def test_cli_cache_ls_and_verify(tmp_path, reference_builds, capsys):
    from repro.api.cli import main

    root = _populated_store(tmp_path, reference_builds)
    assert main(["cache", "ls", "--store", root]) == 0
    out = capsys.readouterr().out
    assert "c432" in out and "layout_randomization" in out

    assert main(["cache", "ls", "--store", root, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["benchmark"] == "c432" for row in rows)

    assert main(["cache", "verify", "--store", root]) == 0
    out = capsys.readouterr().out
    assert "2/2" in out


def test_cli_cache_verify_flags_damage(tmp_path, reference_builds, capsys):
    from repro.api.cli import main

    root = _populated_store(tmp_path, reference_builds)
    store = ArtifactStore(root)
    victim = store.entries()[0]
    payload = victim.path / "payload.npz"
    raw = bytearray(payload.read_bytes())
    raw[-100] ^= 0xFF
    payload.write_bytes(bytes(raw))

    assert main(["cache", "verify", "--store", root]) == 1
    assert "QUARANTINED" in capsys.readouterr().out


def test_cli_cache_gc_export_import(tmp_path, reference_builds, capsys):
    from repro.api.cli import main

    root = _populated_store(tmp_path, reference_builds)
    dest = str(tmp_path / "exported")
    assert main(["cache", "export", dest, "--store", root]) == 0
    assert len(ArtifactStore(dest, readonly=True).entries()) == 2

    assert main(["cache", "gc", "--store", root, "--max-entries", "0"]) == 0
    assert ArtifactStore(root, readonly=True).entries() == []

    assert main(["cache", "import", dest, "--store", root]) == 0
    assert len(ArtifactStore(root, readonly=True).entries()) == 2
    capsys.readouterr()


def test_cli_cache_export_key_prefix(tmp_path, reference_builds, capsys):
    from repro.api.cli import main

    root = _populated_store(tmp_path, reference_builds)
    spec, _build = reference_builds["original"]
    key = spec.build_key()
    dest = str(tmp_path / "one")
    assert main(["cache", "export", dest, key[:12], "--store", root]) == 0
    exported = ArtifactStore(dest, readonly=True).entries()
    assert [e.key for e in exported] == [key]

    assert main(["cache", "export", dest, "ffffffffffff",
                 "--store", root]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Hypothesis: metadata codec + store round trip under random specs
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
_jsonable = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@given(value=_jsonable)
@settings(max_examples=60, deadline=None)
def test_jsonable_codec_property(value):
    encoded = json.loads(json.dumps(_encode_jsonable(value)))
    assert _typed(_decode_jsonable(encoded)) == _typed(value)


@given(
    scheme=st.sampled_from(["layout_randomization", "pin_swapping",
                            "routing_perturbation"]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_store_round_trip_property(tmp_path_factory, scheme, seed):
    """Any (scheme, seed) cell survives the full disk round trip bit-exactly."""
    ws = Workspace(jobs=1, store=None)
    spec = ScenarioSpec(benchmark="c17", scheme=scheme, seed=seed)
    build = ws.build(spec)
    store = ArtifactStore(tmp_path_factory.mktemp("prop-store"))
    key = spec.build_key()
    assert store.save(key, build, spec.build_dict(), build.layout.netlist)
    loaded = ArtifactStore(store.root).load(key)
    assert loaded is not None
    assert_builds_equal(build, loaded)
