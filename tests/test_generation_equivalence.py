"""Bulk netlist construction, the formatted fingerprint and the one-read
store decode, held to their oracles.

* ``generate_random_logic`` fills the gate and net tables directly; it must
  give the netlist, pickle bytes and ``topology_version`` that the per-edit
  constructor in ``tests/netlist_oracle.py`` gives.
* ``netlist_fingerprint`` formats the fingerprint text itself; it must
  hash what ``json.dumps`` of the fingerprint document hashes, edited
  netlists and names that need JSON escaping included.
* ``ArtifactStore.load`` reads ``payload.npz`` once and decodes the arrays
  from those bytes; they must equal ``np.load``'s in dtype, shape and bytes.
"""

from __future__ import annotations

import builtins
import io
import os
import pickle
import zipfile
from unittest import mock

import numpy as np
import pytest

from netlist_oracle import generate_random_logic_reference, netlist_fingerprint_reference
from repro.api import ScenarioSpec, Workspace
from repro.circuits import iscas85, superblue
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.circuits.registry import get_benchmark
from repro.circuits.superblue import SUPERBLUE_PROFILES
from repro.netlist.netlist import Netlist
from repro.store import ArtifactStore, netlist_fingerprint
from repro.store.store import _decode_npz

#: Superblue scales of the default config, the goldens, ``quick_config()``
#: and the end-to-end bench.
SUPERBLUE_SCALES = (0.001, 0.002, 0.0025, 0.005, 0.01)


def _assert_same_construction(name, seed, scale=None):
    built = get_benchmark(name, seed=seed, scale=scale)
    with mock.patch.object(iscas85, "generate_random_logic",
                           generate_random_logic_reference), \
            mock.patch.object(superblue, "generate_random_logic",
                              generate_random_logic_reference):
        reference = get_benchmark(name, seed=seed, scale=scale)
    assert pickle.dumps(built) == pickle.dumps(reference)
    assert built.topology_version == reference.topology_version
    assert netlist_fingerprint(built) == netlist_fingerprint_reference(reference)


@pytest.mark.parametrize("name", sorted(ISCAS85_PROFILES))
@pytest.mark.parametrize("seed", (0, 1))
def test_iscas_construction_matches_oracle(name, seed):
    _assert_same_construction(name, seed)


@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
@pytest.mark.parametrize("scale", (0.001, 0.002))
def test_superblue_construction_matches_oracle(name, scale):
    _assert_same_construction(name, 0, scale)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ISCAS85_PROFILES) + sorted(SUPERBLUE_PROFILES))
def test_every_benchmark_seed_matches_oracle(name):
    for seed in range(32):
        _assert_same_construction(name, seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
@pytest.mark.parametrize("scale", SUPERBLUE_SCALES)
def test_every_superblue_scale_matches_oracle(name, scale):
    for seed in range(4):
        _assert_same_construction(name, seed, scale)


def test_spec_variants_match_oracle():
    """Custom mixes, windows, a register-rich design and outputs that
    outnumber the dangling nets."""
    specs = [
        RandomLogicSpec(name="tiny", num_gates=1, num_inputs=1, num_outputs=3, seed=4),
        RandomLogicSpec(name="wide", num_gates=120, num_inputs=2, num_outputs=40,
                        seed=7, locality_window=1, global_net_fraction=1.0),
        RandomLogicSpec(name="seq", num_gates=300, num_inputs=5, num_outputs=9,
                        seed=2, sequential_fraction=0.5, global_net_fraction=0.0),
        RandomLogicSpec(name="mix", num_gates=90, num_inputs=6, num_outputs=4, seed=1,
                        cell_mix=(("XOR2_X1", 1.0), ("NAND4_X1", 3), ("INV_X1", 0.5))),
    ]
    for spec in specs:
        built = generate_random_logic(spec)
        reference = generate_random_logic_reference(spec)
        assert pickle.dumps(built) == pickle.dumps(reference), spec.name
        assert built.topology_version == reference.topology_version, spec.name


# -- fingerprint --------------------------------------------------------------

ESCAPED_NAMES = ('say "hi"', "back\\slash", "café", "tab\there", "nl\n",
                 "del\x7f", "nul\x00", "☃", "lone \ud800")


def _fingerprints_agree(netlist):
    assert netlist_fingerprint(netlist) == netlist_fingerprint_reference(netlist)


def test_fingerprint_matches_oracle_after_edits():
    netlist = get_benchmark("c432", seed=3)
    _fingerprints_agree(netlist)
    gate = next(g for g in netlist.gates.values() if len(g.input_pin_names) > 1)
    pin = gate.input_pin_names[0]
    netlist.move_sink(gate.name, pin, netlist.primary_inputs[0])
    _fingerprints_agree(netlist)
    netlist.set_dont_touch(gate.name)
    netlist._bump_version()
    _fingerprints_agree(netlist)
    netlist.add_net("floating")
    netlist.disconnect_pin(gate.name, gate.input_pin_names[-1])
    netlist.retarget_primary_output(netlist.primary_outputs[0], "floating")
    _fingerprints_agree(netlist)


@pytest.mark.parametrize("odd", ESCAPED_NAMES)
def test_fingerprint_escapes_names_like_json(odd):
    netlist = Netlist(f"top {odd}")
    netlist.add_primary_input(f"in{odd}")
    netlist.add_primary_input("b")
    netlist.add_gate(f"g{odd}", "NAND2_X1", {"A1": f"in{odd}", "A2": "b", "ZN": f"n{odd}"})
    netlist.add_gate("g2", "INV_X1", {"A": f"n{odd}", "ZN": "out"})
    netlist.add_primary_output(f"po{odd}", f"n{odd}")
    netlist.add_primary_output("po", "out")
    _fingerprints_agree(netlist)


def test_fingerprint_sorts_raw_names_before_escaping():
    """Escaping reorders names (``"\\x01"`` sorts before ``"A"``, its
    escape after it); pairs keep the raw order."""
    netlist = Netlist("order")
    netlist.add_primary_input("a")
    for po in ("A", "\x01", "é", "z"):
        netlist.add_primary_output(po, "a")
    _fingerprints_agree(netlist)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4, unique=True))
def test_fingerprint_property_arbitrary_names(names):
    source, other, net, port = names
    netlist = Netlist(port)
    netlist.add_primary_input(source)
    netlist.add_primary_input(other)
    netlist.add_gate(net, "NAND2_X1", {"A1": source, "A2": other, "ZN": net})
    netlist.add_primary_output(port, net)
    _fingerprints_agree(netlist)


# -- one-read store decode ----------------------------------------------------

def _npz(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _assert_like_np_load(raw: bytes):
    decoded = _decode_npz(raw)
    with np.load(io.BytesIO(raw), allow_pickle=False) as reference:
        assert sorted(decoded) == sorted(reference.files)
        for name in reference.files:
            expected, got = reference[name], decoded[name]
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            assert got.tobytes("A") == expected.tobytes("A"), name
            assert got.flags.f_contiguous == expected.flags.f_contiguous, name
            assert got.flags.writeable, name


def test_npz_decode_matches_np_load():
    _assert_like_np_load(_npz(
        ints=np.arange(7), floats=np.linspace(0.0, 1.0, 12).reshape(3, 4),
        text=np.array(["a", "béc"]), empty=np.zeros((0, 5), dtype=np.int16),
        scalar=np.array(2.5), fortran=np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        flags=np.array([True, False]), big_endian=np.arange(4, dtype=">i4"),
        no_strings=np.array([], dtype=np.str_),
    ))


def _flipped_data_byte() -> bytes:
    raw = bytearray(_npz(values=np.arange(100, dtype=np.int64)))
    raw[len(raw) // 3] ^= 0xFF  # inside the member data: CRC-32 mismatch
    return bytes(raw)


def _compressed() -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, values=np.arange(100))
    return buffer.getvalue()


@pytest.mark.parametrize("make, error", [
    pytest.param(_flipped_data_byte, zipfile.BadZipFile, id="crc"),
    pytest.param(_compressed, zipfile.BadZipFile, id="compressed"),
    # Headers save never writes: a structured dtype and an object array.
    pytest.param(lambda: _npz(records=np.zeros(2, dtype=[("x", "<f8"), ("y", "<i4")])),
                 ValueError, id="records"),
    pytest.param(lambda: _npz(objects=np.array([{"a": 1}], dtype=object)),
                 ValueError, id="objects"),
    pytest.param(lambda: b"", zipfile.BadZipFile, id="empty"),
])
def test_npz_decode_refuses_what_save_never_writes(make, error):
    with pytest.raises(error):
        _decode_npz(make())


def test_store_load_reads_the_payload_once(tmp_path, monkeypatch):
    spec = ScenarioSpec(benchmark="c432", scheme="original", seed=2)
    root = tmp_path / "store"
    Workspace(store=ArtifactStore(root)).build(spec)
    store = ArtifactStore(root)
    (key,) = [entry.key for entry in store.entries()]
    with np.load(store.payload_path(key), allow_pickle=False) as payload:
        reference = {name: payload[name] for name in payload.files}
    assert {name: (a.dtype, a.shape, a.tobytes()) for name, a in reference.items()} == {
        name: (a.dtype, a.shape, a.tobytes())
        for name, a in store.open_arrays(key).items()
    }

    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(os.fspath(file)))
        return real_open(file, *args, **kwargs)

    # pathlib opens through io.open, plain open() is builtins.open.
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(np, "load", mock.Mock(side_effect=AssertionError("np.load")))
    assert store.load(key) is not None
    assert opened.count("payload.npz") == 1
    assert store.stats["hits"] == 1 and store.stats["quarantined"] == 0
