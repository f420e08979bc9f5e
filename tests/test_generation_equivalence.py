"""Bulk netlist construction, the column fingerprint and the one-read
store decode, held to their oracles.

* ``generate_random_logic`` fills the gate and net tables directly; it must
  give the netlist, pickle bytes and ``topology_version`` that the per-edit
  constructor in ``tests/netlist_oracle.py`` gives, the same structure
  document text and the same fingerprint.
* ``netlist_fingerprint`` hashes the netlist's name tables and integer
  columns; a netlist rebuilt from its structure document by another edit
  history must get the same fingerprint, and netlists whose names differ
  (quotes, escapes, NUL, lone surrogates, raw-name order of the outputs)
  must get distinct ones.
* ``ArtifactStore.load`` reads ``payload.bin`` once and copies the columns
  out of those bytes; they must equal the independent reader's in
  ``tests/store_oracle.py`` in dtype, shape and bytes, and the decoder must
  refuse any damaged file with ``ValueError`` only.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import itertools
import json
import os
import pickle
import shutil
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from netlist_oracle import document_twin, generate_random_logic_reference, netlist_document_text
from store_oracle import read_payload
from repro.api import ScenarioSpec, Workspace
from repro.circuits import iscas85, superblue
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.circuits.registry import get_benchmark
from repro.circuits.superblue import SUPERBLUE_PROFILES
from repro.netlist.netlist import Netlist
from repro.store import ArtifactStore, netlist_fingerprint
from repro.store.store import _PAYLOAD_MAGIC, _decode_payload, _payload_chunks

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
    assert netlist_document_text(built) == netlist_document_text(reference)
    assert netlist_fingerprint(built) == netlist_fingerprint(reference)


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
    """``netlist`` and its document rebuilt by another edit history: equal
    texts (checked by ``document_twin``), equal fingerprints."""
    assert netlist_fingerprint(document_twin(netlist)) == netlist_fingerprint(netlist)


def _all_distinct(netlists):
    """Distinct document texts, distinct fingerprints, one per netlist."""
    texts = {netlist_document_text(netlist) for netlist in netlists}
    fingerprints = {netlist_fingerprint(netlist) for netlist in netlists}
    assert len(texts) == len(fingerprints) == len(netlists)


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


def _odd_netlist(odd):
    netlist = Netlist(f"top {odd}")
    netlist.add_primary_input(f"in{odd}")
    netlist.add_primary_input("b")
    netlist.add_gate(f"g{odd}", "NAND2_X1", {"A1": f"in{odd}", "A2": "b", "ZN": f"n{odd}"})
    netlist.add_gate("g2", "INV_X1", {"A": f"n{odd}", "ZN": "out"})
    netlist.add_primary_output(f"po{odd}", f"n{odd}")
    netlist.add_primary_output("po", "out")
    return netlist


@pytest.mark.parametrize("odd", ESCAPED_NAMES)
def test_fingerprint_escapes_names_like_json(odd):
    """A name, its JSON escape, its neighbours and a plain name give
    distinct fingerprints."""
    netlist = _odd_netlist(odd)
    _fingerprints_agree(netlist)
    escaped = json.dumps(odd)[1:-1]
    neighbours = {odd, escaped, odd + "x", f"{odd}\x00", f'{odd}"', "plain"}
    _all_distinct([_odd_netlist(name) for name in sorted(neighbours)])


def test_fingerprint_sorts_raw_names_before_escaping():
    """Output pairs are hashed in raw-name order (``"\\x01"`` sorts before
    ``"A"``, its escape after it); every declaration order and every
    output-to-net map is its own document."""
    netlists = []
    for outputs in itertools.permutations(("A", "\x01", "é", "z")):
        for nets in (("a", "a", "a", "a"), ("a", "b", "a", "b")):
            netlist = Netlist("order")
            netlist.add_primary_input("a")
            netlist.add_primary_input("b")
            for po, net in zip(outputs, nets):
                netlist.add_primary_output(po, net)
            _fingerprints_agree(netlist)
            netlists.append(netlist)
    _all_distinct(netlists)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=6), min_size=4, max_size=4, unique=True))
def test_fingerprint_property_arbitrary_names(names):
    """Every assignment of four arbitrary names to the netlist, an input
    pair, the gate/net and the port is its own document."""
    netlists = []
    for source, other, net, port in itertools.permutations(names):
        netlist = Netlist(port)
        netlist.add_primary_input(source)
        netlist.add_primary_input(other)
        netlist.add_gate(net, "NAND2_X1", {"A1": source, "A2": other, "ZN": net})
        netlist.add_primary_output(port, net)
        _fingerprints_agree(netlist)
        netlists.append(netlist)
    _all_distinct(netlists)


# -- one-read store decode ----------------------------------------------------

def _column_file(**arrays) -> bytes:
    return b"".join(bytes(chunk) for chunk in _payload_chunks(arrays))


def _assert_like_the_reader(raw: bytes, arrays=None):
    decoded = _decode_payload(raw)
    reference = read_payload(raw)
    assert list(decoded) == list(reference)
    for name, expected in reference.items():
        got = decoded[name]
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
        assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable, name
        if arrays is not None:
            assert got.dtype == arrays[name].dtype, name
            assert np.array_equal(got, arrays[name]), name


SAMPLE_COLUMNS = dict(
    ints=np.arange(7), floats=np.linspace(0.0, 1.0, 12).reshape(3, 4),
    text=np.array(["a", "béc"]), empty=np.zeros((0, 5), dtype=np.int16),
    scalar=np.array(2.5), fortran=np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    flags=np.array([True, False]), big_endian=np.arange(4, dtype=">i4"),
    no_strings=np.array([], dtype=np.str_), raw=np.frombuffer(b"bytes\x00", dtype="S2"),
)


def test_payload_decode_matches_the_reader():
    raw = _column_file(**SAMPLE_COLUMNS)
    assert len(raw) % 64 == 0
    _assert_like_the_reader(raw, SAMPLE_COLUMNS)
    _assert_like_the_reader(_column_file(), {})


def _with_table(raw: bytes, edit) -> bytes:
    """``raw`` with its column table replaced by ``edit(table)``, the
    header re-padded and the column bytes kept as they were."""
    magic = len(_PAYLOAD_MAGIC)
    (length,) = struct.unpack("<Q", raw[magic:magic + 8])
    end = magic + 8 + length
    text = json.dumps(edit(json.loads(raw[magic + 8:end]))).encode("ascii")
    header = raw[:magic] + struct.pack("<Q", len(text)) + text
    return header + bytes(-len(header) % 64) + raw[-(-end // 64) * 64:]


def _set(index, field, value):
    def edit(table):
        table[index][field] = value
        return table
    return edit


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _column_file(**SAMPLE_COLUMNS)[:-64], id="truncated"),
    pytest.param(lambda: _column_file(**SAMPLE_COLUMNS) + bytes(64), id="trailing"),
    pytest.param(lambda: _with_table(_column_file(**SAMPLE_COLUMNS), _set(1, 3, 6400)),
                 id="gapped"),
    pytest.param(lambda: _with_table(_column_file(**SAMPLE_COLUMNS), _set(1, 3, 0)),
                 id="overlapping"),
    pytest.param(lambda: _with_table(_column_file(ints=np.arange(8)), _set(0, 1, "|O")),
                 id="objects"),
    pytest.param(lambda: _with_table(_column_file(ints=np.arange(8)), _set(0, 1, "<V8")),
                 id="records"),
    pytest.param(lambda: _with_table(_column_file(ints=np.arange(8)), _set(0, 2, [9])),
                 id="shape"),
])
def test_payload_decode_refuses_what_save_never_writes(make):
    with pytest.raises(ValueError):
        _decode_payload(make())


def _npz(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _flipped_data_byte() -> bytes:
    raw = bytearray(_npz(values=np.arange(100, dtype=np.int64)))
    raw[len(raw) // 3] ^= 0xFF
    return bytes(raw)


def _compressed() -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, values=np.arange(100))
    return buffer.getvalue()


@pytest.mark.parametrize("make", [
    pytest.param(_flipped_data_byte, id="crc"),
    pytest.param(_compressed, id="compressed"),
    pytest.param(lambda: _npz(records=np.zeros(2, dtype=[("x", "<f8"), ("y", "<i4")])),
                 id="records"),
    pytest.param(lambda: _npz(objects=np.array([{"a": 1}], dtype=object)), id="objects"),
    pytest.param(lambda: b"", id="empty"),
])
def test_npz_decode_refuses_what_save_never_writes(make):
    """A ``.npz`` image (what store format 3 wrote: plain, damaged,
    compressed, with a structured or object member) or an empty file is
    never read as a column file."""
    with pytest.raises(ValueError):
        _decode_payload(make())


def test_save_refuses_a_column_it_could_not_decode(tmp_path, monkeypatch):
    """``save`` checks each column's dtype as the decoder does and reports a
    build it cannot write as unstorable."""
    from repro.store import store as store_module

    spec = ScenarioSpec(benchmark="c17", scheme="original", seed=1)
    build = Workspace(store=None).build(spec)
    encode = store_module.encode_build

    def with_an_object_column(*args):
        record, arrays = encode(*args)
        return record, dict(arrays, odd=np.array([{}], dtype=object))

    monkeypatch.setattr(store_module, "encode_build", with_an_object_column)
    store = ArtifactStore(tmp_path / "store")
    assert store.save(spec.build_key(), build, spec.build_dict(), build.layout.netlist) is None
    assert store.stats["unstorable"] == 1 and not store.has(spec.build_key())


def test_store_load_reads_the_payload_once(tmp_path, monkeypatch):
    spec = ScenarioSpec(benchmark="c432", scheme="original", seed=2)
    root = tmp_path / "store"
    Workspace(store=ArtifactStore(root)).build(spec)
    store = ArtifactStore(root)
    (key,) = [entry.key for entry in store.entries()]
    reference = read_payload(store.payload_path(key).read_bytes())
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
    assert opened.count("payload.bin") == 1
    assert store.stats["hits"] == 1 and store.stats["quarantined"] == 0


# -- decoder fuzz -------------------------------------------------------------

@pytest.fixture(scope="module")
def c17_entry(tmp_path_factory):
    """A store holding one c17 build: ``(root, key, payload bytes)``."""
    spec = ScenarioSpec(benchmark="c17", scheme="original", seed=1)
    root = tmp_path_factory.mktemp("fuzz") / "store"
    Workspace(store=ArtifactStore(root)).build(spec)
    store = ArtifactStore(root)
    return root, spec.build_key(), store.payload_path(spec.build_key()).read_bytes()


def _table_end(raw: bytes) -> int:
    magic = len(_PAYLOAD_MAGIC)
    return magic + 8 + struct.unpack("<Q", raw[magic:magic + 8])[0]


def _mutations(raw: bytes):
    """Damage to a column file; each strategy draws ``(must_refuse, bytes)``."""
    table_end = _table_end(raw)
    size = len(read_payload(raw))
    offsets = st.tuples(st.integers(0, size - 1), st.integers(-3, 3).filter(bool))
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: (True, raw[:n])),
        st.binary(min_size=1, max_size=130).map(lambda extra: (True, raw + extra)),
        st.tuples(st.integers(0, table_end - 1), st.integers(1, 255)).map(
            lambda flip: (False, raw[:flip[0]] + bytes([raw[flip[0]] ^ flip[1]])
                          + raw[flip[0] + 1:])),
        offsets.map(lambda shift: (True, _with_table(
            raw, lambda table: _shift(table, shift[0], 64 * shift[1] + 8 * (shift[1] % 2))))),
        st.integers(0, size - 1).map(
            lambda index: (True, _with_table(raw, _set(index, 1, "|O")))),
        st.tuples(st.integers(0, size - 1), st.integers(1, 5)).map(
            lambda grow: (True, _with_table(raw, lambda table: _grow(table, *grow)))),
    )


def _shift(table, index, delta):
    table[index][3] += delta
    return table


def _grow(table, index, extra):
    """Give column ``index`` more elements than its bytes hold."""
    shape = table[index][2]
    table[index][2] = [shape[0] + extra * 1000] + shape[1:] if shape else [extra * 1000]
    return table


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_payload_raises_value_error_and_is_quarantined(c17_entry, data):
    """Truncations, trailing bytes, flips in the magic/length/table, gapped
    or overlapping offsets, an object dtype and a shape its bytes cannot
    hold: the decoder raises only ``ValueError``, and a load of the damaged
    entry (checksum recomputed) returns ``None``, quarantines it with a
    reason and never raises."""
    root, key, raw = c17_entry
    must_refuse, damaged = data.draw(_mutations(raw))
    try:
        _decode_payload(damaged)
        refused = False
    except ValueError:
        refused = True
    assert refused or not must_refuse

    copy = Path(tempfile.mkdtemp(dir=root.parent)) / "store"
    shutil.copytree(root, copy)
    store = ArtifactStore(copy)
    entry = store._entry_dir(key)
    (entry / "payload.bin").write_bytes(damaged)
    manifest = json.loads((entry / "manifest.json").read_text())
    manifest["payload_sha256"] = hashlib.sha256(damaged).hexdigest()
    (entry / "manifest.json").write_text(json.dumps(manifest))
    build = store.load(key)
    if refused:
        assert build is None
        (bad,) = store.quarantined()
        assert (bad / "reason.txt").read_text().strip()
    shutil.rmtree(copy.parent)
