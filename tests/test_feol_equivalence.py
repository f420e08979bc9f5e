"""Column-native FEOL extraction == the object-walk oracle.

:func:`repro.sm.split.extract_feol` computes the cut mask, stub positions
and directions and the ``FEOLArrays`` cache on the routing columns.  The
per-object implementation it replaced lives on as
``tests/feol_oracle.py``.  For every layout kind the paper's flows produce —
the unprotected layout, each prior-art defense, the proposed (protected)
layout, the naive-lifted baseline and a store-decoded build — and for every
split layer and several stub fractions, both must build the same view: the
same net sets, the same vpin and open-connection lists in the same order,
and the same ``FEOLArrays`` columns.  Every producer must hand over a clean
column backing, and extraction must not materialize a single routed net.
Once the oracle has materialized a layout, the extractor reads it through
``RoutingArrays.from_nets``, which must agree too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from feol_oracle import extract_feol_reference
from repro.api.registry import DEFENSES, ensure_builtins
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core import ProtectionConfig, protect
from repro.layout.arrays import routing_backing
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.sm.split import DEFAULT_STUB_FRACTION, FEOLArrays, extract_feol, feol_arrays
from repro.store import codec

ensure_builtins()

#: Zero, the default, and a fraction above 0.5 (clamped to 0.5).
STUB_FRACTIONS = (0.0, DEFAULT_STUB_FRACTION, 0.8)
SPLIT_LAYERS = range(1, NUM_METAL_LAYERS + 1)
#: Every split layer by every stub fraction.
FULL_GRID = tuple(
    (split, fraction) for split in SPLIT_LAYERS for fraction in STUB_FRACTIONS
)
#: Every split layer at the default fraction, every fraction at M4: the
#: slow tier's grid, which keeps the larger circuits affordable.
SLIM_GRID = tuple(
    (split, DEFAULT_STUB_FRACTION) for split in SPLIT_LAYERS
) + ((4, 0.0), (4, 0.8))
#: Layout kinds beyond the registered schemes.
EXTRA_KINDS = ("lifted", "decoded")
KINDS = tuple(sorted(DEFENSES.names())) + EXTRA_KINDS
SUPERBLUE = ("superblue18", 0.002)
ARRAY_FIELDS = (
    "driver_ids", "driver_xy", "driver_dir", "driver_has_dir",
    "driver_max_load", "driver_gate_idx", "sink_ids", "sink_xy", "sink_dir",
    "sink_has_dir", "sink_cap", "sink_gate_idx",
)


def build_layout_of(benchmark: str, kind: str, scale=None):
    netlist = get_benchmark(benchmark, seed=1, scale=scale)
    if kind in ("proposed", "lifted"):
        result = protect(netlist, ProtectionConfig(
            lift_layer=6, swap_fraction_steps=(0.08,), oer_patterns=256,
            build_naive_baseline=(kind == "lifted"), seed=1,
        ))
        return (result.protected_layout if kind == "proposed"
                else result.naive_lifted_layout)
    entry = DEFENSES.get("original" if kind == "decoded" else kind)
    build = entry.fn(netlist, entry.make_params(), 1)
    if kind == "decoded":
        record, arrays = codec.encode_build(build, netlist)
        return codec.decode_build(record, arrays, netlist).layout
    return build.layout


def assert_views_equal(view, reference):
    # Set iteration order too: downstream code may iterate the sets.
    assert list(view.visible_nets) == list(reference.visible_nets)
    assert list(view.cut_nets) == list(reference.cut_nets)
    assert view.driver_vpins == reference.driver_vpins
    assert view.sink_vpins == reference.sink_vpins
    assert view.open_connections == reference.open_connections
    cached = feol_arrays(view)
    expected = FEOLArrays.build(reference)
    for name in ARRAY_FIELDS:
        ours, theirs = getattr(cached, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


def check_layout(layout, kind, grid=FULL_GRID):
    backing = routing_backing(layout.routing)
    assert backing is not None, f"{kind} layout has no clean backing"
    views = {
        (split, fraction): extract_feol(layout, split, fraction)
        for split, fraction in grid
    }
    assert backing.materialized_count == 0
    for (split, fraction), view in views.items():
        assert_views_equal(
            view, extract_feol_reference(layout, split, fraction))

    # The oracle materialized every net: the from_nets path takes over.
    assert routing_backing(layout.routing) is None
    for split in (2, 4, 6):
        assert_views_equal(
            extract_feol(layout, split), extract_feol_reference(layout, split))
    # Plain object nets without any backing (an unpickled routing).
    layout.routing = pickle.loads(pickle.dumps(layout.routing))
    assert_views_equal(
        extract_feol(layout, 4), extract_feol_reference(layout, 4))


@pytest.mark.parametrize("kind", KINDS)
def test_c432_every_layout_kind(kind):
    check_layout(build_layout_of("c432", kind), kind)


def test_superblue_slice_original():
    name, scale = SUPERBLUE
    check_layout(build_layout_of(name, "original", scale), "original")


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "circuit", ["c17"] + sorted(set(ISCAS85_PROFILES) - {"c432"}))
def test_every_iscas_circuit_every_layout_kind(circuit, kind):
    check_layout(build_layout_of(circuit, kind), kind, SLIM_GRID)


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
def test_superblue_slice_every_layout_kind(kind):
    name, scale = SUPERBLUE
    check_layout(build_layout_of(name, kind, scale), kind, SLIM_GRID)
