"""Column-native FEOL extraction == the object-walk oracle.

:func:`repro.sm.split.extract_feol` computes the cut mask, stub positions
and directions and the view's ``FEOLArrays`` columns on the routing
columns.  The per-object implementation it replaced lives on as
``tests/feol_oracle.py``.  For every layout kind the paper's flows produce —
the unprotected layout, each prior-art defense, the proposed (protected)
layout, the naive-lifted baseline and a store-decoded build — and for every
split layer and several stub fractions, both must build the same view: the
same net sets, the same vpin and open-connection lists in the same order
(the extracted columns read back into objects) and the same columns (the
oracle's objects built into columns).  Extraction must not materialize a
single routed net, and a layout whose routing is rebuilt from its routed
objects (``routing_from_nets`` in ``tests/build_oracle.py``) must extract
to the same view.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from build_oracle import routing_from_nets
from feol_oracle import extract_feol_reference, feol_columns, feol_objects
from repro.api.registry import DEFENSES, ensure_builtins
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core import ProtectionConfig, protect
from repro.layout.arrays import RoutingArrays
from repro.layout.layout import Layout
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.sm.split import DEFAULT_STUB_FRACTION, extract_feol
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
    objects = feol_objects(view)
    assert objects.driver_vpins == reference.driver_vpins
    assert objects.sink_vpins == reference.sink_vpins
    assert objects.open_connections == reference.open_connections
    expected = feol_columns(reference)
    for name in ARRAY_FIELDS:
        ours, theirs = getattr(view.columns, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


def check_layout(layout, kind, grid=FULL_GRID):
    calls = []
    materialize = RoutingArrays.materialize_into
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoutingArrays, "materialize_into",
                      lambda self, net, index: (calls.append(index),
                                                materialize(self, net, index)))
        views = {
            (split, fraction): extract_feol(layout, split, fraction)
            for split, fraction in grid
        }
    assert calls == [], f"{kind} extraction built routed nets"
    for (split, fraction), view in views.items():
        assert_views_equal(
            view, extract_feol_reference(layout, split, fraction))

    # The same layout with its routing rebuilt from its routed objects, and
    # after a pickle round trip.
    rebuilt = Layout(layout.name, layout.netlist, layout.placement,
                     routing_from_nets(layout.routing, layout.netlist),
                     set(layout.protected_nets))
    for split in (2, 4, 6):
        assert_views_equal(
            extract_feol(rebuilt, split), extract_feol_reference(layout, split))
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
