"""Tests for the columnar geometry core (``repro.layout.arrays``).

Four groups:

* property tests comparing :class:`UniformGridIndex` nearest queries
  against brute force on random point sets (including heavy ties) and
  against the per-query ring walk it replaced;
* legacy-vs-columnar equivalence tests — proximity assignments, connected
  gate distances, distance stats, HPWL, legality, wirelength — on **every**
  ISCAS-85 circuit in the registry;
* the ``geometry_version`` invalidation contract;
* placement skeletons relabelled from the last build, which must equal a
  fresh build in every case.
"""

import math
import pickle
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attack_oracle import grid_nearest_reference, proximity_attack_reference
from feol_oracle import FEOLObjects, VPin, objects_view
from repro.attacks.proximity import proximity_attack
from repro.circuits import get_benchmark, iscas85_netlist
from repro.circuits.iscas85 import ISCAS85_PROFILES
from repro.layout import arrays as arrays_module
from repro.layout import build_layout
from repro.layout.arrays import (
    PlacementSkeleton,
    UniformGridIndex,
    placement_arrays,
)
from repro.layout.geometry import Point, manhattan
from repro.layout.layout import build_layout_batch
from repro.layout.placer import (
    PlacementResult,
    check_legality,
    place_batch,
    placement_hpwl,
)
from repro.metrics.distances import distance_histogram, distance_stats
from repro.metrics.wirelength import wirelength_by_layer
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.sm.split import extract_feol

ISCAS_CIRCUITS = tuple(ISCAS85_PROFILES)

SPLIT_LAYER = 4


@pytest.fixture(scope="module")
def iscas_layouts():
    """One routed layout + FEOL view per ISCAS-85 circuit (built once)."""
    artefacts = {}
    for name in ISCAS_CIRCUITS:
        netlist = iscas85_netlist(name, seed=1)
        layout = build_layout(netlist, seed=1)
        artefacts[name] = (netlist, layout, extract_feol(layout, SPLIT_LAYER))
    return artefacts


# ---------------------------------------------------------------------------
# UniformGridIndex property tests
# ---------------------------------------------------------------------------


def _brute_nearest(points, queries):
    """First-occurrence Manhattan nearest, the reference semantics.

    ``np.argmin`` returns the first minimum, the same answer as a ``for``
    loop over the points with a strict ``<``; chunked so thousands of
    points times thousands of queries stay small.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    indices = []
    distances = []
    for start in range(0, len(queries), 256):
        block = queries[start:start + 256]
        dist = (np.abs(block[:, :1] - points[:, 0])
                + np.abs(block[:, 1:] - points[:, 1]))
        best = np.argmin(dist, axis=1)
        indices.extend(best.tolist())
        distances.extend(dist[np.arange(len(block)), best].tolist())
    return indices, distances


def _random_points(rng, count, snap=None):
    points = []
    for _ in range(count):
        x = rng.uniform(0.0, 100.0)
        y = rng.uniform(0.0, 100.0)
        if snap:
            x = round(x / snap) * snap
            y = round(y / snap) * snap
        points.append((x, y))
    return points


class TestUniformGridIndex:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("snap", [None, 10.0])
    def test_nearest_matches_brute_force(self, seed, snap):
        """Random layouts; snapped variants force many exact distance ties."""
        rng = random.Random(seed)
        points = _random_points(rng, rng.randrange(1, 400), snap=snap)
        queries = _random_points(rng, 200, snap=snap)
        index = UniformGridIndex(np.asarray(points))
        got_idx, got_dist = index.nearest(np.asarray(queries))
        want_idx, want_dist = _brute_nearest(points, queries)
        assert got_idx.tolist() == want_idx
        assert got_dist.tolist() == want_dist

    def test_tie_breaks_to_lowest_index(self):
        # Four candidates at identical distance 1 from the query; a duplicate
        # pair guarantees an exact tie no matter the float representation.
        points = np.asarray([(2.0, 1.0), (1.0, 2.0), (1.0, 0.0), (2.0, 1.0)])
        index = UniformGridIndex(points)
        idx, dist = index.nearest(np.asarray([(1.0, 1.0)]))
        assert idx[0] == 0
        assert dist[0] == 1.0

    def test_collinear_points_stay_bounded_and_correct(self):
        """Near-collinear sets must not blow the grid up to O(span) cells."""
        rng = random.Random(3)
        points = [(rng.uniform(0.0, 5000.0), 1.4) for _ in range(2000)]
        index = UniformGridIndex(np.asarray(points))
        assert index.nx * index.ny <= 16 * len(points) + 16
        queries = [(rng.uniform(0.0, 5000.0), rng.uniform(0.0, 3.0))
                   for _ in range(50)]
        got_idx, got_dist = index.nearest(np.asarray(queries))
        want_idx, want_dist = _brute_nearest(points, queries)
        assert got_idx.tolist() == want_idx
        assert got_dist.tolist() == want_dist

    def test_single_point_and_degenerate_extent(self):
        index = UniformGridIndex(np.asarray([(5.0, 5.0)] * 3))
        idx, dist = index.nearest(np.asarray([(0.0, 0.0), (5.0, 5.0)]))
        assert idx.tolist() == [0, 0]
        assert dist.tolist() == [10.0, 0.0]

    def test_empty_index_rejects_nearest(self):
        index = UniformGridIndex(np.empty((0, 2)))
        with pytest.raises(ValueError):
            index.nearest(np.asarray([(0.0, 0.0)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_are_rejected(self, bad):
        points = np.asarray([(0.0, 0.0), (bad, 1.0), (2.0, 2.0)])
        with pytest.raises(ValueError, match="xy contains non-finite"):
            UniformGridIndex(points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_queries_are_rejected(self, bad):
        index = UniformGridIndex(np.asarray([(0.0, 0.0), (2.0, 2.0)]))
        with pytest.raises(ValueError, match="query_xy contains non-finite"):
            index.nearest(np.asarray([(1.0, 1.0), (1.0, bad)]))

    def test_empty_query_batch(self):
        index = UniformGridIndex(np.asarray([(0.0, 0.0), (2.0, 2.0)]))
        idx, dist = index.nearest(np.empty((0, 2)))
        assert idx.size == 0 and dist.size == 0


@st.composite
def nearest_problems(draw):
    """Point and query sets on an integer lattice, so exact ties are common.

    Shapes: square boxes, a 1000:3 aspect ratio and collinear sets; queries
    reach past the points' bounding box.  A small lattice makes duplicate
    points likely.
    """
    num_points = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    num_queries = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    shape = draw(st.sampled_from(["square", "wide", "collinear"]))
    lattice = draw(st.integers(1, 60))
    pitch = draw(st.sampled_from([1.0, 0.5, 7.25]))
    margin = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width, height = {
        "square": (lattice, lattice),
        "wide": (1000 * lattice, 3),
        "collinear": (lattice, 0),
    }[shape]
    points = np.column_stack([
        rng.integers(0, width + 1, num_points),
        rng.integers(0, height + 1, num_points),
    ]) * pitch
    queries = np.column_stack([
        rng.integers(-margin, width + margin + 1, num_queries),
        rng.integers(-margin, height + margin + 1, num_queries),
    ]) * pitch
    return points.astype(np.float64), queries.astype(np.float64)


@settings(max_examples=120, deadline=None)
@given(nearest_problems())
def test_nearest_matches_brute_force_property(problem):
    points, queries = problem
    got_idx, got_dist = UniformGridIndex(points).nearest(queries)
    want_idx, want_dist = _brute_nearest(points, queries)
    assert got_idx.tolist() == want_idx
    assert got_dist.tolist() == want_dist


# ---------------------------------------------------------------------------
# Legacy vs columnar equivalence on every ISCAS circuit
# ---------------------------------------------------------------------------


def _legacy_connected_gate_distances(layout, nets=None):
    """The historical per-pair loop over netlist.nets (seed semantics)."""
    distances = []
    for net_name, net in layout.netlist.nets.items():
        if nets is not None and net_name not in nets:
            continue
        if net.driver is None:
            continue
        driver_pos = layout.placement.gate_positions.get(net.driver[0])
        if driver_pos is None:
            continue
        for sink_gate, _pin in net.sinks:
            sink_pos = layout.placement.gate_positions.get(sink_gate)
            if sink_pos is not None:
                distances.append(manhattan(driver_pos, sink_pos))
    return distances


def _legacy_placement_hpwl(netlist, placement):
    total = 0.0
    for net in netlist.nets.values():
        xs, ys = [], []
        if net.driver is not None:
            p = placement.gate_positions.get(net.driver[0])
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        elif net.is_primary_input:
            p = placement.port_positions.get(net.name)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for sink_gate, _pin in net.sinks:
            p = placement.gate_positions.get(sink_gate)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for po in net.primary_outputs:
            p = placement.port_positions.get(po)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def _legacy_check_legality(netlist, placement, tolerance=1e-6):
    problems = []
    fp = placement.floorplan
    by_row = {}
    for name, pos in placement.gate_positions.items():
        width = netlist.gates[name].cell.width_um
        if pos.x < fp.die.x_min - tolerance or pos.x + width > fp.die.x_max + width + tolerance:
            problems.append(f"{name} outside die in x")
        if pos.y < fp.die.y_min - tolerance or pos.y > fp.die.y_max + tolerance:
            problems.append(f"{name} outside die in y")
        row = fp.nearest_row(pos.y)
        by_row.setdefault(row, []).append((pos.x, width, name))
    for row, cells in by_row.items():
        cells.sort()
        for (x1, w1, n1), (x2, _w2, n2) in zip(cells, cells[1:]):
            if x2 < x1 + w1 * 0.5 - tolerance:
                problems.append(f"severe overlap between {n1} and {n2} in row {row}")
    return problems


@pytest.mark.parametrize("circuit", ISCAS_CIRCUITS)
class TestColumnarEquivalence:
    def test_proximity_assignment_bit_exact(self, iscas_layouts, circuit):
        _netlist, _layout, view = iscas_layouts[circuit]
        vectorized = proximity_attack(view)
        reference = proximity_attack_reference(view)
        assert vectorized.assignment == reference.assignment
        assert vectorized.num_sinks == reference.num_sinks
        assert vectorized.num_drivers == reference.num_drivers

    def test_connected_gate_distances_bit_exact(self, iscas_layouts, circuit):
        _netlist, layout, _view = iscas_layouts[circuit]
        assert layout.connected_gate_distances() == _legacy_connected_gate_distances(layout)

    def test_restricted_distances_bit_exact(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        nets = view.cut_nets
        assert layout.connected_gate_distances(nets) == _legacy_connected_gate_distances(
            layout, nets
        )

    def test_distance_stats_match_statistics_module(self, iscas_layouts, circuit):
        _netlist, layout, _view = iscas_layouts[circuit]
        stats = distance_stats(layout)
        values = _legacy_connected_gate_distances(layout)
        assert stats.count == len(values)
        assert stats.values == values
        assert stats.mean == pytest.approx(statistics.mean(values), rel=1e-12)
        assert stats.median == pytest.approx(statistics.median(values), rel=1e-12)
        assert stats.std_dev == pytest.approx(statistics.pstdev(values), rel=1e-9)

    def test_hpwl_matches_legacy(self, iscas_layouts, circuit):
        netlist, layout, _view = iscas_layouts[circuit]
        assert placement_hpwl(netlist, layout.placement) == pytest.approx(
            _legacy_placement_hpwl(netlist, layout.placement), rel=1e-12
        )

    def test_legality_matches_legacy(self, iscas_layouts, circuit):
        netlist, layout, _view = iscas_layouts[circuit]
        assert check_legality(netlist, layout.placement) == _legacy_check_legality(
            netlist, layout.placement
        )

    def test_wirelength_by_layer_matches_legacy(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        legacy = {layer: 0.0 for layer in range(1, NUM_METAL_LAYERS + 1)}
        for routed in layout.routing.values():
            for layer, length in routed.wirelength_by_layer().items():
                legacy[layer] += length
        columnar = wirelength_by_layer(layout)
        assert set(columnar) == set(legacy)
        for layer in legacy:
            assert columnar[layer] == pytest.approx(legacy[layer], rel=1e-12, abs=1e-9)
        # Restricted to the cut nets as well.
        restricted = wirelength_by_layer(layout, view.cut_nets)
        legacy_cut = {layer: 0.0 for layer in range(1, NUM_METAL_LAYERS + 1)}
        for net_name, routed in layout.routing.items():
            if net_name not in view.cut_nets:
                continue
            for layer, length in routed.wirelength_by_layer().items():
                legacy_cut[layer] += length
        for layer in legacy_cut:
            assert restricted[layer] == pytest.approx(legacy_cut[layer], rel=1e-12, abs=1e-9)

    def test_via_counts_exact(self, iscas_layouts, circuit):
        _netlist, layout, view = iscas_layouts[circuit]
        legacy = {(layer, layer + 1): 0 for layer in range(1, NUM_METAL_LAYERS)}
        for routed in layout.routing.values():
            for key, count in routed.via_counts().items():
                legacy[key] = legacy.get(key, 0) + count
        assert layout.via_counts() == legacy
        # Net-restricted variant against a per-net legacy accumulation.
        legacy_cut = {(layer, layer + 1): 0 for layer in range(1, NUM_METAL_LAYERS)}
        for net_name, routed in layout.routing.items():
            if net_name not in view.cut_nets:
                continue
            for key, count in routed.via_counts().items():
                legacy_cut[key] = legacy_cut.get(key, 0) + count
        assert layout.arrays().via_counts(NUM_METAL_LAYERS, view.cut_nets) == legacy_cut


# ---------------------------------------------------------------------------
# Tie-breaking of the proximity attack (explicit determinism contract)
# ---------------------------------------------------------------------------


def _vpin(identifier, kind, x, y):
    return VPin(identifier=identifier, kind=kind, position=Point(x, y),
                gate=None, pin=None, cell=None, direction=None)


def test_proximity_tie_breaks_to_first_driver(iscas_layouts):
    """Equidistant drivers: the first driver row must win."""
    _netlist, _layout, extracted = iscas_layouts["c432"]
    # Drivers 10/11/12 are all at Manhattan distance 2 from the sink; driver
    # 13 at the same position as 10 duplicates the winning distance exactly.
    view = objects_view(extracted, FEOLObjects(
        driver_vpins=[
            _vpin(10, "driver", 2.0, 0.0),
            _vpin(11, "driver", 0.0, 2.0),
            _vpin(12, "driver", 1.0, 1.0),
            _vpin(13, "driver", 2.0, 0.0),
        ],
        sink_vpins=[_vpin(20, "sink", 0.0, 0.0)],
    ))
    assert proximity_attack(view).assignment == {20: 10}
    assert proximity_attack_reference(view).assignment == {20: 10}


def test_proximity_matches_ring_walk_on_batched_superblue_views():
    """The ring program equals the per-query walk on four seeds' M6 views."""
    netlist = get_benchmark("superblue18", seed=1, scale=0.002)
    for layout in build_layout_batch(netlist, [1, 2, 3, 4]):
        view = extract_feol(layout, 6)
        arrays = view.columns
        grid = arrays.driver_grid()
        got_idx, got_dist = grid.nearest(arrays.sink_xy)
        want_idx, want_dist = grid_nearest_reference(grid, arrays.sink_xy)
        assert got_idx.tolist() == want_idx.tolist()
        assert got_dist.tolist() == want_dist.tolist()
        assert proximity_attack(view).assignment == {
            int(sink): int(driver)
            for sink, driver in zip(arrays.sink_ids, arrays.driver_ids[want_idx])
        }


# ---------------------------------------------------------------------------
# geometry_version invalidation contract
# ---------------------------------------------------------------------------


class TestGeometryVersion:
    def test_placement_cache_reused_until_bumped(self, c432):
        layout = build_layout(c432, seed=1)
        first = placement_arrays(c432, layout.placement)
        assert placement_arrays(c432, layout.placement) is first
        layout.placement.bump_geometry_version()
        assert placement_arrays(c432, layout.placement) is not first

    def test_moved_gate_reflected_after_bump(self, c432):
        layout = build_layout(c432, seed=1)
        baseline = layout.connected_gate_distances()
        old = layout.placement.gate_x
        version = layout.placement.geometry_version
        moved_x = old.copy()
        moved_x[0] += 11.0
        # The setter bumps geometry_version itself.
        layout.placement.set_coordinates(gate_x=moved_x)
        assert layout.placement.geometry_version == version + 1
        moved = layout.connected_gate_distances()
        assert moved == _legacy_connected_gate_distances(layout)
        assert moved != baseline
        # Restore for sibling tests (fixture netlist is shared).
        layout.placement.set_coordinates(gate_x=old)

    def test_layout_arrays_cache_keyed_on_versions(self, c432):
        layout = build_layout(c432, seed=1)
        first = layout.arrays()
        assert layout.arrays() is first
        layout.bump_geometry_version()
        assert layout.arrays() is not first

    def test_cached_arrays_not_pickled(self, c432):
        layout = build_layout(c432, seed=1)
        layout.arrays()
        assert "_geometry_cache" in layout.__dict__
        clone = pickle.loads(pickle.dumps(layout))
        assert "_geometry_cache" not in clone.__dict__
        assert "_geometry_cache" not in clone.placement.__dict__
        # And the clone rebuilds identical geometry.
        assert clone.connected_gate_distances() == layout.connected_gate_distances()


def test_distance_histogram_matches_legacy_binning():
    rng = random.Random(7)
    values = [rng.uniform(0.0, 50.0) for _ in range(500)] + [0.0, 50.0]
    num_bins = 16
    top = max(values) or 1.0
    legacy = [0] * num_bins
    for value in values:
        legacy[min(int(num_bins * value / top), num_bins - 1)] += 1
    assert distance_histogram(values, num_bins) == legacy
    assert distance_histogram([], num_bins) == [0] * num_bins


# ---------------------------------------------------------------------------
# Placement skeletons relabelled from the last build
# ---------------------------------------------------------------------------


def _assert_fresh(netlist, placement):
    """``placement_arrays`` equals a view built from a fresh skeleton."""
    got = placement_arrays(netlist, placement)
    fresh = PlacementSkeleton.build(netlist, placement)
    for name in PlacementSkeleton.__dataclass_fields__:
        have, want = getattr(got.skeleton, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype, name
            assert have.tolist() == want.tolist(), name
        else:
            assert have == want, name
    combined = np.concatenate([got.gate_xy, got.port_xy])
    assert got.term_x.tolist() == combined[fresh.term_indices, 0].tolist()
    assert got.term_y.tolist() == combined[fresh.term_indices, 1].tolist()
    return got.skeleton


def _copy_placement(placement, gate_positions=None, port_positions=None):
    return PlacementResult.from_positions(
        placement.floorplan,
        dict(placement.gate_positions
             if gate_positions is None else gate_positions),
        dict(placement.port_positions
             if port_positions is None else port_positions),
    )


class TestSkeletonRelabel:
    @pytest.fixture()
    def netlist(self, monkeypatch):
        monkeypatch.setattr(arrays_module, "_last_built", None)
        return iscas85_netlist("c432", seed=1)

    def test_every_batch_seed_equals_a_fresh_build(self, netlist):
        placements = place_batch(netlist, [1, 2, 3, 4])
        orders = {tuple(p.gate_positions) for p in placements}
        assert len(orders) > 1  # the seeds really do reorder the gates
        first = _assert_fresh(netlist, placements[0])
        for placement in placements[1:]:
            skeleton = _assert_fresh(netlist, placement)
            assert skeleton.net_names is first.net_names  # relabelled

    def test_extra_and_missing_gates_build_fresh(self, netlist):
        base, other = place_batch(netlist, [1, 2])
        extra = {**other.gate_positions, "ghost": Point(0.0, 0.0)}
        missing = dict(other.gate_positions)
        missing.pop(next(iter(missing)))
        for gates in (extra, missing):
            _assert_fresh(netlist, _copy_placement(base))
            _assert_fresh(netlist, _copy_placement(other, gates))
        # A base holding a gate the netlist lacks is not relabelled either.
        _assert_fresh(netlist, _copy_placement(other, extra))
        reordered = {**base.gate_positions, "ghost": Point(0.0, 0.0)}
        assert _assert_fresh(netlist, _copy_placement(base, reordered)).missing_gates == [
            "ghost"
        ]

    def test_different_port_list_builds_fresh(self, netlist):
        base, other = place_batch(netlist, [1, 2])
        _assert_fresh(netlist, base)
        ports = list(other.port_positions.items())
        _assert_fresh(netlist, _copy_placement(other, port_positions=ports[::-1]))
        _assert_fresh(netlist, _copy_placement(other, port_positions=ports[1:]))

    def test_netlist_copy_with_the_same_name_builds_fresh(self, netlist):
        """A same-named copy at the same version but another topology."""
        base, other = place_batch(netlist, [1, 2])
        clone = netlist.copy()
        assert clone.name == netlist.name
        spare = 0
        clone.add_net("spare0")
        while clone.topology_version != netlist.topology_version:
            spare += 1
            lower = min(clone, netlist, key=lambda n: n.topology_version)
            lower.add_net(f"spare{spare}")
        _assert_fresh(netlist, base)
        _assert_fresh(clone, other)

    def test_topology_edit_between_builds(self, netlist):
        base, other = place_batch(netlist, [1, 2])
        _assert_fresh(netlist, base)
        gate, pin = next(
            (name, g.input_pin_names[0]) for name, g in netlist.gates.items()
            if g.input_pin_names and g.net_on(g.input_pin_names[0]) is not None
        )
        old_net = netlist.gates[gate].net_on(pin)
        target = next(name for name, net in netlist.nets.items()
                      if name != old_net and net.driver is not None)
        netlist.move_sink(gate, pin, target)
        _assert_fresh(netlist, other)

    def test_interleaved_netlists(self, netlist):
        other_netlist = iscas85_netlist("c499", seed=1)
        a1, a2 = place_batch(netlist, [1, 2])
        (b1,) = place_batch(other_netlist, [1])
        _assert_fresh(netlist, a1)
        _assert_fresh(other_netlist, b1)
        _assert_fresh(netlist, a2)
