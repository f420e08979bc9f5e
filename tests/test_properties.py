"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.layout.geometry import Point, Rect, bounding_box, half_perimeter, manhattan
from repro.layout.router import RouterConfig, route_requests
from repro.metrics.solution_space import (
    log10_num_perfect_matchings,
    log10_solution_space_from_candidates,
)
from repro.netlist.graph import has_combinational_loop
from repro.netlist.simulate import simulate
from repro.utils.rng import derive_seed

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestGeometryProperties:
    @given(points, points)
    def test_manhattan_symmetry_and_nonnegativity(self, a, b):
        assert manhattan(a, b) == manhattan(b, a)
        assert manhattan(a, b) >= 0
        assert manhattan(a, a) == 0

    @given(points, points, points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c) + 1e-6

    @given(st.lists(points, min_size=1, max_size=20))
    def test_bounding_box_contains_all_points(self, pts):
        box = bounding_box(pts)
        for p in pts:
            assert box.contains(p, tolerance=1e-6)

    @given(st.lists(points, min_size=2, max_size=20))
    def test_half_perimeter_bounds_pairwise_distance(self, pts):
        hpwl = half_perimeter(pts)
        for p in pts:
            for q in pts:
                assert manhattan(p, q) <= hpwl + 1e-6


class TestSeedProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_stable_and_bounded(self, base, label):
        a = derive_seed(base, label)
        b = derive_seed(base, label)
        assert a == b
        assert 0 <= a < 2**63


class TestSolutionSpaceProperties:
    @given(st.integers(min_value=0, max_value=2000))
    def test_matchings_monotone(self, n):
        assert log10_num_perfect_matchings(n + 1) >= log10_num_perfect_matchings(n)

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=50))
    def test_candidate_space_monotone_in_extension(self, counts):
        base = log10_solution_space_from_candidates(counts)
        extended = log10_solution_space_from_candidates(counts + [10])
        assert extended >= base


class TestRouterProperties:
    @given(
        st.floats(min_value=0, max_value=200, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
        st.sampled_from([(2, 3), (4, 5), (6, 7), (8, 9)]),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    def test_route_length_equals_manhattan_distance(self, x1, y1, x2, y2, pair):
        config = RouterConfig()
        (routed,) = route_requests(
            [("n", ("g", "A"), Point(x1, y1), Point(x2, y2), pair, None, None)],
            config, 400.0,
        ).lazy_nets().values()
        (connection,) = routed.connections
        # Manhattan-optimal: the staircase never overshoots.
        assert math.isclose(
            connection.length, manhattan(Point(x1, y1), Point(x2, y2)),
            rel_tol=1e-6, abs_tol=1e-6,
        )
        # Segments alternate between the two layers of the pair.
        assert {segment.layer for segment in connection.segments} <= set(pair)

    @given(
        st.floats(min_value=0.1, max_value=400, allow_nan=False),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60)
    def test_layer_assignment_within_stack(self, length, lift_layer):
        config = RouterConfig()
        natural = config.pair_for_length(length, 400.0)
        lifted = config.pair_for_lifted(length, 400.0, lift_layer)
        assert 2 <= natural[0] < natural[1] <= 10
        assert lifted[0] >= min(lift_layer, 9)
        assert lifted[0] < lifted[1] <= 10


class TestGeneratorProperties:
    @given(
        st.integers(min_value=5, max_value=120),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_netlists_are_valid_and_acyclic(self, gates, inputs, outputs, seed):
        spec = RandomLogicSpec(
            name="prop", num_gates=gates, num_inputs=inputs, num_outputs=outputs, seed=seed
        )
        netlist = generate_random_logic(spec)
        assert netlist.num_gates == gates
        assert netlist.validate() == []
        assert not has_combinational_loop(netlist)

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_simulation_outputs_respect_mask(self, seed):
        spec = RandomLogicSpec(name="prop", num_gates=40, num_inputs=6, num_outputs=4, seed=seed)
        netlist = generate_random_logic(spec)
        result = simulate(netlist, num_patterns=64, seed=seed)
        mask = (1 << 64) - 1
        for value in result.net_values.values():
            assert 0 <= value <= mask
