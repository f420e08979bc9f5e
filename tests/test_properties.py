"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from build_oracle import (
    kernel_connections,
    num_jogs,
    pair_for_length,
    pair_for_lifted,
    route_connection,
)
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.layout.geometry import Point, manhattan
from repro.layout.router import RouterConfig, _jog_counts, _select_pairs
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.metrics.solution_space import (
    log10_num_perfect_matchings,
    log10_solution_space_from_candidates,
)
from repro.netlist.arrays import netlist_arrays
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


#: Non-decreasing length thresholds, fewer than the five layer pairs included.
thresholds = st.lists(
    st.floats(min_value=0, max_value=1.5, allow_nan=False), max_size=5
).map(lambda values: tuple(sorted(values)))
#: (length, lift floor) per connection; -1 means unconstrained.
connections = st.lists(
    st.tuples(st.floats(min_value=0, max_value=600, allow_nan=False),
              st.sampled_from([-1, 2, 3, 4, 5, 6, 7, 8, 9])),
    min_size=1, max_size=30,
)


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
        source, target = Point(x1, y1), Point(x2, y2)
        (connection,) = kernel_connections([(source, target)], [pair], config, 400.0)
        expected = route_connection(
            "n0", ("g0", "A"), source, target, pair, config, 400.0
        )
        assert connection.segments == expected.segments
        assert connection.vias == expected.vias
        # Manhattan-optimal: the staircase never overshoots.
        assert math.isclose(
            connection.length, manhattan(source, target),
            rel_tol=1e-6, abs_tol=1e-6,
        )
        # Segments alternate between the two layers of the pair.
        assert {segment.layer for segment in connection.segments} <= set(pair)

    @given(
        connections,
        st.one_of(st.just(0.0), st.floats(min_value=1, max_value=400)),
        thresholds,
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_layer_assignment_within_stack(self, conns, hp,
                                           length_thresholds, jog_pitch,
                                           escalation):
        """The batched policy equals the seed router's scalar functions and
        keeps every pair inside the metal stack."""
        config = RouterConfig(
            length_thresholds=length_thresholds, jog_pitch_fraction=jog_pitch,
            lift_escalation_fraction=escalation,
        )
        lengths = np.asarray([length for length, _lift in conns], dtype=np.float64)
        lift = np.asarray([lift for _length, lift in conns], dtype=np.int64)
        h, v = _select_pairs(config, lengths, hp, lift)
        expected = [
            pair_for_lifted(config, length, hp, floor) if floor >= 0
            else pair_for_length(config, length, hp)
            for length, floor in conns
        ]
        assert list(zip(h.tolist(), v.tolist())) == expected
        assert ((2 <= h) & (h < v) & (v <= NUM_METAL_LAYERS)).all()
        lifted = lift >= 0
        assert (h[lifted] >= np.minimum(lift[lifted], NUM_METAL_LAYERS - 1)).all()
        assert _jog_counts(config, lengths, hp).tolist() == [
            max(1, num_jogs(config, length, hp)) for length, _f in conns
        ]


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
        assert netlist_arrays(netlist).is_acyclic()

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_simulation_outputs_respect_mask(self, seed):
        spec = RandomLogicSpec(name="prop", num_gates=40, num_inputs=6, num_outputs=4, seed=seed)
        netlist = generate_random_logic(spec)
        result = simulate(netlist, num_patterns=64, seed=seed)
        mask = (1 << 64) - 1
        for value in result.net_values.values():
            assert 0 <= value <= mask
