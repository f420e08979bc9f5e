"""The placer's integer DFS ordering equals the string walk.

``_PlacerSkeleton.ordering_ranks`` walks an integer CSR adjacency; the
string walk it replaced is ``ordering_ranks_reference`` in
``tests/build_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from build_oracle import ordering_ranks_reference
from repro.circuits.registry import available_benchmarks, get_benchmark
from repro.circuits.superblue import SUPERBLUE_PROFILES
from repro.layout.floorplan import build_floorplan
from repro.layout.placer import _PlacerSkeleton

#: Superblue scales of the goldens and the end-to-end bench (tier 1), and
#: of the default config and the registry default (slow tier).
SUPERBLUE_SCALES = (0.002, 0.0025)
SLOW_SUPERBLUE_SCALES = (0.005, 0.01)
ISCAS = [name for name in available_benchmarks() if name not in SUPERBLUE_PROFILES]


def assert_ordering_matches(netlist, seeds):
    skeleton = _PlacerSkeleton(netlist, build_floorplan(netlist, 0.7))
    for seed in seeds:
        assert np.array_equal(
            skeleton.ordering_ranks(seed), ordering_ranks_reference(netlist, seed)
        ), seed


@pytest.mark.parametrize("name", ISCAS)
def test_ordering_matches_the_string_walk(name):
    assert_ordering_matches(get_benchmark(name), range(32))


@pytest.mark.parametrize("scale", SUPERBLUE_SCALES)
@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
def test_superblue_ordering_matches_the_string_walk(name, scale):
    assert_ordering_matches(get_benchmark(name, seed=1, scale=scale), range(32))


@pytest.mark.slow
@pytest.mark.parametrize("scale", SLOW_SUPERBLUE_SCALES)
@pytest.mark.parametrize("name", sorted(SUPERBLUE_PROFILES))
def test_superblue_ordering_matches_at_larger_scales(name, scale):
    assert_ordering_matches(get_benchmark(name, seed=1, scale=scale), range(32))
