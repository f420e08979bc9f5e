"""Row-block and ring-walk attack kernels == the full-matrix oracles.

:func:`repro.attacks.network_flow.build_cost_matrix` is computed in row
blocks, the attack's cheapest driver per sink comes from a ring walk over
the driver grid that scores only the drivers that can win, the assignment
falls back to a port of the shortest-augmenting-path solver when fanout
capacities bind, the loop hint reads an integer transitive closure of the visible gate
graph built from the netlist's integer view and the cut-net mask, the
recovery is a :class:`~repro.netlist.arrays.NetlistOverlay` instead of an
edited netlist copy, crouting counts candidates from one Chebyshev-distance
block per sink block, and
:func:`repro.netlist.graph.pseudo_topological_order` breaks cycles from a
lazy heap.  The implementations they replaced live on in
``tests/attack_oracle.py`` (``linear_sum_assignment`` on the driver-slot
matrix and the copy-and-edit ``rebuild_netlist`` included),
``tests/graph_oracle.py`` and ``tests/sim_oracle.py``.  Every cost byte,
excluded-pair count, assignment, recovered netlist, simulation plan,
OER/HD, crouting field and evaluation order must be identical, for every
hint toggle (loopy recoveries included), split layers 3-8, binding
capacities and empty views.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import attack_oracle
import graph_oracle
import sim_oracle
from feol_oracle import feol_objects, objects_view
from repro.api.registry import DEFENSES, ensure_builtins
from repro.attacks import crouting, network_flow
from repro.circuits import ISCAS85_PROFILES, SUPERBLUE_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core import ProtectionConfig, protect
from repro.layout.geometry import Point
from repro.layout.layout import build_layout
from repro.netlist.cells import NUM_METAL_LAYERS
from repro.netlist.arrays import NetlistOverlay, netlist_arrays
from repro.netlist.engine import compile_plan
from repro.netlist.graph import has_combinational_loop, pseudo_topological_order, transitive_closure
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import error_rate_and_hamming
from repro.sm.split import extract_feol

ensure_builtins()

SPLIT_LAYERS = range(3, 9)
#: Every on/off combination of the three optional hints.
HINT_CONFIGS = tuple(
    network_flow.NetworkFlowAttackConfig(
        use_loop_hint=loop, use_direction_hint=direction, use_load_hint=load
    )
    for loop, direction, load in itertools.product((True, False), repeat=3)
)
SUPERBLUE_SCALE = 0.002
#: Largest view checked, a little above the largest the paper's quick flow
#: attacks (1,445 sinks).  The oracle's ~15 full ``(S, D)`` temporaries and
#: its 12x wider slot matrix both grow with S squared: at c7552's 3,686
#: sinks they take several GB.
MAX_SINKS = 1600


def layouts_of(benchmark: str, scale=None):
    """The unprotected and the protected layout of one benchmark."""
    netlist = get_benchmark(benchmark, seed=1, scale=scale)
    result = protect(netlist, ProtectionConfig(
        lift_layer=6, swap_fraction_steps=(0.08,), oer_patterns=256, seed=1,
    ))
    return {"original": result.original_layout, "proposed": result.protected_layout}


def connectivity(netlist: Netlist):
    return (
        {name: (net.driver, list(net.sinks), net.is_primary_input,
                list(net.primary_outputs))
         for name, net in netlist.nets.items()},
        {name: list(gate.connections.items()) for name, gate in netlist.gates.items()},
        dict(netlist.output_nets),
    )


def check_loop_bitmap(view):
    """The integer-view loop bitmap equals the by-name build, byte for byte."""
    rows, bitmap = network_flow._loop_bitmap(view)
    index, expected = attack_oracle.loop_bitmap_reference(view)
    assert bitmap.shape == expected.shape and bitmap.tobytes() == expected.tobytes()
    arrays = netlist_arrays(view.layout.netlist)
    clear = len(index)
    assert rows.tolist() == [index.get(name, clear) for name in arrays.gate_names]


def check_cost_matrices(view, configs=HINT_CONFIGS):
    check_loop_bitmap(view)
    for config in configs:
        expected, expected_excluded = attack_oracle.build_cost_matrix(view, config)
        costs, excluded = network_flow.build_cost_matrix(view, config)
        assert costs.dtype == expected.dtype and costs.shape == expected.shape
        assert costs.tobytes() == expected.tobytes(), config
        assert excluded == expected_excluded, config


def check_recovery(reference: Netlist, overlay: NetlistOverlay, oracle: Netlist,
                   num_patterns: int = 256):
    """The overlay compiles to the copy-and-edit netlist's plan and scores
    its OER/HD, bit for bit; its netlist is that netlist."""
    assert sim_oracle.plan_fields(compile_plan(overlay)) == sim_oracle.plan_fields(
        sim_oracle.compile_reference(oracle))
    assert error_rate_and_hamming(reference, overlay, num_patterns, 3) == \
        error_rate_and_hamming(reference, oracle, num_patterns, 3)
    recovered = overlay.netlist()
    assert recovered.name == oracle.name
    assert connectivity(recovered) == connectivity(oracle)
    assert pseudo_topological_order(recovered) == graph_oracle.pseudo_topological_order(oracle)
    return has_combinational_loop(oracle)


def check_attack(view, config):
    """Same assignment, in the same order, and the same recovery."""
    expected = attack_oracle.network_flow_attack(view, config)
    result = network_flow.network_flow_attack(view, config)
    assert result.assignment == expected.assignment
    assert list(result.assignment) == list(expected.assignment)
    assert (result.num_sinks, result.num_drivers) == (expected.num_sinks, expected.num_drivers)
    return check_recovery(view.layout.netlist, result.recovery, expected.recovered_netlist)


def check_crouting(view, config=None):
    result = crouting.crouting_attack(view, config)
    expected = attack_oracle.crouting_attack(view, config)
    assert result.num_vpins == expected.num_vpins
    for name in ("expected_list_size", "match_in_list", "candidate_counts"):
        ours, theirs = getattr(result, name), getattr(expected, name)
        assert list(ours.items()) == list(theirs.items()), name
    for counts in result.candidate_counts.values():
        assert all(type(count) is int for count in counts)


def check_layout(layout, full=True):
    """Cost matrices for every hint toggle on every split layer; attack and
    crouting per split layer (``full`` adds every hint toggle to the attack
    on the lowest split layer).  Views above ``MAX_SINKS`` are skipped; at
    least one split layer must be checked.  Returns how many recoveries
    had a combinational loop."""
    checked = loopy = 0
    for split in SPLIT_LAYERS:
        view = extract_feol(layout, split)
        if len(view.columns.sink_ids) > MAX_SINKS:
            continue
        checked += 1
        check_cost_matrices(view)
        loopy += check_attack(view, HINT_CONFIGS[0])
        check_crouting(view)
        if full and split == SPLIT_LAYERS[0]:
            for config in HINT_CONFIGS[1:]:
                loopy += check_attack(view, config)
            check_crouting(view, crouting.CRoutingAttackConfig(
                gcell_um=0.5, bounding_boxes=(1, 7, 15, 15)))
    assert checked
    return loopy


@pytest.fixture(scope="module")
def c432_layouts():
    return layouts_of("c432")


@pytest.fixture(scope="module")
def c880_layouts():
    return layouts_of("c880")


@pytest.mark.parametrize("kind", ("original", "proposed"))
def test_c432(c432_layouts, kind):
    loopy = check_layout(c432_layouts[kind])
    if kind == "proposed":
        # Hint-off recoveries close loops; the overlay must order them too.
        assert loopy


@pytest.mark.parametrize("kind", ("original", "proposed"))
def test_c880(c880_layouts, kind):
    check_layout(c880_layouts[kind], full=kind == "proposed")


def test_superblue_slice():
    netlist = get_benchmark("superblue18", seed=1, scale=SUPERBLUE_SCALE)
    entry = DEFENSES.get("original")
    layout = entry.fn(netlist, entry.make_params(), 1).layout
    check_layout(layout, full=False)


def test_empty_view(c432_layouts):
    view = extract_feol(c432_layouts["original"], NUM_METAL_LAYERS)
    assert view.num_vpins == 0
    check_cost_matrices(view)
    check_attack(view, HINT_CONFIGS[0])
    check_crouting(view)


@pytest.mark.parametrize("block_rows", (1, 5, 33, 10_000))
def test_block_boundaries(c432_layouts, block_rows, monkeypatch):
    monkeypatch.setattr(network_flow, "_BLOCK_ROWS", block_rows)
    view = extract_feol(c432_layouts["proposed"], 3)
    check_cost_matrices(view, HINT_CONFIGS[:1])
    check_attack(view, HINT_CONFIGS[0])


def test_coincident_and_undirected_vpins(c432_layouts):
    """Zero-length candidates (degenerate direction) and stubs without a
    direction, which extracted views rarely contain, on both sides."""
    extracted = extract_feol(c432_layouts["proposed"], 3)
    objects = feol_objects(extracted)
    sinks, drivers = objects.sink_vpins, objects.driver_vpins
    for i in range(0, len(sinks), 7):
        position = drivers[(3 * i) % len(drivers)].position
        sinks[i] = dataclasses.replace(sinks[i], position=position)
    for i in range(0, len(sinks), 5):
        sinks[i] = dataclasses.replace(sinks[i], direction=None)
    for i in range(0, len(drivers), 4):
        drivers[i] = dataclasses.replace(drivers[i], direction=None)
    view = objects_view(extracted, objects)
    check_cost_matrices(view)
    check_attack(view, HINT_CONFIGS[0])
    check_crouting(view)


@pytest.fixture(scope="module")
def override_netlists():
    return {name: get_benchmark(name, seed=1) for name in ("c432", "c880")}


@st.composite
def sink_overrides(draw, netlists):
    """A netlist and random edits: gate sinks moved to any net or left
    dangling, primary outputs retargeted; rows may repeat."""
    netlist = netlists[draw(st.sampled_from(sorted(netlists)))]
    arrays = netlist_arrays(netlist)
    nets = st.integers(-1, arrays.num_nets - 1)
    edits = draw(st.lists(st.one_of(
        st.tuples(st.just("sink"), st.integers(0, len(arrays.fanin_net) - 1), nets),
        st.tuples(st.just("po"), st.integers(0, len(arrays.primary_outputs) - 1), nets),
    ), max_size=60))
    return netlist, edits


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_sink_overrides_match_copy_and_edit(override_netlists, data):
    """Any overlay equals the validating copy with the same edits replayed
    by name, in plan, OER/HD and netlist (loops included)."""
    netlist, edits = data.draw(sink_overrides(override_netlists))
    arrays = netlist_arrays(netlist)
    oracle = graph_oracle.netlist_copy(netlist, "edited")
    sinks, pos = [], []
    for kind, row, net in edits:
        target = arrays.net_names[net] if net >= 0 else None
        if kind == "sink":
            sinks.append((row, net))
            gate = arrays.gate_names[arrays.fanin_gate[row]]
            oracle.disconnect_pin(gate, arrays.pin_name(row))
            if target is not None:
                oracle.connect_pin(gate, arrays.pin_name(row), target)
        else:
            pos.append((row, net))
            if target is not None:
                oracle.retarget_primary_output(arrays.primary_outputs[row], target)
    overlay = NetlistOverlay(netlist, "edited", [r for r, _ in sinks], [n for _, n in sinks],
                             [r for r, _ in pos], [n for _, n in pos])
    check_recovery(netlist, overlay, oracle, num_patterns=64)


@pytest.mark.parametrize("fanout", (1, 2))
@pytest.mark.parametrize("circuit", ("c432", "c880"))
def test_binding_capacities_match_the_solver(circuit, fanout, request, monkeypatch):
    """Fanout caps of 1 and 2 make some driver every sink's cheapest too
    often, so every attack here runs the exact solver port."""
    view = extract_feol(request.getfixturevalue(f"{circuit}_layouts")["proposed"], 3)
    solve, solved = network_flow._exact_assignment, []

    def counting(costs, capacities):
        solved.append(1)
        return solve(costs, capacities)

    monkeypatch.setattr(network_flow, "_exact_assignment", counting)
    for config in HINT_CONFIGS:
        check_attack(view, dataclasses.replace(config, max_fanout_per_driver=fanout))
    assert len(solved) == len(HINT_CONFIGS)


@st.composite
def assignment_problems(draw):
    """Small sink x driver cost matrices, ties everywhere, with big-M and
    occasional ``+inf`` entries, and capacities that total at least S
    (often exactly S)."""
    capacities = draw(hnp.arrays(np.int64, st.integers(1, 6), elements=st.integers(1, 3)))
    total = int(capacities.sum())
    num_sinks = draw(st.just(total) | st.integers(1, total))
    values = st.sampled_from((0.0, 1.0, 2.0, 3.0, 1e7, 1e7, np.inf))
    costs = draw(hnp.arrays(np.float64, (num_sinks, capacities.size), elements=values))
    return costs, capacities


def _solved_or_error(solve, costs, capacities):
    try:
        return solve(costs, capacities)
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(assignment_problems())
def test_assignment_equals_the_solver_on_the_slot_matrix(problem):
    """The solver port always, and the cheapest-driver choice whenever no
    driver is chosen beyond its capacity, return ``linear_sum_assignment``'s
    drivers, and raise where it raises (a row without a finite cost, or no
    finite assignment at all)."""
    costs, capacities = problem
    expected = _solved_or_error(attack_oracle.slot_assignment, costs, capacities)
    exact = _solved_or_error(network_flow._exact_assignment, costs, capacities)

    def cheapest(costs, capacities):
        choice = attack_oracle.cheapest_drivers(costs)
        if (np.bincount(choice, minlength=capacities.size) > capacities).any():
            return network_flow._exact_assignment(costs, capacities)
        return choice

    combined = _solved_or_error(cheapest, costs, capacities)
    for ours in (exact, combined):
        if expected is ValueError:
            assert ours is ValueError
        else:
            assert ours is not ValueError and np.array_equal(ours, expected)


@pytest.mark.parametrize("poison", ("nan", "-inf", "inf row"))
def test_invalid_costs_raise_like_the_solver(c432_layouts, poison, monkeypatch):
    """``linear_sum_assignment`` rejected NaN and ``-inf`` costs and rows
    without a finite cost; so does the attack, from any block.
    The poison lands on the row's chosen driver, which the ring walk always
    scores."""
    view = extract_feol(c432_layouts["proposed"], 3)
    row = len(view.columns.sink_ids) - 3
    config = network_flow.NetworkFlowAttackConfig()
    chosen = network_flow._CostKernel(view, config).cheapest_drivers()[row]
    pairs = network_flow._CostKernel.pairs

    def poisoned(self, sinks, drivers):
        cost, infeasible = pairs(self, sinks, drivers)
        sinks, drivers = np.broadcast_arrays(sinks, drivers)
        if poison == "inf row":
            cost[sinks == row] = np.inf
        else:
            cost[(sinks == row) & (drivers == chosen)] = float(poison)
        return cost, infeasible

    monkeypatch.setattr(network_flow._CostKernel, "pairs", poisoned)
    costs, _excluded = network_flow.build_cost_matrix(view, config)
    with pytest.raises(ValueError):
        attack_oracle.slot_assignment(costs, network_flow._driver_capacities(view, config))
    with pytest.raises(ValueError):
        network_flow.network_flow_attack(view, config)


def test_nan_driver_direction_raises(c432_layouts):
    """A NaN stub direction poisons pairs the ring walk may never score, so
    the attack checks the direction columns before it walks."""
    extracted = extract_feol(c432_layouts["proposed"], 3)
    objects = feol_objects(extracted)
    drivers = objects.driver_vpins
    drivers[5] = dataclasses.replace(drivers[5], direction=(np.nan, 0.0))
    view = objects_view(extracted, objects)
    config = network_flow.NetworkFlowAttackConfig()
    costs, _excluded = network_flow.build_cost_matrix(view, config)
    with pytest.raises(ValueError):
        attack_oracle.slot_assignment(costs, network_flow._driver_capacities(view, config))
    with pytest.raises(ValueError):
        network_flow.network_flow_attack(view, config)


#: Every feasible pair longer than 5 % of the half-perimeter costs more than
#: an infeasible one: sinks without a cheaper short pair must walk the whole
#: grid to find their lowest-index infeasible driver.
CHEAP_INFEASIBLE = network_flow.NetworkFlowAttackConfig(
    infeasible_cost=2.0, timing_penalty=1e3, timing_fraction=0.05
)
#: Negative hint weights (a spec may set them): feasible pairs cost less
#: than their distance, so sinks walk that much farther.
NEGATIVE_WEIGHTS = network_flow.NetworkFlowAttackConfig(
    direction_weight=-1.0, timing_penalty=-20.0
)


@settings(max_examples=25, deadline=None)
@given(pitch=st.sampled_from((1.0, 2.0, 3.0, 5.0)),
       undirected=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_ring_walk_equals_the_dense_argmin(c432_layouts, pitch, undirected, seed):
    """On a coarse integer lattice (distance ties everywhere) with random
    stubs undirected, the ring walk picks each sink's dense lowest-index
    cheapest driver for every hint toggle, for costs above
    ``infeasible_cost`` and for negative hint weights."""
    extracted = extract_feol(c432_layouts["proposed"], 3)
    objects = feol_objects(extracted)
    rng = np.random.default_rng(seed)
    for vpins in (objects.sink_vpins, objects.driver_vpins):
        for i, vpin in enumerate(vpins):
            position = Point(round(vpin.position.x / pitch) * pitch,
                             round(vpin.position.y / pitch) * pitch)
            direction = None if rng.random() < undirected else vpin.direction
            vpins[i] = dataclasses.replace(vpin, position=position, direction=direction)
    view = objects_view(extracted, objects)
    for config in HINT_CONFIGS + (CHEAP_INFEASIBLE, NEGATIVE_WEIGHTS):
        expected = attack_oracle.cheapest_drivers(network_flow.build_cost_matrix(view, config)[0])
        chosen = network_flow._CostKernel(view, config).cheapest_drivers()
        assert np.array_equal(chosen, expected), config


def test_ring_walk_scores_few_pairs(c880_layouts, monkeypatch):
    """The attack scores well under the whole matrix: a silent fallback to
    dense scoring fails here."""
    view = extract_feol(c880_layouts["proposed"], 3)
    pairs, scored = network_flow._CostKernel.pairs, []

    def counting(self, sinks, drivers):
        cost, infeasible = pairs(self, sinks, drivers)
        scored.append(cost.size)
        return cost, infeasible

    monkeypatch.setattr(network_flow._CostKernel, "pairs", counting)
    network_flow.network_flow_attack(view)
    columns = view.columns
    assert 0 < sum(scored) < 0.15 * len(columns.sink_ids) * len(columns.driver_ids)


def test_loop_hint_excludes_reachable_pairs(c432_layouts):
    """The integer closure agrees with the networkx closure on a real view."""
    view = extract_feol(c432_layouts["original"], 3)
    objects = feol_objects(view)
    sinks, drivers = objects.sink_vpins, objects.driver_vpins
    expected = attack_oracle.loop_exclusion_matrix(view, sinks, drivers)
    assert expected.any()
    gate_rows, bitmap = network_flow._loop_bitmap(view)
    clear = len(bitmap) - 1
    gate_id = netlist_arrays(view.layout.netlist).gate_id
    rows = [gate_rows[gate_id[v.gate]] if v.gate is not None else clear for v in sinks]
    cols = [gate_rows[gate_id[v.gate]] if v.gate is not None else clear for v in drivers]
    reach = np.unpackbits(bitmap[rows], axis=1, bitorder="little")[:, cols]
    assert np.array_equal(reach.view(bool), expected)


@pytest.mark.slow
@pytest.mark.parametrize("circuit", sorted(set(ISCAS85_PROFILES) - {"c432", "c880"}))
def test_every_iscas_circuit(circuit):
    for layout in layouts_of(circuit).values():
        check_layout(layout, full=False)


@pytest.mark.slow
@pytest.mark.parametrize("design", sorted(SUPERBLUE_PROFILES))
def test_every_superblue_slice(design):
    for layout in layouts_of(design, SUPERBLUE_SCALE).values():
        check_layout(layout, full=False)


# ---------------------------------------------------------------------------
# Graph kernels
# ---------------------------------------------------------------------------

def _bfs_reach(successors, source):
    seen = set()
    stack = list(successors[source])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(successors[node])
    seen.discard(source)
    return seen


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    if n == 0:
        return []
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    successors = [[] for _ in range(n)]
    for u, v in edges:
        successors[u].append(v)
    return successors


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_transitive_closure_equals_bfs(successors):
    reach = transitive_closure(successors)
    assert len(reach) == len(successors)
    for node, bits in enumerate(reach):
        assert {j for j in range(len(successors)) if bits >> j & 1} == _bfs_reach(
            successors, node)


@st.composite
def loopy_netlists(draw):
    """Random INV/NAND2 netlists whose inputs may read any net: cycles galore."""
    num_gates = draw(st.integers(min_value=1, max_value=25))
    netlist = Netlist("loopy")
    nets = ["a", "b"] + [f"n{i}" for i in range(num_gates)]
    for pi in ("a", "b"):
        netlist.add_primary_input(pi)
    for i in range(num_gates):
        if draw(st.booleans()):
            netlist.add_gate(f"g{i}", "INV_X1", {
                "A": draw(st.sampled_from(nets)), "ZN": f"n{i}"})
        else:
            netlist.add_gate(f"g{i}", "NAND2_X1", {
                "A1": draw(st.sampled_from(nets)),
                "A2": draw(st.sampled_from(nets)), "ZN": f"n{i}"})
    netlist.add_primary_output("o", f"n{num_gates - 1}")
    return netlist


@settings(max_examples=200, deadline=None)
@given(loopy_netlists())
def test_pseudo_topological_order_equals_linear_scan(netlist):
    assert pseudo_topological_order(netlist) == graph_oracle.pseudo_topological_order(
        netlist)


@settings(max_examples=40, deadline=None)
@given(loopy_netlists(), st.sampled_from((1, 2, 3)))
def test_loop_bitmap_on_cyclic_netlists(netlist, split):
    """A netlist with combinational loops takes the strongly-connected-
    component closure; it must equal the by-name build too."""
    check_loop_bitmap(extract_feol(build_layout(netlist, seed=1), split))


@pytest.mark.parametrize("circuit", sorted(ISCAS85_PROFILES))
def test_pseudo_topological_order_on_iscas(circuit):
    netlist = get_benchmark(circuit, seed=1)
    assert pseudo_topological_order(netlist) == graph_oracle.pseudo_topological_order(
        netlist)


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------

def test_package_import_leaves_networkx_unloaded():
    """networkx is a test-only dependency: the package must not import it."""
    import repro

    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro, repro.api, repro.service, repro.experiments.runner; "
        "print('networkx' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert result.stdout.strip() == "False"
