"""Tests for the compiled simulation engine.

The contract under test: both forms of a compiled plan's bigint program — the
tuple-program interpreter (first run) and the code-generated specialization
(re-runs) — and the public ``simulate`` / ``error_rate_and_hamming`` /
``toggle_rates`` built on them are **bit-for-bit identical** to the per-gate
reference simulator in ``tests/sim_oracle.py`` at equal seed, on every ISCAS
circuit, a superblue slice, the default pattern count, and netlists with
dangling/X nets and combinational loops.  The vectorized attack cost matrix
is checked against the historical per-pair construction.
"""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest

from attack_oracle import direction_penalty, visible_reachability
from feol_oracle import feol_objects
from graph_oracle import netlist_to_digraph, transitive_closure_bitmap
from sim_oracle import (
    error_rate_and_hamming_reference,
    simulate_reference,
    simulate_seeded_reference,
    toggle_rates_reference,
)
from repro.attacks.network_flow import (
    NetworkFlowAttackConfig,
    build_cost_matrix,
    network_flow_attack,
)
from repro.circuits import c17_netlist, iscas85_netlist
from repro.circuits.iscas85 import PAPER_ISCAS85_SET
from repro.circuits.registry import get_benchmark
from repro.netlist import engine
from repro.netlist.cells import Cell, CellLibrary, CellPin, NaryLogicFn, default_library
from repro.netlist.graph import pseudo_topological_order
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import (
    DEFAULT_NUM_PATTERNS,
    _resolved_inputs,
    error_rate_and_hamming,
    hamming_distance,
    output_error_rate,
    simulate,
    toggle_rates,
)
from repro.sm.split import extract_feol


def _fresh_plan(netlist):
    engine._PLAN_CACHE.pop(netlist, None)
    return engine.compile_plan(netlist)


def _circuit(name):
    """``c17``, an ISCAS-85 circuit, or ``"<superblue>@<scale>"``."""
    if name == "c17":
        return c17_netlist()
    if "@" in name:
        benchmark, scale = name.split("@")
        return get_benchmark(benchmark, seed=1, scale=float(scale))
    return iscas85_netlist(name, seed=1)


def _perturbed(netlist):
    """A copy with the first gate input moved to another driven net."""
    candidate = netlist.copy(f"{netlist.name}_candidate")
    gate = next(
        g for g in candidate.gates.values()
        if g.input_pin_names and g.net_on(g.input_pin_names[0]) is not None
    )
    current = gate.net_on(gate.input_pin_names[0])
    other = next(
        name for name, net in candidate.nets.items()
        if name != current and net.has_driver()
    )
    candidate.move_sink(gate.name, gate.input_pin_names[0], other)
    return candidate


def _assert_all_executors_match(netlist, num_patterns, seed=7, x_value=0):
    """Both bigint program forms must replay the reference simulator exactly."""
    inputs = _resolved_inputs(netlist, None, num_patterns, seed)
    expected = simulate_reference(netlist, dict(inputs), num_patterns, x_value)
    plan = _fresh_plan(netlist)

    interpreted = engine.run_plan_bigints(plan, inputs, num_patterns, x_value)
    generated = engine.run_plan_bigints(plan, inputs, num_patterns, x_value)
    assert plan._bigint_fn is not None  # second run triggered codegen
    assert interpreted == generated
    assert {n: interpreted[s] for n, s in plan.value_slots} == expected.net_values
    assert {po: interpreted[s] for po, s in plan.output_slots} == expected.outputs


def _assert_public_api_matches_oracle(netlist, num_patterns, seed=7):
    """``simulate``, ``error_rate_and_hamming`` and ``toggle_rates`` == oracle."""
    expected = simulate_seeded_reference(netlist, num_patterns, seed)
    result = simulate(netlist, None, num_patterns, seed)
    assert result.inputs == expected.inputs
    assert result.outputs == expected.outputs
    assert result.net_values == expected.net_values
    candidate = _perturbed(netlist)
    assert error_rate_and_hamming(
        netlist, candidate, num_patterns, seed
    ) == error_rate_and_hamming_reference(netlist, candidate, num_patterns, seed)
    assert toggle_rates(netlist, num_patterns, seed) == toggle_rates_reference(
        netlist, num_patterns, seed
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "name", ("c17",) + PAPER_ISCAS85_SET + ("superblue18@0.002",)
    )
    def test_every_iscas_circuit_bit_exact(self, name):
        netlist = _circuit(name)
        _assert_all_executors_match(netlist, num_patterns=128, seed=3)
        _assert_public_api_matches_oracle(netlist, DEFAULT_NUM_PATTERNS, seed=3)

    @pytest.mark.parametrize("num_patterns", (8, 63, 64, 65, 100, 256, 512, 16384))
    def test_non_word_aligned_pattern_counts(self, num_patterns):
        netlist = iscas85_netlist("c432", seed=1)
        _assert_all_executors_match(netlist, num_patterns)
        _assert_public_api_matches_oracle(netlist, num_patterns)

    @pytest.mark.parametrize("x_value_kind", ("zero", "ones", "pattern"))
    def test_dangling_inputs_and_x_values(self, x_value_kind):
        netlist = Netlist("dangling")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "NAND2_X1", {"A1": "a", "ZN": "n1"})  # A2 open
        netlist.add_gate("g2", "MUX2_X1", {"A": "n1", "S": "a", "Z": "n2"})  # B open
        netlist.add_gate("g3", "INV_X1", {"A": "n2", "ZN": "n3"})
        netlist.add_primary_output("o", "n3")
        num_patterns = 96
        x_value = {"zero": 0, "ones": (1 << num_patterns) - 1,
                   "pattern": 0x5A5A5A5A5A5A5A5A5A5A}[x_value_kind]
        _assert_all_executors_match(netlist, num_patterns, x_value=x_value)

    def test_undriven_output_net_reads_x(self):
        netlist = Netlist("floating_po")
        netlist.add_primary_input("a")
        netlist.add_gate("g", "BUF_X1", {"A": "a", "Z": "n1"})
        netlist.add_primary_output("o1", "n1")
        netlist.add_net("floating")
        netlist.add_primary_output("o2", "floating")
        _assert_all_executors_match(netlist, 64, x_value=(1 << 64) - 1)

    def test_combinational_loop_two_gate(self):
        netlist = Netlist("loop2")
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_gate("g1", "NAND2_X1", {"A1": "a", "A2": "n2", "ZN": "n1"})
        netlist.add_gate("g2", "NAND2_X1", {"A1": "n1", "A2": "b", "ZN": "n2"})
        netlist.add_gate("g3", "NOR2_X1", {"A1": "n1", "A2": "n2", "ZN": "n3"})
        netlist.add_primary_output("o", "n3")
        for num_patterns in (16, 64, 100):
            _assert_all_executors_match(netlist, num_patterns)

    def test_combinational_loop_self(self):
        netlist = Netlist("selfloop")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "OR2_X1", {"A1": "a", "A2": "n1", "ZN": "n1"})
        netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
        netlist.add_primary_output("o", "n2")
        _assert_all_executors_match(netlist, 64)

    def test_loop_in_attack_recovered_shape(self):
        """A larger ring with taps, as network-flow recovery can produce."""
        netlist = Netlist("ring")
        netlist.add_primary_input("a")
        previous = "a"
        for index in range(6):
            netlist.add_gate(
                f"r{index}", "NAND2_X1",
                {"A1": previous, "A2": "ring5", "ZN": f"ring{index}"},
            )
            previous = f"ring{index}"
        netlist.add_gate("tap", "XOR2_X1", {"A1": "ring2", "A2": "ring5", "Z": "out_net"})
        netlist.add_primary_output("o", "out_net")
        for num_patterns in (32, 128):
            _assert_all_executors_match(netlist, num_patterns)

    def test_simulate_matches_legacy_through_public_api(self, c432):
        expected = simulate_seeded_reference(c432, 256, 11)
        fast = simulate(c432, None, 256, 11)
        assert fast.outputs == expected.outputs
        assert fast.net_values == expected.net_values
        assert fast.inputs == expected.inputs

    def test_custom_cell_raises_unsupported(self):
        """A combinational cell without logic_ops metadata cannot be simulated."""
        custom = Cell(
            name="MAJ3_CUSTOM",
            pins=(
                CellPin("A", "input", 1.0), CellPin("B", "input", 1.0),
                CellPin("C", "input", 1.0), CellPin("Z", "output"),
            ),
            function=lambda inputs, mask: {
                "Z": ((inputs["A"] & inputs["B"]) | (inputs["A"] & inputs["C"])
                      | (inputs["B"] & inputs["C"])) & mask
            },
            area_um2=1.0,
            width_um=1.0,
        )
        library_cells = list(default_library()) + [custom]
        netlist = Netlist("custom", CellLibrary("with_custom", library_cells))
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        netlist.add_primary_input("c")
        netlist.add_gate("g", "MAJ3_CUSTOM", {"A": "a", "B": "b", "C": "c", "Z": "n"})
        netlist.add_primary_output("o", "n")
        with pytest.raises(engine.UnsupportedNetlist, match="MAJ3_CUSTOM"):
            engine.compile_plan(netlist)
        with pytest.raises(engine.UnsupportedNetlist):
            simulate(netlist, num_patterns=64, seed=1)
        with pytest.raises(engine.UnsupportedNetlist):
            output_error_rate(netlist, netlist.copy(), num_patterns=64)
        with pytest.raises(engine.UnsupportedNetlist):
            toggle_rates(netlist, num_patterns=64)


class TestPlanCache:
    def test_plan_cached_until_mutation(self, c432):
        plan_a = engine.compile_plan(c432)
        assert engine.compile_plan(c432) is plan_a

    def test_mutation_invalidates_plan(self):
        netlist = iscas85_netlist("c432", seed=1)
        baseline = simulate(netlist, None, 128, 5).outputs
        plan_a = engine.compile_plan(netlist)
        gate = next(
            g for g in netlist.gates.values()
            if g.input_pin_names and g.net_on(g.input_pin_names[0]) is not None
        )
        source_net = gate.net_on(gate.input_pin_names[0])
        target_net = next(
            name for name, net in netlist.nets.items()
            if name != source_net and net.has_driver()
        )
        netlist.move_sink(gate.name, gate.input_pin_names[0], target_net)
        plan_b = engine.compile_plan(netlist)
        assert plan_b is not plan_a
        mutated = simulate(netlist, None, 128, 5)
        expected = simulate_seeded_reference(netlist, 128, 5)
        assert mutated.outputs == expected.outputs
        assert mutated.outputs != baseline or mutated.net_values != {}

    def test_topology_version_bumps(self):
        netlist = Netlist("versioned")
        v0 = netlist.topology_version
        netlist.add_primary_input("a")
        netlist.add_gate("g", "INV_X1", {"A": "a", "ZN": "n"})
        netlist.add_primary_output("o", "n")
        assert netlist.topology_version > v0
        v1 = netlist.topology_version
        netlist.disconnect_pin("g", "A")
        assert netlist.topology_version > v1


class TestMetricsBitExact:
    def test_oer_hd_match_legacy_formulas(self, c432):
        candidate = _perturbed(c432)
        for num_patterns in (100, 512):
            expected_oer, expected_hd = error_rate_and_hamming_reference(
                c432, candidate, num_patterns, 0
            )
            assert output_error_rate(c432, candidate, num_patterns, 0) == expected_oer
            assert hamming_distance(c432, candidate, num_patterns, 0) == expected_hd

    def test_toggle_rates_match_legacy(self, c432):
        for num_patterns in (256, 4096):
            assert toggle_rates(c432, num_patterns, 2) == toggle_rates_reference(
                c432, num_patterns, 2
            )


class TestGraphHelpers:
    def test_pseudo_topological_order_matches_networkx_reference(self):
        def reference(netlist):
            graph = netlist_to_digraph(netlist)
            sequential = [n for n, d in graph.nodes(data=True) if d.get("sequential")]
            comb = graph.copy()
            comb.remove_nodes_from(sequential)
            in_degree = dict(comb.in_degree())
            ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
            scheduled = set(ready)
            order = []
            while len(order) < comb.number_of_nodes():
                if not ready:
                    victim = min(
                        (n for n in in_degree if n not in scheduled),
                        key=lambda n: (in_degree[n], n),
                    )
                    scheduled.add(victim)
                    ready.append(victim)
                gate = ready.pop()
                order.append(gate)
                for succ in comb.successors(gate):
                    if succ in scheduled:
                        continue
                    in_degree[succ] -= 1
                    if in_degree[succ] <= 0:
                        scheduled.add(succ)
                        ready.append(succ)
            return sequential + order

        for name in ("c432", "c880", "c1908"):
            netlist = iscas85_netlist(name, seed=1)
            assert pseudo_topological_order(netlist) == reference(netlist)

        loopy = Netlist("loopy")
        loopy.add_primary_input("a")
        loopy.add_gate("g1", "NAND2_X1", {"A1": "a", "A2": "n2", "ZN": "n1"})
        loopy.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
        loopy.add_primary_output("o", "n1")
        assert pseudo_topological_order(loopy) == reference(loopy)

    def test_transitive_closure_bitmap_matches_descendants(self):
        netlist = iscas85_netlist("c880", seed=1)
        graph = netlist_to_digraph(netlist)
        index, bitmap = transitive_closure_bitmap(graph)
        assert set(index) == set(graph.nodes)
        sample = sorted(index)[:25]
        for node in sample:
            row = index[node]
            got = {
                other for other, bit in index.items()
                if (bitmap[row, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1)
            }
            assert got == nx.descendants(graph, node)

    def test_transitive_closure_bitmap_with_cycle(self):
        graph = nx.DiGraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        index, bitmap = transitive_closure_bitmap(graph)

        def reachable(node):
            row = index[node]
            return {
                other for other, bit in index.items()
                if (bitmap[row, bit >> 6] >> np.uint64(bit & 63)) & np.uint64(1)
            }

        for node in graph.nodes:
            assert reachable(node) == nx.descendants(graph, node)


class TestAttackCostMatrixRegression:
    @staticmethod
    def _legacy_cost_matrix(view, config):
        """The historical per-pair construction, kept as the reference."""
        objects = feol_objects(view)
        drivers = objects.driver_vpins
        sinks = objects.sink_vpins
        half_perimeter = view.layout.floorplan.half_perimeter_um
        reach = visible_reachability(view) if config.use_loop_hint else None
        cache = {}

        def descendants(gate):
            if gate not in cache:
                if reach is None or gate not in reach:
                    cache[gate] = set()
                else:
                    cache[gate] = set(nx.descendants(reach, gate))
            return cache[gate]

        base_costs = np.zeros((len(sinks), len(drivers)))
        excluded = 0
        for si, sink in enumerate(sinks):
            for di, driver in enumerate(drivers):
                distance = (
                    abs(sink.position.x - driver.position.x)
                    + abs(sink.position.y - driver.position.y)
                )
                pair_cost = distance
                infeasible = False
                if config.use_direction_hint:
                    penalty, sink_angle = direction_penalty(driver, sink)
                    pair_cost += config.direction_weight * half_perimeter * 0.1 * penalty
                    if (
                        sink_angle > config.direction_tolerance_deg
                        and distance > config.direction_min_distance_um
                    ):
                        infeasible = True
                if distance > config.timing_fraction * half_perimeter:
                    pair_cost += config.timing_penalty
                if (
                    config.use_load_hint
                    and driver.max_load_ff > 0
                    and sink.capacitance_ff > driver.max_load_ff
                ):
                    infeasible = True
                if sink.gate is not None and driver.gate is not None:
                    if sink.gate == driver.gate:
                        infeasible = True
                    elif config.use_loop_hint and driver.gate in descendants(sink.gate):
                        infeasible = True
                if infeasible:
                    pair_cost = config.infeasible_cost
                    excluded += 1
                base_costs[si, di] = pair_cost
        return base_costs, excluded

    @pytest.mark.parametrize("split_layer", (3, 5))
    def test_matches_legacy_construction(self, protection_c432, split_layer):
        view = extract_feol(protection_c432.protected_layout, split_layer)
        for config in (
            NetworkFlowAttackConfig(),
            NetworkFlowAttackConfig(use_direction_hint=False),
            NetworkFlowAttackConfig(use_load_hint=False),
            NetworkFlowAttackConfig(use_loop_hint=False),
        ):
            new_costs, new_excluded = build_cost_matrix(view, config)
            old_costs, old_excluded = self._legacy_cost_matrix(view, config)
            assert new_costs.shape == old_costs.shape
            assert new_excluded == old_excluded
            assert np.allclose(new_costs, old_costs, rtol=1e-12, atol=1e-9)

    def test_empty_view_cost_matrix(self, c432_layout):
        view = extract_feol(c432_layout, 10)  # split above everything: no cuts
        costs, excluded = build_cost_matrix(view, NetworkFlowAttackConfig())
        assert costs.size == 0 and excluded == 0
        result = network_flow_attack(view)
        assert result.recovered_netlist is not None


class TestPicklability:
    def test_nary_logic_fn_roundtrip(self):
        fn = NaryLogicFn("NAND", ("A1", "A2"))
        clone = pickle.loads(pickle.dumps(fn))
        assert clone({"A1": 0b1100, "A2": 0b1010}, 0b1111) == fn(
            {"A1": 0b1100, "A2": 0b1010}, 0b1111
        )
        assert clone({"A1": 0b1100, "A2": 0b1010}, 0b1111) == {"ZN": 0b0111}

    def test_netlist_roundtrip(self, c432):
        clone = pickle.loads(pickle.dumps(c432))
        assert clone.stats() == c432.stats()
        assert (
            simulate(clone, None, 64, 3).outputs
            == simulate(c432, None, 64, 3).outputs
        )
