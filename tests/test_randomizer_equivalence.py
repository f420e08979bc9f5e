"""Incremental randomizer == the per-round-recompiling oracle.

:func:`repro.core.randomizer.randomize_netlist` keeps one gate DAG with a
maintained topological order for its loop checks and one candidate program,
patched per swap, for its OER rounds.  The loop it replaced lives on as
``tests/randomizer_oracle.py``.  Both must return the same swaps, protected
nets, OER history and final OER, and leave the erroneous netlist with the
same connectivity and ``dont_touch`` marks, for every circuit, seed and
``RandomizerConfig`` variant below.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randomizer_oracle
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core.randomizer import RandomizerConfig, _GateDag, randomize_netlist
from repro.netlist import engine
from repro.netlist.arrays import netlist_arrays
from repro.netlist.cells import CellLibrary
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import output_error_rate

#: Tier-1 circuits: (benchmark, superblue scale).
FAST_CIRCUITS = (("c17", None), ("c432", None), ("c880", None), ("superblue18", 0.001))
#: Slow tier: every ISCAS circuit plus two superblue slices.
SLOW_CIRCUITS = tuple((name, None) for name in ISCAS85_PROFILES) + (
    ("superblue18", 0.002), ("superblue5", 0.001),
)
#: Seeds, stop rules, batch sizes and pattern counts (word-aligned or not).
CONFIGS = (
    RandomizerConfig(max_swaps=200, seed=1),
    RandomizerConfig(max_swaps=120, min_swaps=60, batch_pairs=4,
                     oer_patterns=100, seed=2),
    RandomizerConfig(max_swaps=80, min_swaps=80, target_oer_percent=100.0,
                     batch_pairs=16, oer_patterns=128, seed=3),
)


def _benchmark(name, scale):
    return get_benchmark(name, seed=1, scale=scale)


def _outcome(result):
    """Every result field the randomizer promises to keep."""
    erroneous = result.erroneous
    return {
        "swaps": result.swaps,
        "protected_nets": result.protected_nets,
        "oer_history": result.oer_history,
        "oer_percent": result.oer_percent,
        "connections": {name: dict(gate.connections) for name, gate in erroneous.gates.items()},
        "dont_touch": {name: gate.dont_touch for name, gate in erroneous.gates.items()},
        "nets": {name: (net.driver, list(net.sinks)) for name, net in erroneous.nets.items()},
    }


def _assert_matches_oracle(netlist, config):
    result = randomize_netlist(netlist, config)
    expected = randomizer_oracle.randomize_netlist(netlist, config)
    assert result.oer_history, "the case must run at least one OER round"
    assert _outcome(result) == _outcome(expected)
    return result


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}-p{c.oer_patterns}")
@pytest.mark.parametrize("name,scale", FAST_CIRCUITS)
def test_matches_oracle(name, scale, config):
    _assert_matches_oracle(_benchmark(name, scale), config)


@pytest.mark.parametrize("name,scale", FAST_CIRCUITS)
def test_dont_touch_column_matches_oracle(name, scale):
    """The erroneous netlist's dont_touch column, set through
    ``Netlist.set_dont_touch``, is the oracle's."""
    netlist = _benchmark(name, scale)
    config = CONFIGS[0]
    erroneous = randomize_netlist(netlist, config).erroneous
    expected = randomizer_oracle.randomize_netlist(netlist, config).erroneous
    column = netlist_arrays(erroneous).dont_touch
    assert column.any()
    assert column.tolist() == [gate.dont_touch for gate in expected.gates.values()]


@pytest.mark.slow
@pytest.mark.parametrize("name,scale", SLOW_CIRCUITS)
def test_matches_oracle_every_circuit(name, scale):
    netlist = _benchmark(name, scale)
    # The PPA-budget loop's shape: a swap floor and batches scaled to it.
    floor = max(2, netlist.num_connections // 12)
    config = RandomizerConfig(max_swaps=max(200, floor), min_swaps=floor,
                              batch_pairs=max(8, floor // 8), seed=5)
    result = _assert_matches_oracle(netlist, config)
    assert result.oer_percent == output_error_rate(
        netlist, result.erroneous, num_patterns=config.oer_patterns, seed=config.seed
    )


def test_rounds_compile_only_the_reference_plan(c880, monkeypatch):
    """A per-round recompile of the candidate must fail here, not only in a benchmark."""
    plans = []
    compile_plan = engine.compile_plan

    def counting(netlist):
        plan = compile_plan(netlist)
        plans.append(plan)
        return plan

    monkeypatch.setattr(engine, "compile_plan", counting)
    result = randomize_netlist(
        c880, RandomizerConfig(max_swaps=160, min_swaps=160, target_oer_percent=100.0,
                               oer_patterns=256, seed=4)
    )
    assert len(result.oer_history) >= 10
    assert len({id(plan) for plan in plans}) == 1
    assert plans[0].netlist_name == c880.name


def test_cyclic_input_is_rejected():
    netlist = Netlist("looped")
    netlist.add_primary_input("a")
    netlist.add_gate("g1", "NAND2_X1", {"A1": "a", "A2": "n2", "ZN": "n1"})
    netlist.add_gate("g2", "INV_X1", {"A": "n1", "ZN": "n2"})
    netlist.add_primary_output("out", "n1")
    with pytest.raises(ValueError, match="combinational loop"):
        randomize_netlist(netlist, RandomizerConfig(max_swaps=4, seed=1))


def test_custom_cells_raise_unsupported(c432):
    """A cell without logic_ops metadata: the randomizer refuses the netlist."""
    library = CellLibrary("custom", c432.library)
    custom = set(list(c432.gates)[::25])
    netlist = Netlist("c432_custom", library)
    for net_name in c432.nets:
        netlist.add_net(net_name)
    for pi in c432.primary_inputs:
        netlist.add_primary_input(pi)
    for po in c432.primary_outputs:
        netlist.add_primary_output(po, c432.output_nets[po])
    for gate in c432.gates.values():
        cell_name = gate.cell.name
        if gate.name in custom:
            cell_name = f"{cell_name}_CUSTOM"
            if cell_name not in library:
                library.add(dataclasses.replace(gate.cell, name=cell_name, logic_ops=None))
        netlist.add_gate(gate.name, cell_name, gate.connections)
    with pytest.raises(engine.UnsupportedNetlist):
        engine.compile_plan(netlist)
    with pytest.raises(engine.UnsupportedNetlist, match="_CUSTOM"):
        randomize_netlist(netlist, RandomizerConfig(max_swaps=60, oer_patterns=128, seed=2))


# ---------------------------------------------------------------------------
# The maintained topological order
# ---------------------------------------------------------------------------

def test_parallel_connections_are_counted():
    """A gate reading one driver on two pins keeps the edge when one pin moves.

    The oracle's checker seeds every edge at count 1 (a networkx ``DiGraph``
    holds one edge per gate pair), so after one of two parallel pins moves it
    would miss the loop through the other.  None of the generated benchmarks
    exercises this in the oracle suites; the DAG must still count right.
    """
    netlist = Netlist("parallel")
    netlist.add_primary_input("a")
    netlist.add_gate("d", "INV_X1", {"A": "a", "ZN": "n"})
    netlist.add_gate("g", "NAND2_X1", {"A1": "n", "A2": "n", "ZN": "m"})
    dag = _GateDag(netlist)
    gate_id = netlist_arrays(netlist).gate_id
    d, g = gate_id["d"], gate_id["g"]
    dag.remove_edge(d, g)
    assert dag.would_create_loop(g, d)
    dag.remove_edge(d, g)
    assert not dag.would_create_loop(g, d)


NUM_NODES = 12
_edge_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)),
    max_size=80,
)


def _reachable(edges, start, goal):
    """Plain BFS: whether ``goal`` is reachable from ``start``."""
    frontier = deque([start])
    seen = {start}
    while frontier:
        node = frontier.popleft()
        if node == goal:
            return True
        for succ, count in edges[node].items():
            if count and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


@settings(max_examples=200, deadline=None)
@given(_edge_ops)
def test_order_stays_topological_and_loop_check_is_reachability(ops):
    netlist = Netlist("dag")
    for node in range(NUM_NODES):
        netlist.add_gate(f"g{node}", "INV_X1")
    dag = _GateDag(netlist)
    edges = [dict() for _ in range(NUM_NODES)]
    for add, driver, sink in ops:
        if add:
            closes = driver == sink or _reachable(edges, sink, driver)
            assert dag.would_create_loop(driver, sink) == closes
            if not closes:
                dag.add_edge(driver, sink)
                edges[driver][sink] = edges[driver].get(sink, 0) + 1
        elif edges[driver].get(sink):
            dag.remove_edge(driver, sink)
            edges[driver][sink] -= 1
        assert sorted(dag.order) == list(range(NUM_NODES))
        assert all(dag.order[dag.ord[node]] == node for node in range(NUM_NODES))
        for node in range(NUM_NODES):
            for succ, count in edges[node].items():
                if count:
                    assert dag.ord[node] < dag.ord[succ]
                assert dag.succ[node].get(succ, 0) == count
