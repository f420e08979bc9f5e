"""Micro-benchmarks for the simulation engine, the network-flow attack and PPA.

Measures ``simulate``, ``output_error_rate`` / ``hamming_distance`` and the
attack cost-matrix construction on the seed-equivalent legacy path versus the
compiled engine, the attack's per-sink driver choice by ring walk versus
the dense per-sink pass (``network_flow_choice``), the network-flow
recovery as an overlay versus copy + rebuild + compile (``nf_recovery``),
and ``evaluate_ppa`` on the integer netlist view versus the per-object STA
and power walks of ``tests/timing_oracle.py`` (``ppa``), and writes a
``BENCH_sim.json`` perf-trajectory artifact (wall-clock seconds plus derived
throughput) so future PRs can track regressions::

    PYTHONPATH=src python benchmarks/bench_sim.py            # writes BENCH_sim.json
    PYTHONPATH=src python benchmarks/bench_sim.py --patterns 16384 --repeat 9

The ``seed_equivalent`` numbers replay the original implementation exactly
(networkx-based evaluation ordering + per-gate bigint interpretation), so the
reported speedups are measured against the repository's seed state.  The
``simulate_legacy_interpreter`` row times the per-gate reference simulator of
``tests/sim_oracle.py``, which also runs on the plan-order walk.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional

import networkx as nx

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The seed-equivalent references and the per-gate simulator are test oracles.
sys.path.insert(0, str(REPO_ROOT / "tests"))

import timing_oracle  # noqa: E402
from attack_oracle import (  # noqa: E402
    cheapest_drivers,
    direction_penalty,
    rebuild_netlist,
    visible_reachability,
)
from feol_oracle import feol_objects  # noqa: E402
from graph_oracle import netlist_to_digraph  # noqa: E402
from sim_oracle import plan_fields, simulate_reference  # noqa: E402
from repro.attacks import network_flow  # noqa: E402
from repro.attacks.network_flow import (  # noqa: E402
    NetworkFlowAttackConfig,
    build_cost_matrix,
    network_flow_attack,
)
from repro.api.registry import DEFENSES, ensure_builtins  # noqa: E402
from repro.circuits import iscas85_netlist  # noqa: E402
from repro.circuits.registry import get_benchmark  # noqa: E402
from repro.core import ProtectionConfig, protect  # noqa: E402
from repro.core.flow import PPAReport, evaluate_ppa  # noqa: E402
from repro.netlist import engine  # noqa: E402
from repro.netlist.arrays import netlist_arrays  # noqa: E402
from repro.netlist.simulate import (  # noqa: E402
    _resolved_inputs,
    _shared_input_patterns,
    error_rate_and_hamming,
    hamming_distance,
    output_error_rate,
    simulate,
)
from repro.timing.power import estimate_power  # noqa: E402
from repro.timing.sta import static_timing_analysis  # noqa: E402
from repro.sm.split import extract_feol  # noqa: E402


def _timeit(fn: Callable[[], object], repeat: int) -> float:
    """Median wall-clock seconds of ``repeat`` runs of ``fn``."""
    samples: List[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Seed-equivalent reference implementations (the pre-engine hot paths).
# ---------------------------------------------------------------------------


def _seed_pseudo_topological_order(netlist) -> List[str]:
    """The seed's networkx-based evaluation ordering."""
    graph = netlist_to_digraph(netlist)
    sequential = [n for n, data in graph.nodes(data=True) if data.get("sequential")]
    comb = graph.copy()
    comb.remove_nodes_from(sequential)
    in_degree = dict(comb.in_degree())
    ready = sorted((n for n, d in in_degree.items() if d == 0), reverse=True)
    scheduled = set(ready)
    order: List[str] = []
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


def _seed_simulate(netlist, patterns, num_patterns, seed):
    """The seed's simulate(): nx ordering + per-gate bigint interpretation."""
    mask = (1 << num_patterns) - 1
    values = dict(_resolved_inputs(netlist, patterns, num_patterns, seed))
    for gate_name in _seed_pseudo_topological_order(netlist):
        gate = netlist.gates[gate_name]
        if gate.cell.is_sequential:
            continue
        gate_inputs = {}
        for pin in gate.input_pin_names:
            net_name = gate.net_on(pin)
            gate_inputs[pin] = values.get(net_name, 0) if net_name else 0
        outputs = gate.cell.evaluate(gate_inputs, mask)
        for pin, value in outputs.items():
            net_name = gate.net_on(pin)
            if net_name is not None:
                values[net_name] = value & mask
    observed = {}
    for po in netlist.primary_outputs:
        observed[po] = values.get(netlist.output_nets[po], 0)
    return observed


def _seed_output_error_rate(reference, candidate, num_patterns, seed) -> float:
    patterns = _shared_input_patterns(reference, candidate, num_patterns, seed)
    ref = _seed_simulate(reference, patterns, num_patterns, seed)
    cand = _seed_simulate(candidate, patterns, num_patterns, seed)
    error_mask = 0
    for po, ref_value in ref.items():
        error_mask |= ref_value ^ cand[po]
    return 100.0 * bin(error_mask).count("1") / num_patterns


def _seed_hamming_distance(reference, candidate, num_patterns, seed) -> float:
    patterns = _shared_input_patterns(reference, candidate, num_patterns, seed)
    ref = _seed_simulate(reference, patterns, num_patterns, seed)
    cand = _seed_simulate(candidate, patterns, num_patterns, seed)
    differing = sum(
        bin(ref_value ^ cand[po]).count("1") for po, ref_value in ref.items()
    )
    return 100.0 * differing / (num_patterns * len(ref))


def _seed_cost_matrix(view, objects, config):
    """The seed's per-pair cost-matrix construction over ``view``'s vpin
    objects (``objects``, read once by the caller)."""
    import numpy as np

    drivers = objects.driver_vpins
    sinks = objects.sink_vpins
    half_perimeter = view.layout.floorplan.half_perimeter_um
    reach = visible_reachability(view) if config.use_loop_hint else None
    cache: Dict[str, set] = {}

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


# ---------------------------------------------------------------------------
# Benchmark cases
# ---------------------------------------------------------------------------


def bench_simulation(benchmark: str, num_patterns: int, repeat: int) -> Dict[str, Dict]:
    netlist = iscas85_netlist(benchmark, seed=1)
    candidate = netlist.copy("candidate")
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
    num_gates = netlist.num_gates

    results: Dict[str, Dict] = {}

    def record(name: str, seconds: float, work_ops: float, extra: Optional[Dict] = None):
        entry = {
            "wall_clock_s": round(seconds, 6),
            "ops_per_s": round(work_ops / seconds, 1) if seconds > 0 else None,
        }
        if extra:
            entry.update(extra)
        results[name] = entry

    gate_evals = float(num_gates * num_patterns)

    record(
        "simulate_seed_equivalent",
        _timeit(lambda: _seed_simulate(netlist, None, num_patterns, 1), repeat),
        gate_evals,
    )
    record(
        "simulate_legacy_interpreter",
        _timeit(
            lambda: simulate_reference(
                netlist, _resolved_inputs(netlist, None, num_patterns, 1),
                num_patterns, 0,
            ),
            repeat,
        ),
        gate_evals,
    )
    simulate(netlist, None, num_patterns, 1)  # compile + specialize once
    record(
        "simulate_engine_warm",
        _timeit(lambda: simulate(netlist, None, num_patterns, 1), repeat),
        gate_evals,
    )

    pair_evals = float(2 * num_gates * num_patterns)
    record(
        "oer_seed_equivalent",
        _timeit(
            lambda: _seed_output_error_rate(netlist, candidate, num_patterns, 1), repeat
        ),
        pair_evals,
    )
    record(
        "hd_seed_equivalent",
        _timeit(
            lambda: _seed_hamming_distance(netlist, candidate, num_patterns, 1), repeat
        ),
        pair_evals,
    )

    def oer_cold():
        engine._PLAN_CACHE.clear()
        return output_error_rate(netlist, candidate, num_patterns, 1)

    record("oer_engine_cold", _timeit(oer_cold, repeat), pair_evals)
    output_error_rate(netlist, candidate, num_patterns, 1)
    output_error_rate(netlist, candidate, num_patterns, 1)
    record(
        "oer_engine_warm",
        _timeit(lambda: output_error_rate(netlist, candidate, num_patterns, 1), repeat),
        pair_evals,
    )
    record(
        "hd_engine_warm",
        _timeit(lambda: hamming_distance(netlist, candidate, num_patterns, 1), repeat),
        pair_evals,
    )

    # Bit-exactness of the benchmarked paths, asserted on every run: the
    # engine must reproduce the seed implementation's floats exactly.
    assert output_error_rate(
        netlist, candidate, num_patterns, 1
    ) == _seed_output_error_rate(netlist, candidate, num_patterns, 1)
    assert hamming_distance(
        netlist, candidate, num_patterns, 1
    ) == _seed_hamming_distance(netlist, candidate, num_patterns, 1)
    return results


def bench_attack(repeat: int) -> Dict[str, Dict]:
    netlist = iscas85_netlist("c432", seed=1)
    artefacts = protect(
        netlist,
        ProtectionConfig(lift_layer=6, swap_fraction_steps=(0.08,),
                         oer_patterns=512, seed=1),
    )
    view = extract_feol(artefacts.protected_layout, 4)
    config = NetworkFlowAttackConfig()

    results: Dict[str, Dict] = {}
    objects = feol_objects(view)
    num_sinks, num_drivers = len(view.columns.sink_ids), len(view.columns.driver_ids)
    pairs = float(num_sinks * num_drivers)
    seed_time = _timeit(lambda: _seed_cost_matrix(view, objects, config), repeat)
    vec_time = _timeit(lambda: build_cost_matrix(view, config), repeat)
    results["cost_matrix_seed_equivalent"] = {
        "wall_clock_s": round(seed_time, 6),
        "ops_per_s": round(pairs / seed_time, 1),
        "pairs": int(pairs),
    }
    results["cost_matrix_vectorized"] = {
        "wall_clock_s": round(vec_time, 6),
        "ops_per_s": round(pairs / vec_time, 1),
        "pairs": int(pairs),
    }
    results["network_flow_attack_full"] = {
        "wall_clock_s": round(_timeit(lambda: network_flow_attack(view, config), repeat), 6),
        "ops_per_s": None,
    }

    import numpy as np

    # Each sink's cheapest driver: the ring walk over the driver grid against
    # the dense per-sink pass it replaced (row blocks against every driver).
    kernel = network_flow._CostKernel(view, config)
    every_driver = np.arange(num_drivers)[None, :]

    def dense_choice():
        choice = np.empty(num_sinks, dtype=np.intp)
        for lo in range(0, len(choice), network_flow._BLOCK_ROWS):
            hi = min(lo + network_flow._BLOCK_ROWS, len(choice))
            block = kernel.pairs(np.arange(lo, hi)[:, None], every_driver)[0]
            choice[lo:hi] = cheapest_drivers(block)
        return choice

    scored = []
    pairs_of = kernel.pairs

    def counting(sinks, drivers):
        cost, infeasible = pairs_of(sinks, drivers)
        scored.append(cost.size)
        return cost, infeasible

    kernel.pairs = counting
    chosen = kernel.cheapest_drivers()
    del kernel.pairs
    assert np.array_equal(chosen, dense_choice())
    ring_time = _timeit(kernel.cheapest_drivers, repeat)
    dense_time = _timeit(dense_choice, repeat)
    results["network_flow_choice"] = {
        "ring_walk_s": round(ring_time, 6),
        "dense_s": round(dense_time, 6),
        "pairs": int(pairs),
        "pairs_scored": int(sum(scored)),
        "speedup": round(dense_time / ring_time, 2),
    }

    seed_costs, seed_excluded = _seed_cost_matrix(view, objects, config)
    vec_costs, vec_excluded = build_cost_matrix(view, config)
    assert seed_excluded == vec_excluded
    assert np.allclose(seed_costs, vec_costs, rtol=1e-12, atol=1e-9)

    results["nf_recovery"] = {
        "c432_proposed_M4": _bench_recovery(view, config, repeat),
        "superblue18_0.0025_M4": _bench_recovery(
            extract_feol(_original_layout("superblue18", 0.0025), 4), config, repeat),
    }
    return results


def _original_layout(benchmark: str, scale: Optional[float]):
    ensure_builtins()
    entry = DEFENSES.get("original")
    netlist = get_benchmark(benchmark, seed=1, scale=scale)
    return entry.fn(netlist, entry.make_params(), 1).layout


def _bench_recovery(view, config, repeat: int) -> Dict[str, object]:
    """One network-flow recovery, compiled: the overlay against a netlist
    copy edited by ``attack_oracle.rebuild_netlist``.  Asserts the same plan
    and the same OER/HD."""
    netlist = view.layout.netlist
    chosen = network_flow._CostKernel(view, config).cheapest_drivers()

    def overlay():
        recovery = network_flow._recovery(view, chosen)
        return recovery, engine.compile_plan(recovery)

    def copy_and_rebuild():
        rebuilt = rebuild_netlist(view, chosen, netlist.copy(f"{netlist.name}_recovered"))
        return rebuilt, engine.compile_plan(rebuilt)

    recovery, plan = overlay()
    rebuilt, expected = copy_and_rebuild()
    assert plan_fields(plan) == plan_fields(expected)
    assert error_rate_and_hamming(netlist, recovery, 512) == \
        error_rate_and_hamming(netlist, rebuilt, 512)
    overlay_time = _timeit(overlay, repeat)
    copy_time = _timeit(copy_and_rebuild, repeat)
    return {
        "sinks": int(len(chosen)),
        "gates": netlist.num_gates,
        "overlay_compile_s": round(overlay_time, 6),
        "copy_rebuild_compile_s": round(copy_time, 6),
        "speedup": round(copy_time / overlay_time, 2),
        "recovery_has_loop": not netlist_arrays(rebuilt).is_acyclic(),
    }


def _oracle_ppa(layout) -> PPAReport:
    """``evaluate_ppa`` as it was: name dicts from the routing, then the
    per-object STA and power walks."""
    lengths, layers = layout.net_lengths_um(), layout.net_top_layers()
    timing = timing_oracle.static_timing_analysis(layout.netlist, lengths, layers)
    power = timing_oracle.estimate_power(layout.netlist, lengths, layers)
    return PPAReport(
        area_um2=layout.die_area_um2(),
        power_uw=power.total_uw,
        delay_ps=timing.critical_path_ps,
        wirelength_um=layout.total_wirelength_um(),
    )


def bench_ppa(repeat: int) -> Dict[str, Dict]:
    """``evaluate_ppa`` on the integer view against the per-object oracle,
    on routed layouts; the full timing and power reports are asserted
    equal.  The netlist's integer view is built once per netlist version
    (``view_build_s``), as in the protection budget loop."""
    from repro.netlist.arrays import NetlistArrays

    results: Dict[str, Dict] = {}
    for benchmark, scale in (("c1908", None), ("superblue18", 0.01)):
        layout = _original_layout(benchmark, scale)
        netlist = layout.netlist
        lengths, layers = layout.net_lengths_um(), layout.net_top_layers()
        assert static_timing_analysis(netlist, lengths, layers) == \
            timing_oracle.static_timing_analysis(netlist, lengths, layers)
        assert estimate_power(netlist, lengths, layers) == \
            timing_oracle.estimate_power(netlist, lengths, layers)
        assert evaluate_ppa(layout) == _oracle_ppa(layout)
        ours = _timeit(lambda: evaluate_ppa(layout), repeat)
        oracle = _timeit(lambda: _oracle_ppa(layout), repeat)
        key = benchmark if scale is None else f"{benchmark}_{scale}"
        results[key] = {
            "gates": netlist.num_gates,
            "evaluate_ppa_s": round(ours, 6),
            "per_object_oracle_s": round(oracle, 6),
            "view_build_s": round(_timeit(lambda: NetlistArrays(netlist), repeat), 6),
            "speedup": round(oracle / ours, 2),
        }
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="c1908",
                        help="ISCAS benchmark for the simulation cases")
    parser.add_argument("--patterns", type=int, default=4096,
                        help="patterns per OER/HD evaluation")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per measurement (median is reported)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sim.json"),
                        help="path of the JSON artifact")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (few patterns, one repetition)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.patterns = 256
        args.repeat = 1

    sim_results = bench_simulation(args.benchmark, args.patterns, args.repeat)
    attack_results = bench_attack(args.repeat)
    ppa_results = bench_ppa(args.repeat)

    def speedup(baseline: str, contender: str, table: Dict[str, Dict]) -> float:
        return round(
            table[baseline]["wall_clock_s"] / table[contender]["wall_clock_s"], 2
        )

    from repro.utils.host import host_metadata

    generated_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    payload = {
        "meta": {
            "generated_utc": generated_utc,
            "host": host_metadata(generated_utc),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "benchmark": args.benchmark,
            "num_patterns": args.patterns,
            "repeat": args.repeat,
            "ops_unit": "gate-pattern evaluations (simulation) / candidate pairs (attack)",
        },
        "simulation": sim_results,
        "attack": attack_results,
        "ppa": ppa_results,
        "speedups_vs_seed": {
            "simulate": speedup("simulate_seed_equivalent", "simulate_engine_warm", sim_results),
            "oer_warm": speedup("oer_seed_equivalent", "oer_engine_warm", sim_results),
            "oer_cold": speedup("oer_seed_equivalent", "oer_engine_cold", sim_results),
            "hd_warm": speedup("hd_seed_equivalent", "hd_engine_warm", sim_results),
            "attack_cost_matrix": speedup(
                "cost_matrix_seed_equivalent", "cost_matrix_vectorized", attack_results
            ),
        },
    }
    output = Path(args.output)
    # Sorted keys keep the committed artifact (and CI log diffs) stable.
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload["speedups_vs_seed"], indent=2))
    logging.getLogger("repro.bench.sim").info("wrote %s", output)
    return 0


if __name__ == "__main__":
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    sys.exit(main())
