"""Micro-benchmarks for the vectorized place-and-route build path.

Measures the seed implementations (``place_reference`` / ``route_reference``,
per-object Python loops, kept as test oracles in ``tests/build_oracle.py``)
against the vectorized column builders that now back ``Workspace.prewarm``,
plus the amortized per-seed cost of a Monte-Carlo seed sweep versus the
sequential single-seed baseline, and writes a ``BENCH_build.json`` perf-trajectory artifact next to
``BENCH_sim.json`` / ``BENCH_layout.json``::

    PYTHONPATH=src python benchmarks/bench_build.py             # writes BENCH_build.json
    PYTHONPATH=src python benchmarks/bench_build.py --scale 0.02 --seeds 8
    PYTHONPATH=src python benchmarks/bench_build.py --smoke     # CI-sized run

Every vectorized path is asserted **bit-exact** against its reference before
timing; the sweep section runs the ``original`` scheme (pure place + route,
the paths this PR vectorizes) through ``Workspace.run_sweeps`` and compares
the amortized per-seed wall-clock against building each seed sequentially
with the reference implementations.  The protect section times one budget
step of ``randomize_netlist`` and the naive-lifting baseline's
correction-cell legalization against their oracles
(``tests/randomizer_oracle.py``, ``tests/build_oracle.py``), outputs
asserted equal.

The script is headless (no plotting, no interactive dependencies) and emits
JSON with sorted keys so CI diffs stay stable.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The per-object references are the test oracles.
sys.path.insert(0, str(REPO_ROOT / "tests"))

from repro.api.spec import ScenarioSpec                      # noqa: E402
from repro.api.workspace import Workspace                     # noqa: E402
from repro.store import ArtifactStore                         # noqa: E402
from repro.utils.host import host_metadata                    # noqa: E402

_log = logging.getLogger("repro.bench.build")
from repro.circuits import iscas85_netlist                    # noqa: E402
from repro.circuits.superblue import superblue_netlist        # noqa: E402
from repro.layout.floorplan import build_floorplan            # noqa: E402
from repro.layout.placer import (                             # noqa: E402
    MAX_ORDERING_FANOUT,
    PlacerConfig,
    _OrderingGraph,
    place,
)
from repro.layout.router import route                         # noqa: E402
from repro.circuits.registry import get_benchmark           # noqa: E402
from repro.core.correction_cells import place_correction_cells  # noqa: E402
from repro.core.flow import ProtectionConfig, protect         # noqa: E402
from repro.core.lifting import lifting_cell_anchors           # noqa: E402
from repro.core.randomizer import (                           # noqa: E402
    RandomizerConfig,
    eligible_sink_rows,
    randomize_netlist,
)
from repro.netlist.arrays import netlist_arrays               # noqa: E402
import randomizer_oracle                                      # noqa: E402
from build_oracle import (                                    # noqa: E402
    _adjacency,
    _dfs_starts,
    _dfs_walk,
    _rotated_adjacency,
    correction_cells_at_anchors,
    legalize_correction_cells_reference,
    place_reference,
    route_reference,
)


def _timeit(fn: Callable[[], object], repeat: int, *, pause_gc: bool = True) -> float:
    """Best wall-clock of ``repeat`` runs, GC paused while timing unless
    ``pause_gc`` is false.

    Both build paths allocate hundreds of thousands of small geometry
    objects per run; leaving the cyclic GC enabled makes collection pauses
    (triggered at allocation thresholds, attributed to whichever run crosses
    them) the dominant noise source.  Collecting up front and disabling the
    GC inside the timed region is the same policy pytest-benchmark applies.
    The minimum is the right estimator here (same rationale as
    :mod:`timeit`): scheduler and allocator interference only ever *add*
    time, so the fastest sample is the closest to the true cost.  A row
    that stands for what a long-running process pays (the service shape)
    keeps the GC on, collections included.
    """
    samples: List[float] = []
    was_enabled = gc.isenabled()
    for _ in range(repeat):
        gc.collect()
        if pause_gc:
            gc.disable()
        try:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
    return min(samples)


def _assert_equal_placements(a, b) -> None:
    """Same gate rows in the same order, bit-identical coordinate columns."""
    assert list(a.gate_positions) == list(b.gate_positions), "gate order differs"
    assert a.port_names == b.port_names, "port order differs"
    for column in ("gate_x", "gate_y", "port_x", "port_y"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def _assert_equal_routings(a, b) -> None:
    assert list(a) == list(b), "net order differs"
    for name in a:
        assert a[name].driver_vias == b[name].driver_vias, name
        assert a[name].connections == b[name].connections, name


def bench_build_path(benchmark: str, scale: float, seed: int,
                     repeat: int) -> Dict[str, object]:
    """Placer + router reference-vs-vectorized on one netlist."""
    if benchmark.startswith("superblue"):
        netlist = superblue_netlist(benchmark, scale=scale, seed=seed)
    else:
        netlist = iscas85_netlist(benchmark, seed=seed)
    placer_config = PlacerConfig(seed=seed)
    floorplan = build_floorplan(netlist, 0.70)

    reference_placement = place_reference(netlist, floorplan, config=placer_config)
    vectorized_placement = place(netlist, floorplan, config=placer_config)
    _assert_equal_placements(reference_placement, vectorized_placement)
    place_ref_s = _timeit(
        lambda: place_reference(netlist, floorplan, config=placer_config), repeat
    )
    place_vec_s = _timeit(
        lambda: place(netlist, floorplan, config=placer_config), repeat
    )

    reference_routing = route_reference(netlist, vectorized_placement)
    vectorized_routing = route(netlist, vectorized_placement)
    _assert_equal_routings(reference_routing, vectorized_routing)
    route_ref_s = _timeit(lambda: route_reference(netlist, vectorized_placement), repeat)
    route_vec_s = _timeit(lambda: route(netlist, vectorized_placement), repeat)

    return {
        "benchmark": benchmark,
        "scale": scale if benchmark.startswith("superblue") else None,
        "num_gates": netlist.num_gates,
        "num_nets": netlist.num_nets,
        "place_reference_s": round(place_ref_s, 4),
        "place_vectorized_s": round(place_vec_s, 4),
        "place_speedup": round(place_ref_s / place_vec_s, 2),
        "route_reference_s": round(route_ref_s, 4),
        "route_vectorized_s": round(route_vec_s, 4),
        "route_speedup": round(route_ref_s / route_vec_s, 2),
        "build_speedup": round(
            (place_ref_s + route_ref_s) / (place_vec_s + route_vec_s), 2
        ),
    }


def bench_place_ordering(benchmark: str, scale: float,
                         num_seeds: int, repeat: int) -> Dict[str, object]:
    """place.ordering: the DFS placement ordering of a seed batch, the
    integer CSR walk against the gate-name string walk it replaced.

    Each side builds its graph once and walks it once per seed, as a
    seed-batched placement does; the string side also maps names to gate
    indices.  The ranks are asserted equal for every seed before timing.
    """
    netlist = superblue_netlist(benchmark, scale=scale, seed=1)
    seeds = range(num_seeds)
    gate_names = list(netlist.gates)
    gate_index = {name: i for i, name in enumerate(gate_names)}

    def string_walk() -> List[np.ndarray]:
        adjacency = _adjacency(netlist, MAX_ORDERING_FANOUT)
        starts = _dfs_starts(netlist, gate_names)
        return [
            np.fromiter(
                (gate_index[name] for name in _dfs_walk(
                    _rotated_adjacency(adjacency, netlist.name, seed),
                    gate_names, starts,
                )),
                dtype=np.int64, count=len(gate_names),
            )
            for seed in seeds
        ]

    def integer_walk() -> List[np.ndarray]:
        graph = _OrderingGraph(netlist_arrays(netlist))
        return [graph.dfs(netlist.name, seed) for seed in seeds]

    for ours, theirs in zip(integer_walk(), string_walk()):
        assert np.array_equal(ours, theirs), "ordering diverged from the string walk"
    string_s = _timeit(string_walk, repeat)
    integer_s = _timeit(integer_walk, repeat)
    return {
        "benchmark": benchmark,
        "scale": scale,
        "num_gates": netlist.num_gates,
        "num_seeds": num_seeds,
        "string_walk_s": round(string_s, 4),
        "integer_walk_s": round(integer_s, 4),
        "speedup": round(string_s / integer_s, 2),
    }


def _oversubscribed(jobs: int) -> bool:
    """True when a row ran more pool workers than the host has CPUs: its
    sweep time is then not a pool speedup."""
    return jobs > (os.cpu_count() or 1)


def bench_seed_sweep(benchmark: str, scale: float, num_seeds: int,
                     jobs: int, repeat: int) -> Dict[str, object]:
    """Amortized per-seed sweep cost vs the sequential single-seed baseline.

    The baseline builds every seed one after another with the *reference*
    place/route (the pre-vectorization build path); the sweep runs the same
    seeds through ``Workspace.run_sweeps`` (vectorized builds batched through
    the prewarm pool).  Both sides are re-run ``repeat`` times on fresh
    caches and the medians are compared.
    """
    seeds = list(range(num_seeds))
    scale_arg = scale if benchmark.startswith("superblue") else None

    def sequential_reference() -> None:
        for seed in seeds:
            if scale_arg is not None:
                netlist = superblue_netlist(benchmark, scale=scale_arg, seed=seed)
            else:
                netlist = iscas85_netlist(benchmark, seed=seed)
            floorplan = build_floorplan(netlist, 0.70)
            placement = place_reference(
                netlist, floorplan, config=PlacerConfig(seed=seed)
            )
            route_reference(netlist, placement)

    spec = ScenarioSpec(
        benchmark=benchmark, scheme="original", scale=scale_arg, seeds=seeds,
    )

    def sweep_run() -> None:
        # A fresh workspace per run: sweeps are memoized per workspace, and
        # the point is the cold per-seed build cost.
        sweep = Workspace().run_sweep(spec, jobs=jobs)
        assert sweep.num_seeds == num_seeds

    sequential_s = _timeit(sequential_reference, repeat)
    sweep_s = _timeit(sweep_run, repeat)

    return {
        "benchmark": benchmark,
        "scale": scale_arg,
        "num_seeds": num_seeds,
        "jobs": jobs,
        "oversubscribed": _oversubscribed(jobs),
        "sequential_reference_s_total": round(sequential_s, 4),
        "sequential_reference_s_per_seed": round(sequential_s / num_seeds, 4),
        "sweep_s_total": round(sweep_s, 4),
        "sweep_s_per_seed": round(sweep_s / num_seeds, 4),
        "amortized_speedup": round(sequential_s / sweep_s, 2),
    }


def bench_seed_batch(benchmark: str, scale: float, batch_sizes: List[int],
                     repeat: int) -> List[Dict[str, object]]:
    """Seed-batched build engine vs the full-build-per-seed baseline.

    Every sweep pins ``netlist_seed`` so all seeds place/route the *same*
    netlist — the configuration the batched engine amortizes: one DFS/
    ordering skeleton, one routing skeleton and one floorplan shared across
    the batch.  The baseline mirrors the historical per-seed pool path:
    every seed regenerates the netlist and builds with the reference
    kernels.  Two batched timings are recorded per batch size: the build
    engine itself (``build_s_*`` / ``amortized_speedup`` — one netlist
    generation plus ``build_original_batch``, the work ``run_sweeps``
    amortizes) and the full workspace sweep including scenario evaluation
    (``sweep_s_*`` / ``sweep_speedup``).  Before timing, every seed of
    ``build_original_batch`` is asserted bit-exact against
    ``build_original``; ``full_build_payload_bytes_per_seed`` is the pickled
    ``SchemeBuild`` a pooled single ships back from its worker.
    """
    import pickle

    from repro.api.schemes import (
        OriginalParams,
        build_original,
        build_original_batch,
    )

    scale_arg = scale if benchmark.startswith("superblue") else None
    netlist_seed = 0
    if scale_arg is not None:
        netlist = superblue_netlist(benchmark, scale=scale_arg, seed=netlist_seed)
    else:
        netlist = iscas85_netlist(benchmark, seed=netlist_seed)
    params = OriginalParams()

    # -- bit-exactness gate (largest batch, every seed) ---------------------
    check_seeds = list(range(max(batch_sizes)))
    batched = build_original_batch(netlist, params, check_seeds)
    for seed, built in zip(check_seeds, batched):
        reference = build_original(netlist, params, seed)
        _assert_equal_placements(
            reference.layout.placement, built.layout.placement
        )
        _assert_equal_routings(reference.layout.routing, built.layout.routing)

    # -- pool payload bytes per seed ----------------------------------------
    full_bytes = len(pickle.dumps(build_original(netlist, params, 0)))

    # Release the gate's artefacts before timing: keeping dozens of full
    # builds alive degrades allocator locality for every timed sample.
    del batched, reference
    gc.collect()

    results: List[Dict[str, object]] = []
    for num_seeds in batch_sizes:
        seeds = list(range(num_seeds))

        def sequential_reference() -> None:
            for _seed in seeds:
                if scale_arg is not None:
                    fresh = superblue_netlist(
                        benchmark, scale=scale_arg, seed=netlist_seed
                    )
                else:
                    fresh = iscas85_netlist(benchmark, seed=netlist_seed)
                floorplan = build_floorplan(fresh, 0.70)
                placement = place_reference(
                    fresh, floorplan, config=PlacerConfig(seed=_seed)
                )
                route_reference(fresh, placement)

        def build_engine() -> None:
            # The sweep's amortized build: exactly what run_sweeps executes
            # per batch group at jobs=1 — one netlist generation plus the
            # seed-batched scheme build (shared floorplan / DFS structure /
            # routing skeleton, per-seed arrays).
            if scale_arg is not None:
                fresh = superblue_netlist(
                    benchmark, scale=scale_arg, seed=netlist_seed
                )
            else:
                fresh = iscas85_netlist(benchmark, seed=netlist_seed)
            build_original_batch(fresh, params, seeds)

        sequential_s = _timeit(sequential_reference, repeat)
        build_s = _timeit(build_engine, repeat)
        spec = ScenarioSpec(
            benchmark=benchmark, scheme="original", scale=scale_arg,
            seeds=seeds, netlist_seed=netlist_seed,
        )

        def sweep_run() -> None:
            sweep = Workspace().run_sweep(spec, jobs=1)
            assert sweep.num_seeds == num_seeds

        sweep_s = _timeit(sweep_run, repeat)
        results.append({
            "benchmark": benchmark,
            "scale": scale_arg,
            "num_seeds": num_seeds,
            "sequential_reference_s_total": round(sequential_s, 4),
            "sequential_reference_s_per_seed": round(
                sequential_s / num_seeds, 4
            ),
            "build_s_total": round(build_s, 4),
            "build_s_per_seed": round(build_s / num_seeds, 4),
            "amortized_speedup": round(sequential_s / build_s, 2),
            "sweep_s_total": round(sweep_s, 4),
            "sweep_s_per_seed": round(sweep_s / num_seeds, 4),
            "sweep_speedup": round(sequential_s / sweep_s, 2),
            "full_build_payload_bytes_per_seed": full_bytes,
        })
    return results


def _without_elapsed(payload):
    """A result payload without its wall-clock fields."""
    if isinstance(payload, dict):
        return {k: _without_elapsed(v) for k, v in payload.items() if k != "elapsed_s"}
    if isinstance(payload, list):
        return [_without_elapsed(v) for v in payload]
    return payload


def bench_store(benchmark: str, scale: float, num_seeds: int,
                repeat: int, scheme: str = "original") -> Dict[str, object]:
    """Cold-build sweep vs replaying the same sweep from the disk store.

    The cold side runs a seed sweep through a fresh workspace writing into
    an empty artefact store; the warm side reruns the identical sweep in
    another fresh workspace against the now-populated store, so every
    build is a disk hit (decode + checksum) instead of a place-and-route.
    The replayed sweep is asserted bit-identical to the cold one before
    timing, and the warm run is asserted to rebuild nothing.

    ``scheme`` picks the build the store amortizes: ``original`` is the
    cheapest possible build (bare place-and-route — the store's worst
    case), while a protected scheme such as ``synergistic`` pays the full
    defense flow on the cold side, which is what real sweeps replay.
    """
    scale_arg = scale if benchmark.startswith("superblue") else None
    spec = ScenarioSpec(
        benchmark=benchmark, scheme=scheme, scale=scale_arg,
        seeds=list(range(num_seeds)), netlist_seed=0,
    )

    root = Path(tempfile.mkdtemp(prefix="bench_store."))
    try:
        # Correctness gate: a store replay reproduces the cold sweep exactly
        # and never falls back to a rebuild.
        cold_ws = Workspace(jobs=1, store=ArtifactStore(root))
        reference = _without_elapsed(cold_ws.run_sweep(spec).to_dict())
        warm_ws = Workspace(jobs=1, store=ArtifactStore(root))
        replayed = _without_elapsed(warm_ws.run_sweep(spec).to_dict())
        assert replayed == reference, "store replay diverged from cold sweep"
        warm_stats = warm_ws.stats()
        assert warm_stats["store_hits"] == num_seeds, warm_stats
        assert warm_stats["store_misses"] == 0, warm_stats
        store_bytes = ArtifactStore(root, readonly=True).total_bytes()

        def cold_run() -> None:
            scratch = Path(tempfile.mkdtemp(prefix="bench_store.cold."))
            try:
                Workspace(jobs=1, store=ArtifactStore(scratch)).run_sweep(spec)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        def warm_run() -> None:
            Workspace(jobs=1, store=ArtifactStore(root)).run_sweep(spec)

        cold_s = _timeit(cold_run, repeat)
        warm_s = _timeit(warm_run, repeat)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": benchmark,
        "scale": scale_arg,
        "scheme": scheme,
        "num_seeds": num_seeds,
        "cold_build_s_total": round(cold_s, 4),
        "cold_build_s_per_seed": round(cold_s / num_seeds, 4),
        "warm_disk_hit_s_total": round(warm_s, 4),
        "warm_disk_hit_s_per_seed": round(warm_s / num_seeds, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "store_bytes": store_bytes,
    }


def bench_store_service(benchmark: str, num_seeds: int, repeat: int,
                        scheme: str = "original") -> Dict[str, object]:
    """Warm disk hits against no-store rebuilds, per job, in the service shape.

    Each of ``num_seeds`` jobs is its own single-seed spec (proximity at M4,
    the ``security`` and ``distances`` metrics), as ``repro serve`` clients
    send them, and ``netlist_seed`` is not pinned: a hit decodes its own
    netlist and its layout from one payload and fingerprints the netlist.  The warm side replays
    the jobs through ``Workspace.run_sweeps`` from a populated store; the
    rebuild side runs them in a workspace without a store.  Both are
    asserted to give the same results, and the warm side to build nothing.
    Both are timed with the cyclic GC on, as a service process runs them.
    """
    specs = [
        ScenarioSpec(benchmark=benchmark, scheme=scheme, seed=seed,
                     attacks=["proximity"], split_layers=[4],
                     metrics=["security", "distances"], num_patterns=256)
        for seed in range(num_seeds)
    ]

    def results(workspace: Workspace):
        return _without_elapsed([run.to_dict() for run in workspace.run_sweeps(specs)])

    root = Path(tempfile.mkdtemp(prefix="bench_store_service."))
    try:
        rebuilt = results(Workspace(jobs=1, store=ArtifactStore(root)))
        warm_ws = Workspace(jobs=1, store=ArtifactStore(root))
        assert results(warm_ws) == rebuilt, "store replay diverged from rebuild"
        warm_stats = warm_ws.stats()
        assert warm_stats["store_hits"] == num_seeds, warm_stats
        assert warm_stats["builds_run"] == 0, warm_stats

        rebuild_s = _timeit(lambda: Workspace(jobs=1).run_sweeps(specs), repeat,
                            pause_gc=False)
        warm_s = _timeit(
            lambda: Workspace(jobs=1, store=ArtifactStore(root)).run_sweeps(specs),
            repeat, pause_gc=False,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": benchmark,
        "scale": None,
        "scheme": scheme,
        "shape": "service",
        "netlist_seed": None,
        "num_seeds": num_seeds,
        "gc_paused": False,
        "rebuild_no_store_ms_per_job": round(rebuild_s / num_seeds * 1e3, 2),
        "warm_disk_hit_ms_per_job": round(warm_s / num_seeds * 1e3, 2),
        "warm_speedup": round(rebuild_s / warm_s, 2),
    }


def _randomizer_outcome(result) -> tuple:
    """Every field of a randomization result the randomizer promises."""
    erroneous = result.erroneous
    return (
        result.swaps, result.protected_nets, result.oer_history, result.oer_percent,
        erroneous.topology_version,
        {name: (dict(gate.connections), gate.dont_touch)
         for name, gate in erroneous.gates.items()},
        {name: (net.driver, list(net.sinks)) for name, net in erroneous.nets.items()},
    )


def bench_protect_randomize(benchmark: str, scale, repeat: int) -> Dict[str, object]:
    """protect.randomize: one budget step of the protection flow (5 % of the
    eligible sinks as the swap floor), the event-driven randomizer on
    integer columns against the per-round-recompiling oracle
    (``tests/randomizer_oracle.py``), results asserted equal."""
    netlist = get_benchmark(benchmark, seed=1, scale=scale)
    floor = min(800, max(2, int(len(eligible_sink_rows(netlist_arrays(netlist))) * 0.05)))
    config = RandomizerConfig(max_swaps=max(800, floor), min_swaps=floor,
                              batch_pairs=max(8, floor // 8), seed=1)
    result = randomize_netlist(netlist, config)
    assert _randomizer_outcome(result) == _randomizer_outcome(
        randomizer_oracle.randomize_netlist(netlist, config)
    ), "randomizer diverged from the oracle"
    oracle_s = _timeit(lambda: randomizer_oracle.randomize_netlist(netlist, config), repeat)
    randomize_s = _timeit(lambda: randomize_netlist(netlist, config), repeat)
    return {
        "row": "randomize",
        "benchmark": benchmark,
        "scale": scale,
        "num_gates": netlist.num_gates,
        "min_swaps": floor,
        "num_swaps": result.num_swaps,
        "oer_rounds": len(result.oer_history),
        "randomize_s": round(randomize_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / randomize_s, 2),
    }


def bench_protect_legalize(benchmark: str, scale, repeat: int) -> Dict[str, object]:
    """protect.legalize: the naive-lifting baseline's cells of one
    ``protect`` run (lift layer 8, 5 % PPA budget), built once at their
    legal positions by the resumed spiral, against the re-scanning oracle
    (``tests/build_oracle.py``) applied to cells built at their anchors,
    instances asserted equal."""
    netlist = get_benchmark(benchmark, seed=1, scale=scale)
    protection = protect(netlist, ProtectionConfig(lift_layer=8, ppa_budget_percent=5.0,
                                                   seed=1))
    naive = protection.naive_lifted_layout
    anchors = lifting_cell_anchors(naive, naive.metadata["lifted_nets"])
    floorplan = naive.floorplan
    legal = place_correction_cells(anchors, 8, floorplan, naive=True)
    assert legal == naive.metadata["lifting_cells"]

    def oracle():
        return legalize_correction_cells_reference(
            correction_cells_at_anchors(anchors, 8, naive=True), floorplan)

    assert legal == oracle(), "legalization diverged from the oracle"
    oracle_s = _timeit(oracle, repeat)
    legalize_s = _timeit(lambda: place_correction_cells(anchors, 8, floorplan, naive=True),
                         repeat)
    return {
        "row": "legalize",
        "benchmark": benchmark,
        "scale": scale,
        "num_cells": len(legal),
        "legalize_s": round(legalize_s, 4),
        "oracle_s": round(oracle_s, 4),
        "speedup": round(oracle_s / legalize_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="superblue12",
                        help="design for the place/route sections")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="superblue down-scaling factor")
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds in the sweep section")
    parser.add_argument("--sweep-benchmark", default="superblue18",
                        help="design for the sweep section")
    parser.add_argument("--sweep-scale", type=float, default=0.02,
                        help="superblue scale for the sweep section")
    parser.add_argument("--jobs", type=int, default=1,
                        help="prewarm worker processes for the sweep section")
    # Measured most-allocation-sensitive first: the 8-seed row is the
    # tracked amortization checkpoint, so it times on the freshest heap.
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[8, 16, 4, 1],
                        help="batch sizes for the seed_batch section")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per measurement (best run is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small scales, 2 seeds)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_build.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = 0.002
        args.sweep_scale = 0.001
        args.seeds = 2
        args.repeat = 1
        args.batch_sizes = [1, 2]

    # The seed_batch section runs first: its amortized-speedup numbers are
    # the most allocation-sensitive, so they get the cleanest heap.
    seed_batch = bench_seed_batch(
        args.sweep_benchmark, args.sweep_scale, args.batch_sizes,
        repeat=args.repeat,
    )
    ordering = bench_place_ordering(
        args.sweep_benchmark, args.sweep_scale, 2 if args.smoke else 8,
        repeat=args.repeat,
    )
    builds = [bench_build_path(args.benchmark, args.scale, seed=1,
                               repeat=args.repeat)]
    sweep = bench_seed_sweep(
        args.sweep_benchmark, args.sweep_scale, args.seeds, args.jobs,
        repeat=args.repeat,
    )
    # Two store rows bracket the build-cost spectrum: "original" is a bare
    # place-and-route (the cheapest build the store can ever amortize) and
    # "synergistic" is the paper's concerted defense flow (what protected
    # sweeps actually replay).
    store = [
        bench_store(args.sweep_benchmark, args.sweep_scale, args.seeds,
                    repeat=args.repeat, scheme=scheme)
        for scheme in ("original", "synergistic")
    ]
    protect_rows = [
        bench_protect_randomize("c1908", None, repeat=args.repeat),
        bench_protect_randomize("superblue18", 0.0025, repeat=args.repeat),
        bench_protect_legalize("superblue5", 0.0025, repeat=args.repeat),
    ]
    # The service shape: cheap ISCAS jobs, each with its own netlist seed,
    # so a hit pays netlist regeneration, fingerprinting and one decode.
    store.append(bench_store_service(
        "c880", 4 if args.smoke else 32, repeat=args.repeat,
    ))

    generated_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    payload = {
        "meta": {
            "generated_utc": generated_utc,
            "host": host_metadata(generated_utc),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "notes": (
                "Reference = retained seed implementations "
                "(place_reference/route_reference, per-object Python loops); "
                "vectorized = the columnar builders behind Workspace.prewarm. "
                "All vectorized paths are asserted bit-exact against the "
                "references before timing.  place_ordering times the seed "
                "batch's DFS placement ordering, the integer CSR walk against "
                "the gate-name string walk (tests/build_oracle.py), ranks "
                "asserted equal.  The sweep section compares "
                "Workspace.run_sweeps (vectorized builds, batched prewarm) "
                "against building each seed sequentially with the reference "
                "implementations.  The store section replays the sweep from "
                "a populated repro.store artefact store (disk hits, asserted "
                "bit-identical to the cold build) against cold-building it; "
                "its service-shape row replays single-seed c880 jobs with "
                "unpinned netlist seeds against rebuilding them without a "
                "store, timed with the cyclic GC on (gc_paused false); every "
                "other row pauses the GC while timing.  "
                "Rows marked oversubscribed ran more pool workers (jobs) than "
                "meta.host.cpu_count; their sweep numbers are not pool "
                "speedups.  A seed_batch sweep pins its netlist, so it "
                "builds as one in-process seed batch under every jobs value; "
                "its rows run at jobs=1.  The protect section times one budget step of "
                "randomize_netlist (event-driven OER rounds on integer "
                "columns) against the per-round-recompiling oracle "
                "(tests/randomizer_oracle.py), and correction-cell "
                "legalization of a naive-lifting baseline's cells (resumed "
                "spiral) against the re-scanning oracle "
                "(tests/build_oracle.py), outputs asserted equal."
            ),
        },
        "build_path": builds,
        "place_ordering": ordering,
        "protect": protect_rows,
        "seed_sweep": sweep,
        "seed_batch": seed_batch,
        "store": store,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log.info("wrote %s", args.output)
    _log.info(
        "place.ordering %s@%s x%s seeds: integer walk %ss vs string walk %ss (x%s)",
        ordering["benchmark"], ordering["scale"], ordering["num_seeds"],
        ordering["integer_walk_s"], ordering["string_walk_s"], ordering["speedup"],
    )
    for entry in builds:
        _log.info(
            "%s: place x%s, route x%s, build x%s",
            entry["benchmark"],
            entry["place_speedup"], entry["route_speedup"],
            entry["build_speedup"],
        )
    _log.info(
        "sweep %s@%s x%s seeds: %ss/seed vs sequential %ss/seed (x%s)",
        sweep["benchmark"], sweep["scale"], sweep["num_seeds"],
        sweep["sweep_s_per_seed"], sweep["sequential_reference_s_per_seed"],
        sweep["amortized_speedup"],
    )
    for entry in seed_batch:
        _log.info(
            "seed_batch %s@%s x%s seeds: build %ss/seed (x%s), "
            "sweep %ss/seed (x%s) vs sequential %ss/seed",
            entry["benchmark"], entry["scale"], entry["num_seeds"],
            entry["build_s_per_seed"],
            entry["amortized_speedup"], entry["sweep_s_per_seed"],
            entry["sweep_speedup"], entry["sequential_reference_s_per_seed"],
        )
    for entry in protect_rows:
        _log.info(
            "protect.%s %s@%s: %ss vs oracle %ss (x%s)",
            entry["row"], entry["benchmark"], entry["scale"],
            entry[f"{entry['row']}_s"], entry["oracle_s"], entry["speedup"],
        )
    for entry in store:
        if entry.get("shape") == "service":
            _log.info(
                "store %s %s x%s single-seed jobs (service shape): warm disk "
                "hit %sms/job vs no-store rebuild %sms/job (x%s)",
                entry["benchmark"], entry["scheme"], entry["num_seeds"],
                entry["warm_disk_hit_ms_per_job"],
                entry["rebuild_no_store_ms_per_job"], entry["warm_speedup"],
            )
            continue
        _log.info(
            "store %s@%s %s x%s seeds: warm disk hit %ss/seed vs cold build "
            "%ss/seed (x%s, %d bytes on disk)",
            entry["benchmark"], entry["scale"], entry["scheme"],
            entry["num_seeds"], entry["warm_disk_hit_s_per_seed"],
            entry["cold_build_s_per_seed"], entry["warm_speedup"],
            entry["store_bytes"],
        )
    return 0


if __name__ == "__main__":
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    sys.exit(main())
