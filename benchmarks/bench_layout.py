"""Micro-benchmarks for the columnar geometry core (``repro.layout.arrays``).

Measures FEOL extraction, the proximity attack, the Table 1 / Fig. 4
distance statistics and placement HPWL on the seed-equivalent legacy paths
(per-object Python loops) versus the columnar/grid-accelerated
implementations, on superblue-scale layouts, and writes a ``BENCH_layout.json`` perf-trajectory artifact next to
``BENCH_sim.json``::

    PYTHONPATH=src python benchmarks/bench_layout.py              # writes BENCH_layout.json
    PYTHONPATH=src python benchmarks/bench_layout.py --scales 0.0025 0.01
    PYTHONPATH=src python benchmarks/bench_layout.py --smoke      # CI-sized run

Columnar timings are reported both *cold* (array views and the spatial index
are rebuilt, i.e. first touch after a geometry edit) and *warm* (cached
views, the steady state of an experiment sweep); the headline speedups are
computed against the cold numbers, so the cost of building the views is
charged to the columnar side.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The per-pair proximity reference is a test oracle (needs the test extra).
sys.path.insert(0, str(REPO_ROOT / "tests"))

from attack_oracle import proximity_attack_reference  # noqa: E402
from feol_oracle import extract_feol_reference, feol_columns, feol_objects  # noqa: E402
from repro.attacks.proximity import proximity_attack  # noqa: E402
from repro.circuits.superblue import superblue_netlist  # noqa: E402
from repro.layout import build_layout  # noqa: E402
from repro.layout.geometry import Point, manhattan  # noqa: E402
from repro.layout.placer import placement_hpwl  # noqa: E402
from repro.metrics.distances import distance_stats  # noqa: E402
from repro.sm.split import FEOLArrays, extract_feol  # noqa: E402
from repro.utils.host import host_metadata  # noqa: E402

_log = logging.getLogger("repro.bench.layout")

#: Split layer of the superblue routing-centric evaluation (paper setup).
SPLIT_LAYER = 6


def _timeit(fn: Callable[[], object], repeat: int) -> float:
    samples: List[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Seed-equivalent legacy implementations (the pre-columnar hot paths).  They
# walk plain name -> Point dicts, built once from the placement's position
# views outside the timed region, as the seed's placements were.
# ---------------------------------------------------------------------------


def _legacy_connected_gate_distances(netlist, gate_positions: Dict[str, Point]
                                     ) -> List[float]:
    distances: List[float] = []
    for _net_name, net in netlist.nets.items():
        if net.driver is None:
            continue
        driver_pos = gate_positions.get(net.driver[0])
        if driver_pos is None:
            continue
        for sink_gate, _pin in net.sinks:
            sink_pos = gate_positions.get(sink_gate)
            if sink_pos is not None:
                distances.append(manhattan(driver_pos, sink_pos))
    return distances


def _legacy_distance_stats(netlist, gate_positions: Dict[str, Point]
                           ) -> Dict[str, float]:
    values = _legacy_connected_gate_distances(netlist, gate_positions)
    if not values:
        return {"mean": 0.0, "median": 0.0, "std_dev": 0.0}
    return {
        "mean": float(statistics.mean(values)),
        "median": float(statistics.median(values)),
        "std_dev": float(statistics.pstdev(values)) if len(values) > 1 else 0.0,
    }


def _legacy_placement_hpwl(netlist, gate_positions: Dict[str, Point],
                           port_positions: Dict[str, Point]) -> float:
    total = 0.0
    for net in netlist.nets.values():
        xs: List[float] = []
        ys: List[float] = []
        if net.driver is not None:
            p = gate_positions.get(net.driver[0])
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        elif net.is_primary_input:
            p = port_positions.get(net.name)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for sink_gate, _pin in net.sinks:
            p = gate_positions.get(sink_gate)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        for po in net.primary_outputs:
            p = port_positions.get(po)
            if p is not None:
                xs.append(p.x)
                ys.append(p.y)
        if len(xs) >= 2:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


# ---------------------------------------------------------------------------
# Benchmark driver
# ---------------------------------------------------------------------------


def _invalidate_geometry_caches(layout, view) -> None:
    """Force the next columnar call to rebuild every array view (cold path)."""
    layout.placement.bump_geometry_version()
    layout.bump_geometry_version()
    view.columns._driver_grid = None


def _assert_same_arrays(ours: FEOLArrays, theirs: FEOLArrays) -> None:
    for field in dataclasses.fields(FEOLArrays):
        if field.name.startswith("_"):
            continue
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _reference_columns(layout) -> FEOLArrays:
    """The object-walk extraction, then its columns (the same product)."""
    return feol_columns(extract_feol_reference(layout, SPLIT_LAYER))


def bench_config(benchmark: str, scale: float, seed: int,
                 repeat: int) -> Dict[str, object]:
    netlist = superblue_netlist(benchmark, scale=scale, seed=seed)
    layout = build_layout(netlist, seed=seed)
    view = extract_feol(layout, SPLIT_LAYER)
    gate_positions = dict(layout.placement.gate_positions)
    port_positions = dict(layout.placement.port_positions)
    num_sinks = len(view.columns.sink_ids)
    num_drivers = len(view.columns.driver_ids)
    _log.info(
        "%s scale=%s: gates=%d sinks=%d drivers=%d",
        benchmark, scale, netlist.num_gates, num_sinks, num_drivers,
    )

    # -- correctness gate: the columnar paths must reproduce the legacy ones
    # (the legacy loop reads vpin objects, built once, outside its timing).
    objects = feol_objects(view)
    assert proximity_attack(view).assignment == (
        proximity_attack_reference(view, objects).assignment
    ), "columnar proximity attack diverged from the reference loop"
    assert layout.connected_gate_distances() == (
        _legacy_connected_gate_distances(netlist, gate_positions)
    ), "columnar distances diverged from the reference loop"

    _assert_same_arrays(view.columns, _reference_columns(layout))

    timings: Dict[str, float] = {}

    # -- feol.extract: the columns against the object walk ------------------
    timings["feol_extract_reference_s"] = _timeit(
        lambda: _reference_columns(layout), repeat
    )
    timings["feol_extract_columns_s"] = _timeit(
        lambda: extract_feol(layout, SPLIT_LAYER).columns, repeat
    )

    timings["proximity_legacy_s"] = _timeit(
        lambda: proximity_attack_reference(view, objects), max(1, repeat // 3)
    )

    def proximity_cold():
        _invalidate_geometry_caches(layout, view)
        return proximity_attack(view)

    timings["proximity_columnar_cold_s"] = _timeit(proximity_cold, repeat)
    proximity_attack(view)  # prewarm
    timings["proximity_columnar_warm_s"] = _timeit(
        lambda: proximity_attack(view), repeat
    )

    timings["distance_stats_legacy_s"] = _timeit(
        lambda: _legacy_distance_stats(netlist, gate_positions),
        max(1, repeat // 3)
    )

    def distances_cold():
        _invalidate_geometry_caches(layout, view)
        return distance_stats(layout)

    timings["distance_stats_columnar_cold_s"] = _timeit(distances_cold, repeat)
    distance_stats(layout)  # prewarm
    timings["distance_stats_columnar_warm_s"] = _timeit(
        lambda: distance_stats(layout), repeat
    )

    timings["hpwl_legacy_s"] = _timeit(
        lambda: _legacy_placement_hpwl(netlist, gate_positions, port_positions),
        max(1, repeat // 3)
    )

    def hpwl_cold():
        layout.placement.bump_geometry_version()
        return placement_hpwl(netlist, layout.placement)

    timings["hpwl_columnar_cold_s"] = _timeit(hpwl_cold, repeat)
    placement_hpwl(netlist, layout.placement)  # prewarm
    timings["hpwl_columnar_warm_s"] = _timeit(
        lambda: placement_hpwl(netlist, layout.placement), repeat
    )

    speedups = {
        "feol_extract": (
            timings["feol_extract_reference_s"] / timings["feol_extract_columns_s"]
        ),
        "proximity_cold": timings["proximity_legacy_s"] / timings["proximity_columnar_cold_s"],
        "proximity_warm": timings["proximity_legacy_s"] / timings["proximity_columnar_warm_s"],
        "distance_stats_cold": (
            timings["distance_stats_legacy_s"] / timings["distance_stats_columnar_cold_s"]
        ),
        "distance_stats_warm": (
            timings["distance_stats_legacy_s"] / timings["distance_stats_columnar_warm_s"]
        ),
        "hpwl_cold": timings["hpwl_legacy_s"] / timings["hpwl_columnar_cold_s"],
        "hpwl_warm": timings["hpwl_legacy_s"] / timings["hpwl_columnar_warm_s"],
    }
    return {
        "benchmark": benchmark,
        "scale": scale,
        "split_layer": SPLIT_LAYER,
        "num_gates": netlist.num_gates,
        "num_nets": netlist.num_nets,
        "num_sink_vpins": num_sinks,
        "num_driver_vpins": num_drivers,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "speedups": {k: round(v, 2) for k, v in speedups.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="superblue12",
                        help="superblue design to scale (default: the largest)")
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[0.0025, 0.01],
                        help="superblue down-scaling factors (largest last)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5,
                        help="repetitions for the fast paths (legacy uses 1/3)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (one small config)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_layout.json")
    args = parser.parse_args()
    if args.smoke:
        args.scales = [0.001]
        args.repeat = 3

    configs = [
        bench_config(args.benchmark, scale, args.seed, args.repeat)
        for scale in args.scales
    ]
    largest = max(configs, key=lambda c: c["num_gates"])
    generated_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    payload = {
        "meta": {
            "generated_utc": generated_utc,
            "host": host_metadata(generated_utc),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "notes": (
                "Legacy = seed-equivalent per-object Python loops; columnar = "
                "grid/array implementations of repro.layout.arrays.  "
                "feol_extract times extract_feol (columns only) against the "
                "object-walk oracle extract_feol_reference plus "
                "feol_columns, asserted to give equal FEOLArrays.  Cold numbers "
                "rebuild the cached views (first touch after a geometry edit), "
                "warm numbers reuse them.  The columnar paths are asserted "
                "bit-exact against the legacy paths before timing."
            ),
        },
        "configs": configs,
        "largest_config_speedups": largest["speedups"],
    }
    # Sorted keys keep the committed artifact (and CI log diffs) stable.
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log.info("wrote %s", args.output)
    for config in configs:
        _log.info(
            "%s@%s: feol.extract x%s, proximity x%s cold / x%s warm, "
            "distance stats x%s cold",
            config["benchmark"], config["scale"], config["speedups"]["feol_extract"],
            config["speedups"]["proximity_cold"],
            config["speedups"]["proximity_warm"],
            config["speedups"]["distance_stats_cold"],
        )


if __name__ == "__main__":
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    main()
