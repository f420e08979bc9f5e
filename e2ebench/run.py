"""End-to-end benchmark of the split-manufacturing reproduction.

Run from the root of a checkout (``src/repro`` must be there)::

    python3 e2ebench/run.py --workload paper_quick --seed 1 --seconds 15 --trace 0

Each workload runs in processes of its own (see ``workload.py``): one
unmeasured warm-up, a few set-up-only probes for ``setup_s``, then the
measured run.  With ``--trace 0`` the last line of standard output is the
end-to-end record, with ``--trace 1`` the per-layer record of a separate
traced run.  The full run record (host noise, output digests, spans) goes
to ``.e2ebench_out/``.  ``--smoke`` shrinks every input to a seconds-long
check of the harness itself.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_NAMES  # noqa: E402

WORKLOADS = ("paper_quick", "sweep_cold", "service_warm")
#: Set-up-only processes per run, on top of the measured run's own set-up.
SETUP_PROBES = 2
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0
OUT_DIR = Path(".e2ebench_out")
SCRATCH_DIR = Path(".e2ebench_tmp")


def end_to_end_metrics(record: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    return {
        "wall_s": {"value": record["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "job_p50_ms": {"value": record["job_p50_ms"], "unit": "ms"},
        "job_p90_ms": {"value": record["job_p90_ms"], "unit": "ms"},
    }


def per_layer_metrics(record: Dict[str, Any]) -> Dict[str, Any]:
    trace = record["trace"]
    measured = trace["measured_s"]
    metrics: Dict[str, Any] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = {"value": trace["calls"][span], "unit": "count"}
        metrics[f"{span}.self_pct"] = {
            "value": 100.0 * trace["self_s"][span] / measured, "unit": "%"}
        metrics[f"{span}.busy_pct"] = {
            "value": 100.0 * trace["busy_s"][span] / measured, "unit": "%"}
    metrics["netlist.plan_compiles"] = {"value": trace["plan_compiles"], "unit": "count"}
    for name, value in record["stats"].items():
        metrics[f"workspace.{name}"] = {"value": value, "unit": "count"}
    metrics["job.run_ms_p50"] = {"value": record["job_run_ms_p50"], "unit": "ms"}
    metrics["job.overhead_ms_p50"] = {"value": record["job_overhead_ms_p50"], "unit": "ms"}
    metrics["gc.gen2_collections"] = {"value": trace["gen2_collections"], "unit": "count"}
    metrics["gc.gen2_pause_s"] = {"value": trace["gen2_pause_s"], "unit": "s"}
    metrics["tracing.overhead_s"] = {"value": trace["overhead_s"], "unit": "s"}
    metrics["tracing.coverage_pct"] = {"value": 100.0 * trace["coverage"], "unit": "%"}
    return metrics


class ChildFailed(RuntimeError):
    pass


def child(args: argparse.Namespace, phase: str, label: str, deadline: float,
          extra: List[str] = ()) -> Dict[str, Any]:
    """Run one ``workload.py`` process to completion; returns its record."""
    scratch = SCRATCH_DIR / f"{args.workload}-{os.getpid()}-{label}"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    env["GIT_CEILING_DIRECTORIES"] = str(Path.cwd().parent)
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--phase", phase, "--scratch", str(scratch), *extra]
    if args.smoke:
        command.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for the {label} process")
    try:
        done = subprocess.run(command + ["--spawned-at", repr(time.monotonic())],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{label} process timed out after {timeout:.0f}s") from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{label} process exited {done.returncode}:\n"
                          + done.stderr[-4000:])
    return json.loads(lines[-1])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a seconds-long check of the harness")
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("e2ebench: run from the root of a checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    try:
        warmup_started = time.monotonic()
        child(args, "warmup", "warmup", deadline)
        warmup_s = time.monotonic() - warmup_started
        setups: List[float] = []
        if not args.trace:
            for probe in range(1 if args.smoke else SETUP_PROBES):
                setups.append(child(args, "setup", f"setup{probe}", deadline)["setup_s"])
        extra = ["--spans-out", str(OUT_DIR / f"{name}.spans.json")] if args.trace else []
        record = child(args, "run", "run", deadline, extra)
    except ChildFailed as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    if "wall_s" not in record:
        print("e2ebench: no operation succeeded: " + "; ".join(record["problems"]),
              file=sys.stderr)
        return 1
    setups.append(record["setup_s"])
    record["setup_probes_s"] = setups
    record["warmup_s"] = warmup_s
    if args.trace:
        metrics = per_layer_metrics(record)
    else:
        metrics = end_to_end_metrics(record, setups)
    record["metrics"] = metrics
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"digest: {' '.join(record['digests'])}")
    print(f"record: {OUT_DIR / (name + '.json')}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
