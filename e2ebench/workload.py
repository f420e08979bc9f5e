"""One process of the end-to-end benchmark: set up a workload, time it, check it.

``run.py`` starts this script once per phase, from the root of a checkout
with ``PYTHONPATH=src``:

* ``--phase warmup`` imports what the workload imports and exits, so the
  timed processes find bytecode and the page cache warm;
* ``--phase setup`` performs the workload's set-up, reports how long it took
  since ``--spawned-at`` (a ``time.monotonic()`` reading taken by the parent
  just before it started this process) and exits;
* ``--phase run`` sets up, repeats the workload's unit of work until
  ``--seconds`` have passed, checks every output, and prints one JSON
  record as its last line.  With ``--trace 1`` the ``repro`` layers are
  wrapped by :mod:`tracer` before set-up and the counters reset after it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Workspace counters summed over every operation of a run.
WORKSPACE_STATS = ("builds_run", "store_hits", "store_misses", "scenario_misses")


def strip_elapsed(value: Any) -> Any:
    """Drop wall-clock fields; everything else of a result is deterministic."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [strip_elapsed(v) for v in value]
    return value


def digest(value: Any) -> str:
    raw = json.dumps(strip_elapsed(value), sort_keys=True, default=str)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """What one unit of work produced."""

    wall_s: float
    #: ``perf_counter`` readings at the start and end of the timed part.
    window: Tuple[float, float]
    #: (latency from the start of the operation, own run time) per job, s.
    jobs: List[Tuple[float, float]]
    digest: str
    stats: Dict[str, int]
    problems: List[str] = field(default_factory=list)
    #: Workload-private state the untimed check needs.
    context: Any = None


class Workload:
    """Base class: ``setup`` → ``op`` × n (timed) → ``check`` → ``close``."""

    #: Jobs one operation runs (a failed operation fails all of them).
    jobs_per_op = 1
    #: Wall time of one operation on a 2-vCPU host: a run of ``seconds``
    #: measures ``round(seconds / nominal_op_s)`` operations (at least one).
    nominal_op_s = 1.0

    def __init__(self, seed: int, smoke: bool, scratch: Path, tracer=None):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.tracer = tracer

    def span(self, name: str):
        """A traced span around the benchmark's own call into a layer."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> List[str]:
        """Untimed output checks of one operation; returns the problems."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- paper_quick ----------------------------------------------------------

_TITLE_TIMING = re.compile(r"\s+\[\d+\.\ds\]$")


class PaperQuick(Workload):
    """Serial ``run_all(quick_config())`` on a fresh Workspace, no store.

    The input is the paper's quick configuration as it ships, master seed
    included; ``--seed`` does not change it.  Over ten master seeds one
    operation took 13.3–20.2 s, because the seed decides how long the
    protection budget loop runs, and that spread would drown the code's.
    """

    jobs_per_op = 10
    nominal_op_s = 14.0

    def setup(self) -> None:
        from repro.experiments import runner
        from repro.experiments.common import ExperimentConfig

        self.runner = runner
        if self.smoke:
            self.config = ExperimentConfig(
                iscas_benchmarks=("c432",), superblue_benchmarks=("superblue18",),
                superblue_scale=0.001, iscas_split_layers=(4,), num_patterns=64,
                iscas_swap_fractions=(0.05,),
            )
        else:
            self.config = runner.quick_config()

    def op(self, index: int) -> OpResult:
        from repro.api.workspace import default_workspace, reset_default_workspace
        from repro.utils.tables import format_table

        reset_default_workspace()
        experiments = self.runner.EXPERIMENTS
        originals = dict(experiments)
        finished: Dict[str, Tuple[float, float]] = {}
        start = time.perf_counter()

        def timed(name, run):
            def call(config):
                begun = time.perf_counter()
                table = run(config)
                end = time.perf_counter()
                finished[name] = (end - start, end - begun)
                return table
            return call

        experiments.update({name: timed(name, run) for name, run in originals.items()})
        try:
            tables = self.runner.run_all(self.config, jobs=1)
        finally:
            experiments.update(originals)
        end = time.perf_counter()
        rendered = {}
        for name, table in tables.items():
            table.title = _TITLE_TIMING.sub("", table.title)
            rendered[name] = format_table(table)
        problems = [f"experiment {name} produced no table"
                    for name in originals if not rendered.get(name)]
        problems += [f"experiment {name} produced an empty table"
                     for name, table in tables.items() if not table.rows]
        return OpResult(
            wall_s=end - start, window=(start, end),
            jobs=[finished[name] for name in originals if name in finished],
            digest=digest(rendered), stats=default_workspace().stats(),
            problems=problems,
        )


# -- sweep_cold -------------------------------------------------------------

class SweepCold(Workload):
    """An 8-seed batched ``original`` sweep on superblue18 into an empty store."""

    nominal_op_s = 8.0

    def setup(self) -> None:
        from repro.api import ScenarioSpec, Workspace

        self.Workspace = Workspace
        self.count = 2 if self.smoke else 8
        self.jobs_per_op = self.count
        self.spec = ScenarioSpec.from_dict({
            "benchmark": "superblue18", "scale": 0.002 if self.smoke else 0.01,
            "scheme": "original", "netlist_seed": 1,
            "seeds": {"start": self.seed * self.count, "count": self.count},
            "attacks": ["proximity"], "split_layers": [6],
            "metrics": ["security", "distances", "wirelength_layers", "via_counts"],
        })

    def op(self, index: int) -> OpResult:
        store_dir = self.scratch / f"sweep-{index}"
        workspace = self.Workspace(store=store_dir)
        completed: Dict[int, float] = {}

        def listener(event: Dict[str, Any]) -> None:
            if event.get("event") == "scenario_completed":
                completed[event["seed"]] = time.perf_counter()

        workspace.add_progress_listener(listener)
        start = time.perf_counter()
        sweep = workspace.run_sweeps([self.spec], jobs=1)[0]
        end = time.perf_counter()
        workspace.remove_progress_listener(listener)
        jobs = [(completed[result.spec.seed] - start, result.elapsed_s)
                for result in sweep.results]
        return OpResult(wall_s=end - start, window=(start, end), jobs=jobs,
                        digest=digest(sweep.to_dict()),
                        stats=workspace.stats(), context=(workspace, sweep, store_dir))

    def check(self, result: OpResult) -> List[str]:
        workspace, sweep, store_dir = result.context
        problems = []
        if list(sweep.seeds) != list(self.spec.seeds) or sweep.failures:
            problems.append(f"sweep seeds {list(sweep.seeds)} with "
                            f"{len(sweep.failures)} failures")
        report = workspace.store.verify()
        if len(report) != self.count or not all(entry["ok"] for entry in report):
            problems.append(f"store verify: {sum(e['ok'] for e in report)} of "
                            f"{len(report)} entries ok, {self.count} expected")
        result.context = None
        shutil.rmtree(store_dir, ignore_errors=True)
        return problems


# -- service_warm -------------------------------------------------------------

class ServiceWarm(Workload):
    """Two closed-loop clients against a ScenarioService over a warm store.

    One operation is a round of ``JOBS`` distinct single-seed c880 jobs on a
    fresh Workspace and service; every job's build comes from the store.
    """

    #: Jobs per round.  Chosen so the round's 90th percentile falls inside
    #: one latency class (see README.md, "job_p90_ms").
    JOBS = 64
    CLIENTS = 2
    #: Jobs whose wire result is compared with an in-process run.
    SAMPLE = (0, 21, 42, 63)
    nominal_op_s = 7.5

    def setup(self) -> None:
        from repro.api import ScenarioSpec, Workspace
        from repro.service import ScenarioService

        self.Workspace = Workspace
        self.ScenarioService = ScenarioService
        self.ScenarioSpec = ScenarioSpec
        self.jobs_per_op = 4 if self.smoke else self.JOBS
        self.sample = (0, self.jobs_per_op - 1) if self.smoke else self.SAMPLE
        self.specs = [{
            "benchmark": "c880", "scheme": "original",
            "attacks": ["proximity"], "split_layers": [4],
            "metrics": ["security", "distances"],
            "num_patterns": 256, "seed": self.seed * 1000 + i,
        } for i in range(self.jobs_per_op)]
        self.store_dir = self.scratch / "store"
        populate = Workspace(store=self.store_dir)
        for spec in self.specs:
            populate.build(ScenarioSpec.from_dict(spec))
        del populate
        gc.collect()
        self.service = self._start()
        self.compared = False

    def _start(self):
        workspace = self.Workspace(store=self.store_dir)
        return self.ScenarioService(workspace, port=0).start()

    def _client(self, port: int, claim, out: Dict[int, Any]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                index = claim()
                if index is None:
                    return
                body = json.dumps(self.specs[index]).encode("utf-8")
                begun = time.perf_counter()
                with self.span("service.submit"):
                    conn.request("POST", "/v1/jobs", body,
                                 {"Content-Type": "application/json"})
                    posted = json.loads(conn.getresponse().read())
                with self.span("service.result_wait"):
                    conn.request("GET", f"/v1/jobs/{posted['job']['id']}/result?wait=120")
                    response = conn.getresponse()
                    raw = response.read()
                # The reply is parsed after the round, off the clock.
                out[index] = (time.perf_counter() - begun, response.status, raw)
        finally:
            conn.close()

    def op(self, index: int) -> OpResult:
        service = self.service
        lock = threading.Lock()
        queue = iter(range(self.jobs_per_op))

        def claim():
            with lock:
                return next(queue, None)

        out: Dict[int, Any] = {}
        clients = [threading.Thread(target=self._client, args=(service.port, claim, out),
                                    name=f"bench-client-{n}", daemon=True)
                   for n in range(self.CLIENTS)]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=150)
        end = time.perf_counter()
        stats = service.manager.workspace.stats()
        service.stop()
        self.service = None
        problems = [f"job {i} got no reply" for i in range(self.jobs_per_op) if i not in out]
        jobs, results = [], []
        for i in sorted(out):
            latency, status, raw = out[i]
            reply = json.loads(raw)
            if status != 200 or reply.get("status") != "done":
                problems.append(f"job {i}: HTTP {status} {reply.get('status')}")
                continue
            run_s = reply["job"].get("elapsed_s")
            if run_s is None:  # record sealed before its elapsed time was set
                run_s = reply["result"]["elapsed_s"]
            jobs.append((latency, run_s))
            results.append(reply["result"])
        return OpResult(wall_s=end - start, window=(start, end), jobs=jobs,
                        digest=digest(results), stats=stats,
                        problems=problems, context=results)

    def check(self, result: OpResult) -> List[str]:
        problems = []
        if not self.compared and len(result.context) == self.jobs_per_op:
            self.compared = True
            local = self.Workspace(store=self.store_dir)
            for i in self.sample:
                spec = self.ScenarioSpec.from_dict(self.specs[i])
                expected = local.run_sweeps([spec])[0].to_dict()
                if digest(expected) != digest(result.context[i]):
                    problems.append(f"job {i}: wire result differs from in-process run")
        result.context = None
        # The next round gets a fresh Workspace and service.
        self.service = self._start()
        return problems

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
        super().close()


WORKLOADS = {"paper_quick": PaperQuick, "sweep_cold": SweepCold,
             "service_warm": ServiceWarm}


# -- measurement helpers ----------------------------------------------------

def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs from ``/proc/stat`` (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload: Workload, seconds: float, tracer) -> Dict[str, Any]:
    """Time about ``seconds`` worth of the workload's operations."""
    ops: List[OpResult] = []
    failed = attempted = 0
    problems: List[str] = []
    windows: List[Tuple[float, float]] = []
    # A fixed count per workload and budget: a count read off the clock
    # would flip with the host's speed, and later operations of one process
    # run slower than the first.
    for index in range(max(1, round(seconds / workload.nominal_op_s))):
        # Every operation starts on a collected heap, so one operation's
        # garbage is not collected on the next one's clock.
        gc.collect()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = workload.op(index)
        except Exception as error:  # noqa: BLE001 - counted as failed, run goes on
            result = None
            problems.append(f"op {index}: {type(error).__name__}: {error}")
        if tracer is not None:
            tracer.active = False
        windows.append(result.window if result else (start, time.perf_counter()))
        attempted += workload.jobs_per_op
        if result is None:
            failed += workload.jobs_per_op
            continue
        result.problems += workload.check(result)
        # Each problem names one wrong job or one wrong operation.
        failed += min(workload.jobs_per_op, len(result.problems))
        problems += result.problems
        ops.append(result)
    digests = sorted({op.digest for op in ops})
    if len(digests) > 1:
        problems.append(f"operations of one run disagree: {len(digests)} digests")
    return {"ops": ops, "attempted": attempted, "failed": failed,
            "problems": problems, "windows": windows, "digests": digests}


def run(args: argparse.Namespace) -> Dict[str, Any]:
    scratch = Path(args.scratch)
    tracer = None
    if args.trace:
        from tracer import Tracer, wrapper_cost_s
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch, tracer)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
        if args.phase == "setup":
            return {"setup_s": setup_s}
        if tracer is not None:
            tracer.reset()
        steal_before, load_before = steal_ticks(), os.getloadavg()
        measured = measure(workload, args.seconds, tracer)
        steal_after, load_after = steal_ticks(), os.getloadavg()
    finally:
        workload.close()
    from repro.utils.host import host_metadata

    ops = measured["ops"]
    jobs = [job for op in ops for job in op.jobs]
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "setup_s": setup_s,
        "op_wall_s": [op.wall_s for op in ops],
        "job_latency_s": [round(latency, 6) for latency, _ in jobs],
        "attempted": measured["attempted"], "failed": measured["failed"],
        "problems": measured["problems"], "digests": measured["digests"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": {name: sum(op.stats.get(name, 0) for op in ops)
                  for name in WORKSPACE_STATS},
        "host": dict(
            host_metadata(time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
            loadavg_start=list(load_before), loadavg_end=list(load_after),
            steal_ticks=(None if steal_before is None or steal_after is None
                         else steal_after - steal_before),
        ),
    }
    if ops:
        latencies = [latency for latency, _ in jobs]
        record["wall_s"] = statistics.median(record["op_wall_s"])
        record["job_p50_ms"] = percentile(latencies, 50) * 1000.0
        record["job_p90_ms"] = percentile(latencies, 90) * 1000.0
        record["job_run_ms_p50"] = percentile([run for _, run in jobs], 50) * 1000.0
        record["job_overhead_ms_p50"] = percentile(
            [latency - run for latency, run in jobs], 50) * 1000.0
    if tracer is not None:
        tracer.uninstall()
        windows = measured["windows"]
        record["trace"] = {
            "calls": tracer.calls, "self_s": tracer.self_s, "busy_s": tracer.busy_s,
            "measured_s": sum(end - start for start, end in windows),
            "coverage": tracer.coverage(windows),
            "plan_compiles": tracer.plan_compiles,
            "gen2_collections": tracer.gen2_collections,
            "gen2_pause_s": tracer.gen2_pause_s,
            "overhead_s": tracer.total_calls() * wrapper_cost_s(),
        }
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as out:
                json.dump({"origin": "start of the first measured operation",
                           "fields": ["name", "thread", "start_s", "end_s", "depth"],
                           "spans": tracer.span_records(windows[0][0])}, out)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("warmup", "setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    if args.phase == "warmup":
        import importlib

        from tracer import PRELOAD
        for module in PRELOAD + ("scipy.optimize",):
            importlib.import_module(module)
        record: Dict[str, Any] = {"warm": True}
    else:
        record = run(args)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
