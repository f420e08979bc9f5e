"""The :class:`Workspace`: session object owning artefacts and execution.

A workspace replaces the historical module-global artefact cache of
``repro.experiments.common``.  Builds are keyed by the **full canonical build
hash** of their scenario spec (benchmark, scale, seed, scheme and every
scheme parameter — see :meth:`~repro.api.spec.ScenarioSpec.build_key`), so
two configurations that differ in any build-relevant knob can never share an
artefact; the historical cache keyed only ``(benchmark, scale, seed)`` and
silently served stale results across e.g. differing lift layers.

The workspace also owns execution:

* :meth:`Workspace.prewarm` builds the seed batches among the missing
  artefacts in process and the rest in parallel worker processes
  (``jobs``) through the crash-tolerant
  :class:`~repro.exec.supervisor.PoolSupervisor`: failed builds are retried
  under the workspace's :class:`~repro.exec.retry.RetryPolicy`, a crashed
  pool is respawned with its in-flight builds re-queued, hung workers are
  killed past the per-build timeout, poison builds are quarantined instead
  of tearing the batch down, and completed sibling builds are always
  published.  Environments without multiprocessing degrade to serial — with
  a warning on the ``repro`` logger, never silently;
* :meth:`Workspace.run_scenario` executes one declarative
  :class:`~repro.api.spec.ScenarioSpec` and returns a structured
  :class:`ScenarioResult` (memoized by spec content hash);
* :meth:`Workspace.run_scenarios` / :meth:`Workspace.run_sweeps` are the
  batch APIs: prewarm the distinct builds, then evaluate every scenario
  against the warm cache.  Under ``on_error="skip"`` failed seeds become
  :class:`~repro.exec.errors.FailureRecord` entries
  (``SweepResult.failures``) while aggregation proceeds over the surviving
  seeds with an honest ``n``; the default ``on_error="raise"`` re-raises
  the first failure once sibling results are published.

Fault injection for testing the above lives in :mod:`repro.exec.chaos`: a
:class:`~repro.exec.chaos.FaultPlan` passed to the constructor (or via the
``REPRO_CHAOS`` environment variable) deterministically fails, hangs or
crashes chosen build attempts.  Retries re-run the same deterministic build,
so the bit-exactness contract is untouched: a sweep that recovers from
faults returns results bit-identical to a fault-free run.

Below the in-memory build cache sits an optional **disk tier**
(:class:`~repro.store.ArtifactStore`, ``Workspace(store=...)`` or the
``REPRO_STORE`` environment variable): lookups go memory → disk → build,
every finished build is published to disk as it lands (workers included),
and pool prewarms short-circuit on disk hits — both up front and again at
dispatch time, so two processes sweeping against one shared store divide
the work between them.  Memory keeps a build the disk can serve again only
while it is in use (see :class:`Workspace`).  Loaded builds pass the full
verification gates (payload checksum, format and generator versions, the
netlist's fingerprint and ``topology_version``) before they are trusted;
anything that fails is quarantined on disk and rebuilt.  A *read-only* store
(``REPRO_STORE_READONLY=1``) additionally forbids building: a miss raises
:class:`~repro.exec.errors.BuildError`, which is how CI proves a rerun was
served entirely from disk.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins
from repro.api.spec import ScenarioSpec
from repro.circuits.registry import get_benchmark
from repro.core.flow import ProtectionConfig, ProtectionResult
from repro.exec.chaos import FaultPlan
from repro.exec.errors import BuildError, FailureRecord, ScenarioError
from repro.exec.retry import RetryPolicy, execute_with_retries
from repro.exec.supervisor import PoolSupervisor, SupervisorReport, TaskSpec
from repro.netlist.netlist import Netlist
from repro.sm.split import extract_feol
from repro.store import ArtifactStore, StoreError
from repro.utils.degrade import warn_once

_log = logging.getLogger(__name__)

#: The two failure-handling modes of the batch APIs.
ON_ERROR_MODES = ("raise", "skip")


#: A seed-batch group: the members' shared build dict (every build-dict field
#: but ``seed``) and its ``(build key, spec)`` members.
_Group = Tuple[Dict[str, Any], List[Tuple[str, ScenarioSpec]]]


def _coerce_on_error(value: str) -> str:
    if value not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {', '.join(ON_ERROR_MODES)}; got {value!r}"
        )
    return value


@dataclass
class AttackRecord:
    """One attack run inside a scenario: where it ran and what it scored."""

    attack: str
    layout: str
    split_layer: int
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attack": self.attack,
            "layout": self.layout,
            "split_layer": self.split_layer,
            "metrics": self.metrics,
        }


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run."""

    spec: ScenarioSpec
    spec_hash: str
    benchmark: str
    scheme: str
    #: metric name → layout variant → value (layout- and compare-scope).
    layout_metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attack_records: List[AttackRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "layout_metrics": self.layout_metrics,
            "attack_records": [record.to_dict() for record in self.attack_records],
            "elapsed_s": self.elapsed_s,
        }

    def metric(self, name: str, layout: str = "protected") -> Any:
        """A layout/compare metric value for one layout variant."""
        return self.layout_metrics[name][layout]

    def records(self, attack: Optional[str] = None,
                layout: Optional[str] = None) -> List[AttackRecord]:
        return [
            record for record in self.attack_records
            if (attack is None or record.attack == attack)
            and (layout is None or record.layout == layout)
        ]

    def security_mean(self, attack: Optional[str] = None,
                      layout: str = "protected") -> Dict[str, float]:
        """CCR/OER/HD of the ``security`` metric averaged over split layers.

        Plain sum over runs divided by run count — the arithmetic the
        tables were first computed with, so their numbers stay
        bit-identical.
        """
        totals = {"ccr": 0.0, "oer": 0.0, "hd": 0.0}
        count = 0
        for record in self.records(attack=attack, layout=layout):
            security = record.metrics.get("security")
            if security is None:
                continue
            for key in totals:
                totals[key] += security[key]
            count += 1
        if count == 0:
            # All-zero CCR is the paper's headline *result* — never fabricate
            # it from an empty filter (typo'd layout/attack, missing metric).
            raise ValueError(
                f"no 'security' records match attack={attack!r}, layout={layout!r} "
                f"in scenario {self.spec_hash[:12]} (layouts={self.spec.layouts}, "
                f"attacks={tuple(a.name for a in self.spec.attacks)})"
            )
        return {key: value / count for key, value in totals.items()}


def aggregate_sweep_values(values: List[Any]) -> Any:
    """Aggregate one metric leaf across sweep seeds.

    Numeric leaves become ``{"mean", "std", "ci95", "min", "max", "n",
    "per_seed"}`` (sample std, normal-approximation 95 % confidence
    half-width); mappings aggregate recursively per key; anything
    non-numeric (or mappings with mismatched keys) is kept verbatim as
    ``{"per_seed": [...]}``.

    Non-finite seeds (NaN/±inf — e.g. a degenerate STA leaf from one bad
    seed) are excluded from the moments instead of poisoning every
    statistic: ``n`` counts only the finite seeds that were aggregated, an
    ``n_nonfinite`` key reports how many were dropped (present only when
    that happened), and ``per_seed`` always keeps the raw values.  A leaf
    with *no* finite seed reports ``None`` statistics with ``n=0``.
    """
    if values and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        floats = [float(v) for v in values]
        finite = [v for v in floats if math.isfinite(v)]
        n = len(finite)
        n_nonfinite = len(floats) - n
        if n == 0:
            stats: Dict[str, Any] = {
                "mean": None, "std": None, "ci95": None,
                "min": None, "max": None,
            }
        else:
            mean = sum(finite) / n
            if n > 1:
                variance = sum((v - mean) ** 2 for v in finite) / (n - 1)
                std = variance ** 0.5
            else:
                std = 0.0
            stats = {
                "mean": mean,
                "std": std,
                "ci95": 1.96 * std / (n ** 0.5),
                "min": min(finite),
                "max": max(finite),
            }
        stats["n"] = n
        if n_nonfinite:
            stats["n_nonfinite"] = n_nonfinite
        stats["per_seed"] = values
        return stats
    if (
        values
        and all(isinstance(v, Mapping) for v in values)
        and all(set(v) == set(values[0]) for v in values[1:])
    ):
        return {
            key: aggregate_sweep_values([v[key] for v in values])
            for key in values[0]
        }
    return {"per_seed": values}


def flatten_sweep_aggregate(aggregate: Any, prefix: str = ""):
    """Yield ``(label, stat_dict)`` leaves of a nested sweep aggregate."""
    if isinstance(aggregate, Mapping) and "per_seed" in aggregate:
        yield prefix, aggregate
        return
    if isinstance(aggregate, Mapping):
        for key, value in aggregate.items():
            label = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten_sweep_aggregate(value, label)


@dataclass
class SweepAttackRecord:
    """Aggregated attack metrics for one (attack, layout, split layer) cell."""

    attack: str
    layout: str
    split_layer: int
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attack": self.attack,
            "layout": self.layout,
            "split_layer": self.split_layer,
            "metrics": self.metrics,
        }


@dataclass
class SweepResult:
    """Aggregated outcome of one scenario swept across seeds.

    ``results`` holds the underlying per-seed :class:`ScenarioResult` records
    (aligned with ``seeds``); ``layout_metrics`` / ``attack_records`` mirror
    their scalar counterparts with every numeric leaf replaced by a
    mean/std/CI aggregate (see :func:`aggregate_sweep_values`).

    Under ``on_error="skip"`` a sweep may be **partial**: ``seeds`` then
    holds only the surviving seeds (still aligned with ``results``, so every
    aggregate's ``n`` is honest), and ``failures`` records one
    :class:`~repro.exec.errors.FailureRecord` per dropped seed.
    """

    spec: ScenarioSpec
    spec_hash: str
    benchmark: str
    scheme: str
    seeds: Tuple[int, ...]
    results: List[ScenarioResult] = field(default_factory=list)
    layout_metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attack_records: List[SweepAttackRecord] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def num_seeds(self) -> int:
        """Surviving seed count (the ``n`` every aggregate reports)."""
        return len(self.seeds)

    @property
    def failed_seeds(self) -> Tuple[int, ...]:
        return tuple(record.seed for record in self.failures)

    @property
    def complete(self) -> bool:
        return not self.failures

    def metric(self, name: str, layout: str = "protected") -> Any:
        """The aggregate of a layout/compare metric for one layout variant."""
        return self.layout_metrics[name][layout]

    def per_seed(self, name: str, layout: str = "protected") -> List[Any]:
        """The raw per-seed values of a layout/compare metric."""
        return [result.layout_metrics[name][layout] for result in self.results]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "seeds": list(self.seeds),
            "failed_seeds": list(self.failed_seeds),
            "layout_metrics": self.layout_metrics,
            "attack_records": [record.to_dict() for record in self.attack_records],
            "failures": [record.to_dict() for record in self.failures],
            "results": [result.to_dict() for result in self.results],
            "elapsed_s": self.elapsed_s,
        }


def _build_sweep_result(spec: ScenarioSpec, seeds: Tuple[int, ...],
                        results: List[ScenarioResult],
                        elapsed_s: float,
                        failures: Sequence[FailureRecord] = ()) -> SweepResult:
    """Aggregate aligned per-seed scenario results into a :class:`SweepResult`."""
    failures = list(failures)
    if not results:
        # Without the guard this crashed with an opaque IndexError on
        # results[0]; reachable whenever on_error="skip" drops every seed.
        detail = (
            f"; first failure: {failures[0].summary()}" if failures
            else " (empty seed expansion)"
        )
        raise ScenarioError(
            f"sweep of scenario {spec.short_hash} "
            f"({spec.benchmark}:{spec.scheme}) has no surviving seeds — "
            f"all {len(failures)} failed{detail}",
            spec_hash=spec.content_hash(), failures=failures,
        )
    sweep = SweepResult(
        spec=spec, spec_hash=spec.content_hash(),
        benchmark=spec.benchmark, scheme=spec.scheme,
        seeds=seeds, results=results, failures=failures, elapsed_s=elapsed_s,
    )
    for name in results[0].layout_metrics:
        sweep.layout_metrics[name] = {
            layout: aggregate_sweep_values(
                [result.layout_metrics[name][layout] for result in results]
            )
            for layout in results[0].layout_metrics[name]
        }
    # Per-seed runs of the same spec produce attack records in identical
    # (attack, layout, split_layer) order — aggregate them index-aligned.
    for records in zip(*[result.attack_records for result in results]):
        first = records[0]
        keys = {(r.attack, r.layout, r.split_layer) for r in records}
        if len(keys) != 1:  # pragma: no cover - defensive; order is deterministic
            raise RuntimeError(f"misaligned attack records across seeds: {keys}")
        sweep.attack_records.append(SweepAttackRecord(
            attack=first.attack, layout=first.layout,
            split_layer=first.split_layer,
            metrics={
                name: aggregate_sweep_values([r.metrics[name] for r in records])
                for name in first.metrics
            },
        ))
    return sweep


def _build_scheme(payload: Mapping[str, Any]):
    """Build one scheme from a plain payload (module-level: pickles for pools)."""
    ensure_builtins()
    netlist_seed = payload.get("netlist_seed")
    if netlist_seed is None:
        netlist_seed = payload["seed"]
    netlist = get_benchmark(
        payload["benchmark"], seed=netlist_seed, scale=payload["scale"]
    )
    entry = DEFENSES.get(payload["scheme"])
    params = entry.make_params(payload["scheme_params"])
    return entry.fn(netlist, params, payload["seed"])


def build_label(spec: ScenarioSpec) -> str:
    """Human-readable build identity (also the chaos-plan match target)."""
    scale = f"@{spec.scale:g}" if spec.scale is not None else ""
    return f"{spec.benchmark}{scale}:{spec.scheme}:seed{spec.seed}"


def _supervised_build(key: str, payload: Mapping[str, Any], attempt: int):
    """Pool-supervisor task: build one scheme, applying any chaos faults.

    Module-level (pickles into workers).  The fault plan travels inside the
    task payload — *not* the build dict, which is the cache-key payload —
    and is applied before the build so injected crashes kill the worker
    mid-task, exactly like a real native-code crash would.

    When the payload names a disk store, the worker checks it before
    building (a hit short-circuits the whole build — another worker or
    process already paid for it) and publishes its finished build to it —
    publish-as-you-go extends to disk, so completed work survives even a
    parent crash.  The parent saves every build it receives too, so a
    worker-side save that fails costs nothing but the early copy.
    """
    chaos = payload.get("chaos")
    if chaos:
        FaultPlan.from_dict(chaos).inject(payload["label"], attempt)
    store = ArtifactStore.from_worker_payload(payload.get("store"))
    if store is not None:
        cached = store.load(key)
        if cached is not None:
            return cached
    built = _build_scheme(payload["build"])
    if store is not None:
        try:
            store.save(key, built, payload["build"], built.layout.netlist)
        except StoreError:
            pass  # the parent saves it again and warns if the root is unusable
    return built


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given."""
    return max(1, min(os.cpu_count() or 1, 8))


def _pinning(method):
    """Make ``method`` a call that pins what it resolves until it returns.

    The outermost pinning call on a thread opens that thread's pin table;
    every build and netlist the call (and the calls nested in it) looks up
    or publishes is held there, and the table is dropped when the
    outermost call returns.
    """
    @functools.wraps(method)
    def call(self, *args, **kwargs):
        pins = self._pins
        if hasattr(pins, "held"):
            return method(self, *args, **kwargs)
        pins.held = {}
        try:
            return method(self, *args, **kwargs)
        finally:
            del pins.held
    return call


class Workspace:
    """Owns artefact caches and runs declarative scenarios.

    A workspace is cheap to create; everything it caches lives on the
    instance, so tests and services can hold isolated sessions.  Most code
    shares the process-wide :func:`default_workspace`.

    Lookups go memory → disk → build.  What memory keeps depends on whether
    the disk tier can serve a build again:

    * a build loaded from the store, or saved to it, is held only while
      something uses it — a caller's reference, or a pin taken by the
      running :meth:`build`, :meth:`run_scenario`, :meth:`run_scenarios`,
      :meth:`run_sweeps` or :meth:`prewarm` call that resolved it, released
      when the outermost such call on that thread returns.  A caller that
      still holds a build gets the same object back; once nothing does,
      the next lookup is a store hit;
    * a build the store cannot serve again (no store, an unstorable
      ``proposed`` build, a save that failed) stays resident until
      :meth:`clear`.

    Netlists follow the builds: a netlist stays while a resident build's
    layout or a pin holds it, so one call decodes or generates each netlist
    once.  Scenario results are memoized for the workspace's lifetime.

    Args:
        jobs: Default worker-process count for the batch APIs.
        retry: Default :class:`~repro.exec.retry.RetryPolicy` applied to
            every build (serial and pooled).  The default single-attempt
            policy preserves the historical fail-fast behaviour.
        on_error: Default failure mode of the batch APIs — ``"raise"``
            re-raises the first failure (after publishing sibling results),
            ``"skip"`` records failed seeds/scenarios as
            :class:`~repro.exec.errors.FailureRecord` entries and keeps
            going with partial results.
        chaos: A :class:`~repro.exec.chaos.FaultPlan` injecting
            deterministic faults into builds (tests, resilience drills).
            Defaults to the plan configured via the ``REPRO_CHAOS``
            environment variable, if any.
        store: Disk tier below the in-memory build cache: an
            :class:`~repro.store.ArtifactStore`, or a path to open one at.
            Defaults to the store named by the ``REPRO_STORE`` environment
            variable (no disk tier when that is unset too).  Lookups go
            memory → disk → build; finished builds are published to disk as
            they land.  A read-only store forbids building on a miss.
    """

    def __init__(self, *, jobs: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_error: str = "raise",
                 chaos: Optional[FaultPlan] = None,
                 store: Optional[Any] = None):
        self.default_jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_error = _coerce_on_error(on_error)
        self.chaos = chaos if chaos is not None else FaultPlan.from_env()
        if store is None:
            store = ArtifactStore.from_env()
        elif not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = store
        self.last_report: Optional[SupervisorReport] = None
        #: Builds the store cannot serve again (resident), and the ones it
        #: can (held only while in use); see the class docstring.
        self._builds: Dict[str, Any] = {}
        self._stored: weakref.WeakValueDictionary[str, Any] = (
            weakref.WeakValueDictionary()
        )
        self._scenarios: Dict[str, ScenarioResult] = {}
        self._netlists: weakref.WeakValueDictionary[
            Tuple[str, int, Optional[float]], Netlist
        ] = weakref.WeakValueDictionary()
        #: Per-thread pin table of the running call (see :func:`_pinning`).
        self._pins = threading.local()
        self._quarantined: Dict[str, BuildError] = {}
        self._failures: List[FailureRecord] = []
        self._lock = threading.RLock()
        #: build key → event set when the build currently running in another
        #: thread settles (in-flight dedup; see :meth:`_claim_builds`).
        self._inflight: Dict[str, threading.Event] = {}
        self._listeners: List[Any] = []
        self._stats = {
            "build_hits": 0, "build_misses": 0,
            "scenario_hits": 0, "scenario_misses": 0,
            "store_hits": 0, "store_misses": 0,
            "builds_run": 0, "inflight_waits": 0,
        }

    # -- artefact cache ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._builds) + len(self._stored)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def clear(self) -> None:
        """Drop every cached build, scenario result, netlist and quarantine.

        The disk tier is untouched: a cleared workspace re-serves its builds
        from the store (this is exactly how resumed sweeps work).
        """
        with self._lock:
            self._builds.clear()
            self._stored.clear()
            self._scenarios.clear()
            self._netlists.clear()
            self._quarantined.clear()
            self._failures.clear()

    def _pin(self, value: Any) -> Any:
        """Hold ``value`` until the running call on this thread returns."""
        held = getattr(self._pins, "held", None)
        if held is not None:
            held[id(value)] = value
        return value

    def _cached(self, key: str) -> Any:
        """The build under ``key`` in either memory tier, pinned, or ``None``.

        The caller holds the lock.
        """
        built = self._builds.get(key)
        if built is None:
            built = self._stored.get(key)
            if built is None:
                return None
        return self._pin(built)

    # -- progress signaling ------------------------------------------------

    def add_progress_listener(self, listener) -> None:
        """Subscribe ``listener(event_dict)`` to execution progress events.

        Events are plain dicts with an ``"event"`` name plus context fields
        (``key``, ``label``, ``attempts``, ``spec_hash``, ``seed`` — whatever
        the edge knows).  Emitted edges:

        * ``build_dispatched`` — an in-process single build starts, or a
          pool task is handed to a worker (with ``attempts``);
        * ``build_retry`` — a pool task failed an attempt and is re-queued;
        * ``build_completed`` — a build lands: an in-process single or
          seed-batch member, or a pooled single (with ``attempts``);
        * ``build_quarantined`` — a build (in-process) or a pool task
          exhausted its attempts;
        * ``store_hit`` — the disk tier served a build, wherever it was
          looked up (:meth:`build`, a sweep's prewarm, pool dispatch);
        * ``scenario_completed`` — :meth:`run_scenario` finished a scenario.

        Every edge is keyed by one build; seed batches always build in
        the calling process, so a pool task is always a single build.
        Listeners run on the emitting thread and must be fast and
        exception-safe; a listener that raises is logged and dropped from
        that emission, never allowed to sink the work it observes.  This is
        the hook the scenario service streams job progress from.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_progress_listener(self, listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _emit(self, event: str, **fields: Any) -> None:
        with self._lock:
            listeners = list(self._listeners)
        if not listeners:
            return
        payload = {"event": event, **fields}
        for listener in listeners:
            try:
                listener(payload)
            except Exception:  # noqa: BLE001 - observers never sink the work
                _log.warning("progress listener failed for %s", event,
                             exc_info=True)

    # -- in-flight build dedup ---------------------------------------------

    def _claim_builds(self, keys: Iterable[str]
                      ) -> Tuple[List[str], Dict[str, threading.Event]]:
        """Partition ``keys`` into builds this thread owns vs ones in flight.

        The first thread to ask for a missing build key *claims* it (an
        event is parked in ``_inflight``); any other thread asking for the
        same key while the build runs gets the claimant's event back instead
        of a claim, waits on it, and finds the build in the cache (or, once
        nothing holds a stored build, in the store) — so two clients
        requesting the same scenario concurrently trigger exactly one
        build.  A key found in memory is pinned for the running call.
        Claimants must release via :meth:`_release_builds` on
        every exit path (success *and* failure), else waiters would hang.
        """
        owned: List[str] = []
        foreign: Dict[str, threading.Event] = {}
        with self._lock:
            for key in keys:
                if self._cached(key) is not None:
                    continue
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    owned.append(key)
                else:
                    foreign[key] = event
        return owned, foreign

    def _release_builds(self, keys: Iterable[str]) -> None:
        with self._lock:
            for key in keys:
                event = self._inflight.pop(key, None)
                if event is not None:
                    event.set()

    def _await_builds(self, foreign: Mapping[str, threading.Event]) -> None:
        """Block until every foreign in-flight build settles (built or not)."""
        if not foreign:
            return
        with self._lock:
            self._stats["inflight_waits"] += len(foreign)
        for event in foreign.values():
            event.wait()

    # -- disk tier ---------------------------------------------------------

    def _store_load(self, key: str, spec: ScenarioSpec):
        """Fetch ``key`` from the disk tier (verified), or ``None``.

        The build is decoded against the netlist tier's netlist when the
        tier holds it; otherwise the store builds the netlist from the
        payload and the tier keeps it while the build holds it, so the hits
        of one call on one netlist decode it once and no hit runs the
        generator.
        """
        store = self.store
        if store is None or not store.has(key):
            return None
        tier_key = (spec.benchmark, spec.effective_netlist_seed, spec.scale)
        with self._lock:
            netlist = self._netlists.get(tier_key)
        built = store.load(key, netlist)
        if built is not None and netlist is None:
            with self._lock:
                self._netlists.setdefault(tier_key, built.layout.netlist)
        return built

    def _store_save(self, key: str, build_dict: Mapping[str, Any],
                    built: Any) -> bool:
        """Publish a finished build to the disk tier (best effort).

        True when the store can serve the build again: this call saved it,
        or another writer did first.  False without a writable store, for
        an unstorable build and when the save failed.
        """
        store = self.store
        if store is None or store.readonly:
            return False
        try:
            saved = store.save(key, built, build_dict, built.layout.netlist)
        except StoreError as error:
            warn_once(
                _log, "workspace.store.save",
                f"artefact store at {store.root} is unusable ({error}); "
                "continuing with the in-memory cache only",
            )
            return False
        return saved is not None

    # -- failure bookkeeping -----------------------------------------------

    def quarantined(self) -> Dict[str, BuildError]:
        """Builds currently quarantined (build key → the terminal error)."""
        with self._lock:
            return dict(self._quarantined)

    def clear_quarantine(self) -> None:
        """Forget quarantined builds so later calls may retry them."""
        with self._lock:
            self._quarantined.clear()

    def _record_failure(self, record: FailureRecord) -> None:
        with self._lock:
            self._failures.append(record)
        _log.warning("%s", record.summary())

    def drain_failures(self) -> List[FailureRecord]:
        """Failure records accumulated by skip-mode runs (cleared on read).

        Records are deduplicated: a build that failed in the prewarm *and*
        again when its scenario ran yields one record (the latest).
        """
        with self._lock:
            records, self._failures = self._failures, []
        deduped: Dict[Tuple[str, int, str], FailureRecord] = {}
        for record in records:
            key = (record.build_key or record.spec_hash, record.seed, record.kind)
            deduped[key] = record
        return list(deduped.values())

    def has_build(self, spec: ScenarioSpec) -> bool:
        """Whether :meth:`build` would serve ``spec`` without building it.

        True when memory holds the build, in either tier, or the disk tier
        has an entry for it.  Whether memory still holds a stored build
        depends on who references it; the store's answer does not.
        """
        key = spec.build_key()
        with self._lock:
            if key in self._builds or key in self._stored:
                return True
        return self.store is not None and self.store.has(key)

    def netlist(self, benchmark: str, seed: int = 0,
                scale: Optional[float] = None) -> Netlist:
        """The benchmark netlist (netlists are never mutated).

        Served from the netlist tier while a resident build's layout or a
        pin of a running call holds it; generated otherwise (see the class
        docstring).
        """
        key = (benchmark, seed, scale)
        with self._lock:
            cached = self._netlists.get(key)
        if cached is not None:
            return self._pin(cached)
        netlist = get_benchmark(benchmark, seed=seed, scale=scale)
        with self._lock:
            return self._pin(self._netlists.setdefault(key, netlist))

    @_pinning
    def build(self, spec: ScenarioSpec):
        """The :class:`~repro.api.schemes.SchemeBuild` for ``spec``.

        Lookups go memory → disk tier → build (see :meth:`_resolve`).  What
        memory keeps afterwards follows the residency rule of the class
        docstring: a build the store can serve again stays only while the
        caller (or a running call) holds it.
        Cache misses run under the workspace's retry policy (and fault
        plan); a build that exhausts its attempt budget raises (and stays)
        a quarantined :class:`~repro.exec.errors.BuildError` — clear it
        with :meth:`clear_quarantine` to allow another try.  With a
        *read-only* store a full miss raises instead of building.

        Misses are deduplicated across threads: while one thread builds a
        key, every other thread asking for the same key blocks on the
        in-flight build and then reads it from the cache — N concurrent
        requests for the same scenario run exactly one build
        (``stats()["builds_run"]`` counts the real ones,
        ``stats()["inflight_waits"]`` the deduplicated waiters).
        """
        ensure_builtins()
        key = spec.build_key()
        while True:
            with self._lock:
                cached = self._cached(key)
                if cached is not None:
                    self._stats["build_hits"] += 1
                    return cached
                error = self._quarantined.get(key)
                if error is None:
                    owned, foreign = self._claim_builds([key])
                    self._stats["build_misses"] += len(owned)
            if error is not None:
                raise error
            if owned:
                break
            # Another thread is building this key right now: wait for it to
            # settle, then re-check the cache (or its quarantine record).
            self._await_builds(foreign)
        try:
            _missing, failed = self._resolve({key: spec}, self._build_in_process)
        finally:
            self._release_builds(owned)
        if failed:
            raise failed[key]
        with self._lock:
            return self._cached(key)

    def protection(self, benchmark: str,
                   config: Optional[ProtectionConfig] = None,
                   *, scale: Optional[float] = None) -> ProtectionResult:
        """Run (or fetch) the paper's protection flow for ``benchmark``.

        The typed convenience entry to the ``proposed`` build; the cache key
        covers every :class:`ProtectionConfig` field.
        """
        config = config if config is not None else ProtectionConfig()
        build = self.build(self._proposed_spec(benchmark, config, scale))
        return build.protection

    @staticmethod
    def _proposed_spec(benchmark: str, config: ProtectionConfig,
                       scale: Optional[float]) -> ScenarioSpec:
        from repro.api.registry import params_to_dict
        from repro.api.schemes import ProposedParams

        return ScenarioSpec(
            benchmark=benchmark,
            scheme="proposed",
            scheme_params=params_to_dict(ProposedParams.from_protection_config(config)),
            scale=scale,
            seed=config.seed,
        )

    # -- the publish path ----------------------------------------------------

    #: ``_publish`` source → (counter it bumps, event it emits, saved to
    #: disk, held only while in use once the store can serve it).
    #: ``build``: built here (alone or in a seed batch) or by a pool worker;
    #: ``store``: a verified disk hit, which the store can serve again by
    #: definition; ``baseline``: the original layout a proposed build
    #: carries, resident because that (unstorable, resident) build holds
    #: its layout anyway.
    _SOURCES: Dict[str, Tuple[Optional[str], Optional[str], bool, bool]] = {
        "build": ("builds_run", "build_completed", True, True),
        "store": ("store_hits", "store_hit", False, True),
        "baseline": (None, None, True, False),
    }

    def _publish(self, key: str, spec: ScenarioSpec, built: Any, source: str,
                 **fields: Any) -> None:
        """Land one build in the cache — the only way into it.

        Every executor publishes through here: a caller claims its keys
        (:meth:`_claim_builds`), :meth:`_resolve` serves them memory →
        store → build, and each artefact lands as it is ready.  The first
        build published under a key wins while memory holds it.  Publishing
        pins the build for the running call, clears the key's quarantine,
        releases its in-flight waiters, bumps the ``source``'s counter,
        emits its progress event (with ``fields``), saves fresh builds to
        the disk tier and registers a proposed build's original layout under
        the matching ``original`` key, so compare-scope baselines of sibling
        scenarios reuse it instead of re-running place+route.

        A build lands resident; once the store can serve it again (a hit,
        or a save that left an entry) it moves to the tier that holds it
        only while it is in use, unless its source keeps it resident.
        """
        counter, event, save, in_use_only = self._SOURCES[source]
        with self._lock:
            landed = self._cached(key)
            if landed is None:
                landed = self._pin(self._builds.setdefault(key, built))
            self._quarantined.pop(key, None)
            if counter is not None:
                self._stats[counter] += 1
        self._release_builds([key])
        if event is not None:
            self._emit(event, key=key, label=build_label(spec), **fields)
        servable = self._store_save(key, spec.build_dict(), landed) if save else True
        if servable and in_use_only:
            with self._lock:
                if self._builds.get(key) is landed:
                    self._stored[key] = self._builds.pop(key)
        if landed.scheme == "proposed" and landed.protection is not None:
            self._publish(*self._baseline_of(spec, landed), "baseline")

    @staticmethod
    def _baseline_of(spec: ScenarioSpec, built) -> Tuple[str, ScenarioSpec, Any]:
        """``(key, spec, build)`` of the original layout a proposed build carries."""
        from repro.api.schemes import SchemeBuild

        # protect() sizes the floorplan with config.utilization but places at
        # build_layout's default utilization (0.70) — mirror the params an
        # independent 'original' build of that layout would use.
        floorplan_util = built.protection.config.utilization
        params: Dict[str, Any] = {"utilization": 0.70}
        if floorplan_util != 0.70:
            params["floorplan_utilization"] = floorplan_util
        original_spec = ScenarioSpec(
            benchmark=spec.benchmark, scheme="original", scheme_params=params,
            scale=spec.scale, seed=spec.seed, netlist_seed=spec.netlist_seed,
        )
        original = built.protection.original_layout
        return original_spec.build_key(), original_spec, SchemeBuild(
            scheme="original", layout=original, baseline=original
        )

    def _resolve(self, owned: Mapping[str, ScenarioSpec], execute
                 ) -> Tuple[Dict[str, ScenarioSpec], Dict[str, BuildError]]:
        """Serve claimed keys memory → store → build.

        The claim was the memory look (:meth:`_claim_builds` never claims a
        cached key).  Each key is probed in the disk tier once and hits are
        published; the misses go to ``execute(missing)`` — an executor that
        publishes each build as it lands and returns ``{key: BuildError}``
        for the builds that failed.  A read-only store fails every miss
        instead of building it.  Failures are quarantined.

        Returns ``(missing, failed)``: the keys the store did not serve and
        the ones among them that failed.
        """
        missing = self._resolve_from_store(owned)
        if not missing:
            return missing, {}
        store = self.store
        if store is not None:
            with self._lock:
                self._stats["store_misses"] += len(missing)
        if store is not None and store.readonly:
            # Verification mode: a read-only store forbids building.
            failed = {
                key: BuildError(
                    f"build of {build_label(spec)} is forbidden: the artefact "
                    f"store is read-only (REPRO_STORE_READONLY) and has no "
                    f"entry for {key[:12]}",
                    build_key=key, label=build_label(spec),
                )
                for key, spec in missing.items()
            }
        else:
            failed = execute(missing)
        with self._lock:
            self._quarantined.update(failed)
        return missing, failed

    def _resolve_from_store(self, owned: Mapping[str, ScenarioSpec]
                            ) -> Dict[str, ScenarioSpec]:
        """Publish the claimed keys the disk tier has; return the rest."""
        missing: Dict[str, ScenarioSpec] = {}
        for key, spec in owned.items():
            built = self._store_load(key, spec)
            if built is None:
                missing[key] = spec
            else:
                self._publish(key, spec, built, "store")
        return missing

    # -- seed batching -----------------------------------------------------

    @staticmethod
    def _batch_groups(missing: Mapping[str, ScenarioSpec]) -> Dict[str, _Group]:
        """Partition batchable builds into same-netlist-same-params groups.

        A build is batchable when its scheme is ``original`` and its spec
        pins ``netlist_seed`` — every member of such a group then places and
        routes the *same* netlist, differing only in the placement ``seed``,
        which is exactly what :func:`repro.layout.placer.place_batch`
        amortizes.  Groups of one stay on the plain single-build path (a
        batch of one gains nothing over the per-seed vectorized kernels).

        Returns each group under the canonical JSON of its shared build dict.
        """
        groups: Dict[str, _Group] = {}
        for key, spec in missing.items():
            if spec.scheme != "original" or spec.netlist_seed is None:
                continue
            shared = {
                k: v for k, v in spec.build_dict().items() if k != "seed"
            }
            group_key = json.dumps(shared, sort_keys=True, separators=(",", ":"))
            groups.setdefault(group_key, (shared, []))[1].append((key, spec))
        return {
            group_key: group for group_key, group in groups.items()
            if len(group[1]) >= 2
        }

    def _batch_inputs(self, shared: Mapping[str, Any]):
        """The netlist and scheme params every member of a batch group shares."""
        netlist = self.netlist(
            shared["benchmark"], seed=shared["netlist_seed"], scale=shared["scale"]
        )
        entry = DEFENSES.get(shared["scheme"])
        return netlist, entry.make_params(shared["scheme_params"])

    def _build_seed_batches(self, missing: Dict[str, ScenarioSpec]
                            ) -> Dict[str, ScenarioSpec]:
        """Build the seed batches among ``missing`` here; return the rest.

        Every batchable group (see :meth:`_batch_groups`) builds in this
        process through :func:`repro.api.schemes.build_original_batch` — one
        shared netlist skeleton per group, bit-exact per seed with the
        individual builds — and each member is published as it lands.  With
        a fault plan installed batching is skipped (chaos injects per *build
        attempt*, which an amortized batch would bypass) and the degradation
        is warned once, per the never-degrade-silently contract.  A group
        whose batch build fails stays in the returned rest, to build seed by
        seed.  Both executors call this first.
        """
        from repro.api.schemes import build_original_batch

        rest = dict(missing)
        groups = self._batch_groups(missing)
        if groups and self.chaos is not None:
            warn_once(
                _log, "workspace.prewarm_batches.chaos",
                "a fault plan is installed; sweep builds degrade to the "
                "per-seed path (chaos injects per build attempt, which "
                "seed batching would bypass)",
            )
            groups = {}
        for shared, members in groups.values():
            netlist, params = self._batch_inputs(shared)
            seeds = [spec.seed for _key, spec in members]
            try:
                builds = build_original_batch(netlist, params, seeds)
            except Exception as error:  # noqa: BLE001 - per-seed path reports it
                _log.warning(
                    "seed-batched build of %s (seeds %s) failed (%s: %s); "
                    "seeds fall back to individual builds",
                    build_label(members[0][1]), seeds, type(error).__name__, error,
                )
                continue
            for (key, spec), built in zip(members, builds):
                self._publish(key, spec, built, "build")
                del rest[key]
        return rest

    def _build_in_process(self, missing: Dict[str, ScenarioSpec]
                          ) -> Dict[str, BuildError]:
        """The serial executor: seed batches first, then one build per key.

        Every key the seed batches leave (:meth:`_build_seed_batches`)
        builds alone under the retry policy and fault plan.  Returns the
        keys that exhausted their attempts.
        """
        rest = self._build_seed_batches(missing)
        failed: Dict[str, BuildError] = {}
        for key, spec in rest.items():
            entry = DEFENSES.get(spec.scheme)
            params = entry.make_params(spec.scheme_params)
            label = build_label(spec)

            def attempt_build(attempt: int):
                if self.chaos is not None:
                    self.chaos.inject(label, attempt)
                netlist = self.netlist(
                    spec.benchmark, seed=spec.effective_netlist_seed,
                    scale=spec.scale,
                )
                return entry.fn(netlist, params, spec.seed)

            self._emit("build_dispatched", key=key, label=label)
            try:
                built = execute_with_retries(
                    attempt_build, key=key, label=label, policy=self.retry
                )
            except BuildError as error:
                failed[key] = error
                self._emit("build_quarantined", key=key, label=label,
                           attempts=error.attempts)
                continue
            self._publish(key, spec, built, "build")
        return failed

    def _prewarm_batches(self, specs: Sequence[ScenarioSpec]) -> None:
        """In-process seed batching for serial sweeps (``jobs <= 1``).

        Resolves the keys of ``specs`` that form seed batches (see
        :meth:`_batch_groups`) through the in-process executor, so the
        per-seed loop that follows finds them warm.  Every other key is
        resolved by :meth:`build` when its scenario runs; a batched key
        that failed is quarantined, and :meth:`build` raises its error.
        """
        ensure_builtins()
        distinct: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            distinct.setdefault(spec.build_key(), spec)
        batchable = {
            key: spec for _shared, members in self._batch_groups(distinct).values()
            for key, spec in members
        }
        # Keys another thread is already building are left to it (the
        # per-seed loop blocks on them inside build()).
        owned, _foreign = self._claim_builds(batchable)
        try:
            self._resolve(
                {key: batchable[key] for key in owned}, self._build_in_process
            )
        finally:
            self._release_builds(owned)

    # -- parallel prewarm --------------------------------------------------

    @_pinning
    def prewarm(self, specs: Iterable[ScenarioSpec],
                jobs: Optional[int] = None, *,
                policy: Optional[RetryPolicy] = None,
                on_error: Optional[str] = None) -> List[ScenarioSpec]:
        """Build the missing artefacts of ``specs`` in parallel processes.

        Seed batches build in this process first (see
        :meth:`_build_seed_batches`); every other build runs through the
        crash-tolerant :class:`~repro.exec.supervisor.PoolSupervisor`:
        every build gets ``policy.max_attempts`` tries (with deterministic backoff), a
        crashed pool is respawned with its in-flight builds re-queued, hung
        builds are killed past ``policy.timeout_s``, and each success is
        published the moment it lands, so one poison build can never take
        completed sibling work down with it.  Environments without
        multiprocessing degrade to serial execution with a logged warning.

        Builds that exhaust their attempt budget are quarantined (see
        :meth:`quarantined`) and recorded as failures; with
        ``on_error="raise"`` (the default) the first quarantined build's
        :class:`~repro.exec.errors.BuildError` is re-raised once the batch
        settles, with ``"skip"`` the method returns normally and callers
        read the damage from :meth:`drain_failures`.  Quarantined keys are
        retried.

        Concurrent prewarms deduplicate in flight: keys another thread is
        already building are *not* rebuilt — this call waits for them to
        settle instead (and, under ``on_error="raise"``, re-raises their
        quarantine error), so two clients sweeping the same spec trigger
        exactly one build per seed.

        Returns the specs whose builds ran *successfully in this call*
        (first spec per distinct build key, in input order; keys another
        thread built concurrently are not included).
        """
        ensure_builtins()
        distinct: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            # Seed-sweep specs prewarm one build per seed.
            for expanded in spec.expand_seeds():
                distinct.setdefault(expanded.build_key(), expanded)
        on_error = _coerce_on_error(on_error if on_error is not None else self.on_error)
        owned, foreign = self._claim_builds(distinct)
        try:
            missing, failed = self._resolve(
                {key: distinct[key] for key in owned},
                lambda missing: self._build_pooled(missing, jobs, policy),
            )
        finally:
            self._release_builds(owned)
        failed_keys = [key for key in missing if key in failed]  # input order
        for key in failed_keys:
            self._record_failure(FailureRecord.from_spec(missing[key], failed[key]))
        if failed_keys and on_error == "raise":
            raise failed[failed_keys[0]]
        # Fan in on builds owned by concurrent prewarms: wait for them to
        # settle, then surface any of their terminal failures.
        self._await_builds(foreign)
        if foreign and on_error == "raise":
            with self._lock:
                errors = [
                    self._quarantined[key] for key in foreign
                    if key in self._quarantined
                    and key not in self._builds and key not in self._stored
                ]
            if errors:
                raise errors[0]
        return [spec for key, spec in missing.items() if key not in failed]

    def _build_pooled(self, missing: Dict[str, ScenarioSpec],
                      jobs: Optional[int],
                      policy: Optional[RetryPolicy]) -> Dict[str, BuildError]:
        """The pool executor (the body of :meth:`prewarm`).

        Seed batches build here first (:meth:`_build_seed_batches`); every
        other key is one single-build task on the pool.  Returns the keys
        that exhausted their attempts.
        """
        rest = self._build_seed_batches(missing)
        jobs = jobs if jobs is not None else (self.default_jobs or default_jobs())
        jobs = max(1, min(jobs, len(rest)))
        policy = policy if policy is not None else self.retry
        chaos_payload = self.chaos.to_dict() if self.chaos is not None else None
        store_payload = (
            self.store.worker_payload() if self.store is not None else None
        )
        tasks = [
            TaskSpec(key=key, label=build_label(spec), payload={
                "build": spec.build_dict(), "chaos": chaos_payload,
                "label": build_label(spec), "store": store_payload,
            })
            for key, spec in rest.items()
        ]

        #: Keys the dispatch-time store probe published.
        published: set = set()

        def publish(key: str, built: Any, attempts: int) -> None:
            if key not in published:
                self._publish(key, rest[key], built, "build", attempts=attempts)

        def probe_store(task: TaskSpec):
            """Late disk check at dispatch time.

            Catches entries that appeared after the batch was assembled —
            a concurrent process sweeping against the same shared store.
            """
            if self._resolve_from_store({task.key: rest[task.key]}):
                return None
            published.add(task.key)
            with self._lock:
                return self._cached(task.key)

        def task_event(kind: str, task: TaskSpec, attempts: int) -> None:
            """Forward supervisor lifecycle edges to progress listeners.

            A completion is announced by :meth:`_publish`, a dispatch-time
            store hit by the store tier.
            """
            names = {
                "dispatched": "build_dispatched",
                "retry": "build_retry",
                "quarantined": "build_quarantined",
            }
            if kind in names:
                self._emit(names[kind], key=task.key, label=task.label,
                           attempts=attempts)

        supervisor = PoolSupervisor(
            _supervised_build, jobs=jobs, policy=policy, on_result=publish,
            short_circuit=probe_store, on_task_event=task_event,
        )
        self.last_report = supervisor.run(tasks)
        return self.last_report.failed()

    # -- scenario execution ------------------------------------------------

    @_pinning
    def run_scenario(self, spec: ScenarioSpec) -> ScenarioResult:
        """Execute one scenario (memoized by its content hash)."""
        ensure_builtins()
        if spec.seeds is not None:
            raise ValueError(
                "spec declares a seed sweep; use run_sweep()/run_sweeps() "
                "(or expand_seeds() for the per-seed specs)"
            )
        spec_hash = spec.content_hash()
        with self._lock:
            if spec_hash in self._scenarios:
                self._stats["scenario_hits"] += 1
                return self._scenarios[spec_hash]
            self._stats["scenario_misses"] += 1
        start = time.time()
        result = self._execute(spec, spec_hash)
        result.elapsed_s = time.time() - start
        self._emit(
            "scenario_completed", spec_hash=spec_hash, seed=spec.seed,
            benchmark=spec.benchmark, scheme=spec.scheme,
        )
        with self._lock:
            return self._scenarios.setdefault(spec_hash, result)

    @_pinning
    def run_scenarios(self, specs: Sequence[ScenarioSpec],
                      jobs: Optional[int] = None, *,
                      on_error: Optional[str] = None) -> List[ScenarioResult]:
        """Batch API: prewarm the distinct builds, then run every scenario.

        ``jobs=None`` falls back to the workspace's constructor default
        (serial when that is unset too).  With ``on_error="skip"`` a failing
        scenario is dropped from the returned list and recorded (read the
        records via :meth:`drain_failures`); the default ``"raise"``
        re-raises the first failure.
        """
        specs = list(specs)
        on_error = _coerce_on_error(on_error if on_error is not None else self.on_error)
        jobs = jobs if jobs is not None else (self.default_jobs or 1)
        if jobs > 1:
            self.prewarm(specs, jobs=jobs, on_error=on_error)
        results: List[ScenarioResult] = []
        for spec in specs:
            try:
                results.append(self.run_scenario(spec))
            except Exception as error:
                if on_error != "skip":
                    raise
                self._record_failure(FailureRecord.from_spec(spec, error))
        return results

    # -- seed sweeps ---------------------------------------------------------

    def run_sweep(self, spec: ScenarioSpec, jobs: Optional[int] = None, *,
                  on_error: Optional[str] = None) -> SweepResult:
        """Run one scenario across its seed sweep and aggregate the results."""
        return self.run_sweeps([spec], jobs=jobs, on_error=on_error)[0]

    @_pinning
    def run_sweeps(self, specs: Sequence[ScenarioSpec],
                   jobs: Optional[int] = None, *,
                   on_error: Optional[str] = None) -> List[SweepResult]:
        """Monte-Carlo batch API: one :class:`SweepResult` per input spec.

        Every spec is expanded into its per-seed scenarios (a spec without
        ``seeds`` counts as a one-seed sweep over its ``seed``), the distinct
        builds of *all* sweeps are prewarmed through the shared process pool
        in one batch, and the per-seed results are aggregated into
        mean/std/CI records per metric leaf.

        With ``on_error="skip"`` failed seeds are dropped: the sweep result
        aggregates the surviving seeds with an honest ``n`` and lists the
        dropped ones in ``SweepResult.failures``.  A sweep losing *every*
        seed raises :class:`~repro.exec.errors.ScenarioError` (there is
        nothing to aggregate).  The default ``"raise"`` re-raises the first
        per-seed failure.
        """
        specs = list(specs)
        on_error = _coerce_on_error(on_error if on_error is not None else self.on_error)
        expanded = [spec.expand_seeds() for spec in specs]
        jobs = jobs if jobs is not None else (self.default_jobs or 1)
        if jobs > 1:
            self.prewarm(
                [single for group in expanded for single in group], jobs=jobs,
                on_error=on_error,
            )
        else:
            # Serial sweeps still amortize batchable builds in-process; the
            # per-seed loop below finds them warm in the cache.
            self._prewarm_batches(
                [single for group in expanded for single in group]
            )
        sweeps: List[SweepResult] = []
        for spec, group in zip(specs, expanded):
            start = time.time()
            results: List[ScenarioResult] = []
            seeds: List[int] = []
            failures: List[FailureRecord] = []
            for single in group:
                try:
                    results.append(self.run_scenario(single))
                    seeds.append(single.seed)
                except Exception as error:
                    if on_error != "skip":
                        raise
                    record = FailureRecord.from_spec(single, error)
                    failures.append(record)
                    self._record_failure(record)
            sweeps.append(
                _build_sweep_result(
                    spec, tuple(seeds), results, time.time() - start,
                    failures=failures,
                )
            )
        return sweeps

    def _baseline_layout(self, spec: ScenarioSpec, build) -> Any:
        """The original-layout baseline compare-scope metrics run against."""
        if build.baseline is not None:
            return build.baseline
        scheme_params = dict(spec.scheme_params)
        baseline_params: Dict[str, Any] = {}
        if "utilization" in scheme_params:
            baseline_params["utilization"] = scheme_params["utilization"]
        if scheme_params.get("floorplan_utilization") is not None:
            baseline_params["floorplan_utilization"] = scheme_params["floorplan_utilization"]
        baseline_spec = ScenarioSpec(
            benchmark=spec.benchmark, scheme="original",
            scheme_params=baseline_params, scale=spec.scale, seed=spec.seed,
            netlist_seed=spec.netlist_seed,
        )
        return self.build(baseline_spec).layout

    def _execute(self, spec: ScenarioSpec, spec_hash: str) -> ScenarioResult:
        from repro.api.metrics import MetricContext

        build = self.build(spec)
        protected_nets = build.protected_nets
        metric_entries = [(m, METRICS.get(m.name)) for m in spec.metrics]
        for metric_spec, entry in metric_entries:
            scope = entry.extra.get("scope")
            if scope not in ("attack", "layout", "compare"):
                raise ValueError(f"metric {metric_spec.name!r} has invalid scope {scope!r}")
        attack_entries = [(a, ATTACKS.get(a.name)) for a in spec.attacks]

        result = ScenarioResult(
            spec=spec, spec_hash=spec_hash,
            benchmark=spec.benchmark, scheme=spec.scheme,
        )

        def context(layout_name: str, split_layer: Optional[int] = None) -> MetricContext:
            return MetricContext(
                benchmark=spec.benchmark,
                scheme=spec.scheme,
                layout_name=layout_name,
                num_patterns=spec.num_patterns,
                seed=spec.seed,
                protected_nets=protected_nets,
                restrict_to_protected=(
                    build.restrict_to_protected and layout_name == "protected"
                ),
                split_layer=split_layer,
            )

        baseline = None
        needs_baseline = any(
            entry.extra.get("scope") == "compare" for _, entry in metric_entries
        )
        if needs_baseline:
            baseline = self._baseline_layout(spec, build)

        for layout_name in spec.layouts:
            layout = build.variant(layout_name)
            ctx = context(layout_name)
            for metric_spec, entry in metric_entries:
                scope = entry.extra.get("scope")
                if scope == "attack":
                    continue
                params = entry.make_params(metric_spec.params)
                if scope == "layout":
                    value = entry.fn(layout, params, ctx)
                elif layout is baseline:
                    # Comparing the baseline against itself yields guaranteed
                    # zeros — skip the wasted measurement pass.
                    continue
                else:  # compare
                    value = entry.fn(layout, baseline, params, ctx)
                result.layout_metrics.setdefault(metric_spec.name, {})[layout_name] = value

            for split_layer in spec.split_layers:
                if not attack_entries:
                    continue
                view = extract_feol(layout, split_layer)
                attack_ctx = context(layout_name, split_layer)
                for attack_spec, attack_entry in attack_entries:
                    attack_params = attack_entry.make_params(attack_spec.params)
                    outcome = attack_entry.fn(view, attack_params)
                    record = AttackRecord(
                        attack=attack_spec.name, layout=layout_name,
                        split_layer=split_layer,
                    )
                    for metric_spec, entry in metric_entries:
                        if entry.extra.get("scope") != "attack":
                            continue
                        params = entry.make_params(metric_spec.params)
                        record.metrics[metric_spec.name] = entry.fn(
                            view, outcome, params, attack_ctx
                        )
                    result.attack_records.append(record)
        return result


_DEFAULT_WORKSPACE: Optional[Workspace] = None
_DEFAULT_LOCK = threading.Lock()


def default_workspace() -> Workspace:
    """The process-wide shared workspace (created lazily)."""
    global _DEFAULT_WORKSPACE
    with _DEFAULT_LOCK:
        if _DEFAULT_WORKSPACE is None:
            _DEFAULT_WORKSPACE = Workspace()
        return _DEFAULT_WORKSPACE


def reset_default_workspace() -> None:
    """Replace the shared workspace with a fresh one (tests, services)."""
    global _DEFAULT_WORKSPACE
    with _DEFAULT_LOCK:
        _DEFAULT_WORKSPACE = None
