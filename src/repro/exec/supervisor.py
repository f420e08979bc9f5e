"""Crash-tolerant process-pool execution: respawn, re-queue, quarantine.

:class:`PoolSupervisor` drives a batch of keyed tasks through a
``ProcessPoolExecutor`` under a :class:`~repro.exec.retry.RetryPolicy`:

* a task that *raises* is retried (with deterministic backoff) until the
  policy's attempt budget is exhausted, then **quarantined** as a
  :class:`~repro.exec.errors.BuildError` — the batch keeps going;
* a task that *kills its worker* breaks the whole pool
  (``BrokenProcessPool``); the supervisor respawns a fresh pool, re-queues
  every in-flight task (each consumes one attempt — the culprit cannot be
  told apart from its victims) and carries on.  Pools that break repeatedly
  without progress degrade to serial in-process execution — with a warning
  on the ``repro`` logger, never silently;
* a task that *hangs* past ``policy.timeout_s`` gets its pool killed and
  re-queued likewise, except here the culprit is known: only the overdue
  task consumes an attempt, the innocent in-flight victims are re-queued
  with their attempt refunded;
* environments that cannot create a process pool at all run the whole batch
  serially (same retry/quarantine semantics, logged warning).

Completed results are delivered through the ``on_result`` callback *as they
arrive*, so a later failure can never take already-finished work down with
it — the caller publishes each artefact immediately.
"""

from __future__ import annotations

import collections
import concurrent.futures
import logging
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.errors import BuildError, format_cause
from repro.exec.retry import RetryPolicy

log = logging.getLogger("repro.exec")


@dataclass(frozen=True)
class TaskSpec:
    """One keyed unit of work: ``fn(key, payload, attempt)`` in a worker."""

    key: str
    payload: Any
    label: str = ""
    #: Attempts already charged to this work before the batch started.  The
    #: first execution runs as attempt ``start_attempt + 1`` and the retry
    #: budget continues from there — used when work is re-dispatched under a
    #: new key (e.g. a seed pulled out of a failed batch task retries alone
    #: without resetting its attempt count).
    start_attempt: int = 0

    def display(self) -> str:
        return self.label or self.key[:12]


@dataclass
class TaskOutcome:
    """Terminal state of one task: a value or a quarantining error."""

    key: str
    label: str = ""
    value: Any = None
    error: Optional[BuildError] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SupervisorReport:
    """What happened to a batch: outcomes plus recovery bookkeeping."""

    outcomes: Dict[str, TaskOutcome] = field(default_factory=dict)
    respawns: int = 0
    degraded_serial: bool = False

    def succeeded(self) -> Dict[str, Any]:
        return {k: o.value for k, o in self.outcomes.items() if o.ok}

    def failed(self) -> Dict[str, BuildError]:
        return {k: o.error for k, o in self.outcomes.items() if not o.ok}


class _TaskState:
    __slots__ = ("task", "attempts", "not_before")

    def __init__(self, task: TaskSpec):
        self.task = task
        self.attempts = task.start_attempt
        self.not_before = 0.0


class PoolSupervisor:
    """Runs keyed tasks on a self-healing process pool.

    Args:
        fn: Module-level picklable callable ``fn(key, payload, attempt)``;
            its return value is the task's result.
        jobs: Worker-process count; ``1`` executes serially in-process
            (unless ``isolate`` asks for a real worker).
        policy: Retry/timeout/backoff policy (default: single attempt).
        on_result: Called as ``on_result(key, value, attempts)`` in the
            supervisor process the moment a task succeeds
            (publish-as-you-go).
        max_respawns: Consecutive no-progress pool breaks tolerated before
            degrading to serial execution.
        poll_s: Poll interval of the wait loop (also the granularity of
            timeout enforcement).
        isolate: With ``jobs=1``, run tasks one at a time in a *worker
            process* instead of in-process — for batches suspected to
            contain a worker-killer, where a crash must charge only the
            task that crashed and must not take the supervisor down.
        short_circuit: Optional probe called as ``short_circuit(task)`` in
            the supervisor process immediately before each task would
            consume an attempt.  A non-``None`` return completes the task
            with that value — no attempt charged, ``on_result`` delivered
            as usual.  Used for late cache checks: work that became
            available after the batch was assembled (e.g. a concurrent
            process published it to a shared artefact store) is skipped
            instead of rebuilt.  A probe that raises is logged and
            ignored — the task then simply runs.
        on_task_event: Optional completion-signaling hook, called as
            ``on_task_event(kind, task, attempts)`` in the supervisor
            process at every task lifecycle edge: ``"dispatched"`` (an
            attempt is about to run), ``"completed"`` (result delivered),
            ``"short_circuit"`` (served by the probe, no attempt charged),
            ``"retry"`` (attempt failed, another is queued) and
            ``"quarantined"`` (budget exhausted).  Long-running callers
            (the scenario service) use this to stream build progress while
            a batch is in flight; a hook that raises is logged and ignored
            — signaling must never sink the work it reports on.
    """

    def __init__(self, fn: Callable[..., Any], *, jobs: int,
                 policy: Optional[RetryPolicy] = None,
                 on_result: Optional[Callable[[str, Any, int], None]] = None,
                 max_respawns: int = 3, poll_s: float = 0.05,
                 isolate: bool = False,
                 short_circuit: Optional[Callable[[TaskSpec], Any]] = None,
                 on_task_event: Optional[
                     Callable[[str, TaskSpec, int], None]] = None):
        self.fn = fn
        self.jobs = max(1, jobs)
        self.isolate = isolate
        self.policy = policy if policy is not None else RetryPolicy()
        self.on_result = on_result
        self.max_respawns = max_respawns
        self.poll_s = poll_s
        self.short_circuit = short_circuit
        self.on_task_event = on_task_event

    # -- public ------------------------------------------------------------

    def run(self, tasks: Sequence[TaskSpec]) -> SupervisorReport:
        report = SupervisorReport()
        states = {task.key: _TaskState(task) for task in tasks}
        if len(states) != len(tasks):
            raise ValueError("duplicate task keys in batch")
        queue = collections.deque(task.key for task in tasks)
        if not queue:
            return report
        if self.jobs == 1 and not self.isolate:
            self._run_serial(queue, states, report)
            return report
        executor = self._make_pool()
        if executor is None:
            log.warning(
                "process pool unavailable; executing %d task(s) serially "
                "in-process", len(queue),
            )
            report.degraded_serial = True
            self._run_serial(queue, states, report)
            return report
        try:
            self._run_pooled(executor, queue, states, report)
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        return report

    # -- pool plumbing -----------------------------------------------------

    _executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _make_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        try:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, PermissionError) as error:
            log.warning("cannot create process pool (%s: %s)",
                        type(error).__name__, error)
            self._executor = None
            return None
        self._executor = executor
        return executor

    @staticmethod
    def _kill_pool(executor: concurrent.futures.ProcessPoolExecutor) -> None:
        """Forcefully stop a pool, including workers stuck in a build."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)

    # -- outcome bookkeeping -----------------------------------------------

    def _signal(self, kind: str, state: _TaskState) -> None:
        """Deliver one lifecycle edge to the ``on_task_event`` hook."""
        if self.on_task_event is None:
            return
        try:
            self.on_task_event(kind, state.task, state.attempts)
        except Exception:  # noqa: BLE001 - signaling must never sink the work
            log.warning(
                "on_task_event hook failed for %s (%s)",
                state.task.display(), kind, exc_info=True,
            )

    def _probe_short_circuit(self, state: _TaskState,
                             report: SupervisorReport) -> bool:
        """True when the task was completed by the short-circuit probe."""
        if self.short_circuit is None:
            return False
        try:
            value = self.short_circuit(state.task)
        except Exception:  # noqa: BLE001 - probe failure must not sink the task
            log.warning(
                "short-circuit probe for %s failed; running the task",
                state.task.display(), exc_info=True,
            )
            return False
        if value is None:
            return False
        self._succeed(state, value, report, kind="short_circuit")
        return True

    def _succeed(self, state: _TaskState, value: Any,
                 report: SupervisorReport, kind: str = "completed") -> None:
        key = state.task.key
        report.outcomes[key] = TaskOutcome(
            key=key, label=state.task.label, value=value, attempts=state.attempts
        )
        self._signal(kind, state)
        if self.on_result is not None:
            self.on_result(key, value, state.attempts)

    def _fail_or_requeue(self, state: _TaskState, error: BuildError,
                         queue: collections.deque,
                         report: SupervisorReport) -> None:
        """One attempt failed: back off and re-queue, or quarantine."""
        key = state.task.key
        if self.policy.retries_left(state.attempts):
            state.not_before = (
                time.monotonic() + self.policy.delay_s(key, state.attempts)
            )
            queue.append(key)
            self._signal("retry", state)
            log.info("retrying %s (attempt %d/%d): %s", state.task.display(),
                     state.attempts, self.policy.max_attempts, error)
            return
        report.outcomes[key] = TaskOutcome(
            key=key, label=state.task.label, error=error, attempts=state.attempts
        )
        self._signal("quarantined", state)
        log.warning("quarantined %s after %d attempt(s): %s",
                    state.task.display(), state.attempts, error)

    def _build_error(self, state: _TaskState, error: BaseException,
                     kind: str = "") -> BuildError:
        task = state.task
        message = (
            f"build {task.display()} {kind or 'failed'} on attempt "
            f"{state.attempts}: {type(error).__name__}: {error}"
        )
        return BuildError(
            message, build_key=task.key, label=task.label,
            attempts=state.attempts, cause_type=type(error).__name__,
            traceback_text=format_cause(error),
        )

    # -- pooled execution --------------------------------------------------

    def _run_pooled(self, executor, queue, states, report) -> None:
        policy = self.policy
        inflight: Dict[concurrent.futures.Future, str] = {}
        started: Dict[concurrent.futures.Future, float] = {}
        consecutive_breaks = 0

        def submit_ready() -> bool:
            """Top the pool up with ready tasks; False if the pool is broken."""
            now = time.monotonic()
            rotations = 0
            while queue and len(inflight) < self.jobs and rotations < len(queue) + 1:
                key = queue.popleft()
                state = states[key]
                if state.not_before > now:
                    queue.append(key)
                    rotations += 1
                    continue
                if self._probe_short_circuit(state, report):
                    continue
                state.attempts += 1
                self._signal("dispatched", state)
                try:
                    future = executor.submit(
                        self.fn, key, state.task.payload, state.attempts
                    )
                except BrokenProcessPool:
                    # The pool died between polls; give the attempt back and
                    # let the recovery path respawn before re-submitting.
                    state.attempts -= 1
                    queue.appendleft(key)
                    return False
                inflight[future] = key
                started[future] = time.monotonic()
            return True

        def abandon_pool(victim_keys: List[str], *, consume_attempt: bool) -> None:
            """Re-queue (or quarantine) the in-flight tasks of a dead pool."""
            for key in victim_keys:
                state = states[key]
                if not consume_attempt:
                    # Innocent victims of another task's timeout keep their
                    # attempt budget intact.
                    state.attempts -= 1
                    queue.append(key)
                    continue
                error = self._build_error(
                    state,
                    BrokenProcessPool("worker process died mid-build"),
                    kind="crashed",
                )
                self._fail_or_requeue(state, error, queue, report)
            inflight.clear()
            started.clear()

        while queue or inflight:
            pool_broken = not submit_ready()
            if not pool_broken and not inflight:
                wake = min(states[key].not_before for key in queue)
                time.sleep(max(0.0, min(wake - time.monotonic(), self.poll_s)))
                continue

            # Even over a broken pool, drain whatever already finished —
            # completed work must never ride down with the crash.
            done, _ = concurrent.futures.wait(
                inflight, timeout=0.0 if pool_broken else self.poll_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                key = inflight.pop(future)
                started.pop(future, None)
                state = states[key]
                try:
                    value = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    error = self._build_error(
                        state,
                        BrokenProcessPool("worker process died mid-build"),
                        kind="crashed",
                    )
                    self._fail_or_requeue(state, error, queue, report)
                except Exception as exc:  # noqa: BLE001 - worker exception
                    consecutive_breaks = 0
                    self._fail_or_requeue(
                        state, self._build_error(state, exc), queue, report
                    )
                else:
                    consecutive_breaks = 0
                    self._succeed(state, value, report)

            if pool_broken:
                # Every other in-flight future of this pool is broken too.
                report.respawns += 1
                consecutive_breaks += 1
                abandon_pool(list(inflight.values()), consume_attempt=True)
                self._kill_pool(executor)
                executor = self._make_pool()
                if executor is None or consecutive_breaks > self.max_respawns:
                    if executor is not None:
                        executor.shutdown(wait=False, cancel_futures=True)
                        self._executor = None
                    log.warning(
                        "process pool broke %d time(s) without progress; "
                        "executing the remaining %d task(s) serially",
                        consecutive_breaks, len(queue),
                    )
                    report.degraded_serial = True
                    self._run_serial(queue, states, report)
                    return
                log.warning(
                    "worker pool died (respawn %d); re-queued %d in-flight "
                    "build(s)", report.respawns, len(queue),
                )
                continue

            if policy.timeout_s is not None and inflight:
                now = time.monotonic()
                overdue = [
                    future for future in inflight
                    if now - started[future] >= policy.timeout_s
                ]
                if overdue:
                    # A hung worker can only be stopped by killing its pool;
                    # charge the overdue task(s), refund the bystanders.
                    overdue_keys = []
                    for future in overdue:
                        key = inflight.pop(future)
                        started.pop(future, None)
                        overdue_keys.append(key)
                    victims = list(inflight.values())
                    report.respawns += 1
                    for key in overdue_keys:
                        state = states[key]
                        error = self._build_error(
                            state,
                            TimeoutError(
                                f"exceeded the per-build timeout of "
                                f"{policy.timeout_s:g}s"
                            ),
                            kind="timed out",
                        )
                        self._fail_or_requeue(state, error, queue, report)
                    abandon_pool(victims, consume_attempt=False)
                    self._kill_pool(executor)
                    log.warning(
                        "killed the worker pool: %d build(s) exceeded the "
                        "%gs timeout (respawn %d)",
                        len(overdue_keys), policy.timeout_s, report.respawns,
                    )
                    executor = self._make_pool()
                    if executor is None:
                        report.degraded_serial = True
                        self._run_serial(queue, states, report)
                        return

    # -- serial execution --------------------------------------------------

    def _run_serial(self, queue, states, report) -> None:
        """In-process fallback: same retry/quarantine semantics, no timeout.

        Continues each task from the attempts it already consumed in the
        pooled phase, so a task never gets more than ``max_attempts`` total.
        """
        while queue:
            key = queue.popleft()
            state = states[key]
            if self._probe_short_circuit(state, report):
                continue
            while key not in report.outcomes:
                delay = state.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                state.attempts += 1
                self._signal("dispatched", state)
                try:
                    value = self.fn(key, state.task.payload, state.attempts)
                except Exception as exc:  # noqa: BLE001
                    error = self._build_error(state, exc)
                    if self.policy.retries_left(state.attempts):
                        state.not_before = (
                            time.monotonic()
                            + self.policy.delay_s(key, state.attempts)
                        )
                        log.info(
                            "retrying %s (attempt %d/%d): %s",
                            state.task.display(), state.attempts,
                            self.policy.max_attempts, error,
                        )
                        continue
                    report.outcomes[key] = TaskOutcome(
                        key=key, label=state.task.label, error=error,
                        attempts=state.attempts,
                    )
                    log.warning(
                        "quarantined %s after %d attempt(s): %s",
                        state.task.display(), state.attempts, error,
                    )
                else:
                    self._succeed(state, value, report)
