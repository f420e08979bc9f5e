"""Chaos suite: real process-pool crash/hang recovery under fault injection.

Every test spins up genuine worker processes and kills (or hangs) some of
them via a deterministic :class:`~repro.exec.chaos.FaultPlan`, then asserts
the supervisor's recovery contract: completed builds are never lost, pools
respawn, poison builds quarantine instead of sinking the batch, and the
recovered results are bit-identical to a fault-free run.

Marked ``slow``: pool spawn/kill cycles dominate the runtime.  Tier-1 runs
deselect these (``addopts = -m 'not slow'``); CI's chaos job runs them.
"""

from __future__ import annotations

import time

import pytest

from repro.api.spec import ScenarioSpec
from repro.api.workspace import Workspace
from repro.exec import FaultPlan, RetryPolicy

pytestmark = pytest.mark.slow


def sweep_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="c17", scheme="original", metrics=("distances",),
        seeds=(0, 1, 2),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def strip_elapsed(payload):
    if isinstance(payload, dict):
        return {
            key: strip_elapsed(value)
            for key, value in payload.items() if key != "elapsed_s"
        }
    if isinstance(payload, list):
        return [strip_elapsed(value) for value in payload]
    return payload


class TestWorkerCrashRecovery:
    def test_crash_respawns_pool_and_recovers_bit_identically(self):
        # seed1's first attempt hard-kills its worker (os._exit), breaking
        # the whole pool; the supervisor must respawn, re-queue and finish
        # every build with results bit-identical to a fault-free run.
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            chaos=FaultPlan(crash_first=1, match="seed1"),
        )
        built = workspace.prewarm([sweep_spec()], jobs=2)
        assert sorted(spec.seed for spec in built) == [0, 1, 2]
        report = workspace.last_report
        assert report.respawns >= 1
        assert report.failed() == {}
        assert not report.degraded_serial
        # The faulted sweep (served from the recovered cache) matches a
        # clean workspace bit for bit.
        faulted = workspace.run_sweep(sweep_spec())
        reference = Workspace().run_sweep(sweep_spec())
        assert strip_elapsed(faulted.to_dict()) == strip_elapsed(reference.to_dict())

    def test_completed_builds_survive_a_poison_crash(self):
        # seed1 crashes its worker on *every* attempt: it must quarantine
        # after the budget is spent while its siblings publish normally.
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            chaos=FaultPlan(crash_first=99, match="seed1"),
        )
        built = workspace.prewarm([sweep_spec()], jobs=2, on_error="skip")
        assert sorted(spec.seed for spec in built) == [0, 2]
        for spec in built:
            assert workspace.has_build(spec)
        report = workspace.last_report
        assert report.respawns >= 2  # one pool death per poison attempt
        [(key, error)] = report.failed().items()
        assert error.attempts == 2
        assert error.cause_type == "BrokenProcessPool"
        assert key in workspace.quarantined()
        [failure] = workspace.drain_failures()
        assert failure.seed == 1 and failure.kind == "build"

    def test_poison_outcome_is_deterministic(self):
        def run_once():
            workspace = Workspace(
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                chaos=FaultPlan(crash_first=99, match="seed1"),
            )
            built = workspace.prewarm([sweep_spec()], jobs=2, on_error="skip")
            survivors = Workspace()
            reference = {
                spec.seed: strip_elapsed(survivors.run_scenario(spec).to_dict())
                for spec in built
            }
            faulted = {
                spec.seed: strip_elapsed(workspace.run_scenario(spec).to_dict())
                for spec in built
            }
            return sorted(spec.seed for spec in built), faulted, reference

        first_seeds, first_faulted, first_reference = run_once()
        second_seeds, second_faulted, _ = run_once()
        assert first_seeds == second_seeds == [0, 2]
        assert first_faulted == second_faulted
        assert first_faulted == first_reference


class TestBatchedSweepChaos:
    """Faults in a sweep that would otherwise build as one seed batch.

    Specs that pin ``netlist_seed`` form a seed batch, which builds in the
    calling process.  Under a fault plan batching is skipped (chaos injects
    per build attempt), so the pinned seeds go to the pool as singles and a
    crash targeting one seed kills a worker with its siblings in flight.
    These tests pin the recovery contract: surviving seeds publish, the
    poison seed retries/quarantines alone, and everything recovered is
    bit-identical to the fault-free seed batch.
    """

    def batched_spec(self, **overrides) -> ScenarioSpec:
        kwargs = dict(
            benchmark="c17", scheme="original", metrics=("distances",),
            seeds=(0, 1, 2, 3), netlist_seed=1,
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def test_worker_killed_mid_batch_recovers_bit_identically(self):
        # seed1's injection kills its worker with a sibling in flight; the
        # supervisor respawns the pool, seed1's retry runs clean and every
        # seed publishes — bit-identical to the fault-free seed batch.
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            chaos=FaultPlan(crash_first=1, match="seed1"),
        )
        built = workspace.prewarm([self.batched_spec()], jobs=2)
        assert sorted(spec.seed for spec in built) == [0, 1, 2, 3]
        report = workspace.last_report
        assert report.respawns >= 1
        assert report.failed() == {}
        assert not report.degraded_serial
        faulted = workspace.run_sweep(self.batched_spec())
        reference = Workspace().run_sweep(self.batched_spec())
        assert strip_elapsed(faulted.to_dict()) == strip_elapsed(reference.to_dict())

    def test_poison_seed_quarantines_alone_siblings_publish(self):
        # seed1 crashes on *every* attempt.  A break with siblings in
        # flight charges none of them; each then runs alone, so seeds 0, 2
        # and 3 publish while seed1 quarantines by itself.
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            chaos=FaultPlan(crash_first=99, match="seed1"),
        )
        built = workspace.prewarm([self.batched_spec()], jobs=2, on_error="skip")
        assert sorted(spec.seed for spec in built) == [0, 2, 3]
        for spec in built:
            assert workspace.has_build(spec)
        [(key, error)] = workspace.last_report.failed().items()
        assert error.cause_type == "BrokenProcessPool"
        assert key in workspace.quarantined()
        [failure] = workspace.drain_failures()
        assert failure.seed == 1 and failure.kind == "build"
        # Survivors served from the recovered cache match a clean workspace.
        clean = Workspace()
        for spec in built:
            assert strip_elapsed(workspace.run_scenario(spec).to_dict()) == \
                strip_elapsed(clean.run_scenario(spec).to_dict())


class TestHangRecovery:
    def test_hung_worker_is_killed_and_retried(self):
        # seed0's first attempt sleeps far past the per-build timeout; the
        # supervisor kills the pool, charges only the overdue build and the
        # retry (attempt 2 > hang_first) completes normally.
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=2, timeout_s=1.0, backoff_s=0.0),
            chaos=FaultPlan(hang_first=1, hang_s=60.0, match="seed0"),
        )
        start = time.monotonic()
        built = workspace.prewarm([sweep_spec()], jobs=2)
        elapsed = time.monotonic() - start
        assert sorted(spec.seed for spec in built) == [0, 1, 2]
        report = workspace.last_report
        assert report.respawns >= 1
        assert report.failed() == {}
        # Far below the 60s hang: the timeout actually interrupted it.
        assert elapsed < 30.0

    def test_hang_past_budget_quarantines_without_losing_siblings(self):
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=1, timeout_s=1.0),
            chaos=FaultPlan(hang_first=99, hang_s=60.0, match="seed2"),
        )
        start = time.monotonic()
        built = workspace.prewarm([sweep_spec()], jobs=2, on_error="skip")
        elapsed = time.monotonic() - start
        assert sorted(spec.seed for spec in built) == [0, 1]
        [error] = workspace.last_report.failed().values()
        assert error.cause_type == "TimeoutError"
        assert "timeout" in str(error)
        assert elapsed < 30.0
