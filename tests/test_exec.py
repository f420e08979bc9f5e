"""Resilient execution layer: retry policy, error taxonomy, fault plans,
degradation semantics of the batch APIs and the CLI resilience flags.

Everything here runs serially/in-process (fast, tier-1) except one
two-worker crash-attribution check; the real process-pool crash/hang
recovery scenarios of workspace sweeps live in ``test_chaos.py``
(``@pytest.mark.slow``).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import pickle
import time

import pytest

from repro.api.cli import EXIT_PARTIAL, main as cli_main
from repro.api.spec import ScenarioSpec
from repro.api.workspace import (
    Workspace,
    build_label,
    default_workspace,
    reset_default_workspace,
)
from repro.exec import (
    BuildError,
    ChaosCrash,
    ChaosFailure,
    ExecError,
    FailureRecord,
    FaultPlan,
    PoolSupervisor,
    RetryPolicy,
    ScenarioError,
    TaskSpec,
    deterministic_uniform,
    execute_with_retries,
)


def sweep_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="c17", scheme="original", metrics=("distances",),
        seeds=(0, 1, 2),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def strip_elapsed(payload):
    """Deep-copy a result dict with every timing field removed."""
    if isinstance(payload, dict):
        return {
            key: strip_elapsed(value)
            for key, value in payload.items() if key != "elapsed_s"
        }
    if isinstance(payload, list):
        return [strip_elapsed(value) for value in payload]
    return payload


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)

    def test_retries_left(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retries_left(1) and policy.retries_left(2)
        assert not policy.retries_left(3)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1)
        assert policy.delay_s("k", 2) == policy.delay_s("k", 2)
        assert policy.delay_s("k", 2) != policy.delay_s("other", 2)

    def test_delay_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.1, backoff_factor=2.0,
            backoff_max_s=10.0, jitter=0.0,
        )
        assert policy.delay_s("k", 0) == 0.0
        assert policy.delay_s("k", 1) == pytest.approx(0.1)
        assert policy.delay_s("k", 2) == pytest.approx(0.2)
        assert policy.delay_s("k", 3) == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(
            max_attempts=9, backoff_s=1.0, backoff_max_s=2.0, jitter=0.0,
        )
        assert policy.delay_s("k", 8) == 2.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=1.0, backoff_factor=1.0,
                             backoff_max_s=1.0, jitter=0.5)
        for attempt in range(1, 4):
            delay = policy.delay_s("key", attempt)
            assert 0.75 <= delay <= 1.25

    def test_round_trips_through_dict(self):
        policy = RetryPolicy(max_attempts=3, timeout_s=5.0, jitter=0.1)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_deterministic_uniform_range(self):
        draws = {deterministic_uniform("a", i) for i in range(64)}
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(draws) == 64  # distinct inputs hash apart
        assert deterministic_uniform("a", 1) == deterministic_uniform("a", 1)


class TestExecuteWithRetries:
    def test_fails_twice_then_succeeds(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise RuntimeError("transient")
            return "built"

        delays = []
        result = execute_with_retries(
            flaky, key="k", label="demo",
            policy=RetryPolicy(max_attempts=3, backoff_s=0.01),
            sleep=delays.append,
        )
        assert result == "built"
        assert calls == [1, 2, 3]
        assert len(delays) == 2 and all(d >= 0.0 for d in delays)

    def test_exhausted_budget_raises_build_error(self):
        def always(attempt):
            raise ValueError("poison")

        with pytest.raises(BuildError) as excinfo:
            execute_with_retries(
                always, key="deadbeef", label="c17:original:seed0",
                policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
                sleep=lambda _s: None,
            )
        error = excinfo.value
        assert error.attempts == 2
        assert error.build_key == "deadbeef"
        assert error.label == "c17:original:seed0"
        assert error.cause_type == "ValueError"
        assert "poison" in error.traceback_text


class TestErrorTaxonomy:
    def test_build_error_pickles_with_attributes(self):
        error = BuildError(
            "boom", build_key="abc", label="c17:original:seed1",
            attempts=3, cause_type="ChaosFailure", traceback_text="tb",
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, BuildError) and isinstance(clone, ExecError)
        assert str(clone) == "boom"
        assert clone.build_key == "abc"
        assert clone.label == "c17:original:seed1"
        assert clone.attempts == 3
        assert clone.cause_type == "ChaosFailure"
        assert clone.traceback_text == "tb"

    def test_scenario_error_pickles_with_failures(self):
        record = FailureRecord(kind="build", benchmark="c17", seed=1)
        error = ScenarioError("gone", spec_hash="h" * 16, failures=[record])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.spec_hash == "h" * 16
        assert clone.failures == [record]

    def test_failure_record_round_trips(self):
        record = FailureRecord(
            kind="build", benchmark="c17", scheme="original", seed=2,
            spec_hash="s", build_key="b", attempts=2,
            error_type="TimeoutError", message="too slow",
        )
        assert FailureRecord.from_dict(record.to_dict()) == record
        assert "c17:original:seed2" in record.summary()
        assert "TimeoutError" in record.summary()

    def test_from_spec_prefers_build_error_context(self):
        spec = ScenarioSpec(benchmark="c17", scheme="original", seed=4)
        error = BuildError(
            "boom", build_key="bk", attempts=2, cause_type="ChaosFailure",
            traceback_text="tb",
        )
        record = FailureRecord.from_spec(spec, error)
        assert record.kind == "build"
        assert record.seed == 4
        assert record.build_key == "bk"
        assert record.attempts == 2
        assert record.error_type == "ChaosFailure"
        assert record.traceback_text == "tb"


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(fail_rate=0.5, seed=7)
        decisions = [plan.decide("c17:original:seed0", a) for a in range(1, 20)]
        assert decisions == [plan.decide("c17:original:seed0", a)
                             for a in range(1, 20)]
        assert any(d == "fail" for d in decisions)
        assert any(d is None for d in decisions)

    def test_seed_changes_the_decisions(self):
        labels = [f"c17:original:seed{i}" for i in range(32)]
        first = [FaultPlan(fail_rate=0.5, seed=1).decide(lb, 1) for lb in labels]
        second = [FaultPlan(fail_rate=0.5, seed=2).decide(lb, 1) for lb in labels]
        assert first != second

    def test_counters_beat_rates_and_priority_order(self):
        plan = FaultPlan(fail_first=2, hang_first=1, crash_first=1)
        assert plan.decide("x", 1) == "crash"  # crash > hang > fail
        assert plan.decide("x", 2) == "fail"   # counters exhausted down the list
        assert plan.decide("x", 3) is None

    def test_match_filters_by_label(self):
        plan = FaultPlan(fail_first=99, match="seed1")
        assert plan.decide("c17:original:seed1", 1) == "fail"
        assert plan.decide("c17:original:seed0", 1) is None

    def test_inject_fail_raises(self):
        with pytest.raises(ChaosFailure, match="attempt 1"):
            FaultPlan(fail_first=1).inject("lbl", 1)

    def test_inject_crash_degrades_in_main_process(self):
        # os._exit would kill the test runner; in the main process a crash
        # decision must degrade to a catchable exception.
        with pytest.raises(ChaosCrash, match="in-process"):
            FaultPlan(crash_first=1).inject("lbl", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_first=-1)
        with pytest.raises(ValueError):
            FaultPlan(hang_s=-1.0)

    def test_parse_compact(self):
        plan = FaultPlan.parse("fail=0.3,crash=0.05,seed=7,match=c17")
        assert plan == FaultPlan(fail_rate=0.3, crash_rate=0.05, seed=7,
                                 match="c17")

    def test_parse_counters_and_json(self):
        assert FaultPlan.parse("fail_first=2,hang_s=0.5") == FaultPlan(
            fail_first=2, hang_s=0.5
        )
        assert FaultPlan.parse('{"fail_rate": 0.25, "seed": 3}') == FaultPlan(
            fail_rate=0.25, seed=3
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("")
        with pytest.raises(ValueError):
            FaultPlan.parse("fail")
        with pytest.raises(TypeError):
            FaultPlan.parse("bogus_knob=1")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "fail=0.5,seed=9")
        assert FaultPlan.from_env() == FaultPlan(fail_rate=0.5, seed=9)

    def test_round_trips_through_dict(self):
        plan = FaultPlan(fail_rate=0.1, crash_first=1, match="seed2", seed=5)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises(TypeError, match="unknown"):
            FaultPlan.from_dict({"nope": 1})


class TestWorkspaceResilience:
    def test_flaky_build_recovers_bit_identically(self):
        # Fails twice, succeeds on the third attempt — and the recovered
        # result is bit-identical to a fault-free run (the core acceptance
        # contract: retries re-run the same deterministic build).
        plan = FaultPlan(fail_first=2)
        spec = ScenarioSpec(benchmark="c17", scheme="original",
                            metrics=("distances",))
        flaky = Workspace(
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0), chaos=plan,
        )
        clean = Workspace()
        faulted = flaky.run_scenario(spec)
        reference = clean.run_scenario(spec)
        assert strip_elapsed(faulted.to_dict()) == strip_elapsed(reference.to_dict())

    def test_exhausted_build_is_quarantined(self):
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            chaos=FaultPlan(fail_first=99),
        )
        spec = ScenarioSpec(benchmark="c17", scheme="original")
        with pytest.raises(BuildError) as excinfo:
            workspace.build(spec)
        assert excinfo.value.attempts == 2
        assert excinfo.value.cause_type == "ChaosFailure"
        # The second request is served from quarantine (same error object,
        # no re-run of the poison build).
        with pytest.raises(BuildError) as again:
            workspace.build(spec)
        assert again.value is excinfo.value
        assert spec.build_key() in workspace.quarantined()
        workspace.clear_quarantine()
        assert workspace.quarantined() == {}

    def test_skip_mode_sweep_reports_honest_n(self):
        workspace = Workspace(
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            chaos=FaultPlan(fail_first=99, match="seed1"),
        )
        sweep = workspace.run_sweep(sweep_spec(), on_error="skip")
        assert sweep.seeds == (0, 2)
        assert sweep.failed_seeds == (1,)
        assert not sweep.complete
        assert sweep.metric("distances")["mean"]["n"] == 2
        assert len(sweep.metric("distances")["mean"]["per_seed"]) == 2
        [failure] = sweep.failures
        assert failure.seed == 1 and failure.kind == "build"
        assert failure.attempts == 2
        assert failure.error_type == "ChaosFailure"
        records = workspace.drain_failures()
        assert [r.seed for r in records] == [1]
        assert workspace.drain_failures() == []  # cleared on read

    def test_partial_sweep_is_bit_identical_on_surviving_seeds(self):
        partial = Workspace(
            chaos=FaultPlan(fail_first=99, match="seed1"),
        ).run_sweep(sweep_spec(), on_error="skip")
        survivors = Workspace().run_sweep(sweep_spec(seeds=(0, 2)))
        assert strip_elapsed(partial.metric("distances")) == \
            strip_elapsed(survivors.metric("distances"))

    def test_all_seeds_failing_raises_scenario_error(self):
        workspace = Workspace(chaos=FaultPlan(fail_first=99))
        with pytest.raises(ScenarioError) as excinfo:
            workspace.run_sweep(sweep_spec(), on_error="skip")
        error = excinfo.value
        assert error.spec_hash == sweep_spec().content_hash()
        assert [f.seed for f in error.failures] == [0, 1, 2]
        assert "no surviving seeds" in str(error)

    def test_run_scenarios_skip_mode_drops_failures(self):
        workspace = Workspace(chaos=FaultPlan(fail_first=99, match="seed1"))
        specs = [
            ScenarioSpec(benchmark="c17", scheme="original",
                         metrics=("distances",), seed=seed)
            for seed in (0, 1, 2)
        ]
        results = workspace.run_scenarios(specs, on_error="skip")
        assert [r.spec.seed for r in results] == [0, 2]
        assert [r.seed for r in workspace.drain_failures()] == [1]

    def test_raise_mode_is_the_default(self):
        workspace = Workspace(chaos=FaultPlan(fail_first=99, match="seed1"))
        with pytest.raises(BuildError):
            workspace.run_sweep(sweep_spec())

    def test_on_error_spelling_is_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            Workspace(on_error="ignore")
        with pytest.raises(ValueError, match="on_error"):
            Workspace().run_sweep(sweep_spec(), on_error="bogus")

    def test_build_label(self):
        assert build_label(
            ScenarioSpec(benchmark="c17", scheme="original", seed=3)
        ) == "c17:original:seed3"
        assert build_label(
            ScenarioSpec(benchmark="superblue18", scheme="proposed",
                         scale=0.0025, seed=0)
        ) == "superblue18@0.0025:proposed:seed0"


class TestSerialDegradation:
    def test_pool_unavailable_falls_back_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(PoolSupervisor, "_make_pool", lambda self: None)
        workspace = Workspace()
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            built = workspace.prewarm([sweep_spec()], jobs=2)
        assert len(built) == 3
        assert workspace.last_report.degraded_serial
        assert "process pool unavailable" in caplog.text

    def test_serial_supervisor_matches_retry_semantics(self):
        attempts = {}

        def flaky(key, payload, attempt):
            attempts[key] = attempt
            if key == "bad" or attempt < 2:
                raise RuntimeError(f"{key} transient")
            return payload * 2

        supervisor = PoolSupervisor(
            flaky, jobs=1, policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        report = supervisor.run([
            TaskSpec(key="good", payload=21), TaskSpec(key="bad", payload=1),
        ])
        assert report.succeeded() == {"good": 42}
        assert set(report.failed()) == {"bad"}
        assert report.failed()["bad"].attempts == 2
        assert attempts == {"good": 2, "bad": 2}


def _call_payload(key, payload, attempt):
    """Pool task: run the module-level function the payload names."""
    return payload()


def _sleep_briefly():
    time.sleep(0.3)
    return "slept"


def _exit_worker():
    if multiprocessing.parent_process() is None:
        raise RuntimeError("refusing to exit the supervisor process")
    os._exit(13)


class TestPoolCrashAttribution:
    def test_break_with_several_in_flight_charges_only_the_crasher(self):
        # The crasher kills its worker while the sleeper is still in flight.
        # Neither is charged for that break; each then runs alone, so the
        # sleeper succeeds on its one attempt and only the crasher is charged.
        supervisor = PoolSupervisor(
            _call_payload, jobs=2, policy=RetryPolicy(max_attempts=1),
        )
        report = supervisor.run([
            TaskSpec(key="sleeper", payload=_sleep_briefly),
            TaskSpec(key="crasher", payload=_exit_worker),
        ])
        assert not report.degraded_serial
        assert report.respawns >= 1
        assert report.succeeded() == {"sleeper": "slept"}
        [(key, error)] = report.failed().items()
        assert key == "crasher"
        assert error.cause_type == "BrokenProcessPool"
        assert error.attempts == 1


@pytest.fixture
def fresh_default_workspace():
    """Isolate tests that configure the process-wide default workspace."""
    reset_default_workspace()
    yield
    reset_default_workspace()


class TestCliResilience:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(ScenarioSpec(
            benchmark="c17", scheme="original", metrics=("distances",),
        ).to_json())
        return path

    def test_keep_going_exits_partial_with_json_summary(
            self, tmp_path, capsys, monkeypatch, fresh_default_workspace):
        monkeypatch.setenv("REPRO_CHAOS", "fail_first=99,match=seed1")
        exit_code = cli_main([
            "run", str(self.write_spec(tmp_path)), "--seeds", "0:3",
            "--jobs", "1", "--keep-going",
        ])
        assert exit_code == EXIT_PARTIAL
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["seeds"] == [0, 2]
        assert payload["failed_seeds"] == [1]
        summary = json.loads(captured.err)
        assert summary["status"] == "partial"
        assert summary["skipped"] == 1
        assert summary["failures"][0]["seed"] == 1
        assert summary["failures"][0]["error_type"] == "ChaosFailure"
        assert "traceback_text" not in summary["failures"][0]

    def test_unrecoverable_failure_exits_one_with_json(
            self, tmp_path, capsys, monkeypatch, fresh_default_workspace):
        monkeypatch.setenv("REPRO_CHAOS", "fail_first=99,match=seed1")
        exit_code = cli_main([
            "run", str(self.write_spec(tmp_path)), "--seeds", "0:3",
            "--jobs", "1",
        ])
        assert exit_code == 1
        summary = json.loads(capsys.readouterr().err)
        assert summary["status"] == "failed"
        assert summary["error_type"] == "BuildError"

    def test_retries_flag_recovers_flaky_builds(
            self, tmp_path, capsys, monkeypatch, fresh_default_workspace):
        monkeypatch.setenv("REPRO_CHAOS", "fail_first=2,match=seed1")
        exit_code = cli_main([
            "run", str(self.write_spec(tmp_path)), "--seeds", "0:3",
            "--jobs", "1", "--retries", "2",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [0, 1, 2]
        assert payload["failed_seeds"] == []
        workspace = default_workspace()
        assert workspace.retry.max_attempts == 3

    def test_bad_retry_flags_exit_usage(self, capsys, fresh_default_workspace):
        assert cli_main(["run", "headline", "--retries", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_report_table_surfaces_failures(self):
        from repro.experiments.common import sweep_report_table

        workspace = Workspace(chaos=FaultPlan(fail_first=99, match="seed1"))
        sweep = workspace.run_sweep(sweep_spec(), on_error="skip")
        table = sweep_report_table([sweep], title="demo")
        quantities = table.column("Quantity")
        assert "failure[seed=1]" in quantities
        seeds_column = table.column("Seeds")
        assert all(value == "2/3" for value in seeds_column)
        failure_row = table.rows[quantities.index("failure[seed=1]")]
        assert "ChaosFailure" in failure_row[-1]
