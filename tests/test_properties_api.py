"""Property-based tests (Hypothesis): spec canonicalization + build invariants.

Two property families back the ISSUE's regression harness:

* ``ScenarioSpec`` serialization — dict/JSON round-trips are lossless and the
  canonical content hash is invariant under key reordering, defaults-filling
  and equivalent seed-sweep spellings;
* placer/defense invariants — the placer always emits legal placements, and
  every in-place geometry mutation strictly increases ``geometry_version``
  (the array-cache invalidation contract from ROADMAP).
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins  # noqa: E402
from repro.api.spec import ScenarioSpec  # noqa: E402
from repro.circuits import iscas85_netlist  # noqa: E402
from repro.layout.arrays import placement_arrays  # noqa: E402
from repro.layout.placer import PlacerConfig, check_legality, place  # noqa: E402
from repro.service.schemas import EVENT_KINDS  # noqa: E402

ensure_builtins()

SCHEME_NAMES = sorted(entry.name for entry in DEFENSES.entries())
ATTACK_NAMES = sorted(entry.name for entry in ATTACKS.entries())
METRIC_NAMES = sorted(entry.name for entry in METRICS.entries())

#: A relaxed profile for properties that build layouts (still > 1 s budget).
BUILD_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _default_params(registry, name):
    """The canonical (defaults-filled) parameter payload of a registry entry."""
    return registry.get(name).canonical_params({})


@st.composite
def scenario_specs(draw):
    """Valid scenario specs with optional explicit-default param spellings.

    Parameter payloads are drawn as subsets of the registered defaults, so
    two drawn specs that differ only in how many defaults they spell out
    canonicalize to the same scenario.
    """
    scheme = draw(st.sampled_from(SCHEME_NAMES))

    def spelled_defaults(registry, name):
        defaults = _default_params(registry, name)
        chosen = draw(st.lists(
            st.sampled_from(sorted(defaults)) if defaults else st.nothing(),
            unique=True, max_size=len(defaults),
        )) if defaults else []
        return {key: defaults[key] for key in chosen}

    attacks = draw(st.lists(st.sampled_from(ATTACK_NAMES), unique=True, max_size=2))
    metrics = draw(st.lists(st.sampled_from(METRIC_NAMES), unique=True, max_size=3))
    seeds = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, 50), unique=True, min_size=1, max_size=5),
        st.fixed_dictionaries(
            {"count": st.integers(1, 5)},
            optional={"start": st.integers(0, 20)},
        ),
    ))
    return ScenarioSpec(
        benchmark=draw(st.sampled_from(["c17", "c432", "c880", "superblue18"])),
        scheme=scheme,
        scheme_params=spelled_defaults(DEFENSES, scheme),
        layouts=("protected",),
        split_layers=tuple(draw(st.lists(
            st.integers(2, 9), unique=True, min_size=1, max_size=3,
        ))),
        attacks=[{"name": name, "params": spelled_defaults(ATTACKS, name)}
                 for name in attacks],
        metrics=[{"name": name, "params": spelled_defaults(METRICS, name)}
                 for name in metrics],
        num_patterns=draw(st.sampled_from([64, 256, 1024])),
        seed=draw(st.integers(0, 100)),
        seeds=seeds,
    )


class TestSpecProperties:
    @given(spec=scenario_specs())
    @settings(max_examples=30, deadline=None)
    def test_dict_and_json_round_trip_losslessly(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    @given(spec=scenario_specs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_hash_invariant_under_key_reordering(self, spec, data):
        payload = spec.to_dict()
        keys = data.draw(st.permutations(sorted(payload)))
        reordered = {key: payload[key] for key in keys}
        assert ScenarioSpec.from_dict(reordered).content_hash() == spec.content_hash()

    @given(spec=scenario_specs())
    @settings(max_examples=30, deadline=None)
    def test_hash_invariant_under_defaults_filling(self, spec):
        """Spelling out every registered default never changes the hash."""
        explicit = ScenarioSpec(
            benchmark=spec.benchmark,
            scheme=spec.scheme,
            scheme_params=DEFENSES.get(spec.scheme).canonical_params(spec.scheme_params),
            scale=spec.scale,
            layouts=spec.layouts,
            split_layers=spec.split_layers,
            attacks=[
                {"name": a.name,
                 "params": ATTACKS.get(a.name).canonical_params(a.params)}
                for a in spec.attacks
            ],
            metrics=[
                {"name": m.name,
                 "params": METRICS.get(m.name).canonical_params(m.params)}
                for m in spec.metrics
            ],
            num_patterns=spec.num_patterns,
            seed=spec.seed,
            seeds=spec.seeds,
        )
        assert explicit.content_hash() == spec.content_hash()

    @given(start=st.integers(0, 100), count=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_hash_invariant_across_seed_sweep_spellings(self, start, count):
        ranged = ScenarioSpec(benchmark="c17", seeds={"start": start, "count": count})
        listed = ScenarioSpec(benchmark="c17",
                              seeds=list(range(start, start + count)))
        assert ranged.content_hash() == listed.content_hash()
        assert [s.seed for s in ranged.expand_seeds()] == \
            list(range(start, start + count))

    @given(spec=scenario_specs())
    @settings(max_examples=40, deadline=None)
    def test_expansion_preserves_build_identity(self, spec):
        singles = spec.expand_seeds()
        if spec.seeds is None:
            assert singles == [spec]
            return
        assert len(singles) == len(spec.seeds)
        for single, seed in zip(singles, spec.seeds):
            assert single.seed == seed and single.seeds is None
            single.build_key()  # expanded specs are always buildable


class TestBuildInvariants:
    @pytest.fixture(scope="class")
    def c432(self):
        return iscas85_netlist("c432", seed=1)

    @given(seed=st.integers(0, 2**16))
    @BUILD_SETTINGS
    def test_placer_emits_legal_placements(self, c432, seed):
        placement = place(c432, config=PlacerConfig(seed=seed))
        assert check_legality(c432, placement) == []

    @given(seed=st.integers(0, 2**16))
    @BUILD_SETTINGS
    def test_perturbation_defense_bumps_geometry_version(self, c432, seed):
        from repro.defenses.placement_perturbation import (
            placement_perturbation_defense,
        )

        layout = placement_perturbation_defense(c432, seed=seed)
        assert layout.placement.geometry_version >= 1
        # The array view keys on the bumped version: it must reflect the
        # perturbed coordinates, not a stale pre-mutation cache.
        arrays = placement_arrays(c432, layout.placement)
        for index, name in enumerate(arrays.gate_names):
            position = layout.placement.gate_positions[name]
            assert arrays.gate_xy[index, 0] == position.x
            assert arrays.gate_xy[index, 1] == position.y
            break  # spot-check the first gate each draw (full scan is O(n))
        die = layout.floorplan.die
        for position in layout.placement.gate_positions.values():
            assert die.x_min <= position.x <= die.x_max
            assert die.y_min <= position.y <= die.y_max

    def test_bump_geometry_version_strictly_increases(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        versions = [placement.geometry_version]
        for _ in range(5):
            versions.append(placement.bump_geometry_version())
        assert versions == sorted(set(versions))

    def test_mutation_without_bump_is_the_documented_hazard(self, c432):
        """placement_arrays caches on geometry_version (the contract)."""
        placement = place(c432, config=PlacerConfig(seed=1))
        before = placement_arrays(c432, placement)
        placement.bump_geometry_version()
        after = placement_arrays(c432, placement)
        assert after is not before  # bump invalidated the cached view
        assert placement_arrays(c432, placement) is after  # stable when clean


class TestJobStateMachineProperties:
    """Service job-state machine: the contracts the ISSUE pins.

    Any event sequence either ends in a terminal state or stays live; no
    event ever transitions out of ``done``/``failed``/``partial``; and job
    records round-trip losslessly through their JSON wire schema.
    """

    @given(events=st.lists(st.sampled_from(EVENT_KINDS), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_any_event_sequence_respects_the_transition_table(self, events):
        from repro.service.schemas import (
            InvalidTransition, JobStateMachine, JOB_STATES, TERMINAL_STATES,
            TRANSITIONS,
        )

        machine = JobStateMachine()
        for kind in events:
            before = machine.state
            try:
                after = machine.apply(kind)
            except InvalidTransition:
                # Only legal way here: the machine had already terminated.
                assert before in TERMINAL_STATES
                assert machine.state == before  # the state did not move
                continue
            assert after in JOB_STATES
            assert after == before or after in TRANSITIONS[before]
            if before in TERMINAL_STATES:
                pytest.fail("apply() returned after a terminal state")

    @given(events=st.lists(st.sampled_from(EVENT_KINDS), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_finished_and_error_always_terminate(self, events):
        from repro.service.schemas import (
            InvalidTransition, JobStateMachine, TERMINAL_STATES,
        )

        machine = JobStateMachine()
        for kind in events:
            try:
                machine.apply(kind)
            except InvalidTransition:
                break
            if kind in ("finished", "error"):
                assert machine.state in TERMINAL_STATES
        # error always lands in failed; finished in done|partial keyed on
        # whether any seed was recorded lost along the way.
        machine = JobStateMachine()
        machine.apply("error")
        assert machine.state == "failed"
        clean = JobStateMachine()
        clean.apply("finished")
        assert clean.state == "done"
        lossy = JobStateMachine()
        lossy.apply("seed_failed")
        lossy.apply("finished")
        assert lossy.state == "partial"

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_job_records_round_trip_through_their_schema(self, data):
        from repro.service.schemas import (
            JOB_STATES, JobRecord, job_id_for, validate_job_dict,
        )

        spec = data.draw(scenario_specs())
        on_error = data.draw(st.sampled_from(["raise", "skip"]))
        record = JobRecord(
            id=job_id_for(spec.content_hash(), on_error),
            spec=spec.to_dict(),
            spec_hash=spec.content_hash(),
            state=data.draw(st.sampled_from(JOB_STATES)),
            kind=data.draw(st.sampled_from(["sweep", "scenario"])),
            jobs=data.draw(st.integers(1, 8)),
            on_error=on_error,
            created_utc="2026-01-01T00:00:00Z",
            events=data.draw(st.integers(0, 100)),
            progress=data.draw(st.dictionaries(
                st.sampled_from(["build_dispatched", "build_completed",
                                 "scenario_completed", "seed_failed"]),
                st.integers(0, 50), max_size=4)),
            requests=data.draw(st.integers(1, 16)),
        )
        wire = record.to_dict()
        assert validate_job_dict(wire) == []
        assert json.loads(json.dumps(wire)) == wire  # JSON-safe verbatim
        assert JobRecord.from_dict(wire) == record

    @given(state=st.sampled_from(["done", "failed", "partial"]),
           kind=st.sampled_from(EVENT_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_no_transition_out_of_terminal_states(self, state, kind):
        from repro.service.schemas import InvalidTransition, JobStateMachine

        machine = JobStateMachine(state)
        with pytest.raises(InvalidTransition):
            machine.apply(kind)
        assert machine.state == state
