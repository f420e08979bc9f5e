"""Tests for the scenario API: registries, specs, workspace, CLI.

Covers the PR's acceptance criteria:

* registry registration / lookup / unknown-key errors;
* ``ScenarioSpec`` JSON round-trip (spec → json → spec → identical hash) and
  hash stability across key order / spelled-out defaults;
* the artefact-cache under-keying regression: two configs differing only in
  ``iscas_lift_layer`` must not share a ``ProtectionResult``;
* ``python -m repro run`` (JSON spec path) reproduces Table 1 and Table 4
  bit-identically to the ``runner.run_all`` library path at equal seed.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path
from typing import Optional, Tuple

import pytest


@dataclasses.dataclass(frozen=True)
class _ThirdPartyParams:
    """Params shape a plugin might register: Tuple annotations, no literal
    tuple defaults (module-level so string annotations resolve)."""

    boxes: Tuple[int, ...] = dataclasses.field(default_factory=tuple)
    window: Optional[Tuple[int, int]] = None

from repro.api import (
    ATTACKS,
    DEFENSES,
    METRICS,
    Registry,
    ScenarioSpec,
    UnknownNameError,
    Workspace,
    build_params,
)
from repro.api.cli import main as cli_main
from repro.api.schemes import ProposedParams
from repro.api.workspace import default_workspace
from repro.experiments.common import ExperimentConfig

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        iscas_benchmarks=("c432",),
        superblue_benchmarks=("superblue18",),
        superblue_scale=0.0015,
        iscas_split_layers=(4,),
        num_patterns=256,
        iscas_swap_fractions=(0.05,),
        superblue_swap_fractions=(0.02,),
    )


class TestRegistry:
    def test_builtin_names(self):
        assert {"proximity", "network_flow", "crouting"} <= set(ATTACKS.names())
        assert {
            "proposed", "original", "placement_perturbation", "layout_randomization",
            "pin_swapping", "routing_perturbation", "synergistic", "routing_blockage",
        } <= set(DEFENSES.names())
        assert {"security", "distances", "via_counts", "via_delta",
                "wirelength_layers", "ppa", "ppa_overheads"} <= set(METRICS.names())

    def test_metric_scopes_are_valid(self):
        for entry in METRICS.entries():
            assert entry.extra.get("scope") in ("attack", "layout", "compare")

    def test_register_and_lookup(self):
        registry = Registry("demo")

        @registry.register("thing", summary="a demo entry")
        def fn():
            return 42

        assert "thing" in registry
        assert registry.get("thing").fn is fn
        assert registry.get("thing").summary == "a demo entry"
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = Registry("demo")
        registry.register("thing")(lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("thing")(lambda: None)

    def test_unknown_name_error(self):
        with pytest.raises(UnknownNameError) as excinfo:
            ATTACKS.get("network_flo")
        message = str(excinfo.value)
        assert "network_flow" in message
        assert "did you mean" in message
        # Legacy call sites catch KeyError.
        assert isinstance(excinfo.value, KeyError)

    def test_params_list_coerced_to_tuple(self):
        params = DEFENSES.get("proposed").make_params(
            {"swap_fraction_steps": [0.05, 0.1]}
        )
        assert params.swap_fraction_steps == (0.05, 0.1)

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            DEFENSES.get("proposed").make_params({"lift_layr": 6})

    def test_params_none_type_rejects_overrides(self):
        with pytest.raises(TypeError):
            build_params(None, {"anything": 1})
        assert build_params(None) is None

    def test_tuple_annotation_coerced_without_tuple_default(self):
        """Third-party params may annotate Tuple fields without a literal
        tuple default; JSON lists must still coerce."""
        params = build_params(_ThirdPartyParams, {"boxes": [1, 2], "window": [3, 4]})
        assert params.boxes == (1, 2)
        assert params.window == (3, 4)


class TestScenarioSpec:
    def spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            benchmark="c432",
            scheme="proposed",
            scheme_params={"lift_layer": 6, "swap_fraction_steps": [0.08]},
            layouts=("original", "protected"),
            split_layers=(3, 4, 5),
            attacks=["network_flow"],
            metrics=["security"],
            num_patterns=512,
            seed=1,
        )

    def test_json_round_trip_identical_hash(self):
        spec = self.spec()
        round_tripped = ScenarioSpec.from_json(spec.to_json())
        assert round_tripped == spec
        assert round_tripped.content_hash() == spec.content_hash()

    def test_hash_stable_across_key_order(self):
        spec = self.spec()
        data = spec.to_dict()
        reordered = dict(reversed(list(data.items())))
        assert ScenarioSpec.from_dict(reordered).content_hash() == spec.content_hash()

    def test_hash_stable_across_spelled_out_defaults(self):
        implicit = ScenarioSpec(benchmark="c432", scheme="proposed", seed=1)
        explicit = ScenarioSpec(
            benchmark="c432", scheme="proposed",
            scheme_params={"lift_layer": 6, "utilization": 0.70}, seed=1,
        )
        assert implicit.content_hash() == explicit.content_hash()

    def test_hash_covers_build_knobs(self):
        base = self.spec()
        changed = dataclasses.replace(
            base, scheme_params={**base.scheme_params, "lift_layer": 5}
        )
        assert changed.content_hash() != base.content_hash()
        assert changed.build_key() != base.build_key()

    def test_attack_and_metric_knobs_do_not_change_build_key(self):
        base = self.spec()
        changed = dataclasses.replace(base, attacks=("proximity",), metrics=())
        assert changed.build_key() == base.build_key()
        assert changed.content_hash() != base.content_hash()

    def test_layout_alias_and_validation(self):
        spec = ScenarioSpec(benchmark="c432", layouts=("proposed",))
        assert spec.layouts == ("protected",)
        with pytest.raises(ValueError, match="unknown layout variant"):
            ScenarioSpec(benchmark="c432", layouts=("bogus",))

    @pytest.mark.parametrize("field, value, match", [
        ("seed", "x", "seed must be an int"),
        ("seed", 1.5, "seed must be an int"),
        ("seed", True, "seed must be an int"),
        ("netlist_seed", 2.0, "netlist_seed must be an int"),
        ("netlist_seed", False, "netlist_seed must be an int"),
        ("split_layers", (99,), "split layer 99 is outside"),
        ("split_layers", (0,), "split layer 0 is outside"),
        ("split_layers", (4, 10), "split layer 10 is outside"),
        ("num_patterns", -5, "num_patterns must be at least 1"),
        ("num_patterns", 0, "num_patterns must be at least 1"),
        ("metrics", ({"name": "security", "params": {"num_patterns": 0}},),
         "security num_patterns must be at least 1"),
        ("metrics", ({"name": "security", "params": {"num_patterns": -1}},),
         "security num_patterns must be at least 1"),
        ("scheme_params", {"oer_patterns": 0}, "proposed oer_patterns must be at least 1"),
    ])
    def test_out_of_range_fields_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec(benchmark="c432", **{field: value}).validate()

    def test_range_limits_accepted(self):
        spec = ScenarioSpec(benchmark="c432", split_layers=(1, 9),
                            num_patterns=1, seed=0, netlist_seed=0)
        assert spec.split_layers == (1, 9)

    def test_unknown_scheme_fails_canonicalization(self):
        spec = ScenarioSpec(benchmark="c432", scheme="not_a_scheme")
        with pytest.raises(UnknownNameError):
            spec.canonical_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="unknown ScenarioSpec field"):
            ScenarioSpec.from_dict({"benchmark": "c432", "benchmrak": "typo"})

    def test_specs_are_hashable(self):
        spec = self.spec()
        twin = ScenarioSpec.from_json(spec.to_json())
        assert len({spec, twin}) == 1
        assert len(set(spec.attacks + spec.attacks)) == len(spec.attacks)

    def test_typoed_params_key_rejected(self):
        with pytest.raises(TypeError, match="unknown AttackSpec key"):
            ScenarioSpec(
                benchmark="c432",
                attacks=[{"name": "network_flow", "parms": {"direction_weight": 9}}],
            )
        with pytest.raises(TypeError, match="require a 'name' key"):
            ScenarioSpec(benchmark="c432", metrics=[{"params": {}}])

    def test_invalid_strategy_fails_at_validation(self):
        spec = ScenarioSpec(
            benchmark="c432", scheme="layout_randomization",
            scheme_params={"strategy": "gcolor"},
        )
        with pytest.raises(ValueError, match="unknown layout_randomization strategy"):
            spec.validate()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate metric name"):
            ScenarioSpec(
                benchmark="c432",
                metrics=[{"name": "distances", "params": {"nets": "all"}}, "distances"],
            )
        with pytest.raises(ValueError, match="duplicate attack name"):
            ScenarioSpec(benchmark="c432", attacks=["proximity", "proximity"])

    def test_committed_sample_specs_validate(self):
        cell = json.loads((EXAMPLES / "scenario_cell.json").read_text())
        spec = ScenarioSpec.from_dict(cell)
        spec.validate()
        assert spec.benchmark == "c432"
        grid = json.loads((EXAMPLES / "scenario.json").read_text())
        assert grid["experiment"] == "table1"
        ExperimentConfig.from_dict(grid["config"])


class TestWorkspaceCache:
    def test_under_keying_regression_iscas_lift_layer(self, tiny_config):
        """Two configs differing only in ``iscas_lift_layer`` must not share
        a ProtectionResult (the historical cache keyed only on
        (benchmark, scale, seed) and served stale artefacts here)."""
        workspace = default_workspace()
        workspace.clear()
        config_m6 = tiny_config.protection_config("c432")
        config_m8 = dataclasses.replace(
            tiny_config, iscas_lift_layer=8
        ).protection_config("c432")
        result_m6 = workspace.protection("c432", config_m6)
        result_m8 = workspace.protection("c432", config_m8)
        assert result_m6 is not result_m8
        assert result_m6.config.lift_layer == 6
        assert result_m8.config.lift_layer == 8
        # Same config again: cache hit, identity-stable.
        assert workspace.protection("c432", config_m6) is result_m6
        assert workspace.protection("c432", config_m8) is result_m8

    def test_distinct_num_patterns_distinct_builds(self, tiny_config):
        """oer_patterns feeds the build; differing values must not collide."""
        workspace = Workspace()
        config_a = tiny_config.protection_config("c432")
        config_b = dataclasses.replace(config_a, oer_patterns=128)
        result_a = workspace.protection("c432", config_a)
        result_b = workspace.protection("c432", config_b)
        assert result_a is not result_b
        # Two distinct proposed builds, plus the shared original-baseline
        # entry both publish (same utilization/seed → one key).
        assert len(workspace) == 3

    def test_scenario_memoization(self, tiny_config):
        workspace = Workspace()
        spec = tiny_config.scenario(
            "c432", layouts=("original", "protected"),
            attacks=("network_flow",), metrics=("security",),
        )
        first = workspace.run_scenario(spec)
        second = workspace.run_scenario(ScenarioSpec.from_json(spec.to_json()))
        assert second is first
        stats = workspace.stats()
        assert stats["scenario_hits"] == 1
        records = first.records(attack="network_flow", layout="protected")
        assert len(records) == len(tiny_config.iscas_split_layers)
        security = records[0].metrics["security"]
        assert set(security) == {"ccr", "oer", "hd", "num_connections_scored"}
        assert first.security_mean(layout="original")["ccr"] > 50.0
        assert first.security_mean(layout="protected")["ccr"] <= 10.0
        # An empty filter must raise, never fabricate an all-zero (i.e.
        # best-case) security report.
        with pytest.raises(ValueError, match="no 'security' records"):
            first.security_mean(layout="lifted")
        with pytest.raises(ValueError, match="no 'security' records"):
            first.security_mean(attack="proximity")

    def test_builds_shared_across_scenarios(self, tiny_config):
        workspace = Workspace()
        attack_spec = tiny_config.scenario(
            "c432", attacks=("network_flow",), metrics=("security",)
        )
        metric_spec = tiny_config.scenario("c432", metrics=("ppa_overheads",))
        workspace.run_scenario(attack_spec)
        workspace.run_scenario(metric_spec)
        stats = workspace.stats()
        assert stats["build_misses"] == 1
        assert stats["build_hits"] >= 1

    def test_proposed_build_publishes_original_baseline(self, tiny_config):
        """Compare-scope baselines of sibling schemes must reuse the proposed
        build's original layout instead of re-running place+route."""
        workspace = Workspace()
        proposed = workspace.build(tiny_config.scenario("c432"))
        randomized = tiny_config.scenario(
            "c432", scheme="layout_randomization",
            scheme_params={"strategy": "random"}, metrics=("ppa_overheads",),
        )
        result = workspace.run_scenario(randomized)
        baseline = workspace._baseline_layout(randomized, workspace.build(randomized))
        assert baseline is proposed.protection.original_layout
        assert "protected" in result.layout_metrics["ppa_overheads"]

    def test_compare_metric_skips_self_comparison(self, tiny_config):
        workspace = Workspace()
        spec = tiny_config.scenario(
            "c432", layouts=("original", "protected"), metrics=("via_delta",),
        )
        result = workspace.run_scenario(spec)
        assert "protected" in result.layout_metrics["via_delta"]
        assert "original" not in result.layout_metrics["via_delta"]

    def test_scheme_build_variants(self, tiny_config):
        workspace = Workspace()
        build = workspace.build(tiny_config.scenario("c432"))
        assert build.available_variants() == ["original", "lifted", "protected"]
        assert build.variant("protected") is build.protection.protected_layout
        with pytest.raises(ValueError, match="unknown layout variant"):
            build.variant("bogus")


def _strip_timings(text: str) -> str:
    return re.sub(r"\s+\[\d+\.\ds\]", "", text)


class TestCLIEquivalence:
    def _cli_run_experiment(self, name: str, tiny_config, tmp_path) -> str:
        payload = {"experiment": name, "config": tiny_config.to_dict()}
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(payload))
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli_main(["run", str(spec_path)]) == 0
        return _strip_timings(buffer.getvalue()).strip()

    @pytest.mark.parametrize("experiment", ["table1", "table4"])
    def test_json_spec_matches_legacy_runner(self, experiment, tiny_config, tmp_path):
        """Acceptance: a JSON spec through ``python -m repro run`` reproduces
        Table 1 / Table 4 bit-identically to ``runner.run_all``."""
        from repro.experiments.runner import run_all
        from repro.utils.tables import format_table

        cli_text = self._cli_run_experiment(experiment, tiny_config, tmp_path)
        legacy = run_all(tiny_config, only=[experiment])[experiment]
        legacy_text = _strip_timings(format_table(legacy)).strip()
        assert cli_text == legacy_text

    def test_scenario_json_runs_and_reports(self, tiny_config, tmp_path):
        spec = tiny_config.scenario(
            "c432", layouts=("original", "protected"),
            attacks=("network_flow",), metrics=("security",),
        )
        spec_path = tmp_path / "cell.json"
        spec_path.write_text(spec.to_json())
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli_main(["run", str(spec_path)]) == 0
        document = json.loads(buffer.getvalue())
        assert document["spec_hash"] == spec.content_hash()
        assert document["benchmark"] == "c432"
        # The same cell is memoized in the default workspace: its security
        # numbers equal the direct API's.
        direct = default_workspace().run_scenario(spec)
        reported = [r["metrics"]["security"] for r in document["attack_records"]]
        computed = [r.metrics["security"] for r in direct.attack_records]
        assert reported == computed

    def test_cli_list_and_hash(self, tmp_path, capsys):
        assert cli_main(["list", "defenses"]) == 0
        assert "proposed" in capsys.readouterr().out
        spec_path = tmp_path / "cell.json"
        spec = ScenarioSpec(benchmark="c432")
        spec_path.write_text(spec.to_json())
        assert cli_main(["hash", str(spec_path)]) == 0
        assert spec.content_hash() in capsys.readouterr().out

    def test_cli_unknown_experiment_errors(self, capsys):
        assert cli_main(["run", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_cli_hash_rejects_grid_payload_cleanly(self, capsys):
        assert cli_main(["hash", str(EXAMPLES / "scenario.json")]) == 2
        assert "no scenario hash" in capsys.readouterr().err
        assert cli_main(["hash", "does_not_exist.json"]) == 2
        assert "does not exist" in capsys.readouterr().err
