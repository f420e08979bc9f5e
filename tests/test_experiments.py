"""Tests for the experiment harness (small configurations)."""

import argparse
import dataclasses
import re

import pytest

from repro.api.cli import _build_experiment_config
from repro.api.workspace import Workspace, default_workspace
from repro.experiments import paper_data
from repro.experiments.common import ExperimentConfig
from repro.experiments import (
    figure4_distance_distributions,
    figure5_wirelength_layers,
    figure6_ppa,
    headline,
    table1_distances,
    table2_vias,
    table3_crouting,
    table6_magana,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    EXPERIMENT_SUITES,
    benchmarks_for,
    quick_config,
    run_all,
)
from repro.utils.tables import Table, format_table


@pytest.fixture(scope="module")
def tiny_config():
    """A deliberately tiny configuration so experiment code paths run fast."""
    return ExperimentConfig(
        iscas_benchmarks=("c432",),
        superblue_benchmarks=("superblue18",),
        superblue_scale=0.0015,
        iscas_split_layers=(4,),
        num_patterns=256,
        iscas_swap_fractions=(0.05,),
        superblue_swap_fractions=(0.02,),
    )


def protection(benchmark, config, workspace=None):
    """The protection-flow artefacts of ``benchmark`` under ``config``."""
    workspace = workspace if workspace is not None else default_workspace()
    return workspace.protection(
        benchmark, config.protection_config(benchmark),
        scale=config.benchmark_scale(benchmark),
    )


def _strip_timings(text: str) -> str:
    return re.sub(r"\s+\[\d+\.\ds\]", "", text)


class TestCommon:
    def test_protection_config_differs_per_family(self, tiny_config):
        iscas = tiny_config.protection_config("c432")
        superblue = tiny_config.protection_config("superblue18")
        assert iscas.lift_layer == 6
        assert superblue.lift_layer == 8
        assert superblue.ppa_budget_percent < iscas.ppa_budget_percent

    def test_artifacts_are_cached(self, tiny_config):
        first = protection("c432", tiny_config)
        second = protection("c432", tiny_config)
        assert first is second

    def test_cache_can_be_cleared(self, tiny_config):
        first = protection("c432", tiny_config)
        default_workspace().clear()
        second = protection("c432", tiny_config)
        assert first is not second


class TestExperimentTables:
    def test_table1(self, tiny_config):
        table = table1_distances.run(tiny_config)
        assert isinstance(table, Table)
        layouts = set(table.column("Layout"))
        assert {"Original", "Lifted", "Proposed"} <= layouts
        assert format_table(table)

    def test_table2(self, tiny_config):
        table = table2_vias.run(tiny_config)
        assert "V56" in table.columns
        assert len(table.rows) >= 3

    def test_table3(self, tiny_config):
        table = table3_crouting.run(tiny_config)
        assert "#VPins" in table.columns
        vpins = [row[2] for row in table.rows]
        assert all(v > 0 for v in vpins)

    def test_table6(self, tiny_config):
        table = table6_magana.run(tiny_config)
        assert table.rows[-1][0] == "Average"

    def test_figure4(self, tiny_config):
        table = figure4_distance_distributions.run(tiny_config, benchmark="superblue18")
        assert "p50" in table.columns
        histograms = figure4_distance_distributions.histograms(
            tiny_config, benchmark="superblue18", num_bins=8
        )
        assert set(histograms) == {"original", "lifted", "proposed"}
        assert all(len(bins) == 8 for bins in histograms.values())

    def test_figure5(self, tiny_config):
        table = figure5_wirelength_layers.run(tiny_config)
        proposed_rows = [row for row in table.rows if row[1] == "Proposed"]
        original_rows = [row for row in table.rows if row[1] == "Original"]
        # Proposed keeps more of the randomized nets' wiring above the split.
        assert proposed_rows[0][-1] > original_rows[0][-1]

    def test_figure6(self, tiny_config):
        table = figure6_ppa.run(tiny_config)
        assert table.rows[-1][0] == "Average"
        area_column = table.column("Proposed area")
        assert all(value == 0.0 for value in area_column)

    def test_headline(self, tiny_config):
        table = headline.run(tiny_config)
        rows = {row[0]: row for row in table.rows}
        assert rows["Proposed"][1] <= 10.0  # CCR near zero
        assert rows["Original"][1] > 50.0


class TestRunner:
    def test_registry_contains_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure4", "figure5", "figure6", "headline",
        }

    def test_unknown_experiment_rejected(self, tiny_config):
        with pytest.raises(KeyError):
            run_all(tiny_config, only=["not_an_experiment"])

    def test_quick_config_is_smaller(self):
        quick = quick_config()
        full = ExperimentConfig()
        assert len(quick.iscas_benchmarks) < len(full.iscas_benchmarks)
        assert quick.superblue_scale < full.superblue_scale

    def test_run_selected_subset(self, tiny_config):
        results = run_all(tiny_config, only=["table1"])
        assert set(results) == {"table1"}

    def test_every_experiment_declares_a_suite(self):
        assert set(EXPERIMENT_SUITES) == set(EXPERIMENTS)
        for spec in EXPERIMENT_SUITES.values():
            assert spec in ("iscas", "superblue") or isinstance(spec, tuple)

    def test_benchmarks_for_selection(self, tiny_config):
        assert benchmarks_for(["table4"], tiny_config) == list(tiny_config.iscas_benchmarks)
        assert benchmarks_for(["table1"], tiny_config) == list(
            tiny_config.superblue_benchmarks
        )
        both = benchmarks_for(["table4", "table1"], tiny_config)
        assert set(both) == set(tiny_config.iscas_benchmarks) | set(
            tiny_config.superblue_benchmarks
        )

    def test_benchmarks_for_single_benchmark_figures(self, tiny_config):
        # figure4 runs on one fixed benchmark; the prewarm must not build the
        # whole superblue suite for it.
        assert benchmarks_for(["figure4"], tiny_config) == ["superblue18"]

    def test_superblue_scale_override_keeps_other_fields(self):
        args = argparse.Namespace(quick=True, superblue_scale=0.0125)
        config = _build_experiment_config(args)
        quick = quick_config()
        assert config.superblue_scale == 0.0125
        assert config.iscas_split_layers == quick.iscas_split_layers
        assert config.num_patterns == quick.num_patterns
        assert config.iscas_benchmarks == quick.iscas_benchmarks
        assert config.iscas_swap_fractions == quick.iscas_swap_fractions

    def test_no_scale_override_returns_config_unchanged(self):
        args = argparse.Namespace(quick=False, superblue_scale=None)
        assert _build_experiment_config(args) == ExperimentConfig()


class TestPrewarm:
    def test_prewarm_populates_cache_serially(self, tiny_config):
        workspace = default_workspace()
        workspace.clear()
        c432 = tiny_config.scenario("c432")
        built = workspace.prewarm([c432, c432], jobs=1)
        assert [spec.benchmark for spec in built] == ["c432"]
        # Subsequent lookups are cache hits (identity-stable results).
        first = protection("c432", tiny_config)
        assert protection("c432", tiny_config) is first
        assert workspace.prewarm([c432], jobs=1) == []

    def test_prewarm_parallel_matches_serial_artifacts(self, tiny_config):
        """Two missing benchmarks with jobs=2 exercises the real process
        pool: worker dispatch, ProtectionResult pickling across the process
        boundary, and lock-guarded cache publication."""
        workspace = default_workspace()
        workspace.clear()
        built = workspace.prewarm(
            [tiny_config.scenario("c432"), tiny_config.scenario("c880")], jobs=2
        )
        assert sorted(spec.benchmark for spec in built) == ["c432", "c880"]
        parallel_result = protection("c432", tiny_config)
        # A throwaway workspace neither reads nor pollutes the shared cache.
        serial_result = protection("c432", tiny_config, Workspace())
        assert parallel_result.summary() == serial_result.summary()
        assert protection("c880", tiny_config) is protection("c880", tiny_config)

    def test_pooled_run_all_renders_serial_tables(self, tiny_config):
        """``run_all(jobs > 1)`` prewarms the proposed builds in the pool
        first; the tables it renders equal the serial run's."""
        config = dataclasses.replace(tiny_config, iscas_benchmarks=("c432", "c880"))
        workspace = default_workspace()
        workspace.clear()
        pooled = run_all(config, only=["table4"], jobs=2)
        assert sorted(workspace.last_report.outcomes) == sorted(
            config.scenario(b).build_key() for b in config.iscas_benchmarks
        )
        workspace.clear()
        serial = run_all(config, only=["table4"], jobs=1)
        assert list(pooled) == list(serial) == ["table4"]
        assert _strip_timings(format_table(pooled["table4"])) == _strip_timings(
            format_table(serial["table4"])
        )


class TestPaperData:
    def test_table1_covers_suite(self):
        assert set(paper_data.PAPER_TABLE1) == {
            "superblue1", "superblue5", "superblue10", "superblue12", "superblue18",
        }

    def test_table4_proposed_is_zero_ccr(self):
        for values in paper_data.PAPER_TABLE4.values():
            assert values["proposed"][0] == 0.0

    def test_prior_art_ranking(self):
        ccr = paper_data.PAPER_PRIOR_ART_AVERAGE_CCR
        assert ccr["proposed"] < ccr["synergistic_feng"] < ccr["routing_perturbation_wang"]
        assert ccr["original"] == max(ccr.values())

    def test_headline_values(self):
        assert paper_data.PAPER_HEADLINE["ccr"] == 0.0
        assert paper_data.PAPER_HEADLINE["oer"] > 99.0
