"""Tests for repro.utils (seed derivation and table rendering)."""

import random

import pytest

from repro.utils.rng import derive_seed, make_rng
from repro.utils.tables import Table, format_table


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "placement") == derive_seed(1, "placement")

    def test_differs_by_base(self):
        assert derive_seed(1, "placement") != derive_seed(2, "placement")

    def test_differs_by_label(self):
        assert derive_seed(1, "placement") != derive_seed(1, "routing")

    def test_positive_63_bit(self):
        value = derive_seed("anything", "x", 42)
        assert 0 <= value < 2**63

    def test_string_and_int_bases(self):
        assert derive_seed("7") != derive_seed(7) or True  # both valid, no crash


class TestMakeRng:
    def test_returns_random_instance(self):
        assert isinstance(make_rng(3), random.Random)

    def test_deterministic_sequence(self):
        a = make_rng(5, "x").random()
        b = make_rng(5, "x").random()
        assert a == b

    def test_passthrough_existing_rng(self):
        rng = random.Random(1)
        assert make_rng(rng, "ignored") is rng

    def test_none_gives_nondeterministic_rng(self):
        assert isinstance(make_rng(None), random.Random)


class TestTable:
    def test_add_row_and_column(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(["x", 1])
        table.add_row(["y", 2])
        assert table.column("b") == [1, 2]

    def test_add_row_wrong_width(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])

    def test_to_dicts(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(["x", 1])
        assert table.to_dicts() == [{"a": "x", "b": 1}]

    def test_format_contains_values(self):
        table = Table(title="demo", columns=["name", "value"])
        table.add_row(["foo", 1.25])
        text = format_table(table)
        assert "demo" in text
        assert "foo" in text
        assert "1.25" in text

    def test_format_none_as_na(self):
        table = Table(title="", columns=["name", "value"])
        table.add_row(["foo", None])
        assert "N/A" in format_table(table)
