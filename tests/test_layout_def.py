"""Tests for the Layout container and DEF export / splitting."""

import re

import pytest

from repro.layout.def_io import DBU_PER_UM, export_def, split_def
from repro.layout.layout import build_layout
from repro.netlist.cells import NUM_METAL_LAYERS


def count_def_statements(def_text: str) -> dict:
    """Counts of components, pins, wires and vias in a DEF text."""
    return {
        "components": len(re.findall(r"\+ PLACED", def_text))
        - len(re.findall(r"\+ NET", def_text)),
        "pins": len(re.findall(r"\+ NET", def_text)),
        "wires": len(re.findall(r"\+ ROUTED metal(\d+)", def_text)),
        "vias": len(re.findall(r"\+ VIA via(\d+)_(\d+)", def_text)),
    }


class TestLayout:
    def test_stats(self, c432, c432_layout):
        stats = c432_layout.stats()
        assert stats["gates"] == c432.num_gates
        assert stats["total_wirelength_um"] > 0
        assert stats["total_vias"] > 0
        assert stats["protected_nets"] == 0

    def test_wirelength_by_layer_covers_total(self, c432_layout):
        by_layer = c432_layout.wirelength_by_layer()
        assert sum(by_layer.values()) == pytest.approx(c432_layout.total_wirelength_um())
        assert set(by_layer) == set(range(1, NUM_METAL_LAYERS + 1))

    def test_via_counts_cover_total(self, c432_layout):
        counts = c432_layout.via_counts()
        assert sum(counts.values()) == c432_layout.total_vias()
        assert all(lower + 1 == upper for (lower, upper) in counts)

    def test_original_layout_via_profile_decreases_upwards(self, c432_layout):
        counts = c432_layout.via_counts()
        assert counts[(1, 2)] > counts[(5, 6)]
        assert counts[(1, 2)] > counts[(8, 9)]

    def test_net_lengths_and_layers(self, c432_layout):
        lengths = c432_layout.net_lengths_um()
        layers = c432_layout.net_top_layers()
        assert set(lengths) == set(c432_layout.routing)
        assert all(layer >= 1 for layer in layers.values())

    def test_connected_gate_distances(self, c432_layout):
        distances = c432_layout.connected_gate_distances()
        assert distances
        assert all(d >= 0 for d in distances)
        subset_nets = set(list(c432_layout.routing)[:10])
        subset = c432_layout.connected_gate_distances(subset_nets)
        assert len(subset) <= len(distances)

    def test_gate_and_port_position_lookup(self, c432, c432_layout):
        gate = next(iter(c432.gates))
        assert c432_layout.gate_position(gate) is not None
        port = c432.primary_inputs[0]
        assert c432_layout.port_position(port) is not None

    def test_build_layout_name_default(self, c432):
        layout = build_layout(c432, seed=1)
        assert layout.name.endswith("_original")


class TestDefExport:
    def test_export_contains_sections(self, c432_layout):
        text = export_def(c432_layout)
        for keyword in ["DIEAREA", "COMPONENTS", "END COMPONENTS", "PINS",
                        "NETS", "END NETS", "END DESIGN"]:
            assert keyword in text

    def test_component_count_matches(self, c432, c432_layout):
        text = export_def(c432_layout)
        assert f"COMPONENTS {c432.num_gates} ;" in text

    def test_units_scaling(self, c432_layout):
        text = export_def(c432_layout)
        assert f"UNITS DISTANCE MICRONS {DBU_PER_UM} ;" in text

    def test_statement_counts(self, c432_layout):
        text = export_def(c432_layout)
        counts = count_def_statements(text)
        assert counts["wires"] > 0
        assert counts["vias"] == c432_layout.total_vias()

    def test_split_removes_beol(self, c432_layout):
        text = export_def(c432_layout)
        feol = split_def(text, split_layer=3)
        assert "metal4" not in feol
        assert "via4_5" not in feol
        assert "metal2" in feol
        # Components and pins are untouched by splitting.
        assert count_def_statements(feol)["pins"] == count_def_statements(text)["pins"]

    def test_split_is_monotone_in_layer(self, c432_layout):
        text = export_def(c432_layout)
        low = count_def_statements(split_def(text, 2))
        high = count_def_statements(split_def(text, 6))
        assert low["wires"] <= high["wires"]
        assert low["vias"] <= high["vias"]
