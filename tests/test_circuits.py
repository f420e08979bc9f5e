"""Tests for the benchmark generators and registry."""

import pytest

from repro.circuits.iscas85 import ISCAS85_PROFILES, c17_netlist, iscas85_netlist
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.circuits.registry import available_benchmarks, get_benchmark
from repro.circuits.superblue import SUPERBLUE_PROFILES, superblue_netlist
from repro.netlist.graph import has_combinational_loop
from repro.netlist.verilog import write_structural_verilog


class TestRandomLogic:
    def test_basic_generation(self):
        spec = RandomLogicSpec(name="t", num_gates=50, num_inputs=8, num_outputs=4, seed=3)
        netlist = generate_random_logic(spec)
        assert netlist.num_gates == 50
        assert len(netlist.primary_inputs) == 8
        assert len(netlist.primary_outputs) == 4
        assert netlist.validate() == []
        assert not has_combinational_loop(netlist)

    def test_deterministic(self):
        spec = RandomLogicSpec(name="t", num_gates=40, num_inputs=6, num_outputs=3, seed=9)
        a = generate_random_logic(spec)
        b = generate_random_logic(spec)
        assert write_structural_verilog(a) == write_structural_verilog(b)

    def test_seed_changes_result(self):
        a = generate_random_logic(
            RandomLogicSpec(name="t", num_gates=40, num_inputs=6, num_outputs=3, seed=1))
        b = generate_random_logic(
            RandomLogicSpec(name="t", num_gates=40, num_inputs=6, num_outputs=3, seed=2))
        assert write_structural_verilog(a) != write_structural_verilog(b)

    def test_sequential_fraction(self):
        spec = RandomLogicSpec(name="seq", num_gates=200, num_inputs=8, num_outputs=4,
                               seed=1, sequential_fraction=0.2)
        netlist = generate_random_logic(spec)
        flops = sum(1 for g in netlist.gates.values() if g.cell.is_sequential)
        assert 0.1 * 200 < flops < 0.35 * 200
        assert "clk" in netlist.primary_inputs

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            RandomLogicSpec(name="t", num_gates=0, num_inputs=1, num_outputs=1)
        with pytest.raises(ValueError):
            RandomLogicSpec(name="t", num_gates=1, num_inputs=0, num_outputs=1)
        with pytest.raises(ValueError):
            RandomLogicSpec(name="t", num_gates=1, num_inputs=1, num_outputs=1,
                            locality_window=0)
        with pytest.raises(ValueError):
            RandomLogicSpec(name="t", num_gates=1, num_inputs=1, num_outputs=1,
                            global_net_fraction=1.5)
        with pytest.raises(ValueError, match="cell_mix"):
            RandomLogicSpec(name="t", num_gates=1, num_inputs=1, num_outputs=1,
                            cell_mix=(("INV_X1", 0.0),))

    def test_outputs_are_driven(self):
        spec = RandomLogicSpec(name="t", num_gates=30, num_inputs=4, num_outputs=6, seed=5)
        netlist = generate_random_logic(spec)
        for po in netlist.primary_outputs:
            net = netlist.nets[netlist.output_nets[po]]
            assert net.has_driver()


class TestISCAS85:
    def test_profiles_cover_paper_set(self):
        for name in ["c432", "c880", "c1355", "c1908", "c2670",
                     "c3540", "c5315", "c6288", "c7552"]:
            assert name in ISCAS85_PROFILES

    @pytest.mark.parametrize("name", ["c432", "c880", "c1355"])
    def test_matches_published_statistics(self, name):
        profile = ISCAS85_PROFILES[name]
        netlist = iscas85_netlist(name)
        assert netlist.num_gates == profile.num_gates
        assert len(netlist.primary_inputs) == profile.num_inputs
        assert len(netlist.primary_outputs) == profile.num_outputs
        assert not has_combinational_loop(netlist)

    def test_c17_is_real(self):
        c17 = c17_netlist()
        assert c17.num_gates == 6
        assert all(g.cell.name == "NAND2_X1" for g in c17.gates.values())

    def test_deterministic_per_name(self):
        assert (write_structural_verilog(iscas85_netlist("c432"))
                == write_structural_verilog(iscas85_netlist("c432")))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            iscas85_netlist("c9999")


class TestSuperblue:
    def test_profiles_cover_paper_set(self):
        for name in ["superblue1", "superblue5", "superblue10",
                     "superblue12", "superblue18"]:
            assert name in SUPERBLUE_PROFILES

    def test_scaling(self):
        small = superblue_netlist("superblue18", scale=0.002)
        large = superblue_netlist("superblue18", scale=0.004)
        assert large.num_gates > small.num_gates
        profile = SUPERBLUE_PROFILES["superblue18"]
        assert small.num_gates == pytest.approx(profile.num_nets * 0.002, rel=0.05)

    def test_relative_size_ordering_preserved(self):
        sizes = {
            name: superblue_netlist(name, scale=0.002).num_gates
            for name in ["superblue12", "superblue18"]
        }
        assert sizes["superblue12"] > sizes["superblue18"]

    def test_contains_flip_flops(self):
        netlist = superblue_netlist("superblue5", scale=0.002)
        assert any(g.cell.is_sequential for g in netlist.gates.values())

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            superblue_netlist("superblue1", scale=0.0)


class TestRegistry:
    def test_available_contains_everything(self):
        names = available_benchmarks()
        assert "c17" in names
        assert "c7552" in names
        assert "superblue10" in names

    def test_get_benchmark_dispatch(self):
        assert get_benchmark("c17").num_gates == 6
        assert get_benchmark("c432").num_gates == ISCAS85_PROFILES["c432"].num_gates
        assert get_benchmark("superblue18", scale=0.002).num_gates > 1000

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("not_a_benchmark")
