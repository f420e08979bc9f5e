"""Tests for .bench and structural-Verilog I/O."""

import re

import pytest

from netlist_oracle import (
    export_def_reference,
    write_bench_reference,
    write_structural_verilog_reference,
)
from repro.circuits import c17_netlist
from repro.circuits.registry import get_benchmark
from repro.layout.def_io import export_def
from repro.layout.layout import build_layout
from repro.netlist.bench_format import BenchFormatError, parse_bench, write_bench
from repro.netlist.equivalence import check_equivalence
from repro.netlist.verilog import (
    VerilogFormatError,
    parse_structural_verilog,
    write_structural_verilog,
)


class TestBenchFormat:
    def test_parse_c17(self):
        netlist = c17_netlist()
        assert netlist.num_gates == 6
        assert len(netlist.primary_inputs) == 5
        assert len(netlist.primary_outputs) == 2

    def test_roundtrip_preserves_function(self):
        original = c17_netlist()
        text = write_bench(original)
        reparsed = parse_bench(text, name="c17")
        assert check_equivalence(original, reparsed).equivalent

    def test_wide_gate_decomposition(self):
        text = """
        INPUT(a)
        INPUT(b)
        INPUT(c)
        INPUT(d)
        INPUT(e)
        INPUT(f)
        OUTPUT(y)
        y = AND(a, b, c, d, e, f)
        """
        netlist = parse_bench(text, name="wide")
        assert netlist.validate() == []
        # 6-input AND must be split into a tree of <=4-input cells.
        assert netlist.num_gates >= 2

    def test_xor_chain(self):
        text = """
        INPUT(a)
        INPUT(b)
        INPUT(c)
        OUTPUT(y)
        y = XOR(a, b, c)
        """
        netlist = parse_bench(text, name="xor3")
        assert netlist.validate() == []
        assert netlist.num_gates == 2

    def test_not_and_buf(self):
        text = """
        INPUT(a)
        OUTPUT(y)
        OUTPUT(z)
        y = NOT(a)
        z = BUFF(a)
        """
        netlist = parse_bench(text, name="nb")
        cells = sorted(g.cell.name for g in netlist.gates.values())
        assert cells == ["BUF_X1", "INV_X1"]

    def test_dff_supported(self):
        text = """
        INPUT(a)
        OUTPUT(q)
        q = DFF(a)
        """
        netlist = parse_bench(text, name="ff")
        assert any(g.cell.is_sequential for g in netlist.gates.values())

    def test_unknown_operator_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(BenchFormatError):
            parse_bench("INPUT(a)\nthis is not bench\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)  # trailing\n"
        netlist = parse_bench(text, name="c")
        assert netlist.num_gates == 1


class TestVerilog:
    def test_roundtrip_c17(self):
        original = c17_netlist()
        text = write_structural_verilog(original)
        reparsed = parse_structural_verilog(text)
        assert reparsed.num_gates == original.num_gates
        assert check_equivalence(original, reparsed).equivalent

    def test_roundtrip_benchmark_counts(self, c432):
        text = write_structural_verilog(c432)
        reparsed = parse_structural_verilog(text)
        assert reparsed.num_gates == c432.num_gates
        assert sorted(reparsed.primary_inputs) == sorted(c432.primary_inputs)
        assert sorted(reparsed.primary_outputs) == sorted(c432.primary_outputs)

    def test_written_text_mentions_module(self, c432):
        text = write_structural_verilog(c432)
        assert text.startswith(f"module {c432.name}")
        assert "endmodule" in text

    def test_missing_module_rejected(self):
        with pytest.raises(VerilogFormatError):
            parse_structural_verilog("wire x;")

    def test_unknown_cell_rejected(self):
        text = "module m (a);\n  input a;\n  FOO_X1 u1 (.A(a));\nendmodule\n"
        with pytest.raises(VerilogFormatError):
            parse_structural_verilog(text)

    def test_comments_stripped(self):
        text = (
            "// leading comment\nmodule m (a, y);\n  input a;\n  output y;\n"
            "  /* block */ INV_X1 u1 (.A(a), .ZN(y));\nendmodule\n"
        )
        netlist = parse_structural_verilog(text)
        assert netlist.num_gates == 1


def _edited(make):
    """A netlist edited through every path that reorders or flags pins: a
    moved sink, a gate's inputs reconnected out of pin order with one left
    unconnected, a retargeted output and a ``dont_touch`` mark."""
    def edited():
        netlist = make()
        names = list(netlist.gates)
        gate = netlist.gates[names[1]]
        netlist.move_sink(gate.name, gate.input_pin_names[0],
                          netlist.gate_output_net(names[-1]))
        gate = next(g for g in netlist.gates.values() if len(g.input_pin_names) > 1)
        nets = {pin: gate.net_on(pin) for pin in gate.input_pin_names}
        for pin in nets:
            netlist.disconnect_pin(gate.name, pin)
        for pin in reversed(gate.input_pin_names[1:]):
            netlist.connect_pin(gate.name, pin, nets[pin])
        netlist.retarget_primary_output(netlist.primary_outputs[0],
                                        netlist.primary_inputs[0])
        netlist.set_dont_touch(names[0])
        return netlist
    return edited


def _sequential():
    return parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nOUTPUT(y)\n"
                       "d = NAND(a, q)\nq = DFF(d)\ny = XOR(q, b)\n", name="seq")


WRITER_CASES = [
    pytest.param(lambda: c17_netlist(), id="c17"),
    pytest.param(lambda: get_benchmark("c432", seed=1), id="c432"),
    pytest.param(lambda: get_benchmark("c880", seed=1), id="c880"),
    pytest.param(lambda: get_benchmark("superblue18", seed=1, scale=0.001), id="sb18-0.001"),
    pytest.param(_edited(lambda: get_benchmark("c432", seed=1)), id="c432-edited"),
    pytest.param(_edited(c17_netlist), id="c17-edited"),
    pytest.param(_sequential, id="bench-dff"),
]


@pytest.mark.parametrize("make", WRITER_CASES)
def test_writers_equal_the_by_name_renderings(make):
    """The column writers print byte for byte what the by-name walks print;
    ``write_bench`` refuses the same complex cell with the same message."""
    netlist = make()
    try:
        expected = write_bench_reference(netlist)
    except BenchFormatError as error:
        with pytest.raises(BenchFormatError, match=re.escape(str(error))):
            write_bench(netlist)
    else:
        assert write_bench(netlist) == expected
    assert write_structural_verilog(netlist) == write_structural_verilog_reference(netlist)
    layout = build_layout(netlist, seed=2)
    assert export_def(layout) == export_def_reference(layout)
