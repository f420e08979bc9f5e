"""ISCAS ``.bench`` format reader/writer.

The ISCAS-85 combinational benchmarks (c432 … c7552) used in the paper are
traditionally distributed in the ``.bench`` format::

    # c17
    INPUT(1)
    INPUT(2)
    ...
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)

This module parses that format into a :class:`~repro.netlist.netlist.Netlist`
mapped onto the Nangate45-like cell library, decomposing wide gates into
trees of the available 2–4-input cells, and can write a netlist back out as
``.bench`` (one generic gate per library gate).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.netlist.arrays import netlist_arrays
from repro.netlist.cells import CellLibrary, default_library
from repro.netlist.netlist import Netlist, NetlistError

_LINE_RE = re.compile(r"^\s*(?P<out>[\w\[\].$]+)\s*=\s*(?P<op>\w+)\s*\((?P<args>[^)]*)\)\s*$")
_PORT_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w\[\].$]+)\s*\)\s*$", re.IGNORECASE)


class BenchFormatError(ValueError):
    """Raised when a ``.bench`` description cannot be parsed or mapped."""


#: Generic operator → (library cell prefix, inverting?).  Width is appended.
_OP_FAMILIES = {
    "AND": "AND",
    "NAND": "NAND",
    "OR": "OR",
    "NOR": "NOR",
}

#: Maximum fan-in available in the library for each family.
_MAX_FANIN = {"AND": 4, "NAND": 4, "OR": 4, "NOR": 4}


def _sanitize(name: str) -> str:
    """Make a ``.bench`` signal name safe for use as a net/gate name."""
    return name.replace("[", "_").replace("]", "_").replace(".", "_")


def _cell_for(op: str, fanin: int) -> str:
    if op == "NOT":
        return "INV_X1"
    if op in ("BUF", "BUFF"):
        return "BUF_X1"
    if op == "XOR":
        if fanin != 2:
            raise BenchFormatError("only 2-input XOR is mapped directly")
        return "XOR2_X1"
    if op == "XNOR":
        if fanin != 2:
            raise BenchFormatError("only 2-input XNOR is mapped directly")
        return "XNOR2_X1"
    if op in _OP_FAMILIES:
        return f"{_OP_FAMILIES[op]}{fanin}_X1"
    raise BenchFormatError(f"unsupported bench operator {op!r}")


def _emit_gate(netlist: Netlist, name: str, cell: str, inputs: Sequence[str],
               output_net: str) -> None:
    cell_obj = netlist.library[cell]
    input_pin_names = [p.name for p in cell_obj.input_pins]
    if len(inputs) != len(input_pin_names):
        raise BenchFormatError(
            f"cell {cell} expects {len(input_pin_names)} inputs, got {len(inputs)}"
        )
    connections = dict(zip(input_pin_names, inputs))
    out_pin = cell_obj.output_pins[0].name
    connections[out_pin] = output_net
    netlist.add_gate(name, cell, connections)


def _decompose(netlist: Netlist, signal: str, op: str, args: List[str],
               counter: List[int]) -> None:
    """Map one generic bench gate onto library cells, splitting wide gates.

    Wide AND/OR gates become balanced trees of the widest available cell;
    wide NAND/NOR become an AND/OR tree followed by a final NAND/NOR stage;
    wide XOR/XNOR become 2-input chains.  The final stage always drives the
    net named ``signal``.
    """
    fanin = len(args)
    if op in ("NOT", "BUF", "BUFF"):
        if fanin != 1:
            raise BenchFormatError(f"{op} expects 1 input, got {fanin}")
        _emit_gate(netlist, f"g_{signal}", _cell_for(op, 1), args, signal)
        return
    if op in ("XOR", "XNOR") and fanin > 2:
        # Chain: intermediate XORs, final stage carries the (X)NOR polarity.
        current = args[0]
        for i, nxt in enumerate(args[1:-1]):
            counter[0] += 1
            tmp = f"{signal}__x{counter[0]}"
            _emit_gate(netlist, f"g_{tmp}", "XOR2_X1", [current, nxt], tmp)
            current = tmp
        final_cell = "XOR2_X1" if op == "XOR" else "XNOR2_X1"
        _emit_gate(netlist, f"g_{signal}", final_cell, [current, args[-1]], signal)
        return
    if op in ("XOR", "XNOR"):
        if fanin != 2:
            raise BenchFormatError(f"{op} expects >=2 inputs")
        _emit_gate(netlist, f"g_{signal}", _cell_for(op, 2), args, signal)
        return
    if op not in _OP_FAMILIES:
        raise BenchFormatError(f"unsupported bench operator {op!r}")
    if fanin == 1:
        # Degenerate 1-input AND/OR is a buffer; NAND/NOR is an inverter.
        cell = "BUF_X1" if op in ("AND", "OR") else "INV_X1"
        _emit_gate(netlist, f"g_{signal}", cell, args, signal)
        return
    max_width = _MAX_FANIN[op]
    if fanin <= max_width:
        _emit_gate(netlist, f"g_{signal}", _cell_for(op, fanin), args, signal)
        return
    # Wide gate: reduce with the non-inverting family, final stage keeps polarity.
    base_family = "AND" if op in ("AND", "NAND") else "OR"
    work = list(args)
    while len(work) > max_width:
        group, work = work[:max_width], work[max_width:]
        counter[0] += 1
        tmp = f"{signal}__t{counter[0]}"
        _emit_gate(netlist, f"g_{tmp}", f"{base_family}{len(group)}_X1", group, tmp)
        work.append(tmp)
    _emit_gate(netlist, f"g_{signal}", _cell_for(op, len(work)), work, signal)


def parse_bench(text: str, name: str = "bench",
                library: Optional[CellLibrary] = None) -> Netlist:
    """Parse a ``.bench`` description into a :class:`Netlist`.

    Args:
        text: Contents of the ``.bench`` file.
        name: Name for the resulting netlist.
        library: Cell library to map onto (default Nangate45-like).
    """
    netlist = Netlist(name, library if library is not None else default_library())
    outputs: List[str] = []
    assignments: List[Tuple[str, str, List[str]]] = []

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        port_match = _PORT_RE.match(line)
        if port_match:
            kind, signal = port_match.group(1).upper(), _sanitize(port_match.group(2))
            if kind == "INPUT":
                netlist.add_primary_input(signal)
            else:
                outputs.append(signal)
            continue
        gate_match = _LINE_RE.match(line)
        if gate_match:
            signal = _sanitize(gate_match.group("out"))
            op = gate_match.group("op").upper()
            args = [_sanitize(a.strip()) for a in gate_match.group("args").split(",") if a.strip()]
            assignments.append((signal, op, args))
            continue
        raise BenchFormatError(f"cannot parse bench line: {raw_line!r}")

    counter = [0]
    for signal, op, args in assignments:
        if op == "DFF":
            if len(args) != 1:
                raise BenchFormatError("DFF expects exactly one input")
            netlist.add_gate(f"g_{signal}", "DFF_X1", {"D": args[0], "Q": signal})
            continue
        _decompose(netlist, signal, op, args, counter)

    for signal in outputs:
        netlist.add_primary_output(signal, signal)

    problems = netlist.validate()
    if problems:
        raise BenchFormatError(
            f"parsed bench netlist is inconsistent: {problems[:3]}"
        )
    return netlist


#: Library cell → generic bench operator used by :func:`write_bench`.
_CELL_TO_OP = {
    "INV": "NOT",
    "BUF": "BUFF",
    "NAND": "NAND",
    "NOR": "NOR",
    "AND": "AND",
    "OR": "OR",
    "XOR": "XOR",
    "XNOR": "XNOR",
    "DFF": "DFF",
}


def _op_for_cell(cell_name: str) -> str:
    for prefix, op in _CELL_TO_OP.items():
        if cell_name.startswith(prefix) and not cell_name.startswith("BUFX"):
            return op
    raise BenchFormatError(f"cell {cell_name!r} has no bench equivalent")


def write_bench(netlist: Netlist) -> str:
    """Serialize ``netlist`` back to ``.bench`` text.

    Only netlists made of simple mapped cells (INV/BUF/AND/OR/NAND/NOR/XOR/
    XNOR/DFF) can be written; complex cells (AOI/OAI/MUX, correction cells)
    raise :class:`BenchFormatError`.
    """
    arrays = netlist_arrays(netlist)
    names = arrays.net_names
    fanin_start, fanin_net, fanout_start, fanout_net = (
        column.tolist() for column in (arrays.fanin_start, arrays.fanin_net,
                                       arrays.fanout_start, arrays.fanout_net))
    lines = [f"# {netlist.name} (generated by repro)"]
    for pi in netlist.primary_inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.primary_outputs:
        lines.append(f"OUTPUT({netlist.output_nets[po]})")
    lines.append("")
    for gate, cell in enumerate(arrays.gate_cell.tolist()):
        table = arrays.cells[cell]
        op = _op_for_cell(table.cell.name)
        out_net = fanout_net[fanout_start[gate]]
        in_nets = fanin_net[fanin_start[gate]:fanin_start[gate + 1]]
        if op == "DFF":
            d = table.input_position.get("D")
            in_nets = [] if d is None else [in_nets[d]]
        in_names = [names[net] for net in in_nets if net >= 0]
        lines.append(f"{names[out_net] if out_net >= 0 else None} = "
                     f"{op}({', '.join(n for n in in_names if n)})")
    return "\n".join(lines) + "\n"
