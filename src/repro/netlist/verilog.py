"""Structural-Verilog reader/writer for mapped netlists.

The paper exports its protected designs as DEF/Verilog from Cadence Innovus.
This module supports the matching round trip for this reproduction: a flat,
structural Verilog subset in which every instance is a library cell with
named pin connections::

    module c432 (N1, N4, ..., N421);
      input N1;
      output N421;
      wire n_12;
      NAND2_X1 g_10 (.A1(N1), .A2(N4), .ZN(n_12));
    endmodule

Only this subset is supported — no behavioural constructs, no busses beyond
simple escaped names, one module per file — which matches what a mapped
physical-design netlist looks like.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.netlist.arrays import netlist_arrays
from repro.netlist.cells import CellLibrary, default_library
from repro.netlist.netlist import Netlist

_MODULE_RE = re.compile(r"module\s+(?P<name>[\w$]+)\s*\((?P<ports>.*?)\)\s*;", re.S)
_DECL_RE = re.compile(r"^(input|output|wire)\s+(.+)$")
_INSTANCE_RE = re.compile(
    r"^(?P<cell>[\w$]+)\s+(?P<inst>[\w$\[\]]+)\s*\((?P<conns>.*)\)$", re.S
)
_PIN_RE = re.compile(r"\.(?P<pin>[\w$]+)\s*\(\s*(?P<net>[\w$\[\]]*)\s*\)")


class VerilogFormatError(ValueError):
    """Raised when a Verilog description falls outside the supported subset."""


def _strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return text


def _split_names(decl: str) -> List[str]:
    return [name.strip() for name in decl.split(",") if name.strip()]


def parse_structural_verilog(text: str, library: Optional[CellLibrary] = None) -> Netlist:
    """Parse flat structural Verilog into a :class:`Netlist`."""
    library = library if library is not None else default_library()
    text = _strip_comments(text)
    module_match = _MODULE_RE.search(text)
    if not module_match:
        raise VerilogFormatError("no module declaration found")
    netlist = Netlist(module_match.group("name"), library)
    body = text[module_match.end():]
    end = body.find("endmodule")
    if end < 0:
        raise VerilogFormatError("missing endmodule")
    body = body[:end]

    outputs: List[str] = []
    assigns: List[Tuple[str, str]] = []
    statements = [s.strip() for s in body.split(";") if s.strip()]
    for statement in statements:
        decl_match = _DECL_RE.match(statement.replace("\n", " ").strip())
        if decl_match:
            kind, names = decl_match.group(1), _split_names(decl_match.group(2))
            if kind == "input":
                for name in names:
                    netlist.add_primary_input(name)
            elif kind == "output":
                outputs.extend(names)
            else:  # wire declarations are implicit in our model
                for name in names:
                    netlist.get_or_add_net(name)
            continue
        assign_match = re.match(r"^assign\s+([\w$\[\]]+)\s*=\s*([\w$\[\]]+)$",
                                statement.replace("\n", " ").strip())
        if assign_match:
            # Output-port aliases emitted by the writer: `assign po = net;`.
            assigns.append((assign_match.group(1), assign_match.group(2)))
            continue
        inst_match = _INSTANCE_RE.match(statement.replace("\n", " ").strip())
        if inst_match:
            cell_name = inst_match.group("cell")
            inst_name = inst_match.group("inst")
            if cell_name not in library:
                raise VerilogFormatError(f"unknown cell {cell_name!r}")
            connections: Dict[str, str] = {}
            for pin_match in _PIN_RE.finditer(inst_match.group("conns")):
                net = pin_match.group("net")
                if net:
                    connections[pin_match.group("pin")] = net
            netlist.add_gate(inst_name, cell_name, connections)
            continue
        raise VerilogFormatError(f"unsupported statement: {statement[:80]!r}")

    alias = dict(assigns)
    for po in outputs:
        netlist.add_primary_output(po, alias.get(po, po))
    problems = netlist.validate()
    if problems:
        raise VerilogFormatError(f"parsed netlist is inconsistent: {problems[:3]}")
    return netlist


def write_structural_verilog(netlist: Netlist) -> str:
    """Serialize ``netlist`` as flat structural Verilog."""
    ports = netlist.primary_inputs + netlist.primary_outputs
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    if netlist.primary_inputs:
        lines.append(f"  input {', '.join(netlist.primary_inputs)};")
    if netlist.primary_outputs:
        lines.append(f"  output {', '.join(netlist.primary_outputs)};")
    arrays = netlist_arrays(netlist)
    names = arrays.net_names
    port_names = set(ports)
    internal = sorted(name for name in names if name not in port_names)
    for chunk_start in range(0, len(internal), 10):
        chunk = internal[chunk_start:chunk_start + 10]
        lines.append(f"  wire {', '.join(chunk)};")
    # Primary outputs fed by differently named nets need an explicit wire+assign;
    # our writer instead requires output net name == port name, which holds for
    # all netlists produced inside this library.
    for po in netlist.primary_outputs:
        if netlist.output_nets[po] != po:
            lines.append(f"  assign {po} = {netlist.output_nets[po]};")
    pin_nets = {False: (arrays.fanin_start.tolist(), arrays.fanin_net.tolist()),
                True: (arrays.fanout_start.tolist(), arrays.fanout_net.tolist())}
    for gate, (name, cell) in enumerate(zip(arrays.gate_names,
                                            arrays.gate_cell.tolist())):
        table = arrays.cells[cell]
        conns = []
        for pin, output, position in table.by_name:  # pins sorted by name
            starts, nets = pin_nets[output]
            net = nets[starts[gate] + position]
            if net >= 0:
                conns.append(f".{pin}({names[net]})")
        lines.append(f"  {table.cell.name} {name} ({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
