"""Simplified DEF-like export and FEOL/BEOL splitting.

The paper releases its protected layouts as DEF files together with a "DEF
splitting and conversion script" that removes all wiring above the split
layer before handing the layout to an attacker.  This module provides the
equivalent for this reproduction:

* :func:`export_def` — serialize a :class:`~repro.layout.layout.Layout` into
  a compact, DEF-flavoured text format (DIEAREA / COMPONENTS / PINS / NETS
  with per-layer routing points).  The dialect is intentionally small but
  contains everything an attacker (or a metrics script) needs.
* :func:`split_def` — filter an exported DEF text to the FEOL portion only
  (segments and vias at or below the split layer), which is exactly what a
  malicious FEOL foundry would possess.

Coordinates are written in DEF database units (1000 per µm).
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.layout.layout import Layout
from repro.netlist.arrays import netlist_arrays

#: DEF database units per micrometre.
DBU_PER_UM = 1000


def _dbu(value_um: float) -> int:
    return int(round(value_um * DBU_PER_UM))


def export_def(layout: Layout) -> str:
    """Serialize ``layout`` as DEF-like text."""
    fp = layout.floorplan
    lines: List[str] = []
    lines.append(f"VERSION 5.8 ;")
    lines.append(f"DESIGN {layout.netlist.name} ;")
    lines.append(f"UNITS DISTANCE MICRONS {DBU_PER_UM} ;")
    lines.append(
        "DIEAREA ( {} {} ) ( {} {} ) ;".format(
            _dbu(fp.die.x_min), _dbu(fp.die.y_min), _dbu(fp.die.x_max), _dbu(fp.die.y_max)
        )
    )

    arrays = netlist_arrays(layout.netlist)
    cell_names = [table.cell.name for table in arrays.cells]
    components = layout.placement.gate_positions
    lines.append(f"COMPONENTS {len(components)} ;")
    for gate_name, pos in components.items():
        cell = cell_names[arrays.gate_cell[arrays.gate_id[gate_name]]]
        lines.append(
            f"- {gate_name} {cell} + PLACED ( {_dbu(pos.x)} {_dbu(pos.y)} ) N ;"
        )
    lines.append("END COMPONENTS")

    ports = layout.placement.port_positions
    lines.append(f"PINS {len(ports)} ;")
    for port_name, pos in ports.items():
        direction = "INPUT" if port_name in layout.netlist.primary_inputs else "OUTPUT"
        lines.append(
            f"- {port_name} + NET {port_name} + DIRECTION {direction} "
            f"+ PLACED ( {_dbu(pos.x)} {_dbu(pos.y)} ) N ;"
        )
    lines.append("END PINS")

    lines.append(f"NETS {len(layout.routing)} ;")
    for net_name, routed in layout.routing.items():
        lines.append(f"- {net_name}")
        for segment in routed.all_segments():
            lines.append(
                f"  + ROUTED metal{segment.layer} "
                f"( {_dbu(segment.x1)} {_dbu(segment.y1)} ) "
                f"( {_dbu(segment.x2)} {_dbu(segment.y2)} )"
            )
        for via in routed.all_vias():
            lines.append(
                f"  + VIA via{via.lower}_{via.upper} ( {_dbu(via.x)} {_dbu(via.y)} )"
            )
        lines.append("  ;")
    lines.append("END NETS")
    lines.append("END DESIGN")
    return "\n".join(lines) + "\n"


_ROUTED_RE = re.compile(r"\+ ROUTED metal(\d+)")
_VIA_RE = re.compile(r"\+ VIA via(\d+)_(\d+)")


def split_def(def_text: str, split_layer: int) -> str:
    """Return the FEOL-only portion of ``def_text``.

    Wiring strictly above ``split_layer`` and vias whose upper layer exceeds
    ``split_layer`` are removed — this is the view available to the untrusted
    FEOL foundry.  Everything else (components, pins, FEOL wires) is kept
    verbatim.
    """
    kept: List[str] = []
    for line in def_text.splitlines():
        routed = _ROUTED_RE.search(line)
        if routed and int(routed.group(1)) > split_layer:
            continue
        via = _VIA_RE.search(line)
        if via and int(via.group(2)) > split_layer:
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"

