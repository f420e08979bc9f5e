"""Gate-level netlist substrate.

This package provides everything the protection scheme and the attacks need
from a logic-design point of view:

* :mod:`repro.netlist.cells` — a standard-cell library modelled on the
  Nangate FreePDK45 Open Cell Library (area, pin capacitance, drive
  resistance, intrinsic delay, leakage) plus the paper's custom *correction*
  and *naive-lifting* cells;
* :mod:`repro.netlist.netlist` — the :class:`Netlist` data model (integer
  connectivity columns with driver/sink editing) and its read API: the
  :class:`Gate` / :class:`Net` objects ``netlist.gates`` / ``netlist.nets``
  build per lookup.  It is the only module that builds them;
* :mod:`repro.netlist.arrays` — the netlist's integer view
  (:func:`~repro.netlist.arrays.netlist_arrays`) with its orderings and
  loop checks, which every other reader uses;
* :mod:`repro.netlist.graph` — the transitive closure behind the attack's
  loop-avoidance hint, and :class:`CombinationalLoopError`;
* :mod:`repro.netlist.simulate` — bit-parallel logic simulation used for the
  OER and Hamming-distance security metrics;
* :mod:`repro.netlist.bench_format` / :mod:`repro.netlist.verilog` — ISCAS
  ``.bench`` and structural-Verilog readers/writers;
* :mod:`repro.netlist.equivalence` — simulation-based functional-equivalence
  checking (stand-in for Synopsys Formality in the paper's flow).
"""

from repro.netlist.cells import Cell, CellLibrary, CellPin, nangate45_library
from repro.netlist.netlist import Gate, Net, Netlist, PortDirection
from repro.netlist.graph import CombinationalLoopError
from repro.netlist.simulate import SimulationResult, hamming_distance, output_error_rate, simulate
from repro.netlist.equivalence import check_equivalence
from repro.netlist.bench_format import parse_bench, write_bench
from repro.netlist.verilog import parse_structural_verilog, write_structural_verilog

__all__ = [
    "Cell",
    "CellLibrary",
    "CellPin",
    "nangate45_library",
    "Gate",
    "Net",
    "Netlist",
    "PortDirection",
    "CombinationalLoopError",
    "SimulationResult",
    "hamming_distance",
    "output_error_rate",
    "simulate",
    "check_equivalence",
    "parse_bench",
    "write_bench",
    "parse_structural_verilog",
    "write_structural_verilog",
]
