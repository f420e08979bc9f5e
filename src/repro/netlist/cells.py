"""Standard-cell library modelled on the Nangate FreePDK45 Open Cell Library.

The paper implements its flow on top of the Nangate 45 nm library with ten
metal layers.  The actual Liberty/LEF files are not redistributable here, so
this module provides a compact re-implementation carrying the quantities the
rest of the library needs:

* **logic function** — evaluated bit-parallel by :mod:`repro.netlist.simulate`;
* **area** (µm²) and **cell dimensions** (µm) — used by the placer, the
  legalizer and the area metric;
* **input pin capacitance** (fF) — used by the power model and by the
  load-capacitance hint of the network-flow attack;
* **drive resistance** (kΩ), **intrinsic delay** (ps) and **maximum load**
  (fF) — used by the Elmore-delay static timing analysis;
* **leakage power** (nW) and **internal switching energy** (fJ per toggle) —
  used by the power model.

Numbers are representative of the Nangate FreePDK45 typical corner; they are
not copies of the vendor data but are in the same range so that relative PPA
comparisons behave like the paper's.

Two *custom* cells from the paper are also defined here:

* ``CORRECTION`` — the 2-input/2-output correction cell (inputs ``C``/``D``,
  outputs ``Y``/``Z``) whose pins live in a high metal layer (M6 or M8) and
  which is allowed to overlap standard cells because it occupies no device
  area;
* ``LIFT`` — the naive-lifting cell used for the paper's baseline, again a
  BEOL-only cell.

Both use the electrical characteristics of ``BUFX2`` as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# Nangate45-like geometry: standard-cell row height and placement site width.
ROW_HEIGHT_UM = 1.4
SITE_WIDTH_UM = 0.19

# Number of metal layers in the stack used throughout the reproduction.
NUM_METAL_LAYERS = 10


class CellFunctionError(ValueError):
    """Raised when a cell's logic function cannot be evaluated."""


@dataclass(frozen=True)
class CellPin:
    """A pin of a library cell.

    Attributes:
        name: Pin name, e.g. ``"A1"`` or ``"ZN"``.
        direction: ``"input"`` or ``"output"``.
        capacitance_ff: Input capacitance in femtofarads (0 for outputs).
        layer: Metal layer the physical pin shape sits on (1 == M1).  Standard
            cells keep their pins in M1; correction/lifting cells expose their
            pins in M6 or M8 as the paper requires.
    """

    name: str
    direction: str
    capacitance_ff: float = 0.0
    layer: int = 1

    def is_input(self) -> bool:
        return self.direction == "input"

    def is_output(self) -> bool:
        return self.direction == "output"


@dataclass(frozen=True)
class Cell:
    """A standard-cell (or custom BEOL cell) master.

    Attributes:
        name: Library cell name, e.g. ``"NAND2_X1"``.
        pins: Tuple of :class:`CellPin`.
        function: Callable evaluating the cell output(s) bit-parallel.  It
            receives a mapping from input pin name to integer bit-vector plus
            the bit mask, and returns a mapping from output pin name to
            integer bit-vector.
        area_um2: Cell area in µm².
        width_um / height_um: Footprint used by placement and legalization.
        drive_resistance_kohm: Output drive resistance (kΩ) for Elmore delay.
        intrinsic_delay_ps: Intrinsic (load-independent) delay in ps.
        max_load_ff: Maximum capacitive load the output can drive.
        leakage_nw: Leakage power in nW.
        switch_energy_fj: Internal energy per output toggle in fJ.
        is_sequential: True for flip-flops/latches.
        beol_only: True for correction/lifting cells which occupy no FEOL
            resources and may overlap standard cells.
        logic_ops: Structured description of the logic function as a tuple of
            arcs ``(output_pin, op_kind, input_pins)``; the simulation engine
            (:mod:`repro.netlist.engine`) compiles these into its bigint
            program.  ``None`` means the cell can only be evaluated through
            ``function``: a netlist with such a combinational cell makes
            :func:`~repro.netlist.simulate.simulate` and the metrics built on
            it raise :class:`~repro.netlist.engine.UnsupportedNetlist`.
    """

    name: str
    pins: Tuple[CellPin, ...]
    function: Optional[Callable[[Mapping[str, int], int], Mapping[str, int]]]
    area_um2: float
    width_um: float
    height_um: float = ROW_HEIGHT_UM
    drive_resistance_kohm: float = 1.0
    intrinsic_delay_ps: float = 20.0
    max_load_ff: float = 60.0
    leakage_nw: float = 10.0
    switch_energy_fj: float = 1.0
    is_sequential: bool = False
    beol_only: bool = False
    logic_ops: Optional[Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = None

    @property
    def input_pins(self) -> List[CellPin]:
        return [p for p in self.pins if p.is_input()]

    @property
    def output_pins(self) -> List[CellPin]:
        return [p for p in self.pins if p.is_output()]

    @property
    def input_capacitance_ff(self) -> float:
        """Total input capacitance (used as a coarse fan-in load figure)."""
        return sum(p.capacitance_ff for p in self.input_pins)

    def pin(self, name: str) -> CellPin:
        for p in self.pins:
            if p.name == name:
                return p
        raise KeyError(f"cell {self.name} has no pin {name!r}")

    def evaluate(self, inputs: Mapping[str, int], mask: int) -> Mapping[str, int]:
        """Evaluate the cell function bit-parallel.

        Args:
            inputs: Mapping of input pin name to integer bit-vector.
            mask: Bit mask of width equal to the number of simulated patterns.
        """
        if self.function is None:
            raise CellFunctionError(f"cell {self.name} has no logic function")
        missing = [p.name for p in self.input_pins if p.name not in inputs]
        if missing:
            raise CellFunctionError(
                f"cell {self.name}: missing input values for pins {missing}"
            )
        return self.function(inputs, mask)


class CellLibrary:
    """A collection of :class:`Cell` masters indexed by name."""

    def __init__(self, name: str, cells: Iterable[Cell]):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: Cell) -> None:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name!r} in library {self.name!r}")
        self._cells[cell.name] = cell

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, name: str, default: Optional[Cell] = None) -> Optional[Cell]:
        return self._cells.get(name, default)

    def names(self) -> List[str]:
        return sorted(self._cells)

    def combinational_cells(self) -> List[Cell]:
        return [c for c in self._cells.values() if not c.is_sequential and not c.beol_only]


# ---------------------------------------------------------------------------
# Logic-function helpers (bit-parallel over Python big integers)
#
# The n-ary functions are frozen-dataclass callables rather than closures so
# that cells (and hence netlists, layouts and whole protection artefacts) can
# be pickled across process boundaries by the parallel experiment runner.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaryLogicFn:
    """Picklable bit-parallel AND/NAND/OR/NOR over a fixed input-pin tuple."""

    kind: str  # "AND" | "NAND" | "OR" | "NOR"
    pins: Tuple[str, ...]
    out: str = "ZN"

    def __call__(self, inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
        if self.kind in ("AND", "NAND"):
            value = mask
            for name in self.pins:
                value &= inputs[name]
        else:
            value = 0
            for name in self.pins:
                value |= inputs[name]
        if self.kind in ("NAND", "NOR"):
            value = ~value
        return {self.out: value & mask}


def _fn_inv(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"ZN": (~inputs["A"]) & mask}


def _fn_buf(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"Z": inputs["A"] & mask}


def _nary_pins(n: int) -> Tuple[str, ...]:
    return tuple(f"A{i + 1}" for i in range(n))


def _make_and(n: int) -> Callable[[Mapping[str, int], int], Dict[str, int]]:
    return NaryLogicFn("AND", _nary_pins(n))


def _make_nand(n: int) -> Callable[[Mapping[str, int], int], Dict[str, int]]:
    return NaryLogicFn("NAND", _nary_pins(n))


def _make_or(n: int) -> Callable[[Mapping[str, int], int], Dict[str, int]]:
    return NaryLogicFn("OR", _nary_pins(n))


def _make_nor(n: int) -> Callable[[Mapping[str, int], int], Dict[str, int]]:
    return NaryLogicFn("NOR", _nary_pins(n))


def _fn_xor2(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"Z": (inputs["A1"] ^ inputs["A2"]) & mask}


def _fn_xnor2(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"ZN": (~(inputs["A1"] ^ inputs["A2"])) & mask}


def _fn_aoi21(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"ZN": (~((inputs["A1"] & inputs["A2"]) | inputs["B"])) & mask}


def _fn_oai21(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"ZN": (~((inputs["A1"] | inputs["A2"]) & inputs["B"])) & mask}


def _fn_mux2(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    sel = inputs["S"]
    return {"Z": ((inputs["B"] & sel) | (inputs["A"] & ~sel)) & mask}


def _fn_correction(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    """Correction cell modelled as a 2-input/2-output OR gate.

    The paper models correction cells as 2-input-2-output OR gates with four
    timing arcs (C→Y, C→Z, D→Y, D→Z); electrically the cell is transparent
    (wires in the BEOL).  For logic purposes we propagate each input to its
    *true-path* output (C→Y, D→Z) — the erroneous arcs are only a routing
    artefact and are disabled when the functionality is restored.
    """
    return {"Y": inputs["C"] & mask, "Z": inputs["D"] & mask}


def _fn_lift(inputs: Mapping[str, int], mask: int) -> Dict[str, int]:
    return {"Y": inputs["C"] & mask}


#: Logic-op arcs of the fixed-form cell functions, keyed by function object.
_FIXED_FN_OPS: Dict[Callable, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    _fn_inv: (("ZN", "INV", ("A",)),),
    _fn_buf: (("Z", "BUF", ("A",)),),
    _fn_xor2: (("Z", "XOR", ("A1", "A2")),),
    _fn_xnor2: (("ZN", "XNOR", ("A1", "A2")),),
    _fn_aoi21: (("ZN", "AOI21", ("A1", "A2", "B")),),
    _fn_oai21: (("ZN", "OAI21", ("A1", "A2", "B")),),
    _fn_mux2: (("Z", "MUX2", ("A", "B", "S")),),
    _fn_correction: (("Y", "BUF", ("C",)), ("Z", "BUF", ("D",))),
    _fn_lift: (("Y", "BUF", ("C",)),),
}


def derive_logic_ops(
    fn: Optional[Callable[[Mapping[str, int], int], Mapping[str, int]]],
) -> Optional[Tuple[Tuple[str, str, Tuple[str, ...]], ...]]:
    """Return the ``logic_ops`` arcs for a known cell function (else ``None``)."""
    if fn is None:
        return None
    if isinstance(fn, NaryLogicFn):
        return ((fn.out, fn.kind, fn.pins),)
    return _FIXED_FN_OPS.get(fn)


# ---------------------------------------------------------------------------
# Library construction
# ---------------------------------------------------------------------------


def _inputs(names: Sequence[str], cap: float) -> List[CellPin]:
    return [CellPin(name, "input", cap) for name in names]


def _outputs(names: Sequence[str]) -> List[CellPin]:
    return [CellPin(name, "output", 0.0) for name in names]


def _cell(
    name: str,
    in_names: Sequence[str],
    out_names: Sequence[str],
    fn: Optional[Callable[[Mapping[str, int], int], Mapping[str, int]]],
    *,
    cap: float,
    width_sites: int,
    drive: float,
    delay: float,
    leak: float,
    energy: float,
    max_load: float = 60.0,
    sequential: bool = False,
) -> Cell:
    width = width_sites * SITE_WIDTH_UM
    return Cell(
        name=name,
        pins=tuple(_inputs(in_names, cap) + _outputs(out_names)),
        function=fn,
        area_um2=round(width * ROW_HEIGHT_UM, 4),
        width_um=round(width, 4),
        drive_resistance_kohm=drive,
        intrinsic_delay_ps=delay,
        max_load_ff=max_load,
        leakage_nw=leak,
        switch_energy_fj=energy,
        is_sequential=sequential,
        logic_ops=derive_logic_ops(fn),
    )


def nangate45_library() -> CellLibrary:
    """Build the Nangate45-like standard-cell library used everywhere.

    The returned :class:`CellLibrary` contains combinational cells in X1/X2/X4
    drive strengths for the common functions, a D flip-flop, and the paper's
    custom ``CORRECTION_M6`` / ``CORRECTION_M8`` / ``LIFT_M6`` / ``LIFT_M8``
    BEOL-only cells.
    """
    cells: List[Cell] = []

    # name, inputs, outputs, fn, cap(fF), width(sites), drive(kΩ), delay(ps),
    # leakage(nW), energy(fJ)
    cells.append(_cell("INV_X1", ["A"], ["ZN"], _fn_inv, cap=1.0, width_sites=2,
                       drive=1.4, delay=8.0, leak=10.0, energy=0.4))
    cells.append(_cell("INV_X2", ["A"], ["ZN"], _fn_inv, cap=1.9, width_sites=3,
                       drive=0.8, delay=7.0, leak=18.0, energy=0.7, max_load=120.0))
    cells.append(_cell("INV_X4", ["A"], ["ZN"], _fn_inv, cap=3.7, width_sites=5,
                       drive=0.45, delay=6.5, leak=34.0, energy=1.3, max_load=240.0))
    cells.append(_cell("BUF_X1", ["A"], ["Z"], _fn_buf, cap=1.0, width_sites=3,
                       drive=1.3, delay=16.0, leak=14.0, energy=0.8))
    cells.append(_cell("BUF_X2", ["A"], ["Z"], _fn_buf, cap=1.2, width_sites=4,
                       drive=0.75, delay=14.0, leak=22.0, energy=1.2, max_load=130.0))
    cells.append(_cell("BUF_X4", ["A"], ["Z"], _fn_buf, cap=1.6, width_sites=6,
                       drive=0.42, delay=13.0, leak=40.0, energy=2.0, max_load=260.0))
    cells.append(_cell("BUF_X8", ["A"], ["Z"], _fn_buf, cap=2.3, width_sites=9,
                       drive=0.24, delay=12.5, leak=76.0, energy=3.6, max_load=500.0))

    cells.append(_cell("NAND2_X1", ["A1", "A2"], ["ZN"], _make_nand(2), cap=1.1,
                       width_sites=3, drive=1.5, delay=10.0, leak=15.0, energy=0.7))
    cells.append(_cell("NAND2_X2", ["A1", "A2"], ["ZN"], _make_nand(2), cap=2.1,
                       width_sites=4, drive=0.85, delay=9.0, leak=28.0, energy=1.2,
                       max_load=120.0))
    cells.append(_cell("NAND3_X1", ["A1", "A2", "A3"], ["ZN"], _make_nand(3), cap=1.2,
                       width_sites=4, drive=1.7, delay=13.0, leak=20.0, energy=0.9))
    cells.append(_cell("NAND4_X1", ["A1", "A2", "A3", "A4"], ["ZN"], _make_nand(4),
                       cap=1.3, width_sites=5, drive=1.9, delay=16.0, leak=26.0,
                       energy=1.1))
    cells.append(_cell("NOR2_X1", ["A1", "A2"], ["ZN"], _make_nor(2), cap=1.2,
                       width_sites=3, drive=1.8, delay=11.0, leak=16.0, energy=0.8))
    cells.append(_cell("NOR2_X2", ["A1", "A2"], ["ZN"], _make_nor(2), cap=2.3,
                       width_sites=4, drive=1.0, delay=10.0, leak=30.0, energy=1.3,
                       max_load=120.0))
    cells.append(_cell("NOR3_X1", ["A1", "A2", "A3"], ["ZN"], _make_nor(3), cap=1.3,
                       width_sites=4, drive=2.1, delay=14.5, leak=21.0, energy=1.0))
    cells.append(_cell("NOR4_X1", ["A1", "A2", "A3", "A4"], ["ZN"], _make_nor(4),
                       cap=1.4, width_sites=5, drive=2.4, delay=18.0, leak=27.0,
                       energy=1.2))
    cells.append(_cell("AND2_X1", ["A1", "A2"], ["ZN"], _make_and(2), cap=1.1,
                       width_sites=4, drive=1.4, delay=17.0, leak=19.0, energy=1.0))
    cells.append(_cell("AND3_X1", ["A1", "A2", "A3"], ["ZN"], _make_and(3), cap=1.2,
                       width_sites=5, drive=1.5, delay=19.0, leak=24.0, energy=1.2))
    cells.append(_cell("AND4_X1", ["A1", "A2", "A3", "A4"], ["ZN"], _make_and(4),
                       cap=1.3, width_sites=6, drive=1.6, delay=21.0, leak=29.0,
                       energy=1.4))
    cells.append(_cell("OR2_X1", ["A1", "A2"], ["ZN"], _make_or(2), cap=1.2,
                       width_sites=4, drive=1.5, delay=18.0, leak=20.0, energy=1.0))
    cells.append(_cell("OR3_X1", ["A1", "A2", "A3"], ["ZN"], _make_or(3), cap=1.3,
                       width_sites=5, drive=1.6, delay=20.5, leak=25.0, energy=1.2))
    cells.append(_cell("OR4_X1", ["A1", "A2", "A3", "A4"], ["ZN"], _make_or(4),
                       cap=1.4, width_sites=6, drive=1.7, delay=22.5, leak=30.0,
                       energy=1.4))
    cells.append(_cell("XOR2_X1", ["A1", "A2"], ["Z"], _fn_xor2, cap=1.9,
                       width_sites=5, drive=1.8, delay=24.0, leak=32.0, energy=1.8))
    cells.append(_cell("XNOR2_X1", ["A1", "A2"], ["ZN"], _fn_xnor2, cap=1.9,
                       width_sites=5, drive=1.8, delay=24.0, leak=32.0, energy=1.8))
    cells.append(_cell("AOI21_X1", ["A1", "A2", "B"], ["ZN"], _fn_aoi21, cap=1.3,
                       width_sites=4, drive=1.9, delay=14.0, leak=22.0, energy=1.0))
    cells.append(_cell("OAI21_X1", ["A1", "A2", "B"], ["ZN"], _fn_oai21, cap=1.3,
                       width_sites=4, drive=1.9, delay=14.0, leak=22.0, energy=1.0))
    cells.append(_cell("MUX2_X1", ["A", "B", "S"], ["Z"], _fn_mux2, cap=1.6,
                       width_sites=6, drive=1.7, delay=26.0, leak=35.0, energy=1.9))

    # Sequential element; the randomizer treats flop boundaries like primary
    # inputs/outputs so combinational loops are judged per stage.
    cells.append(_cell("DFF_X1", ["D", "CK"], ["Q"], None, cap=1.5, width_sites=9,
                       drive=1.2, delay=70.0, leak=95.0, energy=4.0, sequential=True))

    library = CellLibrary("nangate45_repro", cells)

    # Custom BEOL-only cells (paper Sec. 4).  Electrical characteristics follow
    # BUF_X2 as prescribed; the pins live in high metal layers.
    buf = library["BUF_X2"]
    for lift_layer in (6, 8):
        library.add(
            Cell(
                name=f"CORRECTION_M{lift_layer}",
                pins=(
                    CellPin("C", "input", buf.pin("A").capacitance_ff, layer=lift_layer),
                    CellPin("D", "input", buf.pin("A").capacitance_ff, layer=lift_layer),
                    CellPin("Y", "output", 0.0, layer=lift_layer),
                    CellPin("Z", "output", 0.0, layer=lift_layer),
                ),
                function=_fn_correction,
                area_um2=0.0,
                width_um=4 * SITE_WIDTH_UM,
                drive_resistance_kohm=buf.drive_resistance_kohm,
                intrinsic_delay_ps=buf.intrinsic_delay_ps,
                max_load_ff=buf.max_load_ff,
                leakage_nw=0.0,
                switch_energy_fj=buf.switch_energy_fj,
                beol_only=True,
                logic_ops=derive_logic_ops(_fn_correction),
            )
        )
        library.add(
            Cell(
                name=f"LIFT_M{lift_layer}",
                pins=(
                    CellPin("C", "input", buf.pin("A").capacitance_ff, layer=lift_layer),
                    CellPin("Y", "output", 0.0, layer=lift_layer),
                ),
                function=_fn_lift,
                area_um2=0.0,
                width_um=2 * SITE_WIDTH_UM,
                drive_resistance_kohm=buf.drive_resistance_kohm,
                intrinsic_delay_ps=buf.intrinsic_delay_ps,
                max_load_ff=buf.max_load_ff,
                leakage_nw=0.0,
                switch_energy_fj=buf.switch_energy_fj,
                beol_only=True,
                logic_ops=derive_logic_ops(_fn_lift),
            )
        )

    return library


#: Module-level singleton; building the library is cheap but callers share one.
_DEFAULT_LIBRARY: Optional[CellLibrary] = None


def default_library() -> CellLibrary:
    """Return the shared default :func:`nangate45_library` instance."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = nangate45_library()
    return _DEFAULT_LIBRARY
