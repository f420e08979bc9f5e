"""The paper's contribution: netlist randomization with BEOL restoration.

This package implements the protection scheme of Patnaik et al. (DAC 2018):

* :mod:`repro.core.randomizer` — OER-driven, loop-free randomization of the
  netlist by swapping driver→sink connections (Fig. 2, step "Randomize");
* :mod:`repro.core.correction_cells` — the custom 2-input/2-output correction
  cells whose pins sit in M6/M8 and which may overlap standard cells but not
  each other (Sec. 4, Fig. 3), plus the naive-lifting cells of the baseline;
* :mod:`repro.core.lifting` — selection and lifting of nets to the BEOL;
* :mod:`repro.core.restore` — construction of the protected layout: the
  erroneous netlist is placed, unaffected nets are routed normally, and the
  true connectivity is restored through the BEOL between pairs of correction
  cells, leaving misleading FEOL stubs behind;
* :mod:`repro.core.flow` — the end-to-end flow with PPA-budget control
  (Fig. 2), the naive-lifting baseline flow and the
  :class:`~repro.core.flow.ProtectionResult` bundle the experiments consume.
"""

from repro.core.randomizer import RandomizationResult, SwapRecord, randomize_netlist
from repro.core.correction_cells import (
    CorrectionCellInstance,
    correction_cell_name,
    place_correction_cells,
)
from repro.core.lifting import build_naive_lifted_layout, select_nets_for_lifting
from repro.core.restore import build_protected_layout
from repro.core.flow import ProtectionConfig, ProtectionResult, protect, run_baseline_flow

__all__ = [
    "RandomizationResult",
    "SwapRecord",
    "randomize_netlist",
    "CorrectionCellInstance",
    "correction_cell_name",
    "place_correction_cells",
    "build_naive_lifted_layout",
    "select_nets_for_lifting",
    "build_protected_layout",
    "ProtectionConfig",
    "ProtectionResult",
    "protect",
    "run_baseline_flow",
]
