"""Split-manufacturing model.

Provides the attacker's view of a layout: given a split layer, the FEOL
(front-end-of-line) consists of the device layer plus all metal at or below
the split layer.  Everything above — the BEOL — is missing, and the nets that
cross the split are left as *open pins* ("vpins") with dangling wires in the
topmost FEOL layer.

* :class:`repro.sm.split.FEOLView` — the observable FEOL artefacts (placed
  cells, fully-routed FEOL nets, driver/sink vpin columns with positions,
  dangling directions and electrical hints) plus the ground truth needed
  for scoring;
* :func:`repro.sm.split.extract_feol` — build a :class:`FEOLView` from a
  :class:`~repro.layout.layout.Layout` and a split layer.
"""

from repro.sm.split import FEOLView, extract_feol

__all__ = ["FEOLView", "extract_feol"]
