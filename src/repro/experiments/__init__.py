"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run(config) -> Table`` (or a small list of tables)
function that regenerates the corresponding rows of the paper's evaluation
with this reproduction's substrates.  ``repro.experiments.runner.run_all``
executes all of them (``repro run all`` prints the results); the paper's own
quoted numbers are kept in :mod:`repro.experiments.paper_data` so reports
can show both side by side.

| Module | Paper content |
| --- | --- |
| ``table1_distances`` | Table 1 — distances between connected gates |
| ``table2_vias`` | Table 2 — additional vias per layer pair |
| ``table3_crouting`` | Table 3 — crouting vpins / candidate-list sizes |
| ``table4_placement_schemes`` | Table 4 — CCR/OER/HD vs placement-perturbation defenses |
| ``table5_routing_schemes`` | Table 5 — CCR/OER/HD vs routing-perturbation defenses |
| ``table6_magana`` | Table 6 — ΔV67/ΔV78 vs routing blockages |
| ``figure4_distance_distributions`` | Fig. 4 — distance distributions (superblue18) |
| ``figure5_wirelength_layers`` | Fig. 5 — per-layer wirelength shares |
| ``figure6_ppa`` | Fig. 6 — PPA overheads vs Sengupta et al. |
| ``headline`` | Sec. 5.2 headline numbers (0 % CCR, ≈100 % OER, ≈40 % HD) |
Every experiment module also exposes a ``scenarios(config)`` function
returning the declarative :class:`~repro.api.spec.ScenarioSpec` grid its
table is assembled from — the table modules are thin formatters over
``repro.api`` scenario results.
"""

from repro.experiments.common import ExperimentConfig

__all__ = ["ExperimentConfig"]
