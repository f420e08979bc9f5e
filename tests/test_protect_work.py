"""``protect`` does each piece of work once, with outputs unchanged.

* The randomizer's OER rounds are event-driven: a round re-evaluates only
  the gates downstream of moved sinks, as far as values change, and a round
  after a batch without an accepted swap evaluates nothing.
* The naive-lifting baseline routes over the original layout's placement
  instead of placing the original netlist a second time.
* Correction-cell legalization resumes each home slot's spiral where it
  stopped; ``tests/build_oracle.py`` keeps the legalizer that re-scanned,
  and both must return equal instances.
* ``evaluate_ppa`` keeps the last report on the layout and re-measures only
  when the netlist, placement or layout version moves.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import build_oracle
import randomizer_oracle
from repro.api.workspace import reset_default_workspace
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.registry import get_benchmark
from repro.core import flow, lifting, randomizer, restore
from repro.core.correction_cells import place_correction_cells
from repro.core.flow import evaluate_ppa
from repro.core.lifting import build_naive_lifted_layout, select_nets_for_lifting
from repro.core.randomizer import RandomizerConfig, randomize_netlist
from repro.experiments.runner import quick_config, run_all
from repro.layout.floorplan import Floorplan, build_floorplan
from repro.layout.geometry import Point, Rect
from repro.layout.layout import build_layout
from repro.layout.router import RouterConfig
from repro.netlist.arrays import netlist_arrays
from repro.netlist.cells import ROW_HEIGHT_UM, SITE_WIDTH_UM


@pytest.fixture(scope="module")
def quick_run():
    """One ``run_all(quick_config())`` on a fresh workspace, recording every
    PPA measurement and every legalization call's inputs and output."""
    record = {"measurements": 0, "legalizations": []}
    timing_pass = flow.timing_pass

    def counting_timing_pass(*args, **kwargs):
        record["measurements"] += 1
        return timing_pass(*args, **kwargs)

    def recording(place):
        def place_recorded(anchors, lift_layer, floorplan, naive=False):
            anchors = list(anchors)
            legal = place(anchors, lift_layer, floorplan, naive=naive)
            record["legalizations"].append(
                (build_oracle.correction_cells_at_anchors(anchors, lift_layer, naive),
                 floorplan, legal))
            return legal
        return place_recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "timing_pass", counting_timing_pass)
        for module in (restore, lifting):
            patch.setattr(module, "place_correction_cells",
                          recording(module.place_correction_cells))
        reset_default_workspace()  # build everything, measure everything
        try:
            run_all(quick_config())
        finally:
            reset_default_workspace()
    return record


# ---------------------------------------------------------------------------
# PPA reports kept on the layout
# ---------------------------------------------------------------------------

def test_quick_run_measures_each_layout_once(quick_run):
    """30 ``evaluate_ppa`` calls over 21 distinct layouts: 21 measurements."""
    assert quick_run["measurements"] == 21


def test_changed_versions_remeasure(c432, monkeypatch):
    measured = []
    timing_pass = flow.timing_pass

    def counting_timing_pass(*args, **kwargs):
        measured.append(1)
        return timing_pass(*args, **kwargs)

    monkeypatch.setattr(flow, "timing_pass", counting_timing_pass)
    layout = build_layout(c432.copy("c432_ppa"), seed=2)
    first = evaluate_ppa(layout)
    again = evaluate_ppa(layout)
    assert len(measured) == 1
    assert again == first and again is not first
    again.delay_ps = -1.0  # a caller's copy; the kept report is untouched
    assert evaluate_ppa(layout) == first

    layout.bump_geometry_version()
    assert evaluate_ppa(layout) == first
    assert len(measured) == 2

    placement = layout.placement
    placement.set_coordinates(gate_x=placement.gate_x * 1.5)
    evaluate_ppa(layout)
    assert len(measured) == 3

    netlist = layout.netlist
    gate = next(name for name, g in netlist.gates.items() if g.cell.input_pins)
    pin = netlist.gates[gate].cell.input_pins[0].name
    netlist.move_sink(gate, pin, netlist.gates[gate].connections[pin])
    evaluate_ppa(layout)
    assert len(measured) == 4


# ---------------------------------------------------------------------------
# Eligible sinks: integer rows == the by-name walk
# ---------------------------------------------------------------------------

def _edited_c432():
    """c432 after sink moves that put parallel pins of one gate onto one net
    in the reverse of their cell pin (fan-in row) order, on nets whose
    ``Net.sinks`` are no longer in gate order, plus sinks on an undriven
    net (not eligible)."""
    netlist = get_benchmark("c432", seed=1).copy("c432_edited")
    targets = [net for net in netlist.nets.values() if net.has_driver()]
    edited = 0
    for position, gate in enumerate(list(netlist.gates.values())):
        pins = [pin.name for pin in gate.cell.input_pins]
        if gate.cell.is_sequential or len(pins) < 2 or position % 7:
            continue
        target = targets[position % len(targets)].name
        for pin in reversed(pins):
            netlist.move_sink(gate.name, pin, target)
        edited += 1
    assert edited > 3
    for gate in list(netlist.gates.values())[1::40]:
        netlist.move_sink(gate.name, gate.cell.input_pins[0].name, "floating")
    return netlist


@pytest.mark.parametrize("name,scale", [(name, None) for name in ISCAS85_PROFILES]
                         + [("superblue18", 0.001), ("edited", None)])
def test_eligible_sink_rows_match_the_by_name_walk(name, scale):
    """The randomizer's eligible fan-in rows, mapped to names, are the
    ``(net, sink)`` pairs the object walk lists on the netlist's copy (the
    netlist both the randomizer and its oracle edit), in the same order:
    ``rng.sample`` draws by position."""
    netlist = _edited_c432() if name == "edited" else get_benchmark(name, seed=1,
                                                                   scale=scale)
    arrays = netlist_arrays(netlist)
    rows = randomizer.eligible_sink_rows(arrays)
    by_rows = [
        (arrays.net_names[arrays.fanin_net[row]],
         (arrays.gate_names[arrays.fanin_gate[row]], arrays.pin_name(row)))
        for row in rows
    ]
    assert by_rows == randomizer_oracle._swappable_sinks(netlist.copy())


# ---------------------------------------------------------------------------
# Event-driven OER rounds
# ---------------------------------------------------------------------------

def test_rounds_evaluate_only_what_changed(c880, monkeypatch):
    """A round after a batch without an accepted swap evaluates no gate, and
    a run evaluates fewer gates than re-simulating every round would."""
    events = []
    programs = []
    move_sink = randomizer._CandidateProgram.move_sink
    output_error_rate = randomizer._CandidateProgram.output_error_rate

    def recording_move(self, *args):
        events.append("move")
        return move_sink(self, *args)

    def recording_round(self):
        if not programs:
            programs.append(self)
        before = self.evaluations
        oer = output_error_rate(self)
        events.append(self.evaluations - before)
        return oer

    monkeypatch.setattr(randomizer._CandidateProgram, "move_sink", recording_move)
    monkeypatch.setattr(randomizer._CandidateProgram, "output_error_rate",
                        recording_round)
    result = randomize_netlist(c880, RandomizerConfig(
        max_swaps=300, min_swaps=300, target_oer_percent=100.0, batch_pairs=2,
        oer_patterns=256, seed=4))
    rounds = [event for event in events if event != "move"]
    assert len(rounds) == len(result.oer_history)
    idle = [
        evaluated for position, evaluated in enumerate(events)
        if evaluated != "move" and (position == 0 or events[position - 1] != "move")
    ]
    assert idle, "the case must have a batch without an accepted swap"
    assert all(evaluated == 0 for evaluated in idle)
    full_round = sum(1 for arcs in programs[0]._arcs if arcs)
    assert 0 < sum(rounds) < len(rounds) * full_round


# ---------------------------------------------------------------------------
# Correction-cell legalization == the re-scanning oracle
# ---------------------------------------------------------------------------

def test_quick_run_legalization_matches_oracle(quick_run):
    """Every correction-cell placement of the quick run builds its cells at
    the positions the oracle legalizes the anchored cells to."""
    calls = quick_run["legalizations"]
    assert len(calls) == 13
    for instances, floorplan, legal in calls:
        assert floorplan is not None
        assert legal == build_oracle.legalize_correction_cells_reference(
            instances, floorplan)


PITCH_X = 4 * SITE_WIDTH_UM
PITCH_Y = ROW_HEIGHT_UM


@st.composite
def legalization_cases(draw):
    """A die of 1-10 x 1-10 cell pitches (plus a fraction) and anchors in
    clusters: co-anchored (one point), jittered around a centre, anywhere on
    or off the die; sometimes more cells than the grid holds."""
    columns = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 10))
    x_min = draw(st.floats(-20.0, 20.0, allow_nan=False))
    y_min = draw(st.floats(-20.0, 20.0, allow_nan=False))
    width = (columns + draw(st.floats(0.0, 0.99))) * PITCH_X
    height = (rows + draw(st.floats(0.0, 0.99))) * PITCH_Y
    die = Rect(x_min, y_min, x_min + width, y_min + height)
    floorplan = Floorplan(die=die, num_rows=rows, sites_per_row=4 * columns,
                          row_height_um=PITCH_Y, site_width_um=SITE_WIDTH_UM,
                          utilization=0.7)
    coordinate = st.tuples(st.floats(x_min - width, x_min + 2 * width),
                           st.floats(y_min - height, y_min + 2 * height))
    centres = draw(st.lists(coordinate, min_size=1, max_size=4))
    jitter = st.floats(-2 * PITCH_X, 2 * PITCH_X)
    count = draw(st.integers(0, columns * rows + 12))
    anchors = []
    for index in range(count):
        x, y = centres[draw(st.integers(0, len(centres) - 1))]
        if draw(st.booleans()):
            x, y = x + draw(jitter), y + draw(jitter)
        anchors.append((index // 2, ("driver", "sink")[index % 2], None, Point(x, y)))
    return anchors, draw(st.sampled_from((6, 8))), draw(st.booleans()), floorplan


@settings(max_examples=300, deadline=None)
@given(legalization_cases())
def test_legalization_matches_oracle(case):
    anchors, lift_layer, naive, floorplan = case
    expected = build_oracle.legalize_correction_cells_reference(
        build_oracle.correction_cells_at_anchors(anchors, lift_layer, naive), floorplan)
    assert place_correction_cells(anchors, lift_layer, floorplan, naive=naive) == expected


# ---------------------------------------------------------------------------
# One placement for the naive baseline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,scale", (("c432", None), ("c880", None),
                                        ("superblue18", 0.001)))
def test_naive_layout_equals_a_replaced_build(name, scale):
    netlist = get_benchmark(name, seed=1, scale=scale)
    floorplan = build_floorplan(netlist, 0.70)
    router_config = RouterConfig()
    original = build_layout(netlist, floorplan=floorplan, router_config=router_config,
                            seed=1)
    nets = select_nets_for_lifting(netlist, 24, seed=1)
    naive = build_naive_lifted_layout(original, nets, lift_layer=6,
                                      router_config=router_config)
    replaced = build_layout(
        netlist, name=f"{netlist.name}_lifted", floorplan=floorplan,
        router_config=router_config, min_layer_per_net={net: 6 for net in nets}, seed=1,
    )
    replaced.lift_layer = 6
    assert naive.placement == replaced.placement
    assert pickle.dumps(naive.routing) == pickle.dumps(replaced.routing)
    assert naive.name == replaced.name and naive.lift_layer == 6
    assert naive.metadata["utilization"] == replaced.metadata["utilization"]
    assert naive.metadata["seed"] == replaced.metadata["seed"]
    assert naive.metadata["lifted_nets"] == nets
    assert naive.metadata["lifting_cells"]

    # The placements share read-only columns; moving one moves only it.
    before = original.placement.gate_x.copy(), original.placement.geometry_version
    naive.placement.set_coordinates(gate_x=naive.placement.gate_x + 1.0)
    assert np.array_equal(original.placement.gate_x, before[0])
    assert original.placement.geometry_version == before[1]
    original.placement.set_coordinates(port_y=original.placement.port_y + 2.0)
    assert np.array_equal(naive.placement.port_y, replaced.placement.port_y)
