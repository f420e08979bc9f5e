"""A netlist is its integer columns: the edit API against the object
netlist, and every per-netlist structure against its by-name walk.

* A Hypothesis property applies random edit sequences (gates, pins, nets,
  ports, ``dont_touch``; failing edits included) to a
  :class:`~repro.netlist.netlist.Netlist` and to the object netlist
  :class:`netlist_oracle.ObjectNetlist`, and holds them equal: lookups,
  iteration orders, ``topology_version``, document text, fingerprint,
  ``netlist_arrays`` columns, copies and pickles.
* A second property holds the store fingerprint to the structure
  document: at every state of an edit sequence, over the netlist and
  netlists rebuilt from renamed, reordered and ``dont_touch``-flipped
  documents, two fingerprints are equal exactly when the document texts
  are.
* The placement skeleton (fresh and relabelled), the placer's ordering
  graph and width column and the routing skeleton read the columns; each
  equals the by-name walk it replaced (``tests/build_oracle.py``) on every
  ISCAS circuit, superblue18 at two scales and a c432 edited by
  ``move_sink``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import build_oracle
from netlist_oracle import (
    ObjectNetlist,
    assert_same_netlist,
    generate_random_logic_reference,
    netlist_document_text,
    netlist_from_document,
    object_netlist,
)
from repro.circuits import ISCAS85_PROFILES
from repro.circuits.random_logic import RandomLogicSpec, generate_random_logic
from repro.circuits.registry import get_benchmark
from repro.layout.arrays import PlacementSkeleton, _placement_skeleton
from repro.layout.floorplan import build_floorplan
from repro.layout.geometry import Point
from repro.layout.placer import (
    PlacementResult, PlacerConfig, _OrderingGraph, _PlacerSkeleton, place, place_batch,
)
from repro.layout.router import _RoutingSkeleton
from repro.netlist.arrays import netlist_arrays
from repro.netlist.netlist import Netlist, NetlistError
from repro.store import codec

# -- the edit API against the object netlist -----------------------------------

CELLS = ("INV_X1", "NAND2_X1", "AOI21_X1", "DFF_X1", "CORRECTION_M6")


@st.composite
def edit_sequences(draw):
    spec = RandomLogicSpec(
        name="edits", num_gates=draw(st.integers(1, 14)),
        num_inputs=draw(st.integers(1, 4)), num_outputs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 50)),
        sequential_fraction=draw(st.sampled_from((0.0, 0.3))),
    )
    index = st.integers(0, 1000)
    edit = st.one_of(
        st.tuples(st.just("connect"), index, index, index),
        st.tuples(st.just("disconnect"), index, index),
        st.tuples(st.just("move"), index, index, index),
        st.tuples(st.just("retarget"), index, index),
        st.tuples(st.just("add_gate"), st.sampled_from(CELLS),
                  st.lists(st.tuples(index, index), max_size=4)),
        st.tuples(st.just("add_net")),
        st.tuples(st.just("dont_touch"), index, st.booleans()),
        st.tuples(st.just("add_input")),
        st.tuples(st.just("add_output"), index),
    )
    return spec, draw(st.lists(edit, min_size=5, max_size=40))


def _apply(netlist, step, edit):
    """Apply one drawn edit by name; indices pick among the oracle's names
    (``nets`` index one past the end means a new net)."""
    kind = edit[0]
    gates = list(netlist.gates)
    nets = list(netlist.nets)

    def gate_pin(g, p):
        """Mostly input pins; now and then an output or an unknown pin."""
        gate = netlist.gates[gates[g % len(gates)]]
        if p % 8 == 7:
            return gate.name, "nope"
        pins = gate.input_pin_names if p % 8 < 5 else gate.output_pin_names
        return gate.name, (pins or ["nope"])[p % max(len(pins), 1)]

    def net(n):
        return nets[n % (len(nets) + 1)] if n % (len(nets) + 1) < len(nets) else f"x{step}"

    if kind == "connect":
        netlist.connect_pin(*gate_pin(edit[1], edit[2]), net(edit[3]))
    elif kind == "disconnect":
        netlist.disconnect_pin(*gate_pin(edit[1], edit[2]))
    elif kind == "move":
        return netlist.move_sink(*gate_pin(edit[1], edit[2]), net(edit[3]))
    elif kind == "retarget":
        outputs = netlist.primary_outputs
        return netlist.retarget_primary_output(
            outputs[edit[1] % len(outputs)] if outputs else "none", net(edit[2]))
    elif kind == "add_gate":
        cell = netlist.library[edit[1]]
        pins = [pin.name for pin in cell.pins]
        netlist.add_gate(f"h{step}", edit[1],
                         {pins[p % len(pins)]: net(n) for p, n in edit[2]})
    elif kind == "add_net":
        netlist.add_net(nets[0] if step % 3 == 0 and nets else f"x{step}")
    elif kind == "dont_touch":
        netlist.set_dont_touch(gates[edit[1] % len(gates)], edit[2])
    elif kind == "add_input":
        netlist.add_primary_input(f"x{step}" if step % 2 else nets[0])
    elif kind == "add_output":
        netlist.add_primary_output(f"o{step}", net(edit[1]))
    return None


def _outcome(netlist, step, edit):
    try:
        return "ok", _apply(netlist, step, edit)
    except (NetlistError, KeyError) as error:
        return type(error).__name__, None


@settings(max_examples=150, deadline=None)
@given(edit_sequences())
def test_random_edits_match_the_object_netlist(case):
    spec, edits = case
    netlist = generate_random_logic_reference(spec)
    oracle = generate_random_logic_reference(spec, netlist_class=ObjectNetlist)
    assert_same_netlist(netlist, oracle)
    for step, edit in enumerate(edits):
        assert _outcome(netlist, step, edit) == _outcome(oracle, step, edit), edit
        assert netlist.topology_version == oracle.topology_version, edit
    assert_same_netlist(netlist, oracle)
    assert_same_netlist(netlist.copy("copied"), oracle.copy("copied"))
    assert_same_netlist(pickle.loads(pickle.dumps(netlist)), oracle)


def _document_variants(doc, step):
    """Documents near ``doc``: a gate and a net renamed (odd characters
    included), a name boundary between two gates moved, two gates and two
    nets swapped, a ``dont_touch`` mark flipped, a net's sinks and a net's
    outputs reversed."""
    gates, nets = doc["gates"], doc["nets"]
    gate_names = {gate[0] for gate in gates}

    def variant(edit):
        copy = json.loads(json.dumps(doc))
        edit(copy)
        return copy

    def rename_gate(copy, index, new):
        old = copy["gates"][index][0]
        copy["gates"][index][0] = new
        for net in copy["nets"]:
            for pair in ([net[1]] if net[1] else []) + net[2]:
                if pair[0] == old:
                    pair[0] = new

    def rename_net(copy, index, new):
        old = copy["nets"][index][0]
        copy["nets"][index][0] = new
        copy["primary_inputs"] = [new if pi == old else pi for pi in copy["primary_inputs"]]
        copy["output_nets"] = [[po, new if net == old else net]
                               for po, net in copy["output_nets"]]

    g = step % len(gates)
    n = step % len(nets)
    yield variant(lambda copy: rename_gate(copy, g, gates[g][0] + "\x00'"))
    yield variant(lambda copy: rename_net(copy, n, nets[n][0] + '"\ud800'))
    if len(gates) > 1:
        first, second = gates[g - 1][0], gates[g][0]
        renamed = {first + second[0], second[1:]}
        if len(second) > 1 and len(renamed) == 2 and not renamed & gate_names:
            def shift(copy):
                rename_gate(copy, g - 1, first + second[0])
                rename_gate(copy, g, second[1:])
            yield variant(shift)
        yield variant(lambda copy: copy["gates"].insert(0, copy["gates"].pop(g)))
    if len(nets) > 1:
        yield variant(lambda copy: copy["nets"].insert(0, copy["nets"].pop(n)))
    yield variant(lambda copy: copy["gates"][g].__setitem__(3, not gates[g][3]))
    with_sinks = [i for i, net in enumerate(nets) if len(net[2]) > 1]
    if with_sinks:
        yield variant(lambda copy: copy["nets"][with_sinks[0]][2].reverse())
    with_outputs = [i for i, net in enumerate(nets) if len(net[4]) > 1]
    if with_outputs:
        yield variant(lambda copy: copy["nets"][with_outputs[0]][4].reverse())


@settings(max_examples=40, deadline=None)
@given(edit_sequences())
def test_fingerprints_are_equal_exactly_when_documents_are(case):
    """At every state of an edit sequence, the netlist, its copy, its
    pickle and netlists rebuilt from nearby documents (renames, reorders,
    ``dont_touch``): two fingerprints are equal exactly when the two
    document texts are."""
    spec, edits = case
    netlist = generate_random_logic_reference(spec)
    fingerprint_of, text_of = {}, {}

    def record(candidate):
        text = netlist_document_text(candidate)
        fingerprint = codec.netlist_fingerprint(candidate)
        assert fingerprint_of.setdefault(text, fingerprint) == fingerprint
        assert text_of.setdefault(fingerprint, text) == text

    for step, edit in enumerate([None] + edits):
        if edit is not None:
            _outcome(netlist, step, edit)
        record(netlist)
        record(netlist.copy())
        record(pickle.loads(pickle.dumps(netlist)))
        doc = json.loads(netlist_document_text(netlist))
        for variant in _document_variants(doc, step):
            record(netlist_from_document(variant, netlist.library))


def test_mappings_see_edits_made_after_a_snapshot(c432):
    """``netlist.gates``/``netlist.nets`` taken before a snapshot stay live
    after the netlist copies its shared name tables."""
    netlist = c432.copy()
    gates, nets = netlist.gates, netlist.nets
    netlist_arrays(netlist)
    netlist.add_gate("late", "INV_X1", {"A": netlist.primary_inputs[0], "ZN": "late_out"})
    assert "late" in gates and "late_out" in nets
    assert len(gates) == c432.num_gates + 1 and len(nets) == c432.num_nets + 1
    assert list(gates)[-1] == "late" and list(nets)[-1] == "late_out"
    assert gates["late"].connections == {"A": netlist.primary_inputs[0], "ZN": "late_out"}


def test_bulk_construction_equals_the_edit_api():
    """``Netlist.from_columns`` equals declaring the inputs, adding each gate
    with its pins connected in pin order, then declaring the outputs; a
    multi-output cell may leave an output unconnected."""
    oracle = ObjectNetlist("bulk")
    for pi in ("a", "b", "clk"):
        oracle.add_primary_input(pi)
    oracle.add_gate("g0", "NAND2_X1", {"A1": "a", "A2": "b", "ZN": "x"})
    oracle.add_gate("c0", "CORRECTION_M6", {"C": "x", "D": "a", "Y": "y"})
    oracle.add_gate("f0", "DFF_X1", {"D": "y", "CK": "clk", "Q": "q"})
    oracle.add_gate("g1", "INV_X1", {"A": "x", "ZN": "z"})
    oracle.add_primary_output("o0", "q")
    oracle.add_primary_output("o1", "z")
    oracle.add_primary_output("o2", "q")
    nets = ["a", "b", "clk", "x", "y", "q", "z"]
    netlist = Netlist.from_columns(
        "bulk", oracle.library, nets, ["a", "b", "clk"], ["g0", "c0", "f0", "g1"],
        ["NAND2_X1", "CORRECTION_M6", "DFF_X1", "INV_X1"], [0, 1, 2, 3],
        [0, 1, 3, 0, 4, 2, 3], [3, 4, -1, 5, 6], {"o0": "q", "o1": "z", "o2": "q"})
    assert_same_netlist(netlist, oracle)
    with pytest.raises(NetlistError):
        Netlist.from_columns("bad", oracle.library, nets, [], ["g1"], ["INV_X1"],
                             [0], [0, 1], [6], {})
    with pytest.raises(NetlistError):
        Netlist.from_columns("bad", oracle.library, nets, [], ["g1", "g2"], ["INV_X1"],
                             [0], [0], [6], {})


def test_generation_with_a_multi_output_cell():
    spec = RandomLogicSpec(name="mixed", num_gates=40, num_inputs=5, num_outputs=6,
                           seed=3, sequential_fraction=0.2,
                           cell_mix=(("NAND2_X1", 2.0), ("CORRECTION_M6", 1.0)))
    assert_same_netlist(generate_random_logic(spec),
                        generate_random_logic_reference(spec, netlist_class=ObjectNetlist))


def test_dont_touch_refreshes_the_snapshot_and_fingerprint(c432):
    netlist = c432.copy()
    before = codec.netlist_fingerprint(netlist)
    assert not netlist_arrays(netlist).dont_touch.any()
    netlist.set_dont_touch(next(iter(netlist.gates)))
    assert netlist_arrays(netlist).dont_touch.sum() == 1
    assert codec.netlist_fingerprint(netlist) != before
    assert_same_netlist(netlist, object_netlist(netlist))


# -- per-netlist structures against their by-name walks ------------------------

def _edited_c432():
    netlist = get_benchmark("c432", seed=1).copy("c432_edited")
    moved = 0
    for name, gate in list(netlist.gates.items())[::7]:
        pin = gate.input_pin_names[-1]
        if gate.net_on(pin) is not None:
            netlist.move_sink(name, pin, netlist.primary_inputs[moved % 5])
            moved += 1
    netlist.retarget_primary_output(netlist.primary_outputs[0], netlist.primary_inputs[0])
    return netlist


CIRCUITS = [pytest.param(lambda name=name: get_benchmark(name, seed=1), id=name)
            for name in sorted(ISCAS85_PROFILES)] + [
    pytest.param(lambda: get_benchmark("superblue18", seed=1, scale=0.002), id="sb18-0.002"),
    pytest.param(lambda: get_benchmark("superblue18", seed=1, scale=0.01), id="sb18-0.01"),
    pytest.param(_edited_c432, id="c432-moved-sinks"),
]


def _assert_fields(ours, expected):
    for key, value in expected.items():
        got = getattr(ours, key)
        got = got.tolist() if isinstance(got, np.ndarray) else got
        assert got == value, key


@pytest.mark.parametrize("make", CIRCUITS)
def test_skeletons_match_the_by_name_walks(make):
    netlist = make()
    arrays = netlist_arrays(netlist)
    first, second = place_batch(netlist, [3, 4])
    # The placement skeleton, fresh and relabelled to another seed's rows.
    _assert_fields(PlacementSkeleton.build(netlist, first),
                   build_oracle.placement_skeleton_reference(netlist, first))
    _placement_skeleton(netlist, first)
    _assert_fields(_placement_skeleton(netlist, second),
                   build_oracle.placement_skeleton_reference(netlist, second))
    # The placer's ordering graph and width column.
    graph = _OrderingGraph(arrays)
    _assert_fields(graph, build_oracle.ordering_graph_reference(netlist))
    skeleton = _PlacerSkeleton(netlist, build_floorplan(netlist, 0.7))
    assert skeleton.gate_names == list(netlist.gates)
    assert skeleton.widths.tolist() == [g.cell.width_um for g in netlist.gates.values()]
    # The routing skeleton.
    _assert_fields(_RoutingSkeleton(netlist, first),
                   build_oracle.routing_skeleton_reference(netlist, first))


def test_skeletons_of_a_partial_placement(c432):
    """Placed names the netlist lacks, gates left unplaced, ports missing."""
    full = place(c432, config=PlacerConfig(seed=2))
    names = list(full.gate_positions)[::2] + ["stranger"]
    partial = PlacementResult.from_positions(
        full.floorplan,
        {name: full.gate_positions.get(name, Point(1.0, 2.0)) for name in names},
        {name: point for name, point in list(full.port_positions.items())[1::2]},
    )
    _assert_fields(PlacementSkeleton.build(c432, partial),
                   build_oracle.placement_skeleton_reference(c432, partial))
    _assert_fields(_RoutingSkeleton(c432, partial),
                   build_oracle.routing_skeleton_reference(c432, partial))


def test_snapshot_is_the_netlists_columns(c432):
    """``netlist_arrays`` copies the columns: later edits leave it as it was."""
    netlist = c432.copy()
    arrays = netlist_arrays(netlist)
    fanin = arrays.fanin_net.copy()
    gate, pin = next((g.name, p) for g in netlist.gates.values()
                     for p in g.input_pin_names if g.net_on(p))
    netlist.move_sink(gate, pin, netlist.primary_inputs[0])
    netlist.add_gate("late", "INV_X1", {"A": netlist.primary_inputs[1], "ZN": "late"})
    assert np.array_equal(arrays.fanin_net, fanin)
    assert len(arrays.gate_names) == c432.num_gates
    assert netlist_arrays(netlist) is not arrays
