"""The integer netlist view and sink overlays.

:func:`repro.netlist.arrays.netlist_arrays` is cached on
``topology_version``; a network-flow recovery is a
:class:`~repro.netlist.arrays.NetlistOverlay`, so a paper-shaped run copies
no netlist inside the attack, and ``evaluate_ppa`` reads the integer view,
never a gate's pins by name.  The overlay's plan/OER/HD equivalence with
the copy-and-edit oracle is in ``tests/test_attack_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.api.attacks as api_attacks
import repro.attacks.network_flow as network_flow
import repro.core.flow as flow
import repro.metrics.ppa as metrics_ppa
from repro.api.workspace import reset_default_workspace
from repro.experiments.runner import quick_config, run_all
from repro.netlist.arrays import NetlistOverlay, netlist_arrays
from repro.netlist.engine import compile_plan
from repro.netlist.netlist import Gate, Netlist


def test_arrays_are_cached_on_the_topology_version(c432):
    netlist = c432.copy()
    arrays = netlist_arrays(netlist)
    assert netlist_arrays(netlist) is arrays
    gate = next(name for name, g in netlist.gates.items() if g.input_pin_names)
    pin = netlist.gates[gate].input_pin_names[0]
    target = next(name for name in netlist.nets if name != netlist.gates[gate].net_on(pin))
    netlist.move_sink(gate, pin, target)
    rebuilt = netlist_arrays(netlist)
    assert rebuilt is not arrays and rebuilt.version == netlist.topology_version
    row = rebuilt.fanin_start[rebuilt.gate_id[gate]] + \
        netlist.gates[gate].input_pin_names.index(pin)
    assert rebuilt.pin_name(row) == pin
    assert rebuilt.fanin_net[row] == rebuilt.net_id[target]


def test_overlay_is_a_snapshot(c432):
    netlist = c432.copy()
    arrays = netlist_arrays(netlist)
    overlay = NetlistOverlay(netlist, "moved", [0], [arrays.net_id[netlist.primary_inputs[0]]],
                             [], [])
    plan = compile_plan(overlay)
    assert compile_plan(overlay) is plan
    restored = pickle.loads(pickle.dumps(overlay))
    assert restored.netlist().validate() == []
    gate = netlist.gates[arrays.gate_names[0]]
    netlist.disconnect_pin(gate.name, gate.input_pin_names[-1])
    # The columns stay those of the netlist the overlay was made from ...
    assert compile_plan(overlay) is plan
    # ... and the netlist it describes can no longer be rebuilt from it.
    with pytest.raises(RuntimeError):
        overlay.netlist()


@pytest.fixture
def counted(monkeypatch):
    """Counts of netlist copies inside the network-flow attack and of
    by-name pin reads inside ``evaluate_ppa`` while the test runs."""
    counts = {"attacks": 0, "copies_in_attack": 0, "ppa": 0, "pin_reads_in_ppa": 0}
    inside = {"attack": 0, "ppa": 0}

    def scoped(scope, calls, fn):
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            inside[scope] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[scope] -= 1
        return wrapper

    attack = scoped("attack", "attacks", network_flow.network_flow_attack)
    monkeypatch.setattr(network_flow, "network_flow_attack", attack)
    monkeypatch.setattr(api_attacks, "network_flow_attack", attack)
    ppa = scoped("ppa", "ppa", flow.evaluate_ppa)
    monkeypatch.setattr(flow, "evaluate_ppa", ppa)
    monkeypatch.setattr(metrics_ppa, "evaluate_ppa", ppa)

    copy = Netlist.copy

    def counting_copy(self, *args, **kwargs):
        counts["copies_in_attack"] += bool(inside["attack"])
        return copy(self, *args, **kwargs)

    net_on = Gate.net_on
    output_pin_names = Gate.output_pin_names

    def counting_net_on(self, pin):
        counts["pin_reads_in_ppa"] += bool(inside["ppa"])
        return net_on(self, pin)

    def counting_output_pin_names(self):
        counts["pin_reads_in_ppa"] += bool(inside["ppa"])
        return output_pin_names.fget(self)

    monkeypatch.setattr(Netlist, "copy", counting_copy)
    monkeypatch.setattr(Gate, "net_on", counting_net_on)
    monkeypatch.setattr(Gate, "output_pin_names", property(counting_output_pin_names))
    return counts


def test_paper_run_copies_no_netlist_in_the_attack(counted):
    """A ``paper_quick``-shaped run, cut to c432 and superblue18@0.001."""
    config = dataclasses.replace(
        quick_config(), iscas_benchmarks=("c432",), superblue_benchmarks=("superblue18",),
        superblue_scale=0.001,
    )
    reset_default_workspace()  # build everything, measure everything
    try:
        run_all(config)
    finally:
        reset_default_workspace()
    assert counted["attacks"] > 0 and counted["ppa"] > 0
    assert counted["copies_in_attack"] == 0
    assert counted["pin_reads_in_ppa"] == 0
