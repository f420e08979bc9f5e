"""Per-edit netlist construction and JSON-document fingerprint: test oracles.

``generate_random_logic_reference`` is the benchmark generator that
:func:`repro.circuits.random_logic.generate_random_logic` replaced: it
builds the netlist one ``add_primary_input`` / ``add_gate`` /
``connect_pin`` / ``add_primary_output`` call at a time, so every structure
and the ``topology_version`` edit count come from the public edit API.
``netlist_fingerprint_reference`` is the fingerprint that
:func:`repro.store.codec.netlist_fingerprint` replaced: it builds the nested
JSON document and serialises it with ``json.dumps``.  Tests assert that the
shipped code yields the same netlists, pickle bytes, edit counts and
digests.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence

from repro.circuits.random_logic import RandomLogicSpec
from repro.netlist.cells import CellLibrary, default_library
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def _pick_source(rng, signals: Sequence[str], window: int, global_fraction: float) -> str:
    """Pick a source signal with a bias towards the most recent ones."""
    n = len(signals)
    if rng.random() >= global_fraction:
        index = n - 1 - rng.randrange(min(window, n))
    else:
        index = rng.randrange(n)
    return signals[index]


def generate_random_logic_reference(spec: RandomLogicSpec,
                                    library: Optional[CellLibrary] = None) -> Netlist:
    """The netlist ``generate_random_logic(spec, library)`` must return."""
    library = library if library is not None else default_library()
    rng = make_rng(spec.seed, "random_logic", spec.name)
    netlist = Netlist(spec.name, library)

    signals: List[str] = []
    for i in range(spec.num_inputs):
        pi = f"pi_{i}"
        netlist.add_primary_input(pi)
        signals.append(pi)

    cell_names = [name for name, _ in spec.cell_mix]
    weights = [weight for _, weight in spec.cell_mix]

    clock_net = None
    if spec.sequential_fraction > 0.0:
        clock_net = "clk"
        netlist.add_primary_input(clock_net)

    for i in range(spec.num_gates):
        out_net = f"n_{i}"
        if clock_net is not None and rng.random() < spec.sequential_fraction:
            source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
            netlist.add_gate(
                f"ff_{i}", "DFF_X1", {"D": source, "CK": clock_net, "Q": out_net}
            )
            signals.append(out_net)
            continue
        cell_name = rng.choices(cell_names, weights=weights, k=1)[0]
        cell = library[cell_name]
        sources: List[str] = []
        for _pin in cell.input_pins:
            source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
            retries = 0
            while source in sources and retries < 4 and len(signals) > len(sources):
                source = _pick_source(rng, signals, spec.locality_window, spec.global_net_fraction)
                retries += 1
            sources.append(source)
        connections = {pin.name: src for pin, src in zip(cell.input_pins, sources)}
        connections[cell.output_pins[0].name] = out_net
        netlist.add_gate(f"g_{i}", cell_name, connections)
        signals.append(out_net)

    dangling = [
        net.name for net in netlist.nets.values()
        if net.driver is not None and not net.sinks and not net.primary_outputs
    ]
    rng.shuffle(dangling)
    chosen: List[str] = list(dangling[: spec.num_outputs])
    if len(chosen) < spec.num_outputs:
        candidates = [
            net.name for net in netlist.nets.values()
            if net.driver is not None and net.name not in chosen
        ]
        rng.shuffle(candidates)
        chosen.extend(candidates[: spec.num_outputs - len(chosen)])
    for index, net_name in enumerate(chosen[: spec.num_outputs]):
        netlist.add_primary_output(f"po_{index}", net_name)

    problems = netlist.validate()
    if problems:
        raise RuntimeError(f"generated netlist is inconsistent: {problems[:3]}")
    return netlist


def netlist_fingerprint_reference(netlist: Netlist) -> str:
    """SHA-256 of the netlist's JSON document, as the store records it."""
    doc = {
        "name": netlist.name,
        "gates": [
            [g.name, g.cell.name, sorted(g.connections.items()), bool(g.dont_touch)]
            for g in netlist.gates.values()
        ],
        "nets": [
            [
                n.name,
                list(n.driver) if n.driver is not None else None,
                [list(sink) for sink in n.sinks],
                bool(n.is_primary_input),
                list(n.primary_outputs),
            ]
            for n in netlist.nets.values()
        ],
        "primary_inputs": list(netlist.primary_inputs),
        "primary_outputs": list(netlist.primary_outputs),
        "output_nets": sorted(netlist.output_nets.items()),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
