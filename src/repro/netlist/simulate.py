"""Bit-parallel logic simulation and the OER / Hamming-distance metrics.

The paper measures the *output error rate* (OER) and the *Hamming distance*
(HD) between an original netlist and a recovered (or randomized) netlist by
applying 1,000,000 random test patterns in Synopsys VCS.  Here the same
metrics are computed with a bit-parallel simulator: each net carries a
bit-vector whose bit *i* is the net's value under pattern *i*.

Two execution engines share this interface:

* the **vectorized engine** (:mod:`repro.netlist.engine`) compiles the
  netlist once into a cached evaluation plan and executes it over NumPy
  ``uint64``-packed pattern blocks — the default, and fast enough to push
  pattern counts toward the paper's regime;
* the **legacy interpreter** in this module walks gates one at a time over
  Python dicts and arbitrary-precision integers — retained as the semantic
  reference and as the fallback for netlists containing custom cells without
  :attr:`~repro.netlist.cells.Cell.logic_ops` metadata.

Both engines are bit-exact with each other at equal seed (covered by the
equivalence tests in ``tests/test_engine.py``).

Sequential cells are treated as pseudo primary inputs (their ``Q`` outputs are
driven with random values and their ``D`` inputs are observed as pseudo
outputs) — the standard combinational-equivalence framing; the ISCAS-85
benchmarks used in the paper's ISCAS evaluation are purely combinational
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist import engine as _engine
from repro.netlist.graph import pseudo_topological_order
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng

#: Default number of random patterns used by the security metrics.  The
#: vectorized engine makes large pattern counts cheap; see the README for
#: guidance on picking pattern counts per experiment.
DEFAULT_NUM_PATTERNS = 16384


class SimulationError(RuntimeError):
    """Raised when a netlist cannot be simulated (undriven nets, loops...)."""


@dataclass
class SimulationResult:
    """Outcome of one bit-parallel simulation run.

    Attributes:
        num_patterns: Number of patterns packed into each bit-vector.
        inputs: Input pattern per primary input (bit-vector).
        outputs: Observed value per primary output (bit-vector).
        net_values: Value of every net (useful for debugging / toggle counts).
    """

    num_patterns: int
    inputs: Dict[str, int]
    outputs: Dict[str, int]
    net_values: Dict[str, int] = field(default_factory=dict)

    def output_bits(self, name: str) -> List[int]:
        """Return the output ``name`` as a list of 0/1 ints (pattern order)."""
        value = self.outputs[name]
        return [(value >> i) & 1 for i in range(self.num_patterns)]


def random_patterns(names: Sequence[str], num_patterns: int,
                    seed: Optional[int] = 0) -> Dict[str, int]:
    """Generate one random bit-vector of ``num_patterns`` bits per name."""
    rng = make_rng(seed, "patterns") if seed is not None else make_rng(None)
    return {name: rng.getrandbits(num_patterns) for name in names}


def _input_names(netlist: Netlist) -> List[str]:
    """Primary inputs plus sequential outputs (pseudo primary inputs)."""
    return _engine.plan_input_names(netlist)


def _resolved_inputs(netlist: Netlist, patterns: Optional[Mapping[str, int]],
                     num_patterns: int, seed: Optional[int]) -> Dict[str, int]:
    """The exact input bit-vector per (pseudo) primary input."""
    mask = (1 << num_patterns) - 1
    input_names = _input_names(netlist)
    generated = random_patterns(input_names, num_patterns, seed)
    values: Dict[str, int] = {}
    for name in input_names:
        if patterns is not None and name in patterns:
            values[name] = patterns[name] & mask
        else:
            values[name] = generated[name] & mask
    return values


def _simulate_legacy(netlist: Netlist, inputs: Dict[str, int],
                     num_patterns: int, x_value: int) -> SimulationResult:
    """Reference interpreter: per-gate evaluation over Python bigints."""
    mask = (1 << num_patterns) - 1
    values: Dict[str, int] = dict(inputs)

    # The pseudo-topological order degrades gracefully on (attacker-induced)
    # combinational loops instead of refusing to simulate.
    order = pseudo_topological_order(netlist)
    for gate_name in order:
        gate = netlist.gates[gate_name]
        if gate.cell.is_sequential:
            continue  # Outputs already seeded as pseudo inputs.
        gate_inputs: Dict[str, int] = {}
        for pin in gate.input_pin_names:
            net_name = gate.net_on(pin)
            if net_name is None:
                gate_inputs[pin] = x_value & mask
            else:
                gate_inputs[pin] = values.get(net_name, x_value & mask)
        outputs = gate.cell.evaluate(gate_inputs, mask)
        for pin, value in outputs.items():
            net_name = gate.net_on(pin)
            if net_name is not None:
                values[net_name] = value & mask

    observed: Dict[str, int] = {}
    for po in netlist.primary_outputs:
        net_name = netlist.output_nets[po]
        observed[po] = values.get(net_name, x_value & mask)

    return SimulationResult(
        num_patterns=num_patterns,
        inputs=inputs,
        outputs=observed,
        net_values=values,
    )


def simulate(netlist: Netlist, patterns: Optional[Mapping[str, int]] = None,
             num_patterns: int = DEFAULT_NUM_PATTERNS, seed: Optional[int] = 0,
             x_value: int = 0) -> SimulationResult:
    """Simulate ``netlist`` bit-parallel.

    Args:
        netlist: Netlist to simulate; its combinational portion must be acyclic.
        patterns: Optional mapping from primary-input (and pseudo-input) name
            to bit-vector.  Missing entries are filled with random values.
        num_patterns: Number of patterns packed per bit-vector.
        seed: Seed for generated patterns (``None`` = nondeterministic).
        x_value: Value assumed for undriven/unconnected nets (0 or full mask).

    Returns:
        A :class:`SimulationResult` with per-output and per-net values.
    """
    inputs = _resolved_inputs(netlist, patterns, num_patterns, seed)
    try:
        plan = _engine.compile_plan(netlist)
    except _engine.UnsupportedNetlist:
        return _simulate_legacy(netlist, inputs, num_patterns, x_value)
    if plan.prefer_bigints(num_patterns):
        by_slot = _engine.run_plan_bigints(plan, inputs, num_patterns, x_value)
        outputs = {po: by_slot[slot] for po, slot in plan.output_slots}
        net_values = {net: by_slot[slot] for net, slot in plan.value_slots}
    else:
        values = _engine.run_plan(plan, inputs, num_patterns, x_value)
        outputs = _engine.extract_outputs(plan, values, num_patterns)
        net_values = _engine.extract_values(plan, values, num_patterns)
    return SimulationResult(
        num_patterns=num_patterns,
        inputs=inputs,
        outputs=outputs,
        net_values=net_values,
    )


def _shared_input_patterns(reference: Netlist, candidate: Netlist,
                           num_patterns: int, seed: Optional[int]) -> Dict[str, int]:
    names = sorted(set(_input_names(reference)) | set(_input_names(candidate)))
    return random_patterns(names, num_patterns, seed)


def _popcount(value: int) -> int:
    return value.bit_count()


def _plan_outputs(plan: "_engine.SimPlan", patterns: Mapping[str, int],
                  num_patterns: int) -> Dict[str, int]:
    """Primary-output bit-vectors via the plan's preferred executor."""
    if plan.prefer_bigints(num_patterns):
        by_slot = _engine.run_plan_bigints(plan, patterns, num_patterns)
        return {po: by_slot[slot] for po, slot in plan.output_slots}
    values = _engine.run_plan(plan, patterns, num_patterns)
    return _engine.extract_outputs(plan, values, num_patterns)


def _output_pair(
    reference: Netlist, candidate: Netlist, num_patterns: int,
    seed: Optional[int],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Output bit-vectors of both netlists under shared patterns.

    Uses the compiled engine when both netlists support it and falls back to
    the legacy interpreter otherwise.  Raises :class:`SimulationError` when
    the primary-output sets differ.
    """
    patterns = _shared_input_patterns(reference, candidate, num_patterns, seed)
    try:
        ref_plan = _engine.compile_plan(reference)
        cand_plan = _engine.compile_plan(candidate)
    except _engine.UnsupportedNetlist:
        ref_outputs = simulate(reference, patterns, num_patterns, seed).outputs
        cand_outputs = simulate(candidate, patterns, num_patterns, seed).outputs
    else:
        ref_outputs = _plan_outputs(ref_plan, patterns, num_patterns)
        cand_outputs = _plan_outputs(cand_plan, patterns, num_patterns)
    if set(ref_outputs) != set(cand_outputs):
        raise SimulationError(
            "netlists expose different primary outputs; the metric is "
            f"undefined ({sorted(set(ref_outputs) ^ set(cand_outputs))[:5]} ...)"
        )
    return ref_outputs, cand_outputs


def _error_rate(ref_outputs: Mapping[str, int], cand_outputs: Mapping[str, int],
                num_patterns: int) -> float:
    error_mask = 0
    for po, ref_value in ref_outputs.items():
        error_mask |= ref_value ^ cand_outputs[po]
    return 100.0 * _popcount(error_mask) / num_patterns


def _hamming(ref_outputs: Mapping[str, int], cand_outputs: Mapping[str, int],
             num_patterns: int) -> float:
    if not ref_outputs:
        return 0.0
    differing = 0
    for po, ref_value in ref_outputs.items():
        differing += _popcount(ref_value ^ cand_outputs[po])
    total_bits = num_patterns * len(ref_outputs)
    return 100.0 * differing / total_bits


def output_error_rate(reference: Netlist, candidate: Netlist,
                      num_patterns: int = DEFAULT_NUM_PATTERNS,
                      seed: Optional[int] = 0) -> float:
    """Output error rate (OER) of ``candidate`` with respect to ``reference``.

    The OER is the fraction of test patterns for which *at least one* primary
    output of ``candidate`` differs from ``reference``.  An OER of ~100 %
    means the candidate netlist is wrong for essentially every input, which is
    the stopping criterion of the paper's randomization step and the desired
    outcome when an attacker simulates a recovered netlist.
    """
    ref_outputs, cand_outputs = _output_pair(reference, candidate, num_patterns, seed)
    return _error_rate(ref_outputs, cand_outputs, num_patterns)


def hamming_distance(reference: Netlist, candidate: Netlist,
                     num_patterns: int = DEFAULT_NUM_PATTERNS,
                     seed: Optional[int] = 0) -> float:
    """Average Hamming distance (HD, %) between the two netlists' outputs.

    The HD is the fraction of *output bits* that differ, averaged over all
    patterns.  0 % and 100 % both denote attack success (100 % is a simple
    inversion); 50 % is the ideal defensive value.
    """
    ref_outputs, cand_outputs = _output_pair(reference, candidate, num_patterns, seed)
    return _hamming(ref_outputs, cand_outputs, num_patterns)


def error_rate_and_hamming(reference: Netlist, candidate: Netlist,
                           num_patterns: int = DEFAULT_NUM_PATTERNS,
                           seed: Optional[int] = 0) -> Tuple[float, float]:
    """``(OER, HD)`` from one simulation of each netlist.

    Equal to :func:`output_error_rate` and :func:`hamming_distance` called
    separately, at half the simulation work.
    """
    ref_outputs, cand_outputs = _output_pair(reference, candidate, num_patterns, seed)
    return (
        _error_rate(ref_outputs, cand_outputs, num_patterns),
        _hamming(ref_outputs, cand_outputs, num_patterns),
    )


def toggle_rates(netlist: Netlist, num_patterns: int = DEFAULT_NUM_PATTERNS,
                 seed: Optional[int] = 0) -> Dict[str, float]:
    """Per-net switching activity estimate in [0, 0.5].

    The activity of a net is estimated as ``p * (1 - p)`` where ``p`` is the
    signal probability over the random patterns; this feeds the dynamic-power
    model.
    """
    try:
        plan = _engine.compile_plan(netlist)
    except _engine.UnsupportedNetlist:
        plan = None
    if plan is not None and not plan.prefer_bigints(num_patterns):
        inputs = _resolved_inputs(netlist, None, num_patterns, seed)
        values = _engine.run_plan(plan, inputs, num_patterns)
        counts = _engine.value_popcounts(plan, values, num_patterns)
        return {
            net: 2.0 * (count / num_patterns) * (1.0 - count / num_patterns)
            for net, count in counts.items()
        }
    result = simulate(netlist, None, num_patterns, seed)
    rates: Dict[str, float] = {}
    for net, value in result.net_values.items():
        p = _popcount(value) / num_patterns
        rates[net] = 2.0 * p * (1.0 - p)
    return rates
