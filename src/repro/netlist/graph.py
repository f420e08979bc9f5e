"""Graph helpers over integer node ids.

:func:`transitive_closure` gives every node's reachable set at once, as
integer bitsets: the network-flow attack's loop-avoidance hint.  The
netlist's orderings and loop checks are methods of its integer view
(:class:`repro.netlist.arrays.NetlistArrays`: ``kahn``, ``is_acyclic``,
``pseudo_order``, ``levels``); :class:`CombinationalLoopError` is what the
timing model raises when it needs an order that a loop prevents.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class CombinationalLoopError(ValueError):
    """Raised when an order or depth needs acyclic combinational logic."""


def transitive_closure(successors: Sequence[Iterable[int]]) -> List[int]:
    """Every node's reachable set, as integer bitsets, in one pass.

    ``successors[i]`` lists the successors of node ``i`` (``0 <= i < n``).
    Returns ``reach`` where bit ``j`` of ``reach[i]`` is set iff node ``j``
    is reachable from node ``i`` by a path of at least one edge, ``i``
    itself excluded even when it sits on a cycle.

    An iterative Tarjan walk emits the strongly connected components in
    reverse topological order, so every edge leaving a component points at a
    component that is already closed: a component's reach is the OR of its
    members' bits and the closed reach of those successors.
    """
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    closed = [0] * n  # reach of the node's component, members included
    reach = [0] * n
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        calls = [(root, iter(successors[root]))]
        while calls:
            node, edges = calls[-1]
            for succ in edges:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    calls.append((succ, iter(successors[succ])))
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                calls.pop()
                if calls:
                    parent = calls[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] != index[node]:
                    continue
                members = []
                bits = 0
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    bits |= 1 << member
                    if member == node:
                        break
                for member in members:
                    for succ in successors[member]:
                        if not bits >> succ & 1:
                            bits |= closed[succ]
                for member in members:
                    closed[member] = bits
                    reach[member] = bits & ~(1 << member)
    return reach
