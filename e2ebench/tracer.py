"""Outside-in span tracer for the ``repro`` layers.

The tracer changes no program file.  It rebinds each listed public function
at every ``repro.*`` module attribute that is identical to it (so names that
``core/flow.py``, ``api/workspace.py`` or ``core/restore.py`` imported with
``from … import name`` are covered too), wraps class methods on their class,
and wraps registry entries through their ``fn``.  The benchmark's service
clients also open spans around their HTTP calls (:meth:`Tracer.span`).
Every span records its name, thread, start, end and depth on its thread.

Spans are kept in memory while the run measures and written out when it
ends.  Per span name the tracer reports:

* ``calls`` — spans that ended while the run measured;
* ``busy_s`` — wall time inside the span, counting a name once while it is
  nested in itself on one thread (threads add up, so this can exceed wall);
* ``self_s`` — ``busy_s`` minus the time covered by child spans.

A span stack is kept per thread, because service jobs run on their own
``repro-job`` threads.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) of every wrapped module-level function.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("circuits.get_benchmark", "repro.circuits.registry", "get_benchmark"),
    ("layout.build_layout", "repro.layout.layout", "build_layout"),
    ("layout.build_layout_batch", "repro.layout.layout", "build_layout_batch"),
    ("core.protect", "repro.core.flow", "protect"),
    ("core.randomize_netlist", "repro.core.randomizer", "randomize_netlist"),
    ("core.build_protected_layout", "repro.core.restore", "build_protected_layout"),
    ("core.build_naive_lifted_layout", "repro.core.lifting", "build_naive_lifted_layout"),
    ("core.evaluate_ppa", "repro.core.flow", "evaluate_ppa"),
    ("netlist.output_error_rate", "repro.netlist.simulate", "output_error_rate"),
    ("netlist.compile_plan", "repro.netlist.engine", "compile_plan"),
    ("sm.extract_feol", "repro.sm.split", "extract_feol"),
    ("attacks.network_flow", "repro.attacks.network_flow", "network_flow_attack"),
    ("attacks.proximity", "repro.attacks.proximity", "proximity_attack"),
    ("attacks.crouting", "repro.attacks.crouting", "crouting_attack"),
)

#: (span name, module, class, method) of every wrapped method.
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("layout.materialize", "repro.layout.arrays", "RoutingArrays", "materialize_into"),
    ("store.save", "repro.store.store", "ArtifactStore", "save"),
    ("store.load", "repro.store.store", "ArtifactStore", "load"),
)

#: Spans the benchmark's service clients open around their HTTP calls:
#: ``POST /v1/jobs`` and the ``GET …/result?wait=`` long-poll, each from
#: sending the request to reading the whole reply.
CLIENT_SPANS = ("service.submit", "service.result_wait")

#: Registry-entry spans, named after the registered entry.
REGISTRY_SPANS = ("metrics.security", "metrics.distances", "metrics.other",
                  "defenses.prior_art")

SPAN_NAMES: Tuple[str, ...] = (
    tuple(name for name, *_ in FUNCTION_SPANS)
    + tuple(name for name, *_ in METHOD_SPANS)
    + REGISTRY_SPANS
    + CLIENT_SPANS
)

#: Modules imported before rebinding, so every ``from … import`` binding
#: of a traced function exists when the tracer scans for it.
PRELOAD = ("repro", "repro.api", "repro.experiments.runner", "repro.service",
           "repro.store", "repro.metrics.ppa")


def _metric_span(name: str) -> str:
    return f"metrics.{name}" if name in ("security", "distances") else "metrics.other"


def _defense_span(name: str) -> Optional[str]:
    return None if name in ("original", "proposed") else "defenses.prior_art"


class _Span:
    """One open span; a context manager that records itself on exit."""

    __slots__ = ("tracer", "name", "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer._stack().append(self)
        self.child_s = 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._stack()
        stack.pop()
        duration = end - self.start
        if stack:
            stack[-1].child_s += duration
        if not tracer.active:
            return
        name = self.name
        nested = any(outer.name == name for outer in stack)
        with tracer._lock:
            tracer.calls[name] += 1
            tracer.self_s[name] += duration - self.child_s
            if not nested:
                tracer.busy_s[name] += duration
            tracer.spans.append((name, threading.current_thread().name,
                                 self.start, end, len(stack)))


class Tracer:
    """Wraps the ``repro`` layers, records spans, restores on :meth:`uninstall`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: id → weak reference of every plan seen (plans are unhashable).
        self._plans: Dict[int, "weakref.ref[Any]"] = {}
        self._gc_start: Optional[float] = None
        self.active = False
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and counter recorded so far (called after setup)."""
        with self._lock:
            self.calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
            self.busy_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
            self.self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
            #: (name, thread name, start, end, depth on its thread)
            self.spans: List[Tuple[str, str, float, float, int]] = []
            self.plan_compiles = 0
            self.gen2_collections = 0
            self.gen2_pause_s = 0.0

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        """A span around code of the benchmark's own that calls into a layer."""
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def _count_plan(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(netlist):
            plan = fn(netlist)
            if self.active:
                with self._lock:
                    seen = self._plans.get(id(plan))
                    if seen is None or seen() is not plan:
                        self._plans[id(plan)] = weakref.ref(plan)
                        self.plan_compiles += 1
            return plan

        return counted

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            pause = time.perf_counter() - self._gc_start
            self._gc_start = None
            if self.active:
                self.gen2_collections += 1
                self.gen2_pause_s += pause

    # -- installation ---------------------------------------------------

    def _rebind(self, original: Callable, replacement: Callable) -> int:
        """Point every ``repro.*`` binding identical to ``original`` at
        ``replacement``; returns how many bindings moved."""
        moved = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append(
                        functools.partial(setattr, module, attr, original))
                    moved += 1
        return moved

    def install(self) -> None:
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        from repro.api.registry import DEFENSES, METRICS, ensure_builtins

        ensure_builtins()
        for name, module_name, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(name, original)
            if name == "netlist.compile_plan":
                wrapped = self._count_plan(wrapped)
            if not self._rebind(original, wrapped):
                raise RuntimeError(f"no binding of {module_name}.{attr} to trace")
        for name, module_name, cls_name, method in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original))
            self._restore.append(functools.partial(setattr, cls, method, original))
        for registry, span_of in ((METRICS, _metric_span), (DEFENSES, _defense_span)):
            for entry_name in registry.names():
                entry = registry.get(entry_name)
                span = span_of(entry_name)
                if span is None:
                    continue
                original = entry.fn
                object.__setattr__(entry, "fn", self.wrap(span, original))
                self._restore.append(
                    functools.partial(object.__setattr__, entry, "fn", original))
        gc.callbacks.append(self._on_gc)
        self._restore.append(functools.partial(gc.callbacks.remove, self._on_gc))

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            self._restore.pop()()

    # -- reporting ------------------------------------------------------

    def total_calls(self) -> int:
        with self._lock:
            return sum(self.calls.values())

    def coverage(self, windows: List[Tuple[float, float]]) -> float:
        """Share of the measured ``windows`` covered by top-level spans of
        any thread (overlapping spans count once)."""
        with self._lock:
            top = sorted((s, e) for _, _, s, e, depth in self.spans if depth == 0)
        covered = total = 0.0
        for start, end in windows:
            total += end - start
            reach = start
            for lo, hi in top:
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
        return covered / total if total > 0 else 0.0

    def span_records(self, origin: float) -> List[List[Any]]:
        """Every span as ``[name, thread, start_s, end_s, depth]`` relative
        to ``origin``, in start order."""
        with self._lock:
            spans = sorted(self.spans, key=lambda span: span[2])
        return [[name, thread, round(s - origin, 6), round(e - origin, 6), depth]
                for name, thread, s, e, depth in spans]


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    traced = tracer.wrap("core.protect", noop)
    best_plain = best_traced = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        best_plain = min(best_plain, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
        tracer.reset()
    return max(best_traced - best_plain, 0.0) / samples
