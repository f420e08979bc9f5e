"""Declarative scenario specifications with canonical hashing.

A :class:`ScenarioSpec` names one cell of the paper's evaluation grid —
benchmark × protection scheme × attacks × metrics — entirely with plain data
(strings, numbers, mappings).  Specs round-trip through ``to_dict`` /
``from_dict`` / JSON, and expose a **stable content hash** computed over the
*canonical* form: every attack/scheme/metric parameter payload is resolved
against its registered parameter dataclass (defaults filled in, lists
normalised) and serialised with sorted keys.  Two specs that mean the same
scenario therefore hash identically regardless of key order or whether
default parameters were spelled out — and two specs that differ in *any*
build-relevant knob hash differently, which is what makes the hash safe to
use as the :class:`~repro.api.workspace.Workspace` cache key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins
from repro.netlist.cells import NUM_METAL_LAYERS

#: Layout variants a scenario can target.  ``protected`` is the scheme's own
#: layout; ``original`` and ``lifted`` are only available for schemes that
#: carry a full protection run (``proposed``).
LAYOUT_VARIANTS = ("original", "lifted", "protected")
_LAYOUT_ALIASES = {"proposed": "protected"}


def _normalize_seeds(seeds: Any) -> Optional[Tuple[int, ...]]:
    """Canonicalize a sweep-seed payload to an explicit tuple of ints.

    Accepted spellings: ``None`` (single-seed scenario), an iterable of ints,
    or a ``{"start": s, "count": n}`` range.  Both spellings of the same seed
    set normalize — and therefore serialize, hash and expand — identically.
    """
    if seeds is None:
        return None
    if isinstance(seeds, Mapping):
        unknown = sorted(set(seeds) - {"start", "count"})
        if unknown:
            raise TypeError(
                f"unknown seeds key(s): {', '.join(unknown)}; "
                "accepted: start, count"
            )
        if "count" not in seeds:
            raise TypeError("seeds ranges require a 'count' key")
        start = int(seeds.get("start", 0))
        count = int(seeds["count"])
        if count <= 0:
            raise ValueError(f"seeds count must be positive, got {count}")
        return tuple(range(start, start + count))
    if isinstance(seeds, (str, bytes)):
        raise TypeError(
            "seeds must be a list of ints or a {start, count} mapping "
            f"(got the string {seeds!r}; the CLI parses 'a:b' spellings)"
        )
    values = tuple(int(seed) for seed in seeds)
    if not values:
        raise ValueError("seeds must not be empty (use None for single-seed)")
    duplicates = sorted({seed for seed in values if values.count(seed) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate seed(s) in sweep: {', '.join(map(str, duplicates))}"
        )
    return values


def _freeze_params(params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise TypeError(f"params must be a mapping, got {type(params).__name__}")
    return dict(params)


@dataclass(frozen=True, eq=True)
class _NamedSpec:
    """A registry name plus parameter overrides (shared attack/metric shape)."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @classmethod
    def coerce(cls, value: Union[str, Mapping[str, Any], "_NamedSpec"]) -> "_NamedSpec":
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"name", "params"})
            if unknown:
                raise TypeError(
                    f"unknown {cls.__name__} key(s): {', '.join(unknown)}; "
                    "accepted: name, params"
                )
            if "name" not in value:
                raise TypeError(f"{cls.__name__} entries require a 'name' key")
            return cls(name=value["name"], params=value.get("params", {}))
        raise TypeError(f"cannot build {cls.__name__} from {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the dict-valued
        # params field; hash the stable serialised form instead (equal specs
        # serialise equal).
        return hash(json.dumps(self.to_dict(), sort_keys=True))


# Plain subclasses (not re-decorated): re-applying @dataclass would replace
# the explicit __hash__ above with a generated one that chokes on the
# dict-valued params field.
class AttackSpec(_NamedSpec):
    """One attack to run: a registry name plus parameter overrides."""


class MetricSpec(_NamedSpec):
    """One metric to evaluate: a registry name plus parameter overrides."""


@dataclass(frozen=True, eq=True)
class ScenarioSpec:
    """One declarative scenario: what to build, attack and measure.

    Attributes:
        benchmark: Benchmark name from :func:`repro.circuits.registry.
            get_benchmark` (``"c432"`` … ``"superblue18"``).
        scheme: Protection scheme name from the :data:`~repro.api.registry.
            DEFENSES` registry (default the paper's ``"proposed"`` flow).
        scheme_params: Overrides for the scheme's parameter dataclass.
        scale: Down-scaling factor for superblue designs (``None`` keeps the
            benchmark default; ignored for ISCAS).
        layouts: Which layout variants to measure/attack.
        split_layers: FEOL/BEOL split layers the attacks run at, each in
            ``1 .. NUM_METAL_LAYERS - 1``.
        attacks: Attacks to run on every (layout, split layer) pair.
        metrics: Metrics to evaluate; their registered scope decides whether
            they run per layout, per layout-vs-baseline or per attack run.
        num_patterns: Simulation patterns for OER/HD style metrics (at
            least 1).
        seed: Master seed (benchmark generation, placement, randomization);
            an ``int``, like ``netlist_seed``.
        seeds: Optional Monte-Carlo seed sweep: a list of ints or a
            ``{"start": s, "count": n}`` range (normalized to the explicit
            list, so both spellings hash identically).  A spec with ``seeds``
            describes *n* builds; expand it with :meth:`expand_seeds` or run
            it through :meth:`repro.api.Workspace.run_sweeps`, which batches
            the per-seed builds through the prewarm process pool and
            aggregates the results (``seed`` is ignored while sweeping).
        netlist_seed: Seed for benchmark *generation* only.  ``None`` (the
            default) follows ``seed`` — the historical behaviour, where every
            sweep member builds a freshly generated netlist.  Pinning it
            decouples the design from the Monte-Carlo axis: every sweep
            member then places/routes the *same* netlist with a different
            ``seed``, which is what lets the build engine batch a sweep's
            seeds through one shared netlist skeleton
            (:func:`repro.layout.placer.place_batch`).
    """

    benchmark: str
    scheme: str = "proposed"
    scheme_params: Mapping[str, Any] = field(default_factory=dict)
    scale: Optional[float] = None
    layouts: Tuple[str, ...] = ("protected",)
    split_layers: Tuple[int, ...] = (4,)
    attacks: Tuple[AttackSpec, ...] = ()
    metrics: Tuple[MetricSpec, ...] = ()
    num_patterns: int = 1024
    seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None
    netlist_seed: Optional[int] = None

    @property
    def effective_netlist_seed(self) -> int:
        """The seed benchmark generation actually uses."""
        return self.seed if self.netlist_seed is None else self.netlist_seed

    def __post_init__(self) -> None:
        for name in ("seed", "netlist_seed"):
            value = getattr(self, name)
            if value is None and name == "netlist_seed":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.num_patterns < 1:
            raise ValueError(
                f"num_patterns must be at least 1, got {self.num_patterns}"
            )
        object.__setattr__(self, "seeds", _normalize_seeds(self.seeds))
        object.__setattr__(self, "scheme_params", _freeze_params(self.scheme_params))
        layouts = tuple(
            _LAYOUT_ALIASES.get(str(layout), str(layout)) for layout in self.layouts
        )
        for layout in layouts:
            if layout not in LAYOUT_VARIANTS:
                raise ValueError(
                    f"unknown layout variant {layout!r}; "
                    f"choose from {', '.join(LAYOUT_VARIANTS)} (alias: proposed)"
                )
        object.__setattr__(self, "layouts", layouts)
        split_layers = tuple(int(layer) for layer in self.split_layers)
        for layer in split_layers:
            if not 1 <= layer < NUM_METAL_LAYERS:
                raise ValueError(
                    f"split layer {layer} is outside 1..{NUM_METAL_LAYERS - 1} "
                    f"(the stack has {NUM_METAL_LAYERS} metal layers)"
                )
        object.__setattr__(self, "split_layers", split_layers)
        attacks = tuple(AttackSpec.coerce(a) for a in self.attacks)
        metrics = tuple(MetricSpec.coerce(m) for m in self.metrics)
        # Scenario results key attack records and metric values by name, so
        # duplicate names would silently shadow each other — reject them.
        for kind, entries in (("attack", attacks), ("metric", metrics)):
            names = [entry.name for entry in entries]
            duplicates = sorted({name for name in names if names.count(name) > 1})
            if duplicates:
                raise ValueError(
                    f"duplicate {kind} name(s) in scenario: {', '.join(duplicates)}; "
                    "results are keyed by name — declare separate scenarios instead"
                )
        object.__setattr__(self, "attacks", attacks)
        object.__setattr__(self, "metrics", metrics)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON compatible, preserves given params verbatim)."""
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "scheme_params": dict(self.scheme_params),
            "scale": self.scale,
            "layouts": list(self.layouts),
            "split_layers": list(self.split_layers),
            "attacks": [a.to_dict() for a in self.attacks],
            "metrics": [m.to_dict() for m in self.metrics],
            "num_patterns": self.num_patterns,
            "seed": self.seed,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "netlist_seed": self.netlist_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TypeError(
                f"unknown ScenarioSpec field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        if "benchmark" not in data:
            raise TypeError("ScenarioSpec requires a 'benchmark' field")
        return cls(**dict(data))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- canonicalization / hashing ---------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec with every params payload resolved against its registry.

        Defaults are filled in and values normalised (tuples → lists, enums →
        values), so two spellings of the same scenario canonicalise equal.
        Unknown names or parameters raise here.
        """
        ensure_builtins()
        scheme_entry = DEFENSES.get(self.scheme)
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "scheme_params": scheme_entry.canonical_params(self.scheme_params),
            "scale": self.scale,
            "layouts": list(self.layouts),
            "split_layers": list(self.split_layers),
            "attacks": [
                {"name": a.name, "params": ATTACKS.get(a.name).canonical_params(a.params)}
                for a in self.attacks
            ],
            "metrics": [
                {"name": m.name, "params": METRICS.get(m.name).canonical_params(m.params)}
                for m in self.metrics
            ],
            "num_patterns": self.num_patterns,
            "seed": self.seed,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "netlist_seed": self.netlist_seed,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable hash of the canonical spec (cache key, provenance tag)."""
        return self._memo_hash("_content_hash", self.canonical_json)

    def _memo_hash(self, name: str, text: Callable[[], str]) -> str:
        """SHA-256 of ``text()``, computed once per instance and kept in its
        ``__dict__`` under ``name``, outside the dataclass fields: ``==``,
        ``hash``, ``repr`` and ``to_dict`` never see it, and a
        ``dataclasses.replace`` copy starts without it."""
        if name not in self.__dict__:
            object.__setattr__(
                self, name, hashlib.sha256(text().encode("utf-8")).hexdigest())
        return self.__dict__[name]

    @property
    def short_hash(self) -> str:
        return self.content_hash()[:12]

    # -- seed sweeps -------------------------------------------------------

    def with_seeds(self, seeds: Any) -> "ScenarioSpec":
        """This spec as a Monte-Carlo sweep over ``seeds`` (normalized)."""
        return dataclasses.replace(self, seeds=_normalize_seeds(seeds))

    def expand_seeds(self) -> List["ScenarioSpec"]:
        """The concrete single-seed specs this spec describes.

        A plain spec expands to ``[self]``; a sweep spec expands to one spec
        per seed (``seed`` replaced, ``seeds`` cleared), in sweep order.
        """
        if self.seeds is None:
            return [self]
        return [
            dataclasses.replace(self, seed=seed, seeds=None)
            for seed in self.seeds
        ]

    def build_dict(self) -> Dict[str, Any]:
        """The build-relevant subset: everything that shapes the artefacts.

        This is the :class:`~repro.api.workspace.Workspace` cache key payload.
        It covers benchmark, scale, seed, scheme *and every scheme parameter*
        — by construction a config change that affects the build changes the
        key (the historical module-global cache keyed only on
        ``(benchmark, scale, seed)`` and silently served stale artefacts).
        """
        if self.seeds is not None:
            raise ValueError(
                "a seed-sweep spec describes multiple builds and has no "
                "single build key; expand it with expand_seeds() (or run it "
                "through Workspace.run_sweeps)"
            )
        canonical = self.canonical_dict()
        return {
            "benchmark": canonical["benchmark"],
            "scale": canonical["scale"],
            "seed": canonical["seed"],
            "scheme": canonical["scheme"],
            "scheme_params": canonical["scheme_params"],
            "netlist_seed": canonical["netlist_seed"],
        }

    def build_key(self) -> str:
        return self._memo_hash("_build_key", lambda: json.dumps(
            self.build_dict(), sort_keys=True, separators=(",", ":")))

    @classmethod
    def from_build_dict(cls, build: Mapping[str, Any]) -> "ScenarioSpec":
        """The minimal spec whose :meth:`build_dict` equals ``build``.

        Inverse of :meth:`build_dict` for the build-relevant subset (attack
        /metric/layout fields stay at their defaults — they don't shape the
        artefacts).  Used to rehydrate specs from artefact-store manifests:
        ``ScenarioSpec.from_build_dict(m["build"]).build_key()`` recovers
        the entry's key.
        """
        known = {"benchmark", "scale", "seed", "scheme", "scheme_params",
                 "netlist_seed"}
        unknown = sorted(set(build) - known)
        if unknown:
            raise TypeError(
                f"unknown build dict field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        if "benchmark" not in build:
            raise TypeError("build dicts require a 'benchmark' field")
        return cls(
            benchmark=build["benchmark"],
            scheme=build.get("scheme", "proposed"),
            scheme_params=build.get("scheme_params", {}),
            scale=build.get("scale"),
            seed=int(build.get("seed", 0)),
            netlist_seed=build.get("netlist_seed"),
        )

    def __hash__(self) -> int:
        # Explicit: the generated frozen-dataclass hash would choke on the
        # dict-valued scheme_params field (equal specs serialise equal).
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def validate(self) -> "ScenarioSpec":
        """Resolve every registry name and parameter payload; raise on errors."""
        from repro.circuits.registry import available_benchmarks

        if self.benchmark not in available_benchmarks():
            raise UnknownBenchmarkError(self.benchmark)
        self.content_hash()
        return self


class UnknownBenchmarkError(KeyError):
    def __init__(self, name: str):
        from repro.circuits.registry import available_benchmarks

        super().__init__(
            f"unknown benchmark {name!r}; available: {', '.join(available_benchmarks())}"
        )
        self.name = name

    def __str__(self) -> str:
        return self.args[0]


def load_specs(data: Union[Mapping[str, Any], Sequence[Mapping[str, Any]]]) -> List[ScenarioSpec]:
    """Build a list of specs from a payload that is one spec or many."""
    if isinstance(data, Mapping):
        if "scenarios" in data:
            return [ScenarioSpec.from_dict(entry) for entry in data["scenarios"]]
        return [ScenarioSpec.from_dict(data)]
    return [ScenarioSpec.from_dict(entry) for entry in data]
