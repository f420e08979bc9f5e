"""String-keyed registries for attacks, protection schemes and metrics.

The scenario API is *registry driven*: every attack, defense/protection
scheme and metric is registered under a stable string name together with a
typed parameter dataclass.  A :class:`~repro.api.spec.ScenarioSpec` refers to
these names, so new workloads are declared (in code or JSON) instead of
hand-coded, and a spec written today keeps meaning the same thing as long as
the registered names are stable.

Three process-wide registries are exposed:

* :data:`ATTACKS` — ``proximity``, ``network_flow``, ``crouting`` …
* :data:`DEFENSES` — ``proposed``, ``original``, ``placement_perturbation`` …
* :data:`METRICS` — ``security``, ``distances``, ``via_delta`` …

Registration happens through decorators::

    @ATTACKS.register("my_attack", params=MyAttackParams)
    def run_my_attack(view, params):
        ...

Parameter payloads arriving from JSON are validated and coerced against the
registered dataclass (`lists` become `tuples`, enum values are resolved,
unknown keys raise), so a typo in a spec fails loudly at resolution time
rather than silently producing a default-configured run.
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
import functools
import typing
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


class UnknownNameError(KeyError):
    """Lookup of a name that is not registered.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` call sites
    keep working, but renders a helpful message with the known names and
    close matches.
    """

    def __init__(self, kind: str, name: str, known: List[str]):
        self.kind = kind
        self.name = name
        self.known = list(known)
        suggestions = difflib.get_close_matches(name, self.known, n=3)
        message = f"unknown {kind} {name!r}; available: {', '.join(self.known) or '<none>'}"
        if suggestions:
            message += f" (did you mean {', '.join(suggestions)}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError wraps args[0] in repr quotes
        return self.args[0]


@functools.cache
def _resolved_hints(params_type: type) -> Mapping[str, Any]:
    """Field annotations with forward references resolved (best effort).

    ``from __future__ import annotations`` makes every ``field.type`` a
    string; coercion needs the real types, so resolve them once per class
    (cached; callers must not mutate the result).  A class whose hints do
    not resolve gets ``{}``, and keeps it.
    """
    try:
        return typing.get_type_hints(params_type)
    except Exception:
        return {}


def _is_tuple_annotation(annotation: Any) -> bool:
    origin = typing.get_origin(annotation)
    if origin in (tuple, Tuple):
        return True
    if origin is typing.Union:
        return any(_is_tuple_annotation(arg) for arg in typing.get_args(annotation))
    return False


def _coerce_field(field: dataclasses.Field, annotation: Any, value: Any) -> Any:
    """Coerce a JSON-ish ``value`` onto a dataclass field's expected type."""
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum) \
            and not isinstance(value, enum.Enum):
        return annotation(value)
    if isinstance(field.default, enum.Enum) and not isinstance(value, enum.Enum):
        return type(field.default)(value)
    if isinstance(value, list):
        if _is_tuple_annotation(annotation) or isinstance(field.default, tuple):
            return tuple(value)
    return value


def build_params(params_type: Optional[type],
                 overrides: Optional[Mapping[str, Any]] = None) -> Any:
    """Instantiate ``params_type`` from a plain mapping of overrides.

    Unknown keys raise :class:`TypeError`; list values targeting tuple fields
    are coerced so JSON payloads round-trip into the same dataclass values.
    """
    overrides = dict(overrides or {})
    if params_type is None:
        if overrides:
            raise TypeError(f"parameters {sorted(overrides)} given, but none accepted")
        return None
    fields = {f.name: f for f in dataclasses.fields(params_type)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise TypeError(
            f"unknown parameter(s) {', '.join(unknown)} for {params_type.__name__}; "
            f"accepted: {', '.join(sorted(fields))}"
        )
    hints = _resolved_hints(params_type)
    kwargs = {
        name: _coerce_field(fields[name], hints.get(name), value)
        for name, value in overrides.items()
    }
    return params_type(**kwargs)


def params_to_dict(params: Any) -> Dict[str, Any]:
    """Serialize a parameter dataclass to a canonical plain dict."""
    if params is None:
        return {}

    def plain(value: Any) -> Any:
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, list):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    return {k: plain(v) for k, v in dataclasses.asdict(params).items()}


@dataclasses.dataclass(frozen=True)
class RegistryEntry:
    """One registered implementation: name, callable and parameter type."""

    name: str
    fn: Callable[..., Any]
    params_type: Optional[type]
    summary: str = ""
    #: Free-form metadata (e.g. a metric's ``scope``).
    extra: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def make_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Any:
        return build_params(self.params_type, overrides)

    def canonical_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Overrides resolved against the dataclass defaults, as a plain dict."""
        return params_to_dict(self.make_params(overrides))


class Registry:
    """A string-keyed collection of :class:`RegistryEntry` objects."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    def register(self, name: str, *, params: Optional[type] = None,
                 summary: str = "", **extra: Any) -> Callable:
        """Decorator registering ``fn`` under ``name``."""

        def decorator(fn: Callable) -> Callable:
            if name in self._entries:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            doc = summary
            if not doc and fn.__doc__:
                doc = fn.__doc__.strip().splitlines()[0]
            self._entries[name] = RegistryEntry(
                name=name, fn=fn, params_type=params, summary=doc, extra=dict(extra)
            )
            return fn

        return decorator

    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: Attacks on FEOL views (``fn(view, params) -> AttackOutcome``).
ATTACKS = Registry("attack")
#: Protection schemes / defenses (``fn(netlist, params, seed) -> SchemeBuild``).
DEFENSES = Registry("defense")
#: Security / layout / comparison metrics (scope in ``entry.extra['scope']``).
METRICS = Registry("metric")

_BUILTINS_LOADED = False


def ensure_builtins() -> None:
    """Import the built-in attack/scheme/metric registrations exactly once.

    Lazy so that :mod:`repro.api.spec` can resolve names without creating an
    import cycle with the modules that perform the registration.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # The flag flips only after every import succeeded: a failing builtin
    # import must propagate again on the next call instead of silently
    # leaving the registries half-populated.
    from repro.api import attacks as _attacks  # noqa: F401
    from repro.api import metrics as _metrics  # noqa: F401
    from repro.api import schemes as _schemes  # noqa: F401

    _BUILTINS_LOADED = True
