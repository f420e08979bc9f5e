"""Columnar (de)serialization of scheme builds for the artefact store.

A stored build is split into two parts, mirroring the PR-6 skeleton/delta
protocol the pool workers already use:

* a **skeleton record** — the structural columns that are implied by the
  netlist and the routing topology: which net each routed entry belongs to,
  the sink reference of every 2-pin connection, the per-connection segment
  and via counts.  Everything here is an *index* into the deterministic
  regeneration of the benchmark netlist (``get_benchmark(benchmark,
  netlist_seed, scale)``), so no gate or net name is ever stored twice;
* the **coordinate columns** — flat ``float64`` arrays of placement
  positions and routed segment/via geometry.  ``float64`` survives the
  ``.npz`` round trip bit-exactly, which is what makes a disk-loaded build
  indistinguishable from the in-memory one.

:func:`encode_build` flattens a :class:`~repro.api.schemes.SchemeBuild`
into ``(record, arrays)`` — a JSON-compatible metadata record plus a dict
of NumPy arrays — and :func:`decode_build` reverses it against a freshly
regenerated netlist.  Both directions stay columnar: encode copies the
routing's :class:`~repro.layout.arrays.RoutingArrays` columns near-verbatim
into the payload (routings without a clean backing — hand-assembled nets,
mutated object graphs — get theirs from
:meth:`~repro.layout.arrays.RoutingArrays.from_nets`), and decode keeps the
payload columns as a fresh ``RoutingArrays`` behind lazy
:class:`~repro.layout.router.RoutedNet` shells — per-object geometry is
only materialized if a consumer of the loaded build touches it.

Builds that carry state the columnar format cannot represent — today the
``proposed`` scheme's full :class:`~repro.core.flow.ProtectionResult` —
raise :class:`UnstorableBuild`; callers degrade to the plain in-memory
path.  A payload that *should* decode but does not (truncated arrays,
foreign netlist, future format) raises :class:`CodecError` /
:class:`StaleEntry`, which the store layer turns into quarantine-and-
rebuild, never a crash.

Bit-exactness gates baked into every decode:

* the **netlist fingerprint** — a SHA-256 over the regenerated netlist's
  complete structure (gate order, cells, connectivity, ports) must equal
  the fingerprint recorded at encode time.  Any change to the benchmark
  generators invalidates every entry they produced, by construction;
* ``topology_version`` of the regenerated netlist and the recorded
  placement/layout ``geometry_version`` counters are carried through, so
  the columnar-view invalidation contract keeps working on loaded builds.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.layout.arrays import RoutingArrays, routing_columns
from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Point, Rect
from repro.layout.layout import Layout
from repro.layout.placer import PlacementResult, PlacerConfig
from repro.netlist.netlist import Netlist

#: Bump on ANY change to the payload schema or to the meaning of a stored
#: column.  Entries written under a different format version never decode —
#: they are treated as misses (see ``repro.store.store``).  The rules:
#: adding arrays/record keys that old readers would silently ignore is NOT
#: compatible (bit-exactness would be unverifiable) — every schema change
#: bumps this constant.
CODEC_FORMAT_VERSION = 1


class UnstorableBuild(Exception):
    """The build holds state the columnar payload cannot represent.

    Not an error condition: callers skip the disk tier for such builds and
    keep them purely in memory.
    """


class CodecError(Exception):
    """A payload that should decode does not (corrupt / truncated / foreign)."""


class StaleEntry(CodecError):
    """The payload decodes but its invalidation gates no longer match.

    Raised when the regenerated netlist's fingerprint or
    ``topology_version`` differs from the recorded one — i.e. the benchmark
    generator (or a structural-edit path feeding it) changed since the
    entry was written.
    """


# ---------------------------------------------------------------------------
# Netlist fingerprint
# ---------------------------------------------------------------------------

#: Fingerprint memo keyed by netlist identity, invalidated through the
#: netlist's own ``topology_version`` edit counter — the same contract the
#: vectorized simulation engine keys its compiled-plan caches on.  A seed
#: sweep replays N entries against ONE regenerated netlist; without the memo
#: every load re-hashes the full structure.
_fingerprint_memo: "weakref.WeakKeyDictionary[Netlist, Tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)


def netlist_fingerprint(netlist: Netlist) -> str:
    """SHA-256 over the netlist's complete structure, order included.

    Gate and net *iteration order* is part of the fingerprint: the codec
    stores positions and routing as indices into ``list(netlist.gates)`` /
    ``list(netlist.nets)``, so a reordered regeneration is as stale as a
    rewired one.
    """
    cached = _fingerprint_memo.get(netlist)
    if cached is not None and cached[0] == netlist.topology_version:
        return cached[1]
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
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    _fingerprint_memo[netlist] = (netlist.topology_version, digest)
    return digest


# ---------------------------------------------------------------------------
# JSON-safe metadata encoding (tuples survive the round trip)
# ---------------------------------------------------------------------------

_SCALARS = (str, int, float, bool, type(None))


def _encode_jsonable(value: Any) -> Any:
    """Encode free-form metadata so the round trip is type-exact.

    JSON alone would flatten tuples into lists; layouts put tuples in their
    ``metadata`` (e.g. swapped port pairs), and the bit-identical contract
    covers them.  Anything outside the supported closed set raises
    :class:`UnstorableBuild`.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_encode_jsonable(v) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise UnstorableBuild(
                    f"metadata mapping key {key!r} is not a string"
                )
        return {key: _encode_jsonable(v) for key, v in value.items()}
    raise UnstorableBuild(
        f"metadata value of type {type(value).__name__} is not storable"
    )


def _decode_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__tuple__"}:
            return tuple(_decode_jsonable(v) for v in value["__tuple__"])
        return {key: _decode_jsonable(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Layout encoding
# ---------------------------------------------------------------------------

def _encode_layout(layout: Layout, netlist: Netlist,
                   arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, Any]:
    gate_index = {name: i for i, name in enumerate(netlist.gates)}
    net_index = {name: i for i, name in enumerate(netlist.nets)}

    placement = layout.placement
    try:
        gate_order = np.fromiter(
            (gate_index[name] for name in placement.gate_positions),
            dtype=np.int64, count=len(placement.gate_positions),
        )
    except KeyError as error:
        raise UnstorableBuild(f"placement gate {error} unknown to the netlist")
    arrays[prefix + "gate_order"] = gate_order
    arrays[prefix + "gate_x"] = np.fromiter(
        (p.x for p in placement.gate_positions.values()),
        dtype=np.float64, count=len(placement.gate_positions),
    )
    arrays[prefix + "gate_y"] = np.fromiter(
        (p.y for p in placement.gate_positions.values()),
        dtype=np.float64, count=len(placement.gate_positions),
    )
    arrays[prefix + "port_names"] = np.array(
        list(placement.port_positions), dtype=np.str_
    )
    arrays[prefix + "port_x"] = np.fromiter(
        (p.x for p in placement.port_positions.values()),
        dtype=np.float64, count=len(placement.port_positions),
    )
    arrays[prefix + "port_y"] = np.fromiter(
        (p.y for p in placement.port_positions.values()),
        dtype=np.float64, count=len(placement.port_positions),
    )

    # -- routing: skeleton columns + coordinate columns --------------------
    # The payload is a near-copy of the routing columns: the clean backing
    # of a router/decode product, or RoutingArrays.from_nets for edited and
    # hand-assembled routings — no lazy net is ever materialized.
    for net_name, routed in layout.routing.items():
        if routed.name != net_name:
            raise UnstorableBuild(
                f"routed net {routed.name!r} stored under key {net_name!r}"
            )
    _encode_routing(
        routing_columns(layout.routing), net_index, gate_index, arrays, prefix
    )
    return _layout_record(layout, netlist, net_index, arrays, prefix)


def _encode_routing(backing: RoutingArrays, net_index: Dict[str, int],
                    gate_index: Dict[str, int],
                    arrays: Dict[str, np.ndarray], prefix: str) -> None:
    """Routing payload straight from :class:`RoutingArrays` columns.

    Column copies/stacks plus the two name→index translation loops the
    format needs.  Sink tokens are interned from ``sink_refs`` in
    connection order (first-appearance token ids).
    """
    num_conns = backing.num_connections
    try:
        rnet_net = np.fromiter(
            (net_index[name] for name in backing.net_names),
            dtype=np.int64, count=backing.num_nets,
        )
        if backing.conn_net_names is not None:
            conn_net = np.fromiter(
                (net_index[name] for name in backing.conn_net_names),
                dtype=np.int64, count=num_conns,
            )
        else:
            conn_net = np.repeat(rnet_net, np.diff(backing.conn_starts))
        sink_tokens: Dict[str, int] = {}
        token = sink_tokens.setdefault
        conn_sink_gate = np.fromiter(
            (-1 if first == "PO" else gate_index[first]
             for first, _second in backing.sink_refs),
            dtype=np.int64, count=num_conns,
        )
        conn_sink_token = np.fromiter(
            (token(second, len(sink_tokens))
             for _first, second in backing.sink_refs),
            dtype=np.int64, count=num_conns,
        )
    except KeyError as error:
        raise UnstorableBuild(f"routing references unknown name: {error}")

    arrays[prefix + "rnet_net"] = rnet_net
    # Driver columns hold (0.0, 0.0) wherever has_driver is false.
    arrays[prefix + "rnet_driver"] = np.column_stack(
        (backing.driver_x, backing.driver_y)
    )
    arrays[prefix + "rnet_has_driver"] = backing.has_driver.astype(np.uint8)
    arrays[prefix + "rnet_conn_count"] = np.diff(backing.conn_starts)
    arrays[prefix + "rnet_dvia_count"] = np.diff(backing.dvia_starts)
    arrays[prefix + "sink_tokens"] = np.array(
        sorted(sink_tokens, key=sink_tokens.get), dtype=np.str_
    )
    arrays[prefix + "conn_net"] = conn_net
    arrays[prefix + "conn_sink_gate"] = conn_sink_gate
    arrays[prefix + "conn_sink_token"] = conn_sink_token
    arrays[prefix + "conn_layers"] = np.column_stack(
        (backing.h_layer, backing.v_layer)
    ).astype(np.int16)
    arrays[prefix + "conn_coords"] = np.column_stack(
        (backing.sx, backing.sy, backing.tx, backing.ty)
    )
    arrays[prefix + "conn_hints"] = np.column_stack(
        (backing.hint_sx, backing.hint_sy, backing.hint_tx, backing.hint_ty)
    )
    arrays[prefix + "conn_hint_mask"] = np.column_stack(
        (backing.hint_src_present, backing.hint_tgt_present)
    )
    arrays[prefix + "conn_protected"] = backing.protected.astype(np.uint8)
    arrays[prefix + "conn_seg_count"] = np.diff(backing.seg_starts)
    arrays[prefix + "conn_via_count"] = np.diff(backing.via_starts)
    arrays[prefix + "seg_rows"] = np.column_stack((
        backing.seg_layer, backing.seg_x1, backing.seg_y1,
        backing.seg_x2, backing.seg_y2,
    ))
    arrays[prefix + "via_rows"] = np.column_stack(
        (backing.via_x, backing.via_y, backing.via_lower)
    )
    arrays[prefix + "dvia_rows"] = np.column_stack(
        (backing.dvia_x, backing.dvia_y, backing.dvia_lower)
    )


def _layout_record(layout: Layout, netlist: Netlist,
                   net_index: Dict[str, int],
                   arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, Any]:
    placement = layout.placement
    try:
        protected = sorted(net_index[name] for name in layout.protected_nets)
    except KeyError as error:
        raise UnstorableBuild(f"protected net {error} unknown to the netlist")
    arrays[prefix + "protected_nets"] = np.asarray(protected, dtype=np.int64)

    floorplan = placement.floorplan
    config = placement.config
    return {
        "name": layout.name,
        "lift_layer": layout.lift_layer,
        "metadata": _encode_jsonable(layout.metadata),
        "geometry_version": layout.geometry_version,
        "placement": {
            "geometry_version": placement.geometry_version,
            "floorplan": {
                "die": [floorplan.die.x_min, floorplan.die.y_min,
                        floorplan.die.x_max, floorplan.die.y_max],
                "num_rows": floorplan.num_rows,
                "sites_per_row": floorplan.sites_per_row,
                "row_height_um": floorplan.row_height_um,
                "site_width_um": floorplan.site_width_um,
                "utilization": floorplan.utilization,
            },
            "config": {
                "ordering": config.ordering,
                "refinement_rounds": config.refinement_rounds,
                "iterations_per_round": config.iterations_per_round,
                "damping": config.damping,
                "max_fanout_for_attraction": config.max_fanout_for_attraction,
                "seed": config.seed,
            },
        },
    }


def _require(arrays: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return arrays[name]
    except KeyError:
        raise CodecError(f"payload is missing array {name!r}")


def _decode_layout(record: Mapping[str, Any], arrays: Mapping[str, np.ndarray],
                   netlist: Netlist, prefix: str) -> Layout:
    gate_names = list(netlist.gates)
    net_names = list(netlist.nets)

    # Same __dict__ fast path as the router's bulk constructors: Point is a
    # frozen dataclass whose generated __init__ funnels every field through
    # object.__setattr__, and decode builds one Point per gate/port plus up
    # to four per routed connection — it dominates at superblue scale.
    _point_new = Point.__new__

    def fast_point(x: float, y: float) -> Point:
        point = _point_new(Point)
        d = point.__dict__
        d["x"] = x
        d["y"] = y
        return point

    try:
        placement_record = record["placement"]
        fp = placement_record["floorplan"]
        floorplan = Floorplan(
            die=Rect(*fp["die"]),
            num_rows=fp["num_rows"],
            sites_per_row=fp["sites_per_row"],
            row_height_um=fp["row_height_um"],
            site_width_um=fp["site_width_um"],
            utilization=fp["utilization"],
        )
        config = PlacerConfig(**placement_record["config"])
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed placement record: {error!r}")

    gate_order = _require(arrays, prefix + "gate_order")
    gate_x = _require(arrays, prefix + "gate_x").tolist()
    gate_y = _require(arrays, prefix + "gate_y").tolist()
    if not (len(gate_order) == len(gate_x) == len(gate_y)):
        raise CodecError("placement coordinate columns are misaligned")
    try:
        gate_positions = {
            gate_names[index]: fast_point(x, y)
            for index, x, y in zip(gate_order.tolist(), gate_x, gate_y)
        }
    except IndexError:
        raise CodecError("gate index out of range for the regenerated netlist")
    port_names = _require(arrays, prefix + "port_names").tolist()
    port_x = _require(arrays, prefix + "port_x").tolist()
    port_y = _require(arrays, prefix + "port_y").tolist()
    if not (len(port_names) == len(port_x) == len(port_y)):
        raise CodecError("port coordinate columns are misaligned")
    port_positions = {
        name: fast_point(x, y) for name, x, y in zip(port_names, port_x, port_y)
    }
    placement = PlacementResult(
        floorplan, gate_positions, port_positions, config,
        geometry_version=int(placement_record.get("geometry_version", 0)),
    )

    # -- routing -----------------------------------------------------------
    rnet_net = _require(arrays, prefix + "rnet_net").tolist()
    rnet_driver = _require(arrays, prefix + "rnet_driver")
    rnet_has_driver = _require(arrays, prefix + "rnet_has_driver").tolist()
    rnet_conn_count = _require(arrays, prefix + "rnet_conn_count").tolist()
    rnet_dvia_count = _require(arrays, prefix + "rnet_dvia_count").tolist()
    sink_tokens = _require(arrays, prefix + "sink_tokens").tolist()
    conn_net = _require(arrays, prefix + "conn_net").tolist()
    conn_sink_gate = _require(arrays, prefix + "conn_sink_gate").tolist()
    conn_sink_token = _require(arrays, prefix + "conn_sink_token").tolist()
    conn_layers = _require(arrays, prefix + "conn_layers")
    conn_coords = _require(arrays, prefix + "conn_coords")
    conn_hints = _require(arrays, prefix + "conn_hints")
    conn_hint_mask = _require(arrays, prefix + "conn_hint_mask")
    conn_protected = _require(arrays, prefix + "conn_protected").tolist()
    conn_seg_count = _require(arrays, prefix + "conn_seg_count").tolist()
    conn_via_count = _require(arrays, prefix + "conn_via_count").tolist()
    seg_rows = _require(arrays, prefix + "seg_rows")
    via_rows = _require(arrays, prefix + "via_rows")
    dvia_rows = _require(arrays, prefix + "dvia_rows")

    n_conns = len(conn_net)
    if not (
        n_conns == len(conn_sink_gate) == len(conn_sink_token)
        == len(conn_layers) == len(conn_coords) == len(conn_hints)
        == len(conn_hint_mask) == len(conn_protected)
        == len(conn_seg_count) == len(conn_via_count)
    ):
        raise CodecError("connection columns are misaligned")
    if sum(rnet_conn_count) != n_conns:
        raise CodecError("per-net connection counts do not cover the table")
    if sum(conn_seg_count) != len(seg_rows):
        raise CodecError("segment counts do not cover the segment table")
    if sum(conn_via_count) != len(via_rows):
        raise CodecError("via counts do not cover the via table")
    if sum(rnet_dvia_count) != len(dvia_rows):
        raise CodecError("driver-via counts do not cover the table")
    if (conn_layers.ndim != 2 or conn_layers.shape[1] != 2
            or conn_coords.ndim != 2 or conn_coords.shape[1] != 4
            or conn_hints.ndim != 2 or conn_hints.shape[1] != 4
            or conn_hint_mask.ndim != 2 or conn_hint_mask.shape[1] != 2
            or rnet_driver.ndim != 2 or rnet_driver.shape[1] != 2):
        raise CodecError("connection columns have unexpected shapes")

    # Columnar decode: keep the payload columns AS the routing (one
    # RoutingArrays backing + lazy RoutedNet shells) and resolve only the
    # name references eagerly.  Nothing geometric is materialized until a
    # consumer touches a net's ``connections``/``driver_vias`` — re-encoding
    # a freshly decoded build is a near-copy of these same columns.
    try:
        entry_names = [net_names[i] for i in rnet_net]
        conn_net_names = [net_names[i] for i in conn_net]
        sink_refs = [
            ("PO" if gate < 0 else gate_names[gate], sink_tokens[tok])
            for gate, tok in zip(conn_sink_gate, conn_sink_token)
        ]
        driver_points: List[Optional[Point]] = [
            fast_point(x, y) if has else None
            for has, x, y in zip(
                rnet_has_driver,
                rnet_driver[:, 0].tolist(), rnet_driver[:, 1].tolist(),
            )
        ]
    except IndexError:
        raise CodecError("routing index out of range for the regenerated netlist")

    dvia_lower = (dvia_rows[:, 2].astype(np.int64) if len(dvia_rows)
                  else np.empty(0, dtype=np.int64))
    via_lower = (via_rows[:, 2].astype(np.int64) if len(via_rows)
                 else np.empty(0, dtype=np.int64))
    seg_layer = (seg_rows[:, 0].astype(np.int64) if len(seg_rows)
                 else np.empty(0, dtype=np.int64))
    empty_f64 = np.empty(0, dtype=np.float64)

    def _csr(counts: List[int]) -> np.ndarray:
        return np.concatenate(
            ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
        ).astype(np.int64)

    backing = RoutingArrays(
        net_names=entry_names,
        conn_starts=_csr(rnet_conn_count),
        driver_x=rnet_driver[:, 0],
        driver_y=rnet_driver[:, 1],
        has_driver=np.asarray(rnet_has_driver, dtype=bool),
        driver_points=driver_points,
        dvia_starts=_csr(rnet_dvia_count),
        dvia_x=dvia_rows[:, 0] if len(dvia_rows) else empty_f64,
        dvia_y=dvia_rows[:, 1] if len(dvia_rows) else empty_f64,
        dvia_lower=dvia_lower,
        dvia_upper=dvia_lower + 1,
        sink_refs=sink_refs,
        sx=conn_coords[:, 0], sy=conn_coords[:, 1],
        tx=conn_coords[:, 2], ty=conn_coords[:, 3],
        h_layer=conn_layers[:, 0].astype(np.int64),
        v_layer=conn_layers[:, 1].astype(np.int64),
        protected=np.asarray(conn_protected, dtype=np.uint8),
        # Copies: override_hints writes these in place (defense re-aiming).
        hint_sx=conn_hints[:, 0].copy(), hint_sy=conn_hints[:, 1].copy(),
        hint_tx=conn_hints[:, 2].copy(), hint_ty=conn_hints[:, 3].copy(),
        hint_src_present=conn_hint_mask[:, 0].astype(np.uint8).copy(),
        hint_tgt_present=conn_hint_mask[:, 1].astype(np.uint8).copy(),
        hint_default=np.zeros(n_conns, dtype=bool),
        seg_starts=_csr(conn_seg_count),
        via_starts=_csr(conn_via_count),
        seg_layer=seg_layer,
        seg_x1=seg_rows[:, 1] if len(seg_rows) else empty_f64,
        seg_y1=seg_rows[:, 2] if len(seg_rows) else empty_f64,
        seg_x2=seg_rows[:, 3] if len(seg_rows) else empty_f64,
        seg_y2=seg_rows[:, 4] if len(seg_rows) else empty_f64,
        via_x=via_rows[:, 0] if len(via_rows) else empty_f64,
        via_y=via_rows[:, 1] if len(via_rows) else empty_f64,
        via_lower=via_lower,
        via_upper=via_lower + 1,
        conn_net_names=conn_net_names,
    )
    routing = backing.lazy_nets()

    try:
        protected_nets = {
            net_names[index]
            for index in _require(arrays, prefix + "protected_nets").tolist()
        }
    except IndexError:
        raise CodecError("protected-net index out of range")

    lift_layer = record.get("lift_layer")
    return Layout(
        name=str(record.get("name", f"{netlist.name}_layout")),
        netlist=netlist,
        placement=placement,
        routing=routing,
        protected_nets=protected_nets,
        lift_layer=int(lift_layer) if lift_layer is not None else None,
        metadata=_decode_jsonable(record.get("metadata", {})),
        geometry_version=int(record.get("geometry_version", 0)),
    )


# ---------------------------------------------------------------------------
# SchemeBuild encoding
# ---------------------------------------------------------------------------

def encode_build(build: Any, netlist: Netlist
                 ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Flatten a :class:`~repro.api.schemes.SchemeBuild` into columns.

    Returns:
        ``(record, arrays)`` — a JSON-compatible metadata record and the
        named coordinate/skeleton arrays of the payload.

    Raises:
        UnstorableBuild: The build carries state the format cannot
            represent (a full :class:`~repro.core.flow.ProtectionResult`,
            a baseline distinct from the scheme layout, non-plain
            metadata).
    """
    if getattr(build, "protection", None) is not None:
        raise UnstorableBuild(
            f"scheme {build.scheme!r} carries a full ProtectionResult; "
            "only plain-layout builds are stored"
        )
    if build.baseline is None:
        baseline = "none"
    elif build.baseline is build.layout:
        baseline = "same"
    else:
        raise UnstorableBuild(
            f"scheme {build.scheme!r} has a baseline distinct from its layout"
        )
    arrays: Dict[str, np.ndarray] = {}
    record = {
        "codec_version": CODEC_FORMAT_VERSION,
        "scheme": build.scheme,
        "baseline": baseline,
        "restrict_to_protected": bool(build.restrict_to_protected),
        "netlist_fingerprint": netlist_fingerprint(netlist),
        "topology_version": netlist.topology_version,
        "layout": _encode_layout(build.layout, netlist, arrays, "layout."),
    }
    return record, arrays


def decode_build(record: Mapping[str, Any], arrays: Mapping[str, np.ndarray],
                 netlist: Netlist):
    """Rebuild a :class:`~repro.api.schemes.SchemeBuild` from its columns.

    ``netlist`` must be the deterministic regeneration of the benchmark the
    entry was built from; the recorded fingerprint and ``topology_version``
    are verified against it before any object is materialized.

    Raises:
        CodecError: Malformed or truncated payload.
        StaleEntry: The regenerated netlist no longer matches the recorded
            fingerprint / topology version.
    """
    from repro.api.schemes import SchemeBuild

    if record.get("codec_version") != CODEC_FORMAT_VERSION:
        raise CodecError(
            f"codec version {record.get('codec_version')!r} != "
            f"{CODEC_FORMAT_VERSION}"
        )
    expected = record.get("netlist_fingerprint")
    actual = netlist_fingerprint(netlist)
    if expected != actual:
        raise StaleEntry(
            f"netlist fingerprint changed ({str(expected)[:12]}… recorded, "
            f"{actual[:12]}… regenerated) — benchmark generation has moved"
        )
    recorded_topology = record.get("topology_version")
    if recorded_topology != netlist.topology_version:
        raise StaleEntry(
            f"topology_version changed ({recorded_topology} recorded, "
            f"{netlist.topology_version} regenerated)"
        )
    layout = _decode_layout(record["layout"], arrays, netlist, "layout.")
    baseline_mode = record.get("baseline")
    if baseline_mode == "same":
        baseline = layout
    elif baseline_mode == "none":
        baseline = None
    else:
        raise CodecError(f"unknown baseline mode {baseline_mode!r}")
    return SchemeBuild(
        scheme=str(record["scheme"]),
        layout=layout,
        baseline=baseline,
        restrict_to_protected=bool(record.get("restrict_to_protected", False)),
    )
