"""Columnar (de)serialization of scheme builds for the artefact store.

A stored build is split into three parts, mirroring the skeleton/delta
protocol the pool workers already use:

* the **netlist** the build was made on — one ASCII ``json.dumps`` of its
  name tables and its ``gate_cell``/``fanin_net``/``fanout_net`` columns
  (the ``netlist.*`` members, see :func:`_encode_netlist`), from which
  :meth:`~repro.netlist.netlist.Netlist.from_columns` rebuilds it;
* a **skeleton record** — the structural columns that are implied by the
  netlist and the routing topology: which net each routed entry belongs to,
  the sink reference of every 2-pin connection, the per-connection segment
  and via counts.  Everything here is an *index* into the netlist's gate
  and net name tables, so no gate or net name is stored twice;
* the **coordinate columns** — flat ``float64`` arrays of placement
  positions and routed segment/via geometry.  The store writes each
  column's raw bytes (``payload.bin``, see ``repro.store.store``), so a
  disk-loaded build is bit-identical to the in-memory one.

:func:`encode_build` flattens a :class:`~repro.api.schemes.SchemeBuild`
into ``(record, arrays)`` — a JSON-compatible metadata record plus a dict
of NumPy arrays — and :func:`decode_build` reverses it, against the
netlist the caller passes or else the one the payload carries.  Both
directions are column copies: the placement's and the routing's
(:class:`~repro.layout.arrays.RoutingArrays`) columns go into the payload
near-verbatim, with their integer name keys, and decode keeps the payload
columns as the placement and routing columns of the loaded layout.

Builds that carry state the columnar format cannot represent — today the
``proposed`` scheme's full :class:`~repro.core.flow.ProtectionResult` —
raise :class:`UnstorableBuild`; callers degrade to the plain in-memory
path.  A payload that *should* decode but does not (truncated arrays,
foreign netlist, future format) raises :class:`CodecError` /
:class:`StaleEntry`, which the store layer turns into quarantine-and-
rebuild, never a crash.

Bit-exactness gates baked into every decode:

* the **netlist fingerprint** — a SHA-256 over a versioned byte layout of
  the netlist's name tables and integer columns (gate order, cells,
  connectivity, ports; see :func:`netlist_fingerprint`) must equal the
  fingerprint recorded at encode time, for the decoded netlist as for a
  passed one.  A decode never runs the benchmark generators; the store
  catches a change to them by its generator version and its deep
  ``verify`` (see ``repro.store.store``);
* ``topology_version`` of the netlist and the recorded placement/layout
  ``geometry_version`` counters are carried through, so the
  columnar-view invalidation contract keeps working on loaded builds.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.layout.arrays import RoutingArrays
from repro.layout.floorplan import Floorplan
from repro.layout.geometry import Rect
from repro.layout.layout import Layout
from repro.layout.placer import PlacementResult, PlacerConfig
from repro.netlist.arrays import NetlistArrays, csr, netlist_arrays
from repro.netlist.cells import default_library
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

    Raised when the fingerprint or ``topology_version`` of the netlist a
    caller passes differs from the recorded one — i.e. the caller's
    netlist is not the one the entry was built on.
    """


# ---------------------------------------------------------------------------
# Netlist fingerprint
# ---------------------------------------------------------------------------

#: Fingerprint memo keyed by netlist identity, invalidated through the
#: version pair of the netlist's integer snapshot (``topology_version``
#: and the ``dont_touch`` change count) — the contract the vectorized
#: simulation engine keys its compiled-plan caches on.  A seed
#: sweep saves N entries of ONE netlist, and a Workspace replays every seed
#: of a pinned ``netlist_seed`` against one netlist; the memo hashes each
#: such netlist once.  A load reads ``payload.bin`` once,
#: checks those bytes against the manifest's SHA-256 and decodes the same
#: bytes (see ``repro.store.store``); the fingerprint gates the decode.
_fingerprint_memo: "weakref.WeakKeyDictionary[Netlist, Tuple[Tuple[int, int], str]]" = (
    weakref.WeakKeyDictionary()
)

#: First bytes of every fingerprinted byte string; a new byte layout
#: changes the tag (and ``STORE_FORMAT_VERSION``).
_FINGERPRINT_TAG = b"repro netlist fingerprint 2\n"


def netlist_fingerprint(netlist: Netlist) -> str:
    """SHA-256 over the netlist's complete structure, order included.

    Gate and net *order* is part of the fingerprint: the codec stores
    positions and routing as indices into the netlist's gate and net name
    tables, so a reordered netlist is as stale as a rewired one.

    The hashed bytes (layout version 2, read off
    :func:`~repro.netlist.arrays.netlist_arrays`) are, in order:

    1. the tag ``b"repro netlist fingerprint 2\\n"``;
    2. one ``json.dumps`` (ASCII, escaped) of ``[name, gate names, net
       names, primary inputs, primary outputs, sorted (output, net)
       pairs, [[cell name, input pins, output pins], ...]]``, the cells
       being those in use in first-use (gate) order, as a length-prefixed
       block;
    3. as length-prefixed little-endian int64 blocks: ``gate_cell`` (an
       index into that cell list), ``dont_touch``, ``fanin_start``,
       ``fanin_net``, ``fanout_start``, ``fanout_net``,
       ``net_driver_row``, ``net_is_pi``, ``sink_start``, ``sink_row``,
       ``net_po_start`` and ``net_po``.

    Every length is 8 bytes, little-endian.  Two netlists of one cell
    library get equal fingerprints exactly when their structure documents
    (gates with their cells, connections and ``dont_touch``; nets with
    their driver, sinks in order, primary-input flag and outputs; the port
    lists and the output map) are equal.  Names are strings.
    """
    arrays = netlist_arrays(netlist)
    cached = _fingerprint_memo.get(netlist)
    if cached is not None and cached[0] == (arrays.version, arrays.marks):
        return cached[1]
    # A netlist's cell table holds exactly the cells in use, in first-use
    # order (``Netlist._cell_table`` adds a cell with its first gate and no
    # gate is ever removed), so ``gate_cell`` is a function of the gates'
    # cell names.
    names = json.dumps([
        netlist.name, arrays.gate_names, arrays.net_names,
        arrays.primary_inputs, arrays.primary_outputs,
        sorted(netlist.output_nets.items()),
        [[table.cell.name, table.inputs, table.outputs] for table in arrays.cells],
    ]).encode("ascii")
    digest = hashlib.sha256(_FINGERPRINT_TAG)
    digest.update(len(names).to_bytes(8, "little"))
    digest.update(names)
    for column in (arrays.gate_cell, arrays.dont_touch, arrays.fanin_start,
                   arrays.fanin_net, arrays.fanout_start, arrays.fanout_net,
                   arrays.net_driver_row, arrays.net_is_pi, arrays.sink_start,
                   arrays.sink_row, arrays.net_po_start, arrays.net_po):
        column = np.ascontiguousarray(column, dtype="<i8")
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(column)
    text = digest.hexdigest()
    _fingerprint_memo[netlist] = ((arrays.version, arrays.marks), text)
    return text


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
# Netlist encoding
# ---------------------------------------------------------------------------

def _from_columns_shape(netlist: Netlist, tables: NetlistArrays) -> bool:
    """Whether :meth:`Netlist.from_columns` rebuilds ``netlist`` from its
    name tables and pin columns: no ``dont_touch`` mark, each net's sinks
    in row order, the outputs declared in ``output_nets`` order and the
    edit count of that construction.  Every generated benchmark is."""
    fanin_net, po_net = tables.fanin_net, tables.po_net
    rows = np.flatnonzero(fanin_net >= 0)
    edits = (tables.num_nets + len(tables.primary_inputs) + tables.num_gates
             + len(rows) + int((tables.fanout_net >= 0).sum())
             + len(tables.primary_outputs))
    return (not tables.dont_touch.any()
            and tables.primary_outputs == list(netlist.output_nets)
            and netlist.topology_version == edits
            and np.array_equal(tables.sink_row,
                               rows[np.argsort(fanin_net[rows], kind="stable")])
            and np.array_equal(tables.net_po, np.argsort(po_net, kind="stable")))


def _encode_netlist(netlist: Netlist, arrays: Dict[str, np.ndarray]) -> None:
    """The ``netlist.*`` payload members: one ASCII ``json.dumps`` of the
    name tables (``[name, gate names, net names, primary inputs,
    [[output, net], ...] in output order, cell names in first-use order]``)
    and the ``gate_cell``, ``fanin_net`` and ``fanout_net`` columns."""
    tables = netlist_arrays(netlist)
    if not _from_columns_shape(netlist, tables):
        raise UnstorableBuild(
            f"netlist {netlist.name!r} is not rebuilt by Netlist.from_columns "
            "from its columns"
        )
    names = json.dumps([
        netlist.name, tables.gate_names, tables.net_names, tables.primary_inputs,
        list(netlist.output_nets.items()), [table.cell.name for table in tables.cells],
    ]).encode("ascii")
    arrays["netlist.names"] = np.frombuffer(names, dtype=np.uint8)
    arrays["netlist.gate_cell"] = tables.gate_cell.astype(np.int64)
    arrays["netlist.fanin_net"] = tables.fanin_net
    arrays["netlist.fanout_net"] = tables.fanout_net


def _decode_netlist(arrays: Mapping[str, np.ndarray]) -> Netlist:
    """The netlist of a payload, built by :meth:`Netlist.from_columns` on
    the default cell library (the library of every registered benchmark)."""
    try:
        (name, gate_names, net_names, primary_inputs, output_nets,
         cell_names) = json.loads(_require(arrays, "netlist.names").tobytes())
    except (ValueError, TypeError) as error:
        raise CodecError(f"malformed netlist name tables: {error!r}")
    gate_cell = _indices(arrays, "netlist.gate_cell", 0, len(cell_names))
    fanin_net = _indices(arrays, "netlist.fanin_net", -1, len(net_names))
    fanout_net = _indices(arrays, "netlist.fanout_net", -1, len(net_names))
    try:
        return Netlist.from_columns(
            name, default_library(), net_names, primary_inputs, gate_names,
            cell_names, gate_cell, fanin_net, fanout_net, dict(output_nets))
    except (KeyError, TypeError, ValueError, IndexError) as error:  # NetlistError too
        raise CodecError(f"netlist columns do not decode: {error!r}")


# ---------------------------------------------------------------------------
# Layout encoding
# ---------------------------------------------------------------------------

def _netlist_indices(table: Sequence[str], index: np.ndarray,
                     names: List[str], what: str) -> np.ndarray:
    """``index`` (into the name ``table``) as int64 indices into ``names``;
    negative entries stay as they are.  A copy-free pass when the table is
    ``names`` itself, as it is for every router, placer and store product."""
    if table is names or table == names:
        return index
    lookup = {name: i for i, name in enumerate(names)}
    keep = index >= 0
    used = np.unique(index[keep])
    try:
        mapped = np.fromiter((lookup[table[i]] for i in used.tolist()),
                             dtype=np.int64, count=len(used))
    except KeyError as error:
        raise UnstorableBuild(f"{what} {error} unknown to the netlist")
    out = index.astype(np.int64)
    out[keep] = mapped[np.searchsorted(used, index[keep])]
    return out


def _encode_layout(layout: Layout, netlist: Netlist,
                   arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, Any]:
    tables = netlist_arrays(netlist)
    gate_names, net_names = tables.gate_names, tables.net_names

    placement = layout.placement
    arrays[prefix + "gate_order"] = _netlist_indices(
        placement.gate_names, placement.gate_index, gate_names, "placement gate"
    )
    arrays[prefix + "gate_x"] = placement.gate_x
    arrays[prefix + "gate_y"] = placement.gate_y
    arrays[prefix + "port_names"] = np.array(placement.port_names, dtype=np.str_)
    arrays[prefix + "port_x"] = placement.port_x
    arrays[prefix + "port_y"] = placement.port_y
    _encode_routing(layout.routing, gate_names, net_names, arrays, prefix)
    return _layout_record(layout, netlist, arrays, prefix)


def _encode_routing(routing: RoutingArrays, gate_names: List[str],
                    net_names: List[str],
                    arrays: Dict[str, np.ndarray], prefix: str) -> None:
    """Routing payload: column copies and stacks of the routing columns
    (its sink-token table is already in first-appearance order)."""
    arrays[prefix + "rnet_net"] = _netlist_indices(
        routing.net_names, routing.net_index, net_names, "routed net"
    )
    # Driver columns hold (0.0, 0.0) wherever has_driver is false.
    arrays[prefix + "rnet_driver"] = np.column_stack(
        (routing.driver_x, routing.driver_y)
    )
    arrays[prefix + "rnet_has_driver"] = routing.has_driver.astype(np.uint8)
    arrays[prefix + "rnet_conn_count"] = np.diff(routing.conn_starts)
    arrays[prefix + "rnet_dvia_count"] = np.diff(routing.dvia_starts)
    arrays[prefix + "sink_tokens"] = np.array(routing.sink_tokens, dtype=np.str_)
    arrays[prefix + "conn_net"] = _netlist_indices(
        routing.net_names, routing.conn_net, net_names, "routed net"
    )
    arrays[prefix + "conn_sink_gate"] = _netlist_indices(
        routing.gate_names, routing.sink_gate, gate_names, "sink gate"
    )
    arrays[prefix + "conn_sink_token"] = routing.sink_token
    arrays[prefix + "conn_layers"] = np.column_stack(
        (routing.h_layer, routing.v_layer)
    ).astype(np.int16)
    arrays[prefix + "conn_coords"] = np.column_stack(
        (routing.sx, routing.sy, routing.tx, routing.ty)
    )
    arrays[prefix + "conn_hints"] = np.column_stack(
        (routing.hint_sx, routing.hint_sy, routing.hint_tx, routing.hint_ty)
    )
    arrays[prefix + "conn_hint_mask"] = np.column_stack(
        (routing.hint_src_present, routing.hint_tgt_present)
    )
    arrays[prefix + "conn_protected"] = routing.protected.astype(np.uint8)
    arrays[prefix + "conn_seg_count"] = np.diff(routing.seg_starts)
    arrays[prefix + "conn_via_count"] = np.diff(routing.via_starts)
    arrays[prefix + "seg_rows"] = np.column_stack((
        routing.seg_layer, routing.seg_x1, routing.seg_y1,
        routing.seg_x2, routing.seg_y2,
    ))
    arrays[prefix + "via_rows"] = np.column_stack(
        (routing.via_x, routing.via_y, routing.via_lower)
    )
    arrays[prefix + "dvia_rows"] = np.column_stack(
        (routing.dvia_x, routing.dvia_y, routing.dvia_lower)
    )


def _layout_record(layout: Layout, netlist: Netlist,
                   arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, Any]:
    placement = layout.placement
    protected: List[int] = []
    if layout.protected_nets:
        net_index = netlist_arrays(netlist).net_id
        try:
            protected = sorted(net_index[name] for name in layout.protected_nets)
        except KeyError as error:
            raise UnstorableBuild(f"protected net {error} unknown to the netlist")
    arrays[prefix + "protected_nets"] = np.asarray(protected, dtype=np.int64)

    floorplan = placement.floorplan
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
            "config": {"seed": placement.config.seed},
        },
    }


def _require(arrays: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return arrays[name]
    except KeyError:
        raise CodecError(f"payload is missing array {name!r}")


def _indices(arrays: Mapping[str, np.ndarray], name: str, low: int,
             high: int) -> np.ndarray:
    """An index column whose entries must lie in ``[low, high)``."""
    column = _require(arrays, name)
    if column.size and (column.min() < low or column.max() >= high):
        raise CodecError(f"{name} index out of range for the netlist")
    return column


def _decode_layout(record: Mapping[str, Any], arrays: Mapping[str, np.ndarray],
                   netlist: Netlist, prefix: str) -> Layout:
    # The netlist's own name tables: decoded layouts share them.
    tables = netlist_arrays(netlist)
    gate_names, net_names = tables.gate_names, tables.net_names

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
        config = PlacerConfig(seed=placement_record["config"]["seed"])
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed placement record: {error!r}")

    # The payload columns become the placement and routing columns as they
    # are; names stay integer keys into the netlist's tables.
    gate_order = _indices(arrays, prefix + "gate_order", 0, len(gate_names))
    gate_x = _require(arrays, prefix + "gate_x")
    gate_y = _require(arrays, prefix + "gate_y")
    if not (len(gate_order) == len(gate_x) == len(gate_y)):
        raise CodecError("placement coordinate columns are misaligned")
    port_names = _require(arrays, prefix + "port_names").tolist()
    port_x = _require(arrays, prefix + "port_x")
    port_y = _require(arrays, prefix + "port_y")
    if not (len(port_names) == len(port_x) == len(port_y)):
        raise CodecError("port coordinate columns are misaligned")
    placement = PlacementResult(
        floorplan, gate_names, gate_order, gate_x, gate_y,
        port_names, port_x, port_y, config,
        geometry_version=int(placement_record.get("geometry_version", 0)),
    )

    # -- routing -----------------------------------------------------------
    sink_tokens = _require(arrays, prefix + "sink_tokens").tolist()
    rnet_net = _indices(arrays, prefix + "rnet_net", 0, len(net_names))
    rnet_driver = _require(arrays, prefix + "rnet_driver")
    rnet_has_driver = _require(arrays, prefix + "rnet_has_driver")
    rnet_conn_count = _require(arrays, prefix + "rnet_conn_count")
    rnet_dvia_count = _require(arrays, prefix + "rnet_dvia_count")
    conn_net = _indices(arrays, prefix + "conn_net", 0, len(net_names))
    conn_sink_gate = _indices(arrays, prefix + "conn_sink_gate", -1,
                              len(gate_names))
    conn_sink_token = _indices(arrays, prefix + "conn_sink_token", 0,
                               len(sink_tokens))
    conn_layers = _require(arrays, prefix + "conn_layers")
    conn_coords = _require(arrays, prefix + "conn_coords")
    conn_hints = _require(arrays, prefix + "conn_hints")
    conn_hint_mask = _require(arrays, prefix + "conn_hint_mask")
    conn_protected = _require(arrays, prefix + "conn_protected")
    conn_seg_count = _require(arrays, prefix + "conn_seg_count")
    conn_via_count = _require(arrays, prefix + "conn_via_count")
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
    if not (len(rnet_net) == len(rnet_driver) == len(rnet_has_driver)
            == len(rnet_conn_count) == len(rnet_dvia_count)):
        raise CodecError("routed-net columns are misaligned")
    if int(rnet_conn_count.sum()) != n_conns:
        raise CodecError("per-net connection counts do not cover the table")
    if int(conn_seg_count.sum()) != len(seg_rows):
        raise CodecError("segment counts do not cover the segment table")
    if int(conn_via_count.sum()) != len(via_rows):
        raise CodecError("via counts do not cover the via table")
    if int(rnet_dvia_count.sum()) != len(dvia_rows):
        raise CodecError("driver-via counts do not cover the table")
    if (conn_layers.ndim != 2 or conn_layers.shape[1] != 2
            or conn_coords.ndim != 2 or conn_coords.shape[1] != 4
            or conn_hints.ndim != 2 or conn_hints.shape[1] != 4
            or conn_hint_mask.ndim != 2 or conn_hint_mask.shape[1] != 2
            or rnet_driver.ndim != 2 or rnet_driver.shape[1] != 2):
        raise CodecError("connection columns have unexpected shapes")

    dvia_lower = (dvia_rows[:, 2].astype(np.int64) if len(dvia_rows)
                  else np.empty(0, dtype=np.int64))
    via_lower = (via_rows[:, 2].astype(np.int64) if len(via_rows)
                 else np.empty(0, dtype=np.int64))
    seg_layer = (seg_rows[:, 0].astype(np.int64) if len(seg_rows)
                 else np.empty(0, dtype=np.int64))
    empty_f64 = np.empty(0, dtype=np.float64)

    routing = RoutingArrays(
        net_names=net_names,
        gate_names=gate_names,
        sink_tokens=sink_tokens,
        net_index=rnet_net,
        conn_starts=csr(rnet_conn_count),
        driver_x=rnet_driver[:, 0],
        driver_y=rnet_driver[:, 1],
        has_driver=rnet_has_driver.astype(bool),
        dvia_starts=csr(rnet_dvia_count),
        dvia_x=dvia_rows[:, 0] if len(dvia_rows) else empty_f64,
        dvia_y=dvia_rows[:, 1] if len(dvia_rows) else empty_f64,
        dvia_lower=dvia_lower,
        dvia_upper=dvia_lower + 1,
        conn_net=conn_net,
        sink_gate=conn_sink_gate,
        sink_token=conn_sink_token,
        sx=conn_coords[:, 0], sy=conn_coords[:, 1],
        tx=conn_coords[:, 2], ty=conn_coords[:, 3],
        h_layer=conn_layers[:, 0].astype(np.int64),
        v_layer=conn_layers[:, 1].astype(np.int64),
        protected=conn_protected.astype(np.uint8),
        # Copies: override_hints writes these in place (defense re-aiming).
        hint_sx=conn_hints[:, 0].copy(), hint_sy=conn_hints[:, 1].copy(),
        hint_tx=conn_hints[:, 2].copy(), hint_ty=conn_hints[:, 3].copy(),
        hint_src_present=conn_hint_mask[:, 0].astype(np.uint8),
        hint_tgt_present=conn_hint_mask[:, 1].astype(np.uint8),
        seg_starts=csr(conn_seg_count),
        via_starts=csr(conn_via_count),
        seg_layer=seg_layer,
        seg_x1=seg_rows[:, 1] if len(seg_rows) else empty_f64,
        seg_y1=seg_rows[:, 2] if len(seg_rows) else empty_f64,
        seg_x2=seg_rows[:, 3] if len(seg_rows) else empty_f64,
        seg_y2=seg_rows[:, 4] if len(seg_rows) else empty_f64,
        via_x=via_rows[:, 0] if len(via_rows) else empty_f64,
        via_y=via_rows[:, 1] if len(via_rows) else empty_f64,
        via_lower=via_lower,
        via_upper=via_lower + 1,
    )

    protected_index = _indices(arrays, prefix + "protected_nets", 0,
                               len(net_names))
    protected_nets = {net_names[index] for index in protected_index.tolist()}

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
    _encode_netlist(netlist, arrays)
    return record, arrays


def decode_build(record: Mapping[str, Any], arrays: Mapping[str, np.ndarray],
                 netlist: Optional[Netlist] = None):
    """Rebuild a :class:`~repro.api.schemes.SchemeBuild` from its columns.

    ``netlist`` is the benchmark netlist when the caller holds it; left
    ``None`` it is built from the payload's ``netlist.*`` members.  Either
    way the recorded fingerprint and ``topology_version`` are verified
    against it before any layout is materialized.

    Raises:
        CodecError: Malformed or truncated payload, or a decoded netlist
            that does not match the record.
        StaleEntry: The given netlist does not match the recorded
            fingerprint / topology version.
    """
    from repro.api.schemes import SchemeBuild

    if record.get("codec_version") != CODEC_FORMAT_VERSION:
        raise CodecError(
            f"codec version {record.get('codec_version')!r} != "
            f"{CODEC_FORMAT_VERSION}"
        )
    if netlist is None:
        netlist, mismatch, source = _decode_netlist(arrays), CodecError, "decoded"
    else:
        mismatch, source = StaleEntry, "given"
    expected = record.get("netlist_fingerprint")
    actual = netlist_fingerprint(netlist)
    if expected != actual:
        raise mismatch(
            f"netlist fingerprint differs ({str(expected)[:12]}… recorded, "
            f"{actual[:12]}… {source})"
        )
    recorded_topology = record.get("topology_version")
    if recorded_topology != netlist.topology_version:
        raise mismatch(
            f"topology_version differs ({recorded_topology} recorded, "
            f"{netlist.topology_version} {source})"
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
