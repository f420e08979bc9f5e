"""Content-addressed, disk-backed artefact store.

One entry per canonical build hash (:meth:`repro.api.spec.ScenarioSpec.
build_key`), laid out as::

    <root>/
        config.json                      # store-level settings (budgets)
        tmp/                             # staging area for atomic installs
        objects/<key[:2]>/<key>/
            manifest.json                # build dict, versions, checksums
            payload.npz                  # columnar arrays (repro.store.codec)
        objects/<key[:2]>/<key>.bad/     # quarantined corrupt/stale entries

Contracts:

* **Atomicity** — entries are staged under ``tmp/`` and installed with one
  ``os.rename``; readers can never observe a half-written entry, and two
  processes racing to publish the same key end with exactly one payload on
  disk (the rename loser discards its staging copy and keeps its in-memory
  build — results are bit-identical either way because builds are
  deterministic in the key).
* **Verification** — every load reads ``payload.npz`` once, hashes those
  bytes against the manifest's SHA-256 and decodes the arrays from the
  same bytes; it gates on the store/codec format versions and the
  generator version, and decodes the build against its netlist — the one
  the caller holds, or else the one built from the payload's own columns —
  whose fingerprint and ``topology_version`` must match the recorded ones.
  Anything that fails — unreadable manifest, checksum mismatch, truncated
  arrays, a netlist that does not match — quarantines the entry to a
  ``.bad`` sidecar (with a ``reason.txt``) and reports a miss, so callers
  rebuild; a corrupt store can cost time, never correctness, and never a
  crash.  No load runs the benchmark generator: a generator change is
  caught by :data:`~repro.circuits.registry.GENERATOR_VERSION` (recorded
  in every manifest; the tests pin the generated fingerprints) and by
  :meth:`ArtifactStore.verify`, which regenerates every entry's netlist.
* **Upgrades** — an entry written under another store format or generator
  version is a plain miss, and the next :meth:`ArtifactStore.save` of its
  key replaces it.
* **Eviction** — least-recently-used by manifest mtime (touched on every
  hit), driven by optional ``max_bytes`` / ``max_entries`` budgets applied
  after each save and on demand via :meth:`ArtifactStore.gc`.

Environment:

* ``REPRO_STORE`` — default store root for :func:`ArtifactStore.from_env`.
* ``REPRO_STORE_READONLY=1`` — open read-only: saves and quarantines are
  skipped (corrupt entries degrade to plain misses), and the Workspace
  treats a miss as a hard error instead of building (resumable-sweep
  verification mode).
* ``REPRO_STORE_CHAOS`` — test hook, e.g. ``slow_write=0.5``: payloads are
  staged in two halves with a sleep in between, widening the torn-write
  window the concurrency tests kill workers inside.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import struct
import tempfile
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.circuits.registry import GENERATOR_VERSION, get_benchmark
from repro.store.codec import (
    CODEC_FORMAT_VERSION,
    CodecError,
    StaleEntry,
    UnstorableBuild,
    decode_build,
    encode_build,
    netlist_fingerprint,
)

logger = logging.getLogger("repro.store")

#: Bump on ANY change to the on-disk entry layout, the manifest schema or
#: the meaning of a manifest field.  Entries written under another store
#: format version are treated as plain misses (never quarantined: format
#: drift is not corruption); the next save of the key replaces them.
#: Version 2:
#: ``record["netlist_fingerprint"]`` hashes the netlist's columns (see
#: :func:`repro.store.codec.netlist_fingerprint`), not the JSON structure
#: document version 1 hashed.  Version 3: the payload carries the netlist
#: (``netlist.*`` members) and the manifest its ``generator_version``.
STORE_FORMAT_VERSION = 3

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.npz"
_BAD_SUFFIX = ".bad"


class StoreError(Exception):
    """Unrecoverable store-level failure (unwritable root, bad config)."""


class ReadOnlyStoreError(StoreError):
    """A write was attempted on a read-only store."""


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


def _parse_chaos(text: Optional[str]) -> Dict[str, float]:
    """Parse ``REPRO_STORE_CHAOS`` (compact ``key=value[,key=value]``)."""
    plan: Dict[str, float] = {}
    if not text:
        return plan
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        try:
            plan[key.strip()] = float(value) if value else 1.0
        except ValueError:
            logger.warning("ignoring malformed REPRO_STORE_CHAOS item %r", part)
    return plan


def _netlist_identity(build: Mapping[str, Any]) -> Tuple[str, int, Any]:
    """``(benchmark, netlist seed, scale)`` of a build dict."""
    netlist_seed = build.get("netlist_seed")
    if netlist_seed is None:
        netlist_seed = build["seed"]
    return build["benchmark"], int(netlist_seed), build.get("scale")


def regenerate_netlist(build: Mapping[str, Any]):
    """Deterministically regenerate the netlist a build dict describes."""
    benchmark, seed, scale = _netlist_identity(build)
    return get_benchmark(benchmark, seed=seed, scale=scale)


def _current(manifest: Mapping[str, Any]) -> bool:
    """Whether a manifest was written under this store format and
    generator version (else its entry is a plain miss)."""
    return (manifest.get("store_format_version") == STORE_FORMAT_VERSION
            and manifest.get("generator_version") == GENERATOR_VERSION)


@dataclass
class StoreEntry:
    """One catalogued entry (as returned by :meth:`ArtifactStore.entries`)."""

    key: str
    path: Path
    bytes: int
    mtime: float
    build: Dict[str, Any] = field(default_factory=dict)

    @property
    def scheme(self) -> str:
        return str(self.build.get("scheme", "?"))

    @property
    def benchmark(self) -> str:
        return str(self.build.get("benchmark", "?"))


class ArtifactStore:
    """Disk tier of the Workspace build cache.  See the module docstring."""

    def __init__(self, root: os.PathLike, *, readonly: Optional[bool] = None,
                 max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 verify_checksums: bool = True):
        self.root = Path(root)
        if readonly is None:
            readonly = _env_flag("REPRO_STORE_READONLY")
        self.readonly = bool(readonly)
        self.verify_checksums = bool(verify_checksums)
        self._chaos = _parse_chaos(os.environ.get("REPRO_STORE_CHAOS"))
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "saves": 0, "save_races": 0,
            "unstorable": 0, "quarantined": 0, "evicted": 0,
        }
        config = self._read_config()
        self.max_bytes = max_bytes if max_bytes is not None else config.get("max_bytes")
        self.max_entries = (
            max_entries if max_entries is not None else config.get("max_entries")
        )
        if not self.readonly:
            self._ensure_layout()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_env(cls, **kwargs) -> Optional["ArtifactStore"]:
        """The store named by ``REPRO_STORE``, or ``None`` when unset."""
        root = os.environ.get("REPRO_STORE", "").strip()
        if not root:
            return None
        return cls(root, **kwargs)

    def worker_payload(self) -> Dict[str, Any]:
        """Plain-data description a pool worker reopens the store from."""
        return {"root": str(self.root), "readonly": self.readonly}

    @classmethod
    def from_worker_payload(cls, payload: Optional[Mapping[str, Any]]
                            ) -> Optional["ArtifactStore"]:
        if not payload:
            return None
        return cls(payload["root"], readonly=payload.get("readonly"))

    # -- paths -------------------------------------------------------------

    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def _entry_dir(self, key: str) -> Path:
        return self._objects_dir() / key[:2] / key

    def _ensure_layout(self) -> None:
        try:
            (self.root / "tmp").mkdir(parents=True, exist_ok=True)
            self._objects_dir().mkdir(parents=True, exist_ok=True)
            config_path = self.root / "config.json"
            if not config_path.exists():
                payload = {
                    "store_format_version": STORE_FORMAT_VERSION,
                    "max_bytes": self.max_bytes,
                    "max_entries": self.max_entries,
                }
                tmp = config_path.with_suffix(".json.tmp.%d" % os.getpid())
                tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
                try:
                    os.rename(tmp, config_path)
                except OSError:
                    tmp.unlink(missing_ok=True)
        except OSError as error:
            raise StoreError(f"cannot initialize store at {self.root}: {error}")

    def _read_config(self) -> Dict[str, Any]:
        try:
            return json.loads((self.root / "config.json").read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    # -- save --------------------------------------------------------------

    def save(self, key: str, build: Any, build_dict: Mapping[str, Any],
             netlist) -> Optional[bool]:
        """Serialize ``build`` under ``key``; True iff this call installed it.

        An entry already under ``key`` is kept, unless it was written under
        another store format or generator version: then it is replaced, by
        the same stage-and-rename install.  Read-only stores, kept entries
        and lost install races return ``False``; an unstorable build returns
        ``None``, so a caller can tell "the store has no entry it could
        serve" from "another writer saved it first".  Saving is always best
        effort and never raises for a representational reason.  Only an
        unusable store root raises :class:`StoreError`.
        """
        if self.readonly:
            return False
        replace = self.has(key)
        if replace:
            # A damaged manifest is left for a load to quarantine.
            existing = self.manifest(key)
            if existing is None or _current(existing):
                return False
        try:
            record, arrays = encode_build(build, netlist)
        except UnstorableBuild as error:
            self.stats["unstorable"] += 1
            logger.debug("store: %s not stored: %s", key[:12], error)
            return None
        self._ensure_layout()
        stage = Path(tempfile.mkdtemp(prefix=key[:12] + ".", dir=self.root / "tmp"))
        try:
            payload_path = stage / _PAYLOAD
            buffer = io.BytesIO()
            # np.savez (not _compressed): load reads the payload in one
            # pass and accepts only ZIP_STORED members (see _decode_npz).
            np.savez(buffer, **arrays)
            raw = buffer.getvalue()
            slow = self._chaos.get("slow_write")
            with open(payload_path, "wb") as handle:
                if slow:
                    # Chaos hook: leave a half-written payload visible in the
                    # staging dir for a while so kill-mid-write tests can
                    # interrupt inside the torn-write window.
                    half = len(raw) // 2
                    handle.write(raw[:half])
                    handle.flush()
                    os.fsync(handle.fileno())
                    time.sleep(float(slow))
                    handle.write(raw[half:])
                else:
                    handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            manifest = {
                "store_format_version": STORE_FORMAT_VERSION,
                "codec_format_version": CODEC_FORMAT_VERSION,
                "generator_version": GENERATOR_VERSION,
                "build_key": key,
                "build": dict(build_dict),
                "record": record,
                "payload_sha256": hashlib.sha256(raw).hexdigest(),
                "payload_bytes": len(raw),
                "created_utc": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }
            manifest_path = stage / _MANIFEST
            with open(manifest_path, "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            final = self._entry_dir(key)
            final.parent.mkdir(parents=True, exist_ok=True)
            if replace:
                self._retire_stale(key)
            try:
                os.rename(stage, final)
            except OSError as error:
                if error.errno in (errno.EEXIST, errno.ENOTEMPTY) or final.exists():
                    # Lost the publish race: someone else installed the same
                    # deterministic payload first.  Keep theirs.
                    self.stats["save_races"] += 1
                    return False
                raise StoreError(f"cannot install store entry {key}: {error}")
            self.stats["saves"] += 1
            logger.debug("store: saved %s (%d bytes)", key[:12], len(raw))
            self._auto_evict()
            return True
        finally:
            shutil.rmtree(stage, ignore_errors=True)

    def _retire_stale(self, key: str) -> None:
        """Delete the entry under ``key`` if it was written under another
        store format or generator version.  It is moved into ``tmp/`` first,
        so the install that follows sees the key free and readers never see
        half an entry."""
        entry = self._entry_dir(key)
        existing = self.manifest(key)
        if existing is None or _current(existing):
            return
        aside = Path(tempfile.mkdtemp(prefix=key[:12] + ".old.", dir=self.root / "tmp"))
        try:
            os.rename(entry, aside / key)
        except OSError:
            pass  # another writer moved it first
        finally:
            shutil.rmtree(aside, ignore_errors=True)

    # -- load --------------------------------------------------------------

    def has(self, key: str) -> bool:
        entry = self._entry_dir(key)
        return (entry / _MANIFEST).exists() and (entry / _PAYLOAD).exists()

    def manifest(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the raw manifest dict for ``key`` (``None`` on any miss).

        Unlike :meth:`load` this does not decode or checksum the payload —
        it is the cheap metadata read the service layer serves over the
        wire; clients verify the payload themselves against
        ``payload_sha256``.
        """
        if not self.has(key):
            return None
        try:
            return json.loads((self._entry_dir(key) / _MANIFEST).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def payload_path(self, key: str) -> Optional[Path]:
        """Path of the stored ``payload.npz`` for ``key``, or ``None``."""
        if not self.has(key):
            return None
        return self._entry_dir(key) / _PAYLOAD

    def load(self, key: str, netlist=None) -> Optional[Any]:
        """Decode the stored build for ``key``; ``None`` on any miss.

        ``netlist`` is the benchmark netlist when the caller already holds
        it; left ``None`` it is built from the payload's own columns (see
        :func:`repro.store.codec.decode_build`).  Either way its fingerprint
        and ``topology_version`` are checked against the record; no load
        runs the benchmark generator.  Every failure mode — missing entry,
        unreadable manifest, version drift, checksum mismatch, truncated or
        stale payload — returns ``None`` (quarantining the entry when it is
        damaged rather than merely from another format), so a load can cost
        a rebuild, never a crash.
        """
        entry = self._entry_dir(key)
        manifest_path = entry / _MANIFEST
        payload_path = entry / _PAYLOAD
        if not manifest_path.exists() or not payload_path.exists():
            self.stats["misses"] += 1
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            self._quarantine(key, f"unreadable manifest: {error!r}")
            self.stats["misses"] += 1
            return None
        if not _current(manifest):
            # Another (older/newer) writer's entry: a miss, not damage.
            logger.debug(
                "store: %s written under store format %r, generator %r "
                "(want %r, %r) — miss", key[:12],
                manifest.get("store_format_version"),
                manifest.get("generator_version"),
                STORE_FORMAT_VERSION, GENERATOR_VERSION,
            )
            self.stats["misses"] += 1
            return None
        if manifest.get("build_key") != key:
            self._quarantine(
                key, f"manifest build_key {manifest.get('build_key')!r} != {key!r}"
            )
            self.stats["misses"] += 1
            return None
        # One read: the bytes whose checksum is verified are the bytes decoded.
        try:
            raw = payload_path.read_bytes()
        except OSError as error:
            self._quarantine(key, f"unreadable payload: {error!r}")
            self.stats["misses"] += 1
            return None
        if self.verify_checksums:
            actual = hashlib.sha256(raw).hexdigest()
            if actual != manifest.get("payload_sha256"):
                self._quarantine(
                    key,
                    f"payload checksum mismatch ({actual[:12]}… != "
                    f"{str(manifest.get('payload_sha256'))[:12]}…)",
                )
                self.stats["misses"] += 1
                return None
        try:
            arrays = _decode_npz(raw)
            del raw  # the arrays own their data; free the file image now
            build = decode_build(manifest["record"], arrays, netlist)
        except StaleEntry as error:
            self._quarantine(key, f"stale: {error}")
            self.stats["misses"] += 1
            return None
        except (CodecError, KeyError, ValueError, OSError,
                zipfile.BadZipFile) as error:
            self._quarantine(key, f"undecodable payload: {error!r}")
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._touch(manifest_path)
        return build

    def _touch(self, manifest_path: Path) -> None:
        if self.readonly:
            return
        try:
            os.utime(manifest_path)
        except OSError:
            pass

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a damaged entry aside as ``<key>.bad`` — never raise."""
        entry = self._entry_dir(key)
        if self.readonly:
            logger.warning(
                "store: entry %s is damaged (%s); store is read-only — "
                "treating as a miss", key[:12], reason,
            )
            return
        bad = entry.with_name(entry.name + _BAD_SUFFIX)
        try:
            if bad.exists():
                shutil.rmtree(bad, ignore_errors=True)
            os.rename(entry, bad)
            (bad / "reason.txt").write_text(reason + "\n")
        except OSError:
            # Last resort: try to delete the damaged entry outright so it
            # stops shadowing rebuilds.
            shutil.rmtree(entry, ignore_errors=True)
        self.stats["quarantined"] += 1
        logger.warning("store: quarantined %s: %s", key[:12], reason)

    # -- raw array access --------------------------------------------------

    def open_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The raw payload columns for ``key``, or ``None`` if unreadable."""
        entry = self._entry_dir(key)
        payload_path = entry / _PAYLOAD
        if not payload_path.exists():
            return None
        try:
            return _decode_npz(payload_path.read_bytes())
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            logger.warning("store: cannot open arrays for %s: %r", key[:12], error)
            return None

    # -- catalogue / maintenance -------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """All intact entries, least-recently-used first."""
        found: List[StoreEntry] = []
        objects = self._objects_dir()
        if not objects.exists():
            return found
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if not entry.is_dir() or entry.name.endswith(_BAD_SUFFIX):
                    continue
                manifest_path = entry / _MANIFEST
                payload_path = entry / _PAYLOAD
                if not manifest_path.exists() or not payload_path.exists():
                    continue
                try:
                    stat = manifest_path.stat()
                    size = payload_path.stat().st_size + stat.st_size
                    build = json.loads(manifest_path.read_text()).get("build", {})
                except (OSError, json.JSONDecodeError):
                    continue
                found.append(StoreEntry(
                    key=entry.name, path=entry, bytes=size,
                    mtime=stat.st_mtime, build=build,
                ))
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def quarantined(self) -> List[Path]:
        objects = self._objects_dir()
        if not objects.exists():
            return []
        return sorted(
            entry for shard in objects.iterdir() if shard.is_dir()
            for entry in shard.iterdir()
            if entry.is_dir() and entry.name.endswith(_BAD_SUFFIX)
        )

    def total_bytes(self) -> int:
        return sum(entry.bytes for entry in self.entries())

    def gc(self, *, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None,
           drop_quarantined: bool = True) -> Dict[str, int]:
        """Evict least-recently-used entries down to the given budgets."""
        if self.readonly:
            raise ReadOnlyStoreError("gc on a read-only store")
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_entries = max_entries if max_entries is not None else self.max_entries
        removed = freed = 0
        if drop_quarantined:
            for bad in self.quarantined():
                shutil.rmtree(bad, ignore_errors=True)
        entries = self.entries()
        total = sum(entry.bytes for entry in entries)
        index = 0
        while index < len(entries) and (
            (max_entries is not None and len(entries) - index > max_entries)
            or (max_bytes is not None and total > max_bytes)
        ):
            victim = entries[index]
            shutil.rmtree(victim.path, ignore_errors=True)
            total -= victim.bytes
            freed += victim.bytes
            removed += 1
            index += 1
        if removed:
            self.stats["evicted"] += removed
            logger.info(
                "store: evicted %d entr%s (%d bytes) from %s",
                removed, "y" if removed == 1 else "ies", freed, self.root,
            )
        return {"removed": removed, "freed_bytes": freed,
                "remaining": len(self.entries())}

    def _auto_evict(self) -> None:
        if self.max_bytes is None and self.max_entries is None:
            return
        try:
            self.gc(drop_quarantined=False)
        except StoreError:
            pass

    def verify(self) -> List[Dict[str, Any]]:
        """Re-check every entry; report per entry.

        An entry of this store format and generator version is loaded as a
        hit loads it (checksum, full decode, the decoded netlist against the
        record), and then its netlist is regenerated from the build dict
        and its fingerprint and ``topology_version`` compared with the
        record: the deep check that catches a generator change no load
        would see.  Each report's ``status`` is ``"ok"``, ``"STALE_FORMAT"``
        (written under another store format or generator version: left in
        place for the next save to replace) or ``"QUARANTINED"`` (damaged or
        regenerated differently: moved aside as a hot-path load would).
        """
        report: List[Dict[str, Any]] = []
        regenerated: Dict[Tuple[str, int, Any], Tuple[str, int]] = {}
        for entry in self.entries():
            manifest = self.manifest(entry.key)
            if manifest is not None and not _current(manifest):
                status = "STALE_FORMAT"
            else:
                hits_before = self.stats["hits"]
                build = self.load(entry.key)
                ok = self.stats["hits"] > hits_before and build is not None
                if ok and not self._regenerates(entry.key, manifest, regenerated):
                    ok = False
                status = "ok" if ok else "QUARANTINED"
            report.append({
                "key": entry.key,
                "ok": status == "ok",
                "status": status,
                "bytes": entry.bytes,
                "benchmark": entry.benchmark,
                "scheme": entry.scheme,
            })
        return report

    def _regenerates(self, key: str, manifest: Mapping[str, Any],
                     memo: Dict[Tuple[str, int, Any], Tuple[str, int]]) -> bool:
        """Whether the generator still makes the netlist ``key`` records;
        quarantines the entry when not.  ``memo`` holds the regenerated
        ``(fingerprint, topology_version)`` per netlist identity."""
        record = manifest["record"]
        try:
            identity = _netlist_identity(manifest["build"])
            if identity not in memo:
                netlist = regenerate_netlist(manifest["build"])
                memo[identity] = (netlist_fingerprint(netlist), netlist.topology_version)
            fingerprint, topology = memo[identity]
        except (KeyError, TypeError, ValueError) as error:
            self._quarantine(key, f"netlist does not regenerate: {error!r}")
            return False
        if (fingerprint, topology) != (record.get("netlist_fingerprint"),
                                       record.get("topology_version")):
            self._quarantine(
                key, f"stale: the generator makes another netlist "
                f"({fingerprint[:12]}… regenerated, "
                f"{str(record.get('netlist_fingerprint'))[:12]}… recorded)")
            return False
        return True

    # -- export / import ---------------------------------------------------

    def export_entries(self, dest: os.PathLike,
                       keys: Optional[List[str]] = None) -> int:
        """Copy entries into a store-shaped directory at ``dest``."""
        dest_store = ArtifactStore(dest, readonly=False)
        wanted = set(keys) if keys is not None else None
        copied = 0
        for entry in self.entries():
            if wanted is not None and entry.key not in wanted:
                continue
            if dest_store.has(entry.key):
                continue
            stage = Path(tempfile.mkdtemp(
                prefix=entry.key[:12] + ".", dir=dest_store.root / "tmp"
            ))
            try:
                shutil.copy2(entry.path / _MANIFEST, stage / _MANIFEST)
                shutil.copy2(entry.path / _PAYLOAD, stage / _PAYLOAD)
                final = dest_store._entry_dir(entry.key)
                final.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.rename(stage, final)
                    copied += 1
                except OSError:
                    pass
            finally:
                shutil.rmtree(stage, ignore_errors=True)
        missing = (
            sorted(wanted - {e.key for e in self.entries()}) if wanted else []
        )
        if missing:
            logger.warning(
                "store: export skipped %d missing key(s): %s",
                len(missing), ", ".join(key[:12] for key in missing),
            )
        return copied

    def import_entries(self, src: os.PathLike) -> int:
        """Copy entries from another store root, checksums verified."""
        if self.readonly:
            raise ReadOnlyStoreError("import into a read-only store")
        src_store = ArtifactStore(src, readonly=True)
        imported = 0
        for entry in src_store.entries():
            if self.has(entry.key):
                continue
            try:
                manifest = json.loads((entry.path / _MANIFEST).read_text())
            except (OSError, json.JSONDecodeError):
                logger.warning(
                    "store: import skipping %s (unreadable manifest)",
                    entry.key[:12],
                )
                continue
            if not _current(manifest):
                logger.warning(
                    "store: import skipping %s (store format %r, generator %r)",
                    entry.key[:12], manifest.get("store_format_version"),
                    manifest.get("generator_version"),
                )
                continue
            if (_sha256_file(entry.path / _PAYLOAD)
                    != manifest.get("payload_sha256")):
                logger.warning(
                    "store: import skipping %s (checksum mismatch)",
                    entry.key[:12],
                )
                continue
            self._ensure_layout()
            stage = Path(tempfile.mkdtemp(
                prefix=entry.key[:12] + ".", dir=self.root / "tmp"
            ))
            try:
                shutil.copy2(entry.path / _MANIFEST, stage / _MANIFEST)
                shutil.copy2(entry.path / _PAYLOAD, stage / _PAYLOAD)
                final = self._entry_dir(entry.key)
                final.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.rename(stage, final)
                    imported += 1
                except OSError:
                    pass
            finally:
                shutil.rmtree(stage, ignore_errors=True)
        if imported:
            self._auto_evict()
        return imported


# ---------------------------------------------------------------------------
# .npz decoding from one in-memory image
# ---------------------------------------------------------------------------

_NPY_MAGIC = b"\x93NUMPY"

#: The ``.npy`` header ``np.savez`` writes for a plain array: a dtype string,
#: the memory order and an integer shape, padded with spaces.
_PLAIN_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (False|True), "
    r"'shape': \(((?:\d+, )*(?:\d+,?)?)\), \} *\n"
)


def _local_header(local_header, info: zipfile.ZipInfo) -> Tuple[int, int]:
    """``(name length, data offset)`` of member ``info``, read from its
    30-byte local file header."""
    if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"bad local header for {info.filename!r}")
    name_len, extra_len = struct.unpack("<HH", local_header[26:30])
    return name_len, info.header_offset + 30 + name_len + extra_len


def _decode_npz(raw: bytes) -> Dict[str, np.ndarray]:
    """Every member of the ``.npz`` image ``raw``, decoded from ``raw`` itself.

    The zip directory is parsed once.  Each member must be what
    :meth:`ArtifactStore.save` writes: stored (uncompressed), with the
    plain ``.npy`` header ``np.savez`` gives an array of numbers, booleans
    or strings.  It is checked as :mod:`zipfile` checks it (local header
    signature and name, length, CRC-32) and its array copied straight out
    of ``raw``; anything else raises :class:`zipfile.BadZipFile` or
    :class:`ValueError`, so :meth:`ArtifactStore.load` quarantines the
    entry.  Every array owns its data, as ``np.load``'s do, so none keeps
    ``raw`` alive.
    """
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        return {
            info.filename[:-4] if info.filename.endswith(".npy") else info.filename:
                _plain_npy_member(raw, info)
            for info in archive.infolist()
        }


def _plain_npy_member(raw: bytes, info: zipfile.ZipInfo) -> np.ndarray:
    """The stored member ``info`` of ``raw`` as an array."""
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
        raise zipfile.BadZipFile(f"{info.filename!r} is not a stored member")
    header = info.header_offset
    name_len, offset = _local_header(raw[header:header + 30], info)
    encoding = "utf-8" if info.flag_bits & 0x800 else "cp437"
    if raw[header + 30:header + 30 + name_len] != info.orig_filename.encode(encoding):
        raise zipfile.BadZipFile(f"local name differs for {info.filename!r}")
    end = offset + info.compress_size
    if end > len(raw) or zlib.crc32(memoryview(raw)[offset:end]) != info.CRC:
        raise zipfile.BadZipFile(f"bad CRC-32 for {info.filename!r}")
    magic = raw[offset:offset + 12]
    if len(magic) < 12 or magic[:6] != _NPY_MAGIC or magic[6] not in (1, 2):
        raise ValueError(f"{info.filename!r} is not a .npy v1/v2 array")
    if magic[6] == 1:
        header_start, (header_len,) = offset + 10, struct.unpack("<H", magic[8:10])
    else:
        header_start, (header_len,) = offset + 12, struct.unpack("<I", magic[8:12])
    data_start = header_start + header_len
    match = _PLAIN_NPY_HEADER.fullmatch(
        raw[header_start:data_start].decode("latin1")
    )
    if match is None:
        raise ValueError(f"{info.filename!r} does not have a plain .npy header")
    try:
        dtype = np.dtype(match[1])
    except TypeError as error:
        raise ValueError(f"{info.filename!r} has dtype {match[1]!r}") from error
    if dtype.kind not in "biufcSU" or dtype.itemsize == 0:
        raise ValueError(f"{info.filename!r} holds {dtype}, which is never stored")
    shape = tuple(int(size) for size in match[3].split(",") if size.strip())
    count = math.prod(shape)
    if data_start + count * dtype.itemsize != end:
        raise ValueError(f"{info.filename!r} size differs from its header")
    array = np.frombuffer(raw, dtype=dtype, count=count, offset=data_start).copy()
    if match[2] == "True":
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)
