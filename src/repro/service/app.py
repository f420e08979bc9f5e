"""Stdlib HTTP front door for the scenario service.

``ThreadingHTTPServer`` + a hand-routed handler — the container ships no
ASGI framework, and the API surface is small enough that a framework
would buy nothing but a dependency.  One thread per connection; the job
manager below owns its own worker pool, so slow builds never block the
accept loop.

Endpoints (all JSON unless noted)::

    GET  /v1/health                  liveness + version + job counts
    GET  /v1/registry                registered attacks/schemes/metrics
    POST /v1/jobs                    submit a ScenarioSpec (or envelope);
                                     201 created, 200 joined existing job
    GET  /v1/jobs                    all job records
    GET  /v1/jobs/{id}               one job record (404 unknown)
    GET  /v1/jobs/{id}/result        ?wait=S long-poll; 202 running,
                                     200 done, 206 partial (seeds lost,
                                     --keep-going twin), 500 failed
                                     (taxonomy body)
    GET  /v1/jobs/{id}/events        ?start=N event stream: ndjson, or
                                     SSE with Accept: text/event-stream
    GET  /v1/store                   store catalogue (keys + build dicts)
    GET  /v1/store/{key}/manifest    wire manifest (payload URL + sha256)
    GET  /v1/store/{key}/payload     raw payload.npz bytes
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.registry import ATTACKS, DEFENSES, METRICS
from repro.service.jobs import Job, JobManager
from repro.service.schemas import failure_body, partial_body, store_manifest_wire

__all__ = ["ScenarioService"]

log = logging.getLogger("repro")

_JSON = "application/json"

#: Largest ``POST /v1/jobs`` body accepted; larger ones get 413 unread.
MAX_BODY_BYTES = 1 << 20

#: Largest seed set a submitted sweep may name; larger ones get 400 before
#: the seeds are expanded or hashed (a short body can name millions).
MAX_SWEEP_SEEDS = 10_000


def _seed_count(payload: Any) -> int:
    """How many seeds the spec in a request body names, read off its raw
    ``seeds`` field (0 when it names none or the field is malformed; the
    spec parser rejects malformed fields)."""
    if not isinstance(payload, dict):
        return 0
    spec = payload
    if "spec" in payload and "benchmark" not in payload:
        spec = payload["spec"]
    seeds = spec.get("seeds") if isinstance(spec, dict) else None
    if isinstance(seeds, dict):
        try:
            return int(seeds.get("count", 0))
        except (TypeError, ValueError):
            return 0
    return len(seeds) if isinstance(seeds, list) else 0


class _BadQuery(ValueError):
    """A malformed query parameter (answered with 400)."""


def _query_number(query: Dict[str, str], name: str, kind: type) -> Any:
    """Parse query parameter ``name`` as ``kind`` (absent or empty → 0)."""
    try:
        return kind(query.get(name, 0) or 0)
    except ValueError:
        raise _BadQuery(f"invalid ?{name}= value: {query[name]!r}") from None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # _send_json writes headers and body in two sends; with Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the
    # headers (about 40 ms on every keep-alive reply).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> "ScenarioService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.debug("service: %s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, body: Any) -> None:
        raw = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(raw)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status_code": status})

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- dispatch ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        path, query = self._query()
        try:
            if path == "/v1/health":
                return self._get_health()
            if path == "/v1/registry":
                return self._get_registry()
            if path == "/v1/jobs":
                return self._get_jobs()
            if path == "/v1/store":
                return self._get_store()
            parts = path.strip("/").split("/")
            if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
                job = self.service.manager.get(parts[2])
                if job is None:
                    return self._error(404, f"unknown job: {parts[2]}")
                if len(parts) == 3:
                    return self._send_json(200, job.record.to_dict())
                if parts[3] == "result":
                    return self._get_result(job, query)
                if parts[3] == "events":
                    return self._get_events(job, query)
            if len(parts) == 4 and parts[0] == "v1" and parts[1] == "store":
                if parts[3] == "manifest":
                    return self._get_store_manifest(parts[2])
                if parts[3] == "payload":
                    return self._get_store_payload(parts[2])
            return self._error(404, f"no route for {path}")
        except _BadQuery as error:
            return self._error(400, str(error))
        except BrokenPipeError:
            pass  # client went away mid-stream; nothing to clean up
        except Exception as error:  # noqa: BLE001 - handler must not die
            log.warning("service: GET %s failed", path, exc_info=True)
            try:
                self._error(500, f"internal error: {type(error).__name__}")
            except Exception:  # noqa: BLE001
                pass

    def do_POST(self) -> None:  # noqa: N802
        path, _query = self._query()
        if path != "/v1/jobs":
            return self._error(404, f"no route for POST {path}")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                return self._error(400, "invalid Content-Length")
            return self._error(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        try:
            raw = self.rfile.read(length) if length else b""
            payload = json.loads(raw.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as error:
            return self._error(400, f"invalid JSON body: {error}")
        seeds = _seed_count(payload)
        if seeds > MAX_SWEEP_SEEDS:
            return self._error(
                400, f"invalid spec: a sweep of {seeds} seeds exceeds the "
                     f"{MAX_SWEEP_SEEDS}-seed limit")
        try:
            job, created = self.service.manager.submit(payload)
        except (TypeError, ValueError, KeyError) as error:
            return self._error(400, f"invalid spec: {error}")
        except RuntimeError as error:
            return self._error(503, str(error))
        body = {"created": created, "job": job.record.to_dict()}
        self._send_json(201 if created else 200, body)

    # -- endpoints ---------------------------------------------------------

    def _get_health(self) -> None:
        from repro import __version__
        jobs = self.service.manager.list_jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.record.state] = by_state.get(job.record.state, 0) + 1
        self._send_json(200, {
            "status": "ok",
            "version": __version__,
            "jobs": by_state,
            "workspace": self.service.manager.workspace.stats(),
        })

    def _get_registry(self) -> None:
        self._send_json(200, {
            "attacks": sorted(ATTACKS.names()),
            "schemes": sorted(DEFENSES.names()),
            "metrics": sorted(METRICS.names()),
        })

    def _get_jobs(self) -> None:
        records = [job.record.to_dict()
                   for job in self.service.manager.list_jobs()]
        records.sort(key=lambda r: (r["created_utc"], r["id"]))
        self._send_json(200, {"jobs": records})

    def _get_result(self, job: Job, query: Dict[str, str]) -> None:
        wait = _query_number(query, "wait", float)
        if wait > 0:
            job.wait(min(wait, 300.0))
        record = job.record
        if not job.terminal:
            return self._send_json(202, {
                "status": "pending", "job": record.to_dict(),
            })
        if record.state == "failed":
            return self._send_json(500, failure_body(record))
        if record.state == "partial":
            return self._send_json(206, partial_body(record, job.result_dict))
        self._send_json(200, {
            "status": "done", "job": record.to_dict(),
            "result": job.result_dict,
        })

    def _get_events(self, job: Job, query: Dict[str, str]) -> None:
        start = _query_number(query, "start", int)
        if start < 0:
            raise _BadQuery(f"invalid ?start= value: {start}")
        sse = "text/event-stream" in (self.headers.get("Accept") or "")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/event-stream" if sse else "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        # Stream until the job seals; length unknown up front.
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = start
        while True:
            batch = job.events_since(cursor)
            for entry in batch:
                data = json.dumps(entry, sort_keys=True)
                if sse:
                    self.wfile.write(
                        f"event: {entry['event']}\ndata: {data}\n\n".encode("utf-8"))
                else:
                    self.wfile.write(data.encode("utf-8") + b"\n")
            if batch:
                self.wfile.flush()
                cursor += len(batch)
            if job.terminal and not job.events_since(cursor):
                break
            with job.cond:
                if not job.terminal and len(job.events) == cursor:
                    job.cond.wait(0.5)

    def _get_store(self) -> None:
        store = self.service.manager.workspace.store
        if store is None:
            return self._send_json(200, {"entries": [], "store": None})
        entries = [
            {"key": entry.key, "bytes": entry.bytes, "build": entry.build}
            for entry in store.entries()
        ]
        entries.sort(key=lambda e: e["key"])
        self._send_json(200, {"entries": entries, "store": str(store.root)})

    def _get_store_manifest(self, key: str) -> None:
        store = self.service.manager.workspace.store
        manifest = store.manifest(key) if store is not None else None
        if manifest is None:
            return self._error(404, f"no store entry for key {key}")
        self._send_json(200, store_manifest_wire(key, manifest))

    def _get_store_payload(self, key: str) -> None:
        store = self.service.manager.workspace.store
        path = store.payload_path(key) if store is not None else None
        if path is None:
            return self._error(404, f"no store entry for key {key}")
        raw = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


class ScenarioService:
    """Owns the HTTP server + job manager; start()/stop() lifecycle.

    ``port=0`` binds an ephemeral port (the differential test harness runs
    real servers this way); ``service.port`` reports the bound port after
    :meth:`start`.
    """

    def __init__(self, workspace=None, *, host: str = "127.0.0.1",
                 port: int = 0, jobs: Optional[int] = None,
                 on_error: Optional[str] = None, max_workers: int = 4):
        self.manager = JobManager(
            workspace, jobs=jobs, on_error=on_error, max_workers=max_workers)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ScenarioService":
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-service", daemon=True)
        self._thread.start()
        log.info("scenario service listening on %s", self.address)
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()
        self.manager.close()
        # Drop the server's back-reference: a stopped service, its job
        # manager and its workspace are then freed by reference counting.
        self._httpd.service = None  # type: ignore[attr-defined]

    def serve_forever(self) -> None:
        """Foreground entry point used by ``repro serve``."""
        log.info("scenario service listening on %s", self.address)
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self._httpd.server_close()
            self.manager.close()
            self._httpd.service = None  # type: ignore[attr-defined]

    def __enter__(self) -> "ScenarioService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
