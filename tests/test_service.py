"""Differential contract harness for the HTTP scenario service.

Every request runs through both the wire (a real ``ScenarioService`` on an
ephemeral port, real ``http.client`` connections) and the in-process
``Workspace`` API, and the results must be **bit-identical** (only wall
clocks stripped).  The same holds under injected faults: a chaos plan
replayed through the service recovers to exactly the fault-free result,
partial jobs carry the ``--keep-going`` taxonomy in a 206 body, and
unrecoverable jobs surface the PR-5 failure taxonomy in a 500 body.
"""

from __future__ import annotations

import hashlib
import json
import http.client
import time
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.api.spec import ScenarioSpec
from repro.api.workspace import Workspace
from repro.exec import FaultPlan, RetryPolicy
from repro.service import ScenarioService
from repro.service.schemas import validate_job_dict
from repro.store import ArtifactStore

SPEC = {
    "benchmark": "c17",
    "scheme": "original",
    "metrics": ["distances"],
    "seeds": [0, 1, 2],
}


# -- wire helpers ----------------------------------------------------------


def request(service: ScenarioService, method: str, path: str,
            body: Optional[Any] = None, headers: Optional[Dict[str, str]] = None,
            ) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw
    finally:
        conn.close()


def submit_and_wait(service: ScenarioService, spec: Dict[str, Any],
                    ) -> Tuple[int, Any]:
    status, created = request(service, "POST", "/v1/jobs", body=spec)
    assert status in (200, 201), created
    job_id = created["job"]["id"]
    return request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")


def strip_elapsed(value: Any) -> Any:
    """Recursively drop wall-clock fields; everything else must be identical."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items()
                if k != "elapsed_s"}
    if isinstance(value, list):
        return [strip_elapsed(v) for v in value]
    return value


@pytest.fixture()
def service():
    svc = ScenarioService(Workspace(store=None)).start()
    yield svc
    svc.stop()


# -- basic endpoints -------------------------------------------------------


def test_health_and_registry(service):
    status, health = request(service, "GET", "/v1/health")
    assert status == 200
    assert health["status"] == "ok"
    assert "builds_run" in health["workspace"]
    status, registry = request(service, "GET", "/v1/registry")
    assert status == 200
    assert "original" in registry["schemes"]
    assert "proximity" in registry["attacks"]
    assert "distances" in registry["metrics"]


def test_unknown_job_404(service):
    status, body = request(service, "GET", "/v1/jobs/nope")
    assert status == 404
    assert "unknown job" in body["error"]


def test_invalid_spec_400(service):
    status, body = request(service, "POST", "/v1/jobs",
                           body={"benchmark": "no-such-circuit"})
    assert status == 400
    assert "invalid spec" in body["error"]
    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=b"{not json",
                     headers={"Content-Length": "9"})
        assert conn.getresponse().status == 400
    finally:
        conn.close()


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", 1.5), ("seed", True), ("netlist_seed", "1"),
    ("netlist_seed", False), ("split_layers", [99]), ("split_layers", [0]),
    ("split_layers", [10]), ("num_patterns", -5), ("num_patterns", 0),
])
def test_out_of_range_spec_fields_400(service, field, value):
    status, body = request(service, "POST", "/v1/jobs",
                           body={**SPEC, field: value})
    assert status == 400, body
    assert "invalid spec" in body["error"] and field.split("_")[0] in body["error"]


@pytest.mark.parametrize("seeds", [
    {"start": 0, "count": 3_000_000}, {"count": "3000000"},
    list(range(20_000)),
])
def test_oversized_seed_set_400_before_expansion(service, seeds):
    """A short body naming millions of seeds is refused from the raw
    field, before the seeds are expanded or hashed."""
    from repro.service.app import MAX_SWEEP_SEEDS

    start = time.perf_counter()
    status, body = request(service, "POST", "/v1/jobs",
                           body={**SPEC, "seeds": seeds})
    assert time.perf_counter() - start < 0.5
    assert status == 400, body
    assert str(MAX_SWEEP_SEEDS) in body["error"]
    status, body = request(service, "POST", "/v1/jobs",
                           body={"spec": {**SPEC, "seeds": seeds}})
    assert status == 400 and str(MAX_SWEEP_SEEDS) in body["error"]


def test_unknown_route_404(service):
    status, _body = request(service, "GET", "/v1/frobnicate")
    assert status == 404


# -- input validation: malformed requests get 4xx, never 500 ----------------


@pytest.mark.parametrize("query", ["wait=abc", "wait=1e", "wait=%20x"])
def test_malformed_wait_is_400(service, query):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status in (200, 201), created
    job_id = created["job"]["id"]
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/result?{query}")
    assert status == 400, body
    assert "wait" in body["error"]


@pytest.mark.parametrize("query", ["start=abc", "start=1.5", "start=-1"])
def test_malformed_events_start_is_400(service, query):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status in (200, 201), created
    job_id = created["job"]["id"]
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/events?{query}")
    assert status == 400, body
    assert "start" in body["error"]


def _post_with_declared_length(service, length: str, body: bytes = b""):
    """POST /v1/jobs whose Content-Length header says ``length``, sending
    only ``body``; returns (status, parsed body, connection header)."""
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return (response.status, json.loads(response.read()),
                response.getheader("Connection"))
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_invalid_content_length_is_400_without_blocking(service, length):
    # A negative length used to reach rfile.read(-n) and block the handler
    # until the client hung up; the timeout would fire instead of a reply.
    status, body, connection = _post_with_declared_length(service, length)
    assert status == 400
    assert "Content-Length" in body["error"]
    assert connection == "close"


def test_oversized_body_is_413_unread(service):
    from repro.service.app import MAX_BODY_BYTES

    # Only a few bytes of the declared body are sent: the server must answer
    # from the header alone instead of waiting for the rest.
    status, body, connection = _post_with_declared_length(
        service, str(MAX_BODY_BYTES + 1), b"{}")
    assert status == 413
    assert str(MAX_BODY_BYTES) in body["error"]
    assert connection == "close"
    # A body exactly at the limit is read and parsed as usual.
    status, body, _ = _post_with_declared_length(
        service, str(MAX_BODY_BYTES), b" " * (MAX_BODY_BYTES - 2) + b"{}")
    assert status == 400 and "invalid spec" in body["error"]
    status, _health = request(service, "GET", "/v1/health")
    assert status == 200


def test_keep_alive_replies_are_not_delayed(service):
    """Headers and body leave in two sends; with Nagle's algorithm on, the
    second waited for the client's delayed ACK (about 40 ms per reply)."""
    import statistics
    import time

    conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        latencies = []
        for _ in range(20):
            started = time.perf_counter()
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.020, latencies


# -- differential: HTTP == in-process -------------------------------------


def test_sweep_bit_identical_to_workspace(service):
    """The headline contract: wire results == in-process results, bitwise."""
    status, wire = submit_and_wait(service, SPEC)
    assert status == 200
    assert wire["status"] == "done"
    assert wire["job"]["state"] == "done"

    local = Workspace(store=None).run_sweeps(
        [ScenarioSpec.from_dict(SPEC)])[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    # Exactly the sweep's three builds ran server-side.
    assert service.manager.workspace.stats()["builds_run"] == 3


def test_single_seed_spec_runs_as_one_seed_sweep(service):
    spec = {k: v for k, v in SPEC.items() if k != "seeds"}
    spec["seed"] = 1
    status, wire = submit_and_wait(service, spec)
    assert status == 200
    local = Workspace(store=None).run_sweep(
        ScenarioSpec.from_dict(spec)).to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    assert wire["job"]["kind"] == "scenario"


def test_chaos_replay_recovers_bit_identical():
    """A fault plan injected server-side must not change the answer.

    seed1's first build attempt fails; with retries the service job still
    converges to the exact fault-free in-process result — the recovery
    contract survives the wire.
    """
    ws = Workspace(store=None, chaos=FaultPlan(fail_first=1, match="seed1"),
                   retry=RetryPolicy(max_attempts=3))
    svc = ScenarioService(ws).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
        assert status == 200
        assert wire["status"] == "done"
    finally:
        svc.stop()
    fault_free = Workspace(store=None).run_sweeps(
        [ScenarioSpec.from_dict(SPEC)])[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(fault_free)


def test_partial_job_maps_to_206_with_keep_going_body():
    """Losing a seed under on_error="skip" is the HTTP twin of exit 3."""
    chaos = FaultPlan(fail_first=99, match="seed2")
    svc = ScenarioService(Workspace(store=None, chaos=chaos)).start()
    try:
        status, wire = submit_and_wait(
            svc, {"spec": SPEC, "on_error": "skip"})
    finally:
        svc.stop()
    assert status == 206
    assert wire["status"] == "partial"
    assert wire["skipped"] == 1
    assert wire["job"]["state"] == "partial"
    [failure] = wire["failures"]
    assert failure["seed"] == 2
    assert failure["error_type"] == "ChaosFailure"
    assert "traceback_text" not in failure
    # The surviving seeds aggregate honestly and bit-identically to the
    # in-process skip-mode sweep under the same fault plan.
    local_ws = Workspace(store=None, chaos=chaos)
    local = local_ws.run_sweeps(
        [ScenarioSpec.from_dict(SPEC)], on_error="skip")[0].to_dict()
    assert strip_elapsed(wire["result"]) == strip_elapsed(local)
    assert wire["result"]["seeds"] == [0, 1]
    assert wire["result"]["failed_seeds"] == [2]


def test_failed_job_maps_to_500_with_taxonomy_body():
    """An unrecoverable job surfaces the PR-5 taxonomy machine-readably."""
    svc = ScenarioService(
        Workspace(store=None, chaos=FaultPlan(fail_first=99, match="c17"))
    ).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
    finally:
        svc.stop()
    assert status == 500
    assert wire["status"] == "failed"
    assert wire["error_type"] == "BuildError"
    assert wire["message"]
    assert wire["job"]["state"] == "failed"
    assert wire["job"]["error"]["error_type"] == "BuildError"


# -- job records and streaming ---------------------------------------------


def test_job_record_validates_against_schema(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 201
    job_id = created["job"]["id"]
    assert validate_job_dict(created["job"]) == []
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    status, record = request(service, "GET", f"/v1/jobs/{job_id}")
    assert status == 200
    assert validate_job_dict(record) == []
    assert record["state"] == "done"
    status, listing = request(service, "GET", "/v1/jobs")
    assert status == 200
    assert [r["id"] for r in listing["jobs"]] == [job_id]


def test_events_stream_ndjson(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    job_id = created["job"]["id"]
    # Stream from the start while the job runs: the connection must hold
    # open until the job seals, then deliver a complete, ordered log.
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in
                  response.read().decode("utf-8").strip().splitlines()]
    finally:
        conn.close()
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[-1]["event"] == "finished"
    assert events[-1]["state"] == "done"
    kinds = {e["event"] for e in events}
    assert "build_completed" in kinds
    assert "scenario_completed" in kinds
    # Replay with a cursor: ?start=N returns exactly the suffix.
    status, raw = request(service, "GET",
                          f"/v1/jobs/{job_id}/events?start={len(events) - 2}")
    tail = [json.loads(line) for line in
            raw.decode("utf-8").strip().splitlines()]
    assert tail == events[-2:]


def test_events_stream_sse(service):
    status, created = request(service, "POST", "/v1/jobs", body=SPEC)
    job_id = created["job"]["id"]
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "text/event-stream"
        text = response.read().decode("utf-8")
    finally:
        conn.close()
    frames = [f for f in text.split("\n\n") if f.strip()]
    assert all(f.startswith("event: ") for f in frames)
    payloads = [json.loads(f.split("data: ", 1)[1]) for f in frames]
    assert payloads[-1]["event"] == "finished"


def test_result_long_poll_202_while_pending():
    """?wait long-polls; a job blocked on a build reports 202 pending."""
    ws = Workspace(store=None)
    svc = ScenarioService(ws).start()
    spec = {k: v for k, v in SPEC.items() if k != "seeds"}
    spec["seed"] = 0
    key = ScenarioSpec.from_dict(spec).build_key()
    # Hold the build hostage: claim its in-flight slot so the job blocks.
    owned, foreign = ws._claim_builds([key])
    assert owned == [key]
    try:
        status, created = request(svc, "POST", "/v1/jobs", body=spec)
        job_id = created["job"]["id"]
        status, body = request(svc, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 202
        assert body["status"] == "pending"
    finally:
        ws._release_builds([key])
    status, body = request(svc, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    assert status == 200
    svc.stop()


# -- store over the wire ---------------------------------------------------


def test_store_endpoints_serve_manifest_and_verifiable_payload(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    svc = ScenarioService(Workspace(store=store)).start()
    try:
        status, wire = submit_and_wait(svc, SPEC)
        assert status == 200
        status, catalogue = request(svc, "GET", "/v1/store")
        assert status == 200
        keys = [e["key"] for e in catalogue["entries"]]
        expected = sorted(
            s.build_key() for s in ScenarioSpec.from_dict(SPEC).expand_seeds())
        assert keys == expected
        key = keys[0]
        status, manifest = request(svc, "GET", f"/v1/store/{key}/manifest")
        assert status == 200
        assert manifest["key"] == key
        assert manifest["manifest"]["build_key"] == key
        assert manifest["payload_url"] == f"/v1/store/{key}/payload"
        status, payload = request(svc, "GET", f"/v1/store/{key}/payload")
        assert status == 200
        # The wire payload is checksum-verifiable against the manifest.
        assert hashlib.sha256(payload).hexdigest() == manifest["payload_sha256"]
        assert len(payload) == manifest["payload_bytes"]
        status, _b = request(svc, "GET", "/v1/store/feedface/manifest")
        assert status == 404
    finally:
        svc.stop()


def test_warm_store_serves_job_without_building(tmp_path):
    """A second service over the same store answers without one build."""
    store_dir = tmp_path / "store"
    first = ScenarioService(Workspace(store=ArtifactStore(store_dir))).start()
    try:
        status, _wire = submit_and_wait(first, SPEC)
        assert status == 200
        baseline = _wire
    finally:
        first.stop()
    cold_ws = Workspace(store=ArtifactStore(store_dir))
    second = ScenarioService(cold_ws).start()
    try:
        status, wire = submit_and_wait(second, SPEC)
        assert status == 200
    finally:
        second.stop()
    assert cold_ws.stats()["builds_run"] == 0
    assert cold_ws.stats()["store_hits"] == 3
    assert strip_elapsed(wire["result"]) == strip_elapsed(baseline["result"])


def test_resubmitting_a_finished_job_joins_it(service):
    status, first = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 201
    job_id = first["job"]["id"]
    request(service, "GET", f"/v1/jobs/{job_id}/result?wait=120")
    runs_before = service.manager.workspace.stats()["builds_run"]
    status, again = request(service, "POST", "/v1/jobs", body=SPEC)
    assert status == 200
    assert again["created"] is False
    assert again["job"]["id"] == job_id
    assert again["job"]["requests"] == 2
    status, body = request(service, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert service.manager.workspace.stats()["builds_run"] == runs_before
