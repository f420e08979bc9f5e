"""Concurrency contracts: N clients, one build.

The service's dedup story has two layers, both pinned here:

* **Workspace layer** — the in-flight registry: any number of threads
  asking for the same missing build key (via ``build`` or ``prewarm``)
  trigger exactly one build; the rest wait on the claimant's event and
  find the artefact cached.  This is the regression test the service
  relies on, so it runs against the bare Workspace first.
* **Service layer** — content-addressed jobs: concurrent identical POSTs
  collapse to one job record (``requests`` counts the fan-in) and the
  sweep's builds run exactly once, observable in ``stats()["builds_run"]``.
"""

from __future__ import annotations

import json
import http.client
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.api.spec import ScenarioSpec
from repro.api.workspace import Workspace
from repro.service import ScenarioService

SPEC = {
    "benchmark": "c17",
    "scheme": "original",
    "metrics": ["distances"],
    "seeds": [0, 1, 2],
}


def request(service: ScenarioService, method: str, path: str,
            body: Optional[Any] = None) -> Tuple[int, Any]:
    conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


# -- workspace-layer dedup (the service's foundation) ----------------------


def _hammer(n_threads: int, target) -> List[Any]:
    """Run ``target()`` from N threads released simultaneously."""
    barrier = threading.Barrier(n_threads)
    outcomes: List[Any] = [None] * n_threads
    def run(i: int) -> None:
        barrier.wait()
        try:
            outcomes[i] = target()
        except Exception as error:  # noqa: BLE001 - surfaced by the caller
            outcomes[i] = error
    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def test_two_threads_prewarming_same_spec_build_once():
    """The in-flight registry: concurrent prewarms of one spec → one build."""
    ws = Workspace(store=None)
    spec = ScenarioSpec(benchmark="c17", scheme="original",
                        metrics=("distances",), seed=0)
    # Hold each thread after its claim until the other has claimed too:
    # without this gate the first prewarm can finish the (fast) c17 build
    # before the second thread reaches the registry, and the inflight wait
    # asserted below never happens.  Post-claim, the loser is guaranteed to
    # hold the winner's in-flight event.
    claimed = threading.Barrier(2)
    real_claim = ws._claim_builds
    def gated_claim(keys):
        result = real_claim(keys)
        claimed.wait(timeout=30)
        return result
    ws._claim_builds = gated_claim
    outcomes = _hammer(2, lambda: ws.prewarm([spec]))
    for outcome in outcomes:
        assert not isinstance(outcome, Exception), outcome
    stats = ws.stats()
    assert stats["builds_run"] == 1
    assert stats["inflight_waits"] >= 1
    assert len(ws) == 1


def test_many_threads_building_same_key_build_once():
    ws = Workspace(store=None)
    spec = ScenarioSpec(benchmark="c17", scheme="original",
                        metrics=("distances",), seed=3)
    outcomes = _hammer(6, lambda: ws.build(spec))
    builds = [o for o in outcomes if not isinstance(o, Exception)]
    assert len(builds) == 6
    first = builds[0]
    assert all(b is first for b in builds), "all threads must share one artefact"
    assert ws.stats()["builds_run"] == 1


def test_concurrent_sweeps_share_builds():
    """Two overlapping sweeps: the union of seeds builds exactly once each."""
    ws = Workspace(store=None)
    base = ScenarioSpec.from_dict(SPEC)
    overlapping = base.with_seeds([1, 2, 3])
    results: Dict[str, Any] = {}
    def run_base():
        results["base"] = ws.run_sweeps([base])[0]
    def run_overlap():
        results["overlap"] = ws.run_sweeps([overlapping])[0]
    threads = [threading.Thread(target=run_base),
               threading.Thread(target=run_overlap)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["base"].seeds == (0, 1, 2)
    assert results["overlap"].seeds == (1, 2, 3)
    # Union of the two sweeps is seeds {0,1,2,3}: four builds, not six.
    assert ws.stats()["builds_run"] == 4


def test_threads_holding_stored_builds_share_them(tmp_path):
    """Eight threads over a warm store, switching every microsecond: while
    a thread holds a build, every lookup of its key returns that object;
    nothing is rebuilt, and once no thread holds them memory holds none."""
    specs = [ScenarioSpec(benchmark="c17", scheme="original",
                          metrics=("distances",), seed=seed) for seed in range(3)]
    Workspace(store=tmp_path).run_scenarios(specs)
    ws = Workspace(store=tmp_path)
    problems: List[str] = []

    def churn() -> None:
        for step in range(30):
            spec = specs[step % len(specs)]
            held = ws.build(spec)
            for _ in range(3):
                if ws.build(spec) is not held:
                    problems.append(f"seed {spec.seed}: a held build came back "
                                    "as another object")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    stats = ws.stats()
    assert stats["builds_run"] == 0
    assert stats["build_hits"] + stats["build_misses"] == 8 * 30 * 4
    assert len(ws) == 0


# -- service-layer dedup ---------------------------------------------------


def test_n_concurrent_identical_posts_one_job_one_build_set():
    """The headline: 8 simultaneous identical requests → 1 job, 3 builds."""
    n_clients = 8
    ws = Workspace(store=None)
    svc = ScenarioService(ws).start()
    try:
        outcomes = _hammer(
            n_clients, lambda: request(svc, "POST", "/v1/jobs", body=SPEC))
        for outcome in outcomes:
            assert not isinstance(outcome, Exception), outcome
        statuses = sorted(status for status, _body in outcomes)
        assert statuses.count(201) == 1, "exactly one request creates the job"
        assert statuses.count(200) == n_clients - 1
        ids = {body["job"]["id"] for _status, body in outcomes}
        assert len(ids) == 1, "identical requests must share one job id"
        job_id = ids.pop()

        status, result = request(
            svc, "GET", f"/v1/jobs/{job_id}/result?wait=120")
        assert status == 200
        assert result["status"] == "done"
        status, record = request(svc, "GET", f"/v1/jobs/{job_id}")
        assert record["requests"] == n_clients
        # The acceptance criterion: exactly one build per seed in stats().
        assert ws.stats()["builds_run"] == len(SPEC["seeds"])
        status, listing = request(svc, "GET", "/v1/jobs")
        assert len(listing["jobs"]) == 1
    finally:
        svc.stop()


def test_concurrent_distinct_jobs_run_independently():
    ws = Workspace(store=None)
    svc = ScenarioService(ws).start()
    spec_a = dict(SPEC, seeds=[0, 1])
    spec_b = dict(SPEC, seeds=[5, 6])
    try:
        posts = _hammer(2, lambda: request(svc, "POST", "/v1/jobs", body=spec_a))
        status_b, created_b = request(svc, "POST", "/v1/jobs", body=spec_b)
        ids = {body["job"]["id"] for _s, body in posts}
        assert len(ids) == 1
        assert created_b["job"]["id"] not in ids
        for job_id in sorted(ids | {created_b["job"]["id"]}):
            status, result = request(
                svc, "GET", f"/v1/jobs/{job_id}/result?wait=120")
            assert status == 200, result
            assert result["status"] == "done"
        assert ws.stats()["builds_run"] == 4  # seeds {0,1} + {5,6}
    finally:
        svc.stop()


def test_concurrent_jobs_overlapping_seeds_build_union_once():
    """Distinct jobs sharing seeds still build each key exactly once."""
    ws = Workspace(store=None)
    svc = ScenarioService(ws, max_workers=2).start()
    spec_a = dict(SPEC, seeds=[0, 1, 2])
    spec_b = dict(SPEC, seeds=[1, 2, 3])
    try:
        results: List[Tuple[int, Any]] = [None, None]
        def post(i: int, spec: Dict[str, Any]) -> None:
            results[i] = request(svc, "POST", "/v1/jobs", body=spec)
        threads = [threading.Thread(target=post, args=(0, spec_a)),
                   threading.Thread(target=post, args=(1, spec_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job_id in {body["job"]["id"] for _s, body in results}:
            status, result = request(
                svc, "GET", f"/v1/jobs/{job_id}/result?wait=120")
            assert status == 200, result
            assert result["status"] == "done"
        # Union of seeds is {0,1,2,3}: four builds despite six requests.
        assert ws.stats()["builds_run"] == 4
    finally:
        svc.stop()
