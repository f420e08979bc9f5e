"""The committed ``BENCH_*.json`` artefacts conform to the shared schema.

CI's bench-smoke job runs :mod:`benchmarks.check_bench_schema` against both
the committed artefacts and fresh smoke outputs; this mirrors the committed
half in tier-1 so a malformed artefact (legacy top-level provenance keys,
missing host block, dropped section) fails fast locally too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from check_bench_schema import check_file, check_payload  # noqa: E402

ARTEFACTS = ("BENCH_layout.json", "BENCH_build.json", "BENCH_sim.json")


@pytest.mark.parametrize("name", ARTEFACTS)
def test_committed_artifact_is_well_formed(name):
    path = REPO_ROOT / name
    assert path.exists(), f"{name} missing from the repo root"
    problems = check_file(path)
    assert not problems, f"{name}: {problems}"


def test_legacy_top_level_layout_is_rejected():
    payload = {
        "generated_utc": "2026-01-01T00:00:00+00:00",
        "python": "3.12.0",
        "machine": "x86_64",
        "configs": [],
        "largest_config_speedups": {},
    }
    problems = check_payload(payload, "layout")
    assert any("meta" in p for p in problems)
    assert any("legacy top-level" in p for p in problems)


def test_missing_host_keys_are_reported():
    payload = {
        "meta": {"generated_utc": "t", "host": {"python": "3.12.0"}},
        "configs": [{"benchmark": "b", "timings_s": {}, "speedups": {}}],
        "largest_config_speedups": {},
    }
    problems = check_payload(payload, "layout")
    assert any(p.startswith("meta.host.numpy") for p in problems)
    assert any(p.startswith("meta.host.git_rev") for p in problems)


def test_build_artifact_requires_store_io_rows():
    payload = json.loads((REPO_ROOT / "BENCH_build.json").read_text())
    assert payload["store_io"], "BENCH_build.json has no store_io rows"
    without = {key: value for key, value in payload.items() if key != "store_io"}
    assert "missing section 'store_io'" in check_payload(without, "build")
    broken = dict(payload, store_io=[{"benchmark": "c880", "save_ms": 1.0}])
    problems = check_payload(broken, "build")
    assert "store_io[0].payload_bytes missing" in problems
    assert "store_io[0].load_ms missing" in problems
