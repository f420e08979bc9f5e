"""Golden regression suite: tiny-scale seed-0 snapshots of every table/figure.

Each committed file under ``tests/golden/`` holds the exact table one
experiment produces on the reduced :data:`GOLDEN_CONFIG` — bit-identical
cell values included — so any refactor of the build path, the attacks or the
metrics gets an end-to-end identity check for free instead of ad-hoc manual
verification.

Regenerate the snapshots (only when an *intentional* behaviour change is
being made) with::

    PYTHONPATH=src python tests/test_golden_tables.py --regen

The comparison tests are marked ``slow``: they run in the full CI suite
(``pytest -m "slow or not slow"``), not in tier-1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments.common import ExperimentConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The tiny, fast configuration every snapshot is recorded at (seed 0).
GOLDEN_CONFIG = ExperimentConfig(
    iscas_benchmarks=("c432", "c880"),
    superblue_benchmarks=("superblue18",),
    superblue_scale=0.0025,
    iscas_split_layers=(4,),
    num_patterns=256,
    iscas_swap_fractions=(0.05,),
    superblue_swap_fractions=(0.02,),
    seed=0,
)


def _experiments():
    from repro.experiments.runner import EXPERIMENTS

    return EXPERIMENTS


def _plain(value: Any) -> Any:
    """JSON-safe cell value (NumPy scalars unwrapped, floats kept exact)."""
    if hasattr(value, "item") and not isinstance(value, (int, float, str)):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    return str(value)


def table_payload(table) -> Dict[str, Any]:
    """The comparable plain-data form of a :class:`repro.utils.tables.Table`."""
    return {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_plain(cell) for cell in row] for row in table.rows],
    }


def golden_names() -> List[str]:
    return sorted(_experiments())


@pytest.mark.slow
@pytest.mark.parametrize("name", golden_names())
def test_golden_table(name):
    """Every experiment reproduces its committed seed-0 snapshot exactly."""
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        "`python tests/test_golden_tables.py --regen`"
    )
    golden = json.loads(path.read_text())
    assert golden["config"] == GOLDEN_CONFIG.to_dict(), (
        "golden snapshot was recorded at a different configuration; "
        "regenerate the snapshots"
    )
    table = _experiments()[name](GOLDEN_CONFIG)
    fresh = table_payload(table)
    assert fresh["columns"] == golden["table"]["columns"], name
    assert fresh["title"] == golden["table"]["title"], name
    golden_rows = golden["table"]["rows"]
    assert len(fresh["rows"]) == len(golden_rows), name
    for i, (fresh_row, golden_row) in enumerate(zip(fresh["rows"], golden_rows)):
        assert fresh_row == golden_row, (
            f"{name} row {i} drifted:\n  fresh:  {fresh_row}\n  golden: {golden_row}"
        )


# -- scenario-service wire shapes ------------------------------------------
#
# The service's JSON bodies (job record, partial-failure body, store-manifest
# wire form) are contracts clients script against; these snapshots pin them
# bit-identically.  Everything below is built from fixed inputs — no builds,
# no clocks — so the comparison tests are fast enough for tier-1.


def service_snapshots() -> Dict[str, Dict[str, Any]]:
    """Deterministic instances of every service wire shape."""
    from repro.api.spec import ScenarioSpec
    from repro.exec.errors import FailureRecord
    from repro.service.schemas import (
        JobRecord, job_id_for, partial_body, store_manifest_wire,
    )

    spec = ScenarioSpec(
        benchmark="c17", scheme="original", metrics=("distances",),
        seeds=(0, 1, 2),
    )
    lost = spec.expand_seeds()[2]
    failure = FailureRecord(
        kind="build", benchmark="c17", scheme="original", seed=2,
        spec_hash=lost.content_hash(), build_key=lost.build_key(),
        attempts=2, error_type="ChaosFailure",
        message="chaos: injected failure for c17:original:seed2",
    )
    failure_dict = {
        k: v for k, v in failure.to_dict().items() if k != "traceback_text"
    }
    record = JobRecord(
        id=job_id_for(spec.content_hash(), "skip"),
        spec=spec.to_dict(),
        spec_hash=spec.content_hash(),
        state="partial", kind="sweep", jobs=2, on_error="skip",
        created_utc="2026-01-01T00:00:00Z",
        started_utc="2026-01-01T00:00:00Z",
        finished_utc="2026-01-01T00:00:02Z",
        events=9,
        progress={
            "build_dispatched": 3, "build_completed": 2,
            "build_quarantined": 1, "scenario_completed": 2,
            "seed_failed": 1,
        },
        failures=[failure_dict],
        error=None, elapsed_s=2.0, requests=3,
    )
    manifest = {
        "store_format_version": 1,
        "codec_format_version": 1,
        "build_key": failure.build_key,
        "build": lost.build_dict(),
        "record": {"benchmark": "c17", "scheme": "original", "seed": 2},
        "payload_sha256": "00" * 32,
        "payload_bytes": 14281,
        "created_utc": "2026-01-01T00:00:00Z",
    }
    return {
        "service_job_record": {"record": record.to_dict()},
        "service_partial_failure": partial_body(record, result=None),
        "service_store_manifest": store_manifest_wire(
            failure.build_key, manifest),
    }


@pytest.mark.parametrize("name", sorted(
    ["service_job_record", "service_partial_failure", "service_store_manifest"]
))
def test_golden_service_shape(name):
    """Service wire shapes reproduce their committed snapshots exactly.

    Fast (no builds), so tier-1 catches wire-format drift immediately.
    """
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        "`python tests/test_golden_tables.py --regen`"
    )
    golden = json.loads(path.read_text())
    fresh = service_snapshots()[name]
    assert fresh == golden, (
        f"{name} wire shape drifted; if intentional, regenerate with "
        "`python tests/test_golden_tables.py --regen`"
    )


# -- generated netlists --------------------------------------------------------
#
# A store hit decodes its netlist from the payload and never runs the
# generator, so a generator change must bump ``GENERATOR_VERSION`` (which
# turns every stored entry into a miss).  This snapshot pins what the
# generator makes; a change that keeps the version fails here.

#: ``(benchmark, seed, scale)`` of every pinned netlist.
GOLDEN_NETLISTS = (
    [("c17", 0, None)]
    + [(name, 0, None) for name in
       ("c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315",
        "c6288", "c7552")]
    + [(name, seed, scale) for name in ("superblue18", "superblue5")
       for scale in (0.002, 0.01) for seed in (0, 1)]
)


def netlist_fingerprints() -> Dict[str, Any]:
    """``netlist_fingerprint`` and ``topology_version`` of every
    :data:`GOLDEN_NETLISTS` entry, under the current generator version."""
    from repro.circuits.registry import GENERATOR_VERSION, get_benchmark
    from repro.store import netlist_fingerprint

    netlists = {}
    for name, seed, scale in GOLDEN_NETLISTS:
        netlist = get_benchmark(name, seed=seed, scale=scale)
        netlists[f"{name}:{seed}:{scale}"] = {
            "netlist_fingerprint": netlist_fingerprint(netlist),
            "topology_version": netlist.topology_version,
        }
    return {"generator_version": GENERATOR_VERSION, "netlists": netlists}


def test_generated_netlists_match_their_snapshot():
    """The generator makes the pinned netlists at the pinned version."""
    from repro.circuits.iscas85 import ISCAS85_PROFILES

    assert {name for name, _, _ in GOLDEN_NETLISTS} >= {"c17", *ISCAS85_PROFILES}
    golden = json.loads((GOLDEN_DIR / "netlist_fingerprints.json").read_text())
    fresh = netlist_fingerprints()
    assert fresh["generator_version"] == golden["generator_version"], (
        "GENERATOR_VERSION changed; regenerate the snapshot with "
        "`python tests/test_golden_tables.py --regen`"
    )
    for name, pinned in golden["netlists"].items():
        assert fresh["netlists"][name] == pinned, (
            f"the generator makes another {name} netlist at version "
            f"{fresh['generator_version']}: bump GENERATOR_VERSION in "
            "repro/circuits/registry.py and regenerate the snapshot"
        )
    assert fresh == golden


def regenerate() -> None:  # pragma: no cover - manual entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, run in _experiments().items():
        table = run(GOLDEN_CONFIG)
        payload = {
            "experiment": name,
            "config": GOLDEN_CONFIG.to_dict(),
            "table": table_payload(table),
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    snapshots = dict(service_snapshots(), netlist_fingerprints=netlist_fingerprints())
    for name, payload in snapshots.items():
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
