"""Schema check for the committed ``BENCH_*.json`` perf artefacts.

Every bench script stamps the same ``meta`` provenance block (see
:mod:`repro.utils.host`); the per-file result sections differ.  This
validator pins both, so a bench script drifting back to the legacy
top-level ``generated_utc``/``python``/``machine`` layout — or dropping a
section CI dashboards read — fails the bench-smoke job instead of
producing a silently unreadable artefact::

    python benchmarks/check_bench_schema.py BENCH_layout.json BENCH_build.json
    python benchmarks/check_bench_schema.py /tmp/BENCH_*.json

The artefact kind (layout / build / sim) is inferred from the file name.
Exit status is non-zero on the first malformed artefact, with every
violation listed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: Keys :func:`repro.utils.host.host_metadata` guarantees in ``meta.host``.
HOST_KEYS = (
    "timestamp_utc", "python", "numpy", "machine", "system",
    "cpu_count", "git_rev",
)

#: Required top-level result sections per artefact kind.
SECTIONS = {
    "layout": ("configs", "largest_config_speedups"),
    "build": ("build_path", "seed_sweep", "seed_batch", "store", "protect"),
    "sim": ("simulation", "attack", "ppa", "speedups_vs_seed"),
}

#: Legacy top-level keys the meta block replaced; their reappearance means
#: a script regressed to the pre-meta layout.
LEGACY_TOP_LEVEL = ("generated_utc", "python", "machine", "host")


def artefact_kind(path: Path) -> str:
    """``layout`` / ``build`` / ``sim``, inferred from the file name."""
    stem = path.name
    for kind in SECTIONS:
        if f"BENCH_{kind}" in stem:
            return kind
    raise ValueError(
        f"{path}: cannot infer artefact kind from the file name "
        f"(expected BENCH_layout/BENCH_build/BENCH_sim)"
    )


def check_payload(payload: Any, kind: str) -> List[str]:
    """Every schema violation in ``payload``, empty when well-formed."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]

    meta = payload.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing 'meta' block (legacy top-level layout?)")
    else:
        if not isinstance(meta.get("generated_utc"), str):
            problems.append("meta.generated_utc missing or not a string")
        host = meta.get("host")
        if not isinstance(host, dict):
            problems.append("meta.host missing or not an object")
        else:
            for key in HOST_KEYS:
                if key not in host:
                    problems.append(f"meta.host.{key} missing")
    for key in LEGACY_TOP_LEVEL:
        if key in payload:
            problems.append(
                f"legacy top-level key {key!r} present — provenance belongs "
                f"under 'meta'"
            )

    for section in SECTIONS[kind]:
        if section not in payload:
            problems.append(f"missing section {section!r}")
        elif not isinstance(payload[section], (dict, list)):
            problems.append(
                f"section {section!r} must be an object or array, got "
                f"{type(payload[section]).__name__}"
            )

    if kind == "layout" and isinstance(payload.get("configs"), list):
        if not payload["configs"]:
            problems.append("'configs' is empty")
        for index, config in enumerate(payload["configs"]):
            if not isinstance(config, dict):
                problems.append(f"configs[{index}] is not an object")
                continue
            for key in ("benchmark", "timings_s", "speedups"):
                if key not in config:
                    problems.append(f"configs[{index}].{key} missing")
    return problems


def check_file(path: Path) -> List[str]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable: {error}"]
    return check_payload(payload, artefact_kind(path))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", type=Path, nargs="+",
                        help="BENCH_*.json artefacts to validate")
    args = parser.parse_args(argv)
    failures: Dict[str, List[str]] = {}
    for path in args.paths:
        problems = check_file(path)
        if problems:
            failures[str(path)] = problems
        else:
            print(f"ok: {path}")
    for path, problems in failures.items():
        print(f"FAIL: {path}", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
