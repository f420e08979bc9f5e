"""``python -m repro`` / ``repro`` — the scenario-API command line.

Subcommands::

    repro run <target> [...]    # run experiments or JSON scenario specs
    repro list [section]        # registered attacks/defenses/metrics/...
    repro hash <spec.json>      # canonical content hash of a spec file
    repro cache <op> [...]      # inspect/maintain a persistent artefact store
                                # (ls | gc | export | import | verify)

``run --store DIR`` (or the ``REPRO_STORE`` environment variable) attaches a
persistent artefact store: builds are served from disk when present and
published to disk as they finish, which makes killed sweeps resumable —
rerun the same command and only the missing seeds build.  With
``REPRO_STORE_READONLY=1`` a store miss is a hard error instead of a
rebuild (CI uses this to prove a rerun touched no build path).

``run`` targets:

* an experiment name (``table1`` … ``figure6``, ``headline``) or ``all`` —
  regenerates the corresponding paper tables through
  :func:`repro.experiments.runner.run_all`; with ``--seeds 0:8``
  the experiment's scenario grid runs as a Monte-Carlo sweep instead and the
  report shows per-seed values plus mean/std/CI per metric;
* a ``.json`` file containing either one :class:`~repro.api.spec.
  ScenarioSpec` (an object with a ``benchmark`` key), a batch
  (``{"scenarios": [...]}``), or an experiment-grid request
  (``{"experiment": "table1", "config": {...ExperimentConfig fields...}}``).

Scenario results print as JSON (``--output`` writes to a file); experiment
tables print in the usual plain-text form.

Resilience: ``run --retries N`` retries failing builds (total attempts
N + 1, exponential backoff), ``--timeout S`` kills builds hanging past S
seconds in the parallel prewarm, and ``--keep-going`` switches the batch
APIs to ``on_error="skip"`` — failed seeds are dropped, surviving seeds
aggregate with an honest ``n``, and a machine-readable JSON failure summary
goes to stderr.

Exit codes: ``0`` success, ``1`` unrecoverable execution failure (a build
or sweep died for good; structured JSON on stderr), ``2`` usage errors,
``3`` partial success (``--keep-going`` skipped at least one seed/scenario).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.api.registry import ATTACKS, DEFENSES, METRICS, ensure_builtins
from repro.api.spec import ScenarioSpec, load_specs
from repro.api.workspace import default_workspace
from repro.exec import ExecError, RetryPolicy

#: Diagnostics (usage warnings, degradations) go through the ``repro``
#: logger hierarchy, never ``print`` — the PR-5 contract.  ``main()``
#: installs a stderr handler, so CLI users still see them.
_log = logging.getLogger("repro.cli")

#: Exit code for partial results (seeds skipped under --keep-going).
EXIT_PARTIAL = 3


def _experiment_registry():
    from repro.experiments.runner import EXPERIMENTS

    return EXPERIMENTS


def parse_seeds(text: str) -> List[int]:
    """Parse a ``--seeds`` spelling into an explicit seed list.

    ``"0:8"`` → seeds 0‥7 (python range), ``"1,4,9"`` → exactly those,
    ``"7"`` → a single seed.
    """
    text = text.strip()
    if ":" in text:
        start_text, _, stop_text = text.partition(":")
        start = int(start_text) if start_text else 0
        stop = int(stop_text)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r} (need start < stop)")
        return list(range(start, stop))
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def _run_experiment_sweeps(names: List[str], config, seeds: List[int],
                           jobs: int) -> str:
    """Run experiment scenario grids as Monte-Carlo seed sweeps."""
    from repro.experiments.common import run_scenario_sweep, sweep_report_table
    from repro.experiments.runner import SCENARIO_GRIDS
    from repro.utils.tables import format_table

    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        seed_label = f"{seeds[0]}..{seeds[-1]}"
    else:  # non-contiguous lists are spelled out, not summarized as a range
        seed_label = ",".join(map(str, seeds))
    blocks = []
    for name in names:
        sweeps = run_scenario_sweep(
            SCENARIO_GRIDS[name](config), seeds, jobs=jobs
        )
        table = sweep_report_table(
            sweeps,
            title=f"{name}: Monte-Carlo sweep over {len(seeds)} seeds "
                  f"({seed_label})",
        )
        blocks.append(format_table(table))
    return "\n\n".join(blocks)


def _run_experiments(names: List[str], config, jobs: int) -> str:
    from repro.experiments.runner import run_all
    from repro.utils.tables import format_table

    results = run_all(config, only=names, jobs=jobs)
    blocks = [format_table(table) for table in results.values()]
    return "\n\n".join(blocks)


def _build_experiment_config(args: argparse.Namespace,
                             overrides: Optional[Mapping[str, Any]] = None):
    import dataclasses

    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import quick_config

    if overrides is not None:
        if args.quick:
            _log.warning(
                "--quick ignored, the spec file provides an explicit config"
            )
        config = ExperimentConfig.from_dict(overrides)
    elif args.quick:
        config = quick_config()
    else:
        config = ExperimentConfig()
    if args.superblue_scale is not None:
        config = dataclasses.replace(config, superblue_scale=args.superblue_scale)
    return config


def _resolved_jobs(args: argparse.Namespace) -> int:
    """Parallel prewarm width: explicit --jobs, else the parallel-by-default
    worker count."""
    from repro.api.workspace import default_jobs

    return args.jobs if args.jobs is not None else default_jobs()


def apply_resilience_flags(args: argparse.Namespace) -> None:
    """Map ``--retries/--timeout/--keep-going`` onto the default workspace.

    The workspace defaults govern every execution path the CLI reaches
    (parallel prewarm, serial cache-miss builds, sweep aggregation), so the
    flags behave identically for spec files and experiment targets.
    """
    workspace = default_workspace()
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "timeout", None)
    if retries is not None or timeout is not None:
        workspace.retry = RetryPolicy(
            max_attempts=(retries or 0) + 1, timeout_s=timeout
        )
    if getattr(args, "keep_going", False):
        workspace.on_error = "skip"
    if getattr(args, "store", None):
        from repro.store import ArtifactStore

        workspace.store = ArtifactStore(args.store)


def drain_failure_dicts() -> List[Dict[str, Any]]:
    """Failure records of the run as compact JSON-ready dicts."""
    records = []
    for record in default_workspace().drain_failures():
        data = record.to_dict()
        data.pop("traceback_text", None)  # keep the stderr summary compact
        records.append(data)
    return records


def _run_payload(payload: Any, args: argparse.Namespace) -> str:
    """Dispatch a parsed JSON payload to scenarios or experiment grids."""
    if isinstance(payload, Mapping) and ("experiment" in payload or "experiments" in payload):
        names = payload.get("experiments", payload.get("experiment"))
        if isinstance(names, str):
            names = [names]
        config = _build_experiment_config(args, payload.get("config"))
        if args.seeds:
            return _run_experiment_sweeps(
                list(names), config, args.seeds, jobs=_resolved_jobs(args)
            )
        return _run_experiments(list(names), config, jobs=_resolved_jobs(args))
    for flag in ("quick", "superblue_scale"):
        if getattr(args, flag, None):
            _log.warning(
                "--%s ignored for scenario-spec payloads (edit the spec "
                "instead)", flag.replace("_", "-"),
            )
    specs = load_specs(payload)
    if args.seeds:
        specs = [spec.with_seeds(args.seeds) for spec in specs]
    if getattr(args, "netlist_seed", None) is not None:
        specs = [
            dataclasses.replace(spec, netlist_seed=args.netlist_seed)
            for spec in specs
        ]
    for spec in specs:
        spec.validate()
    workspace = default_workspace()
    if any(spec.seeds is not None for spec in specs):
        # Monte-Carlo: every spec runs as a sweep (single-seed specs become
        # one-seed sweeps, so a mixed batch renders uniformly).
        documents = [
            sweep.to_dict()
            for sweep in workspace.run_sweeps(specs, jobs=_resolved_jobs(args))
        ]
    else:
        documents = [
            result.to_dict()
            for result in workspace.run_scenarios(specs, jobs=_resolved_jobs(args))
        ]
    rendered = documents[0] if len(documents) == 1 else documents
    return json.dumps(rendered, indent=2, sort_keys=True)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        apply_resilience_flags(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    target = args.target
    try:
        if target.endswith(".json") or "/" in target or "\\" in target:
            path = Path(target)
            if not path.exists():
                print(f"error: spec file {target!r} does not exist", file=sys.stderr)
                return 2
            output = _run_payload(json.loads(path.read_text()), args)
        else:
            experiments = _experiment_registry()
            names = list(experiments) if target == "all" else [target]
            unknown = [name for name in names if name not in experiments]
            if unknown:
                print(
                    f"error: unknown experiment {unknown[0]!r}; choose from "
                    f"{', '.join(experiments)} or 'all', or pass a .json spec file",
                    file=sys.stderr,
                )
                return 2
            config = _build_experiment_config(args)
            if args.seeds:
                output = _run_experiment_sweeps(
                    names, config, args.seeds, jobs=_resolved_jobs(args)
                )
            else:
                output = _run_experiments(names, config, jobs=_resolved_jobs(args))
    except ExecError as error:
        # Unrecoverable even after retries/partial degradation: report it
        # machine-readably and exit nonzero.
        summary = {
            "status": "failed",
            "error_type": type(error).__name__,
            "message": str(error),
            "failures": [
                {k: v for k, v in record.to_dict().items() if k != "traceback_text"}
                for record in getattr(error, "failures", [])
            ] or drain_failure_dicts(),
        }
        print(json.dumps(summary, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(output + "\n")
        print(f"wrote {args.output}")
    else:
        print(output)
    failures = drain_failure_dicts()
    if failures:
        # Partial success: stdout holds the surviving results, stderr the
        # machine-readable account of what was skipped.
        print(
            json.dumps(
                {"status": "partial", "skipped": len(failures), "failures": failures},
                indent=2, sort_keys=True,
            ),
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    ensure_builtins()
    from repro.circuits.registry import available_benchmarks

    sections = {
        "attacks": lambda: [
            f"{e.name:24s} {e.summary}" for e in ATTACKS.entries()
        ],
        "defenses": lambda: [
            f"{e.name:24s} {e.summary}" for e in DEFENSES.entries()
        ],
        "metrics": lambda: [
            f"{e.name:24s} [{e.extra.get('scope', '?')}] {e.summary}"
            for e in METRICS.entries()
        ],
        "experiments": lambda: list(_experiment_registry()),
        "benchmarks": available_benchmarks,
    }
    selected = [args.section] if args.section else list(sections)
    unknown = [name for name in selected if name not in sections]
    if unknown:
        print(
            f"error: unknown section {unknown[0]!r}; choose from {', '.join(sections)}",
            file=sys.stderr,
        )
        return 2
    for name in selected:
        print(f"{name}:")
        for line in sections[name]():
            print(f"  {line}")
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte budget: plain int or ``K``/``M``/``G`` suffixed."""
    text = text.strip()
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    factor = units.get(text[-1:].lower())
    if factor is not None:
        return int(float(text[:-1]) * factor)
    return int(text)


def _format_size(num_bytes: int) -> str:
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def _open_store(args: argparse.Namespace, *, readonly: Optional[bool] = None):
    """The store named by ``--store`` / ``REPRO_STORE``, or ``None`` + error."""
    import os

    from repro.store import ArtifactStore

    root = getattr(args, "store", None) or os.environ.get("REPRO_STORE", "").strip()
    if not root:
        print(
            "error: no artefact store given (pass --store DIR or set REPRO_STORE)",
            file=sys.stderr,
        )
        return None
    return ArtifactStore(root, readonly=readonly)


def cmd_cache(args: argparse.Namespace) -> int:
    store = _open_store(args, readonly=True if args.cache_op == "ls" else None)
    if store is None:
        return 2
    if args.cache_op == "ls":
        entries = store.entries()
        if args.json:
            document = [
                {
                    "key": entry.key, "benchmark": entry.benchmark,
                    "scheme": entry.scheme,
                    "seed": entry.build.get("seed"),
                    "bytes": entry.bytes, "mtime": entry.mtime,
                }
                for entry in entries
            ]
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        for entry in entries:
            seed = entry.build.get("seed", "?")
            print(
                f"{entry.key[:16]}  {entry.benchmark:14s} "
                f"{entry.scheme:22s} seed={seed!s:6s} {_format_size(entry.bytes)}"
            )
        quarantined = store.quarantined()
        total = sum(entry.bytes for entry in entries)
        print(
            f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
            f"{_format_size(total)} total"
            + (f", {len(quarantined)} quarantined (.bad)" if quarantined else "")
        )
        return 0
    if args.cache_op == "gc":
        summary = store.gc(
            max_bytes=_parse_size(args.max_bytes) if args.max_bytes else None,
            max_entries=args.max_entries,
        )
        print(
            f"evicted {summary['removed']} entr"
            f"{'y' if summary['removed'] == 1 else 'ies'} "
            f"({_format_size(summary['freed_bytes'])}); "
            f"{summary['remaining']} remaining"
        )
        return 0
    if args.cache_op == "verify":
        report = store.verify()
        for item in report:
            print(
                f"{item['key'][:16]}  {item['benchmark']:14s} "
                f"{item['scheme']:22s} {item['status']}"
            )
        stale = sum(item["status"] == "STALE_FORMAT" for item in report)
        bad = sum(item["status"] == "QUARANTINED" for item in report)
        print(f"{len(report) - stale - bad}/{len(report)} entries verified"
              + (f", {stale} of another format (replaced by the next save)"
                 if stale else ""))
        return 1 if bad else 0
    if args.cache_op == "export":
        keys = args.keys or None
        if keys:
            # `cache ls` prints 16-char prefixes — accept those here.
            known = [entry.key for entry in store.entries()]
            resolved = []
            for key in keys:
                matches = [k for k in known if k.startswith(key)]
                if not matches:
                    print(f"error: no store entry matches {key!r}", file=sys.stderr)
                    return 2
                if len(matches) > 1:
                    print(
                        f"error: ambiguous key prefix {key!r} "
                        f"({len(matches)} matches)", file=sys.stderr,
                    )
                    return 2
                resolved.append(matches[0])
            keys = resolved
        copied = store.export_entries(args.dest, keys=keys)
        print(f"exported {copied} entr{'y' if copied == 1 else 'ies'} to {args.dest}")
        return 0
    if args.cache_op == "import":
        imported = store.import_entries(args.src)
        print(
            f"imported {imported} entr{'y' if imported == 1 else 'ies'} "
            f"from {args.src}"
        )
        return 0
    print(f"error: unknown cache operation {args.cache_op!r}", file=sys.stderr)
    return 2


def cmd_hash(args: argparse.Namespace) -> int:
    path = Path(args.spec)
    if not path.exists():
        print(f"error: spec file {args.spec!r} does not exist", file=sys.stderr)
        return 2
    payload = json.loads(path.read_text())
    if isinstance(payload, Mapping) and ("experiment" in payload or "experiments" in payload):
        print(
            "error: experiment-grid payloads have no scenario hash; "
            "point 'hash' at a ScenarioSpec file (an object with a 'benchmark' key)",
            file=sys.stderr,
        )
        return 2
    for spec in load_specs(payload):
        print(f"{spec.content_hash()}  {spec.benchmark} [{spec.scheme}]")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scenario service in the foreground until interrupted."""
    try:
        apply_resilience_flags(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.service import ScenarioService

    workspace = default_workspace()
    service = ScenarioService(
        workspace,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        on_error="skip" if args.keep_going else "raise",
        max_workers=args.workers,
    )
    print(f"scenario service listening on {service.address}", file=sys.stderr)
    service.serve_forever()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scenario API for the split-manufacturing reproduction "
                    "(Patnaik et al., DAC'18).",
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser(
        "run", help="run an experiment (table1 … headline, all) or a JSON scenario spec"
    )
    run_parser.add_argument("target", help="experiment name, 'all', or a .json spec file")
    run_parser.add_argument("--quick", action="store_true",
                            help="reduced benchmark sets (experiment targets)")
    run_parser.add_argument("--superblue-scale", type=float, default=None,
                            help="override the superblue down-scaling factor")
    run_parser.add_argument("--seeds", type=parse_seeds, default=None,
                            help="Monte-Carlo seed sweep: '0:8' (range), "
                                 "'1,4,9' (list) or '7'; experiment targets "
                                 "report per-seed values plus mean/std/CI")
    run_parser.add_argument("--netlist-seed", type=int, default=None,
                            help="pin benchmark generation to one seed so a "
                                 "--seeds sweep places/routes the same "
                                 "netlist per seed (enables the seed-batched "
                                 "build engine; scenario-spec payloads only)")
    run_parser.add_argument("--jobs", "-j", type=int, default=None,
                            help="worker processes for the artefact prewarm")
    run_parser.add_argument("--retries", type=int, default=None,
                            help="retry a failed build up to N times "
                                 "(total attempts N+1, exponential backoff; "
                                 "default 0)")
    run_parser.add_argument("--timeout", type=float, default=None,
                            help="per-build timeout in seconds; hung workers "
                                 "are killed and the build re-queued "
                                 "(parallel prewarm only)")
    run_parser.add_argument("--keep-going", action="store_true",
                            help="don't abort the run on a failed seed: "
                                 "record it, aggregate the survivors, exit "
                                 f"with code {EXIT_PARTIAL} and a JSON "
                                 "failure summary on stderr")
    run_parser.add_argument("--output", "-o", default=None,
                            help="write the report to a file instead of stdout")
    run_parser.add_argument("--store", default=None,
                            help="persistent artefact store directory: builds "
                                 "are served from disk when present and "
                                 "published there as they finish (also via "
                                 "the REPRO_STORE environment variable)")
    run_parser.set_defaults(fn=cmd_run)

    serve_parser = sub.add_parser(
        "serve", help="run the HTTP scenario service (POST ScenarioSpec "
                      "JSON to /v1/jobs; stream progress and results)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8321,
                              help="bind port (default 8321; 0 = ephemeral)")
    serve_parser.add_argument("--jobs", "-j", type=int, default=None,
                              help="worker processes per job's build prewarm")
    serve_parser.add_argument("--workers", type=int, default=4,
                              help="concurrent jobs the service runs "
                                   "(default 4; requests never block)")
    serve_parser.add_argument("--retries", type=int, default=None,
                              help="retry a failed build up to N times")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-build timeout in seconds")
    serve_parser.add_argument("--keep-going", action="store_true",
                              help="default jobs to on_error='skip': failed "
                                   "seeds are skipped and reported in a "
                                   "206 partial body instead of failing "
                                   "the job")
    serve_parser.add_argument("--store", default=None,
                              help="persistent artefact store directory "
                                   "(also via REPRO_STORE); warm entries are "
                                   "served without building and exposed "
                                   "under /v1/store")
    serve_parser.set_defaults(fn=cmd_serve)

    list_parser = sub.add_parser("list", help="show registered names")
    list_parser.add_argument(
        "section", nargs="?", default=None,
        help="attacks | defenses | metrics | experiments | benchmarks",
    )
    list_parser.set_defaults(fn=cmd_list)

    hash_parser = sub.add_parser("hash", help="canonical content hash of a spec file")
    hash_parser.add_argument("spec", help="path to a scenario .json file")
    hash_parser.set_defaults(fn=cmd_hash)

    cache_parser = sub.add_parser(
        "cache", help="inspect/maintain a persistent artefact store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_op", required=True)

    def _cache_common(p):
        p.add_argument("--store", default=None,
                       help="store directory (default: $REPRO_STORE)")
        p.set_defaults(fn=cmd_cache)

    ls_parser = cache_sub.add_parser("ls", help="list stored builds")
    ls_parser.add_argument("--json", action="store_true",
                           help="machine-readable output")
    _cache_common(ls_parser)

    gc_parser = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a budget "
                   "(and drop quarantined .bad sidecars)"
    )
    gc_parser.add_argument("--max-bytes", default=None,
                           help="payload budget, e.g. 500M or 2G")
    gc_parser.add_argument("--max-entries", type=int, default=None,
                           help="entry-count budget")
    _cache_common(gc_parser)

    verify_parser = cache_sub.add_parser(
        "verify", help="re-check every entry (checksum, full decode, and its "
                       "netlist regenerated and compared); damaged entries "
                       "quarantine"
    )
    _cache_common(verify_parser)

    export_parser = cache_sub.add_parser(
        "export", help="copy entries into a store-shaped directory "
                       "(shareable between machines)"
    )
    export_parser.add_argument("dest", help="destination store directory")
    export_parser.add_argument("keys", nargs="*",
                               help="build keys to export (default: all)")
    _cache_common(export_parser)

    import_parser = cache_sub.add_parser(
        "import", help="copy entries from another store (checksums verified)"
    )
    import_parser.add_argument("src", help="source store directory")
    _cache_common(import_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Surface the execution layer's degradation/retry warnings on stderr
    # (no-op when the embedding application already configured logging).
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
