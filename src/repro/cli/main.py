"""The ``python -m repro`` entry point."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.asan import ASanRuntime
from repro.core import CSODConfig, CSODRuntime
from repro.core.config import POLICIES, POLICY_NEAR_FIFO
from repro.experiments import (
    characteristics,
    effectiveness,
    evidence,
    memory_usage,
    performance,
)
from repro.workloads.base import SimProcess
from repro.workloads.buggy import BUGGY_APPS, app_for
from repro.workloads.perf import PERF_APPS

RUNTIMES = ("csod", "csod-noevidence", "asan", "none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSOD (CGO 2019) reproduction driver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one buggy app under a runtime")
    run.add_argument("app", choices=sorted(BUGGY_APPS))
    run.add_argument("--runtime", choices=RUNTIMES, default="csod")
    run.add_argument("--policy", choices=POLICIES, default=POLICY_NEAR_FIFO)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--evidence-file", default=None)
    run.add_argument(
        "--json", action="store_true", help="print reports as JSON"
    )

    inspect = sub.add_parser(
        "inspect", help="run an app under CSOD and dump the sampler state"
    )
    inspect.add_argument("app", choices=sorted(BUGGY_APPS))
    inspect.add_argument("--seed", type=int, default=0)
    inspect.add_argument("--top", type=int, default=10)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    table.add_argument("--runs", type=int, default=100, help="Table II runs")
    table.add_argument("--cap", type=int, default=8000, help="Table IV cap")

    fig = sub.add_parser("figure7", help="regenerate the overhead figure")
    fig.add_argument("--cap", type=int, default=8000)

    ev = sub.add_parser("evidence", help="the §V-A2 two-execution protocol")
    ev.add_argument("--attempts", type=int, default=20)

    eff = sub.add_parser("effectiveness", help="Table II for chosen apps")
    eff.add_argument("apps", nargs="*", default=None)
    eff.add_argument("--runs", type=int, default=100)

    fleet = sub.add_parser(
        "fleet",
        help="run a parallel fleet campaign with central aggregation",
    )
    fleet.add_argument("--app", required=True, choices=sorted(BUGGY_APPS))
    fleet.add_argument("--executions", type=int, default=100)
    fleet.add_argument(
        "--workers", type=int, default=2, help="worker processes (1 = inline)"
    )
    fleet.add_argument("--policy", choices=POLICIES, default=POLICY_NEAR_FIFO)
    fleet.add_argument("--seed", type=int, default=0, help="base seed")
    fleet.add_argument(
        "--share-evidence",
        action="store_true",
        help="propagate canary evidence fleet-wide between waves",
    )
    fleet.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="specs per worker dispatch (default: ceil(wave/workers))",
    )
    fleet.add_argument(
        "--timeout", type=float, default=60.0, help="per-execution timeout (s)"
    )
    fleet.add_argument(
        "--out",
        default="fleet-out",
        help="directory for telemetry.jsonl / aggregate.json / evidence.json",
    )

    triage = sub.add_parser(
        "triage",
        help="cluster, rank, bisect, and persist fleet-detected bugs",
    )
    triage.add_argument(
        "--app",
        action="append",
        choices=sorted(BUGGY_APPS),
        help="run a fixed-seed campaign for APP first (repeatable)",
    )
    triage.add_argument(
        "--aggregate",
        action="append",
        help="triage an existing fleet aggregate.json (repeatable)",
    )
    triage.add_argument(
        "--executions", type=int, default=50, help="executions per --app"
    )
    triage.add_argument("--workers", type=int, default=1)
    triage.add_argument("--policy", choices=POLICIES, default=POLICY_NEAR_FIFO)
    triage.add_argument("--seed", type=int, default=0, help="base seed")
    triage.add_argument(
        "--db", default=None, help="persistent bug database path"
    )
    triage.add_argument(
        "--campaign-id", default=None, help="label for this bug-DB update"
    )
    triage.add_argument(
        "--bisect",
        action="store_true",
        help="shrink each cluster to a minimal deterministic reproducer",
    )
    triage.add_argument(
        "--export",
        action="append",
        default=None,
        metavar="FORMAT",
        help="write triage.FORMAT under --out: json or sarif (repeatable)",
    )
    triage.add_argument(
        "--out", default="triage-out", help="directory for exported files"
    )
    triage.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="allocation frames in the coarse clustering key",
    )
    triage.add_argument(
        "--max-edit-distance",
        type=int,
        default=3,
        help="stack edit-distance threshold for joining a cluster",
    )
    triage.add_argument(
        "--seed-checks",
        type=int,
        default=2,
        help="distinct seeds a bisection candidate must re-trigger under",
    )

    oracle = sub.add_parser(
        "oracle",
        help="differential conformance campaign on generated ground truth",
    )
    oracle.add_argument(
        "--budget", type=int, default=50, help="generated programs"
    )
    oracle.add_argument("--seed", type=int, default=0, help="campaign seed")
    oracle.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = inline)"
    )
    oracle.add_argument(
        "--executions",
        type=int,
        default=3,
        help="executions per program per CSOD arm",
    )
    oracle.add_argument(
        "--defect-mix",
        default=None,
        metavar="MIX",
        help="weighted classes, e.g. 'over-read=2,uaf=1' (default: uniform)",
    )
    oracle.add_argument(
        "--shrink",
        type=int,
        default=0,
        help="shrink up to N mismatched programs to minimal repros",
    )
    oracle.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="specs per worker dispatch (default: ceil(wave/workers))",
    )
    oracle.add_argument(
        "--timeout", type=float, default=60.0, help="per-execution timeout (s)"
    )
    oracle.add_argument(
        "--arms",
        default=None,
        metavar="ARMS",
        help="comma-separated detector arms to run "
        "(e.g. 'csod,gwp-asan'; default: every registered arm)",
    )
    oracle.add_argument(
        "--out",
        default="oracle-out",
        help="directory for scorecard.json / telemetry.jsonl",
    )

    adversarial = sub.add_parser(
        "adversarial",
        help="solve sampler worst cases and score them on the 7-arm matrix",
    )
    adversarial.add_argument(
        "--seed", type=int, default=0, help="solver seed"
    )
    adversarial.add_argument(
        "--targets",
        default=None,
        metavar="TARGETS",
        help="comma-separated corner targets (default: all)",
    )
    adversarial.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = inline)"
    )
    adversarial.add_argument(
        "--executions",
        type=int,
        default=3,
        help="executions per program per CSOD arm",
    )
    adversarial.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="solver search budget in explored nodes",
    )
    adversarial.add_argument(
        "--out",
        default="adversarial-out",
        help="directory for scorecard_adversarial.json / telemetry.jsonl",
    )

    serve = sub.add_parser(
        "serve",
        help="run the campaign service (HTTP submissions + event streaming)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker slots shared fairly across all campaigns",
    )
    serve.add_argument(
        "--db",
        default=None,
        help="persistent bug database path (enables live bug events)",
    )
    serve.add_argument(
        "--out",
        default=None,
        help="directory for the service event log (service-events.jsonl)",
    )
    serve.add_argument(
        "--history",
        type=int,
        default=4096,
        help="events retained per channel for replay/long-poll",
    )

    submit = sub.add_parser(
        "submit", help="submit fleet campaigns to a running service"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8765)
    submit.add_argument(
        "--app",
        action="append",
        help="buggy app, oracle genome "
        "'oracle:s<seed>:i<index>:<defect>', or solved adversarial "
        "corner 'adv:s<seed>:t<target>' (repeatable)",
    )
    submit.add_argument(
        "--executions", type=int, default=50, help="executions per campaign"
    )
    submit.add_argument(
        "--workers", type=int, default=1, help="worker slots per wave"
    )
    submit.add_argument("--policy", choices=POLICIES, default=POLICY_NEAR_FIFO)
    submit.add_argument("--seed", type=int, default=0, help="base seed")
    submit.add_argument(
        "--share-evidence",
        action="store_true",
        help="propagate canary evidence between the campaign's waves",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority (higher runs first)",
    )
    submit.add_argument(
        "--timeout", type=float, default=60.0, help="per-execution timeout (s)"
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until every job finishes and print its scorecard",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream job events while waiting (implies --wait)",
    )

    sub.add_parser("apps", help="list available workloads")

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate every table and figure into a directory",
    )
    reproduce.add_argument("--out", default="reproduction-out")
    reproduce.add_argument("--runs", type=int, default=100)
    reproduce.add_argument("--cap", type=int, default=8000)

    validate = sub.add_parser(
        "validate", help="re-check every qualitative paper claim"
    )
    validate.add_argument("--runs", type=int, default=40)
    validate.add_argument("--cap", type=int, default=4000)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    process = SimProcess(seed=args.seed)
    runtime = None
    if args.runtime in ("csod", "csod-noevidence"):
        config = CSODConfig(
            replacement_policy=args.policy,
            evidence_enabled=args.runtime == "csod",
            persistence_path=args.evidence_file
            if args.runtime == "csod"
            else None,
        )
        runtime = CSODRuntime(process.machine, process.heap, config, seed=args.seed)
    elif args.runtime == "asan":
        runtime = ASanRuntime(process.machine, process.heap)

    result = app_for(args.app).run(process)
    detected = False
    if isinstance(runtime, CSODRuntime):
        runtime.shutdown()
        detected = runtime.detected
        if args.json:
            import json

            print(
                json.dumps(
                    [r.to_dict(process.symbols) for r in runtime.reports],
                    indent=1,
                )
            )
        else:
            for report in runtime.reports:
                print(report.render(process.symbols))
                print()
        if not args.json:
            stats = runtime.stats()
            print(
                f"[csod] allocations={stats.allocations} "
                f"contexts={stats.contexts} watched={stats.watched_times} "
                f"traps={stats.traps_handled}"
            )
    elif isinstance(runtime, ASanRuntime):
        runtime.shutdown()
        detected = runtime.detected
        for report in runtime.reports:
            print(
                f"ASan: {report.kind} ({report.access_kind}) at "
                f"{report.fault_address:#x} in {report.module}"
            )
    else:
        print(
            f"[none] program ran: {result.allocations} allocations, "
            f"overflow performed silently"
        )
    print(f"detected: {detected}")
    return 0 if (detected or args.runtime == "none") else 1


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        print(effectiveness.render_table1())
    elif args.number == 2:
        rows = effectiveness.run_table2(runs=args.runs)
        print(effectiveness.render_table2(rows))
    elif args.number == 3:
        print(characteristics.render_table3(characteristics.run_table3()))
    elif args.number == 4:
        print(
            characteristics.render_table4(
                characteristics.run_table4(sim_alloc_cap=args.cap)
            )
        )
    else:
        print(memory_usage.render_table5(memory_usage.run_table5()))
    return 0


def _cmd_figure7(args: argparse.Namespace) -> int:
    rows = performance.run_figure7(sim_alloc_cap=args.cap)
    print(performance.render_figure7(rows))
    return 0


def _cmd_evidence(args: argparse.Namespace) -> int:
    results = evidence.run_evidence_experiment(attempts=args.attempts)
    print(evidence.render_evidence(results))
    return 0 if all(r.guarantee_holds for r in results) else 1


def _cmd_effectiveness(args: argparse.Namespace) -> int:
    apps = args.apps or None
    rows = effectiveness.run_table2(runs=args.runs, apps=apps)
    print(effectiveness.render_table2(rows))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.diagnostics import render_snapshot, snapshot

    process = SimProcess(seed=args.seed)
    runtime = CSODRuntime(
        process.machine, process.heap, CSODConfig(), seed=args.seed
    )
    app_for(args.app).run(process)
    snap = snapshot(runtime, top_contexts=args.top)
    runtime.shutdown()
    print(render_snapshot(snap))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import os

    if args.executions <= 0:
        print(
            f"repro fleet: error: --executions must be positive, "
            f"got {args.executions}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"repro fleet: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(
            f"repro fleet: error: --chunk-size must be >= 1, "
            f"got {args.chunk_size}",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print(
            f"repro fleet: error: --timeout must be positive (seconds), "
            f"got {args.timeout}",
            file=sys.stderr,
        )
        return 2

    from repro.fleet import (
        EvidenceStore,
        JsonlEventLog,
        render_fleet_report,
        run_fleet,
    )

    os.makedirs(args.out, exist_ok=True)
    store = (
        EvidenceStore(os.path.join(args.out, "evidence.json"))
        if args.share_evidence
        else None
    )
    with JsonlEventLog(os.path.join(args.out, "telemetry.jsonl")) as log:
        result = run_fleet(
            args.app,
            executions=args.executions,
            workers=args.workers,
            policy=args.policy,
            share_evidence=args.share_evidence,
            seed_base=args.seed,
            evidence_store=store,
            event_log=log,
            timeout_seconds=args.timeout,
            chunk_size=args.chunk_size,
        )
    aggregate_path = os.path.join(args.out, "aggregate.json")
    with open(aggregate_path, "w") as handle:
        json.dump(result.aggregator.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(
        render_fleet_report(
            result.aggregator,
            title=(
                f"Fleet campaign: {args.app} x {args.executions} executions, "
                f"{args.workers} workers, policy={args.policy}"
            ),
        )
    )
    snapshot = result.metrics.snapshot()
    wall = snapshot["histograms"].get("execution_wall_ms", {})
    print(
        f"telemetry: {snapshot['counters'].get('watchpoint_arms', 0)} "
        f"watchpoint arms, "
        f"{snapshot['counters'].get('worker_retries', 0)} retries, "
        f"wall/exec p50={wall.get('p50', 0):.1f}ms "
        f"p95={wall.get('p95', 0):.1f}ms"
    )
    print(f"[fleet] wrote {aggregate_path}")
    print(f"[fleet] wrote {os.path.join(args.out, 'telemetry.jsonl')}")
    if store is not None:
        print(f"[fleet] evidence store: {store.path} ({len(store)} signatures)")
    return 0 if result.aggregator.executions_detected else 1


TRIAGE_EXPORT_FORMATS = ("json", "sarif")


def _db_writable(path: str) -> bool:
    """Can ``path`` be created or rewritten as the bug database?"""
    import os

    if os.path.isdir(path):
        return False
    if os.path.exists(path):
        return os.access(path, os.R_OK | os.W_OK)
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def _cmd_triage(args: argparse.Namespace) -> int:
    import json
    import os

    if args.executions <= 0:
        print(
            f"repro triage: error: --executions must be positive, "
            f"got {args.executions}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"repro triage: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.top_k < 1:
        print(
            f"repro triage: error: --top-k must be >= 1, got {args.top_k}",
            file=sys.stderr,
        )
        return 2
    if args.max_edit_distance < 0:
        print(
            f"repro triage: error: --max-edit-distance must be >= 0, "
            f"got {args.max_edit_distance}",
            file=sys.stderr,
        )
        return 2
    if args.seed_checks < 1:
        print(
            f"repro triage: error: --seed-checks must be >= 1, "
            f"got {args.seed_checks}",
            file=sys.stderr,
        )
        return 2
    for fmt in args.export or ():
        if fmt not in TRIAGE_EXPORT_FORMATS:
            print(
                f"repro triage: error: --export has unknown format {fmt!r} "
                f"(choose from {', '.join(TRIAGE_EXPORT_FORMATS)})",
                file=sys.stderr,
            )
            return 2
    if args.export and os.path.exists(args.out) and not os.path.isdir(args.out):
        print(
            f"repro triage: error: --out path {args.out!r} exists and is "
            f"not a directory",
            file=sys.stderr,
        )
        return 2
    if args.db is not None and not _db_writable(args.db):
        print(
            f"repro triage: error: --db path {args.db!r} is not writable",
            file=sys.stderr,
        )
        return 2
    for path in args.aggregate or ():
        if not os.path.isfile(path):
            print(
                f"repro triage: error: --aggregate file {path!r} not found",
                file=sys.stderr,
            )
            return 2
    if not (args.app or args.aggregate or args.db):
        print(
            "repro triage: error: nothing to triage — give --app, "
            "--aggregate, or an existing --db",
            file=sys.stderr,
        )
        return 2

    from repro import __version__ as tool_version
    from repro.triage import (
        BugDatabase,
        Bisector,
        cluster_reports,
        rank_clusters,
        render_triage_report,
        reports_from_aggregate,
        to_sarif,
        triage_to_json,
        validate_sarif,
    )

    db = BugDatabase(args.db)
    reports = []
    executions = 0

    if args.app:
        # One clustering pass over every app's reports, then a single
        # DB update for the whole batch.
        from repro.fleet.runner import run_fleet

        for app in args.app:
            fleet = run_fleet(
                app,
                executions=args.executions,
                workers=args.workers,
                policy=args.policy,
                seed_base=args.seed,
            )
            executions += fleet.aggregator.executions_ok
            reports.extend(fleet.aggregator.reports())
            print(
                f"[triage] campaign {app}: "
                f"{fleet.aggregator.executions_detected}/"
                f"{fleet.aggregator.executions_ok} executions detected, "
                f"{fleet.aggregator.unique_reports()} signatures"
            )

    for path in args.aggregate or ():
        with open(path) as handle:
            payload = json.load(handle)
        reports.extend(reports_from_aggregate(payload))
        executions += payload.get("executions_ok", payload.get("executions", 0))

    if reports:
        clusters = cluster_reports(
            reports,
            top_k=args.top_k,
            max_edit_distance=args.max_edit_distance,
        )
        update = db.update(
            clusters,
            campaign_id=args.campaign_id,
            total_executions=executions,
        )
        print(
            f"[triage] {len(reports)} signatures -> {update.clusters} "
            f"clusters ({len(update.new)} new, "
            f"{len(update.reproduced)} reproduced, "
            f"{len(update.regressed)} regressed)"
        )
    else:
        # DB-only mode: rank and export what previous campaigns stored.
        clusters = db.clusters()
        executions = db.executions_total
        print(f"[triage] database-only: {len(clusters)} stored bugs")

    if args.bisect:
        for cluster in clusters:
            bisector = Bisector(cluster, seed_checks=args.seed_checks)
            repro_spec = bisector.run()
            if not repro_spec.verified:
                print(
                    f"[triage] bisect {cluster.cluster_id}: "
                    f"no verified reproducer "
                    f"({repro_spec.executions} executions)"
                )
                continue
            if cluster.cluster_id in db:
                db.attach_repro(cluster.cluster_id, repro_spec.to_dict())
            print(
                f"[triage] bisect {cluster.cluster_id}: "
                f"verified={repro_spec.verified} "
                f"seed_independent={repro_spec.seed_independent} "
                f"evidence={len(repro_spec.evidence)} "
                f"scale={repro_spec.scale} "
                f"({repro_spec.executions} executions)"
            )

    ranked = rank_clusters(
        clusters,
        total_executions=max(1, executions),
        campaigns_since_seen=db.campaigns_since_seen(),
    )
    print(render_triage_report(ranked, max(1, executions), db=db))

    if args.export:
        os.makedirs(args.out, exist_ok=True)
    for fmt in dict.fromkeys(args.export or ()):
        if fmt == "json":
            document = triage_to_json(ranked, max(1, executions), db=db)
            out_path = os.path.join(args.out, "triage.json")
        else:
            document = to_sarif(ranked, tool_version=tool_version, db=db)
            errors = validate_sarif(document)
            if errors:
                print(
                    "repro triage: error: generated SARIF failed "
                    "validation: " + "; ".join(errors),
                    file=sys.stderr,
                )
                return 1
            out_path = os.path.join(args.out, "triage.sarif")
        with open(out_path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"[triage] wrote {out_path}")
    if args.db:
        print(f"[triage] bug database: {args.db} ({len(db)} bugs)")
    return 0 if ranked else 1


def _parse_defect_mix(text: str):
    """``'over-read=2,uaf=1'`` -> weight dict; raises ValueError."""
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, weight = part.partition("=")
        if not sep:
            raise ValueError(
                f"malformed entry {part!r}; expected '<defect>=<weight>'"
            )
        mix[name.strip()] = float(weight)
    if not mix:
        raise ValueError("empty mix")
    return mix


def _cmd_oracle(args: argparse.Namespace) -> int:
    import json
    import os

    if args.budget < 1:
        print(
            f"repro oracle: error: --budget must be >= 1, got {args.budget}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"repro oracle: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.executions < 1:
        print(
            f"repro oracle: error: --executions must be >= 1, "
            f"got {args.executions}",
            file=sys.stderr,
        )
        return 2
    if args.shrink < 0:
        print(
            f"repro oracle: error: --shrink must be >= 0, got {args.shrink}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print(
            f"repro oracle: error: --chunk-size must be >= 1, "
            f"got {args.chunk_size}",
            file=sys.stderr,
        )
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print(
            f"repro oracle: error: --timeout must be positive (seconds), "
            f"got {args.timeout}",
            file=sys.stderr,
        )
        return 2
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        print(
            f"repro oracle: error: --out path {args.out!r} exists and is "
            f"not a directory",
            file=sys.stderr,
        )
        return 2

    from repro.errors import ReproError
    from repro.oracle import OracleSettings, render_scorecard, run_oracle
    from repro.oracle.runner import write_telemetry_line

    arms = None
    if args.arms is not None:
        from repro.detectors import known_arms, resolve_arms

        requested = tuple(
            part.strip() for part in args.arms.split(",") if part.strip()
        )
        if not requested:
            print(
                f"repro oracle: error: --arms is empty; known arms: "
                f"{', '.join(known_arms())}",
                file=sys.stderr,
            )
            return 2
        try:
            arms = resolve_arms(requested)
        except ReproError as exc:
            # Fail fast, before any program generation or fleet work.
            print(f"repro oracle: error: --arms {exc}", file=sys.stderr)
            return 2

    mix = None
    if args.defect_mix is not None:
        try:
            mix = _parse_defect_mix(args.defect_mix)
        except ValueError as exc:
            print(
                f"repro oracle: error: --defect-mix is invalid: {exc}",
                file=sys.stderr,
            )
            return 2
    try:
        settings = OracleSettings(
            budget=args.budget,
            seed=args.seed,
            workers=args.workers,
            executions_per_app=args.executions,
            defect_mix=mix,
            shrink=args.shrink,
            timeout_seconds=args.timeout,
            chunk_size=args.chunk_size,
            arms=arms,
        )
    except ReproError as exc:
        # Settings validation catches what argparse types cannot
        # (unknown defect names, all-zero weights).
        print(f"repro oracle: error: --defect-mix {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    telemetry_path = os.path.join(args.out, "telemetry.jsonl")
    with open(telemetry_path, "w") as handle:
        run = run_oracle(
            settings, telemetry=lambda e: write_telemetry_line(handle, e)
        )
    scorecard = run.scorecard
    scorecard_path = os.path.join(args.out, "scorecard.json")
    with open(scorecard_path, "w") as handle:
        handle.write(render_scorecard(scorecard))

    arms = scorecard["arms"]
    for arm in sorted(arms):
        block = arms[arm]
        rate = block["rate"]
        print(
            f"[oracle] {arm:16s} detected {block['detected']}/"
            f"{block['eligible']} eligible"
            + (f" (rate {rate:.2f})" if rate is not None else "")
            + f", {block['fp_reports']} false-positive reports"
        )
    inv = scorecard["csod_invariants"]
    print(
        f"[oracle] invariants: max {inv['max_armed']}/"
        f"{inv['armed_limit']} watchpoints armed, "
        f"{len(inv['armed_violations'])} arming violations, "
        f"{len(inv['monotonic_violations'])} monotonicity violations"
    )
    fn = inv["fn_attribution"]
    print(
        f"[oracle] CSOD misses: {fn['sampling']} attributed to sampling, "
        f"{fn['logic']} to detector logic"
    )
    mm = scorecard["mismatches"]
    print(
        f"[oracle] mismatches: {mm['total']} total, "
        f"{mm['unexplained']} unexplained"
        + (f", {len(scorecard['shrunk'])} shrunk" if args.shrink else "")
    )
    print(f"[oracle] wrote {scorecard_path}")
    print(f"[oracle] wrote {telemetry_path}")
    clean = (
        mm["unexplained"] == 0
        and not inv["armed_violations"]
        and not inv["monotonic_violations"]
        and fn["logic"] == 0
    )
    return 0 if clean else 1


def _cmd_adversarial(args: argparse.Namespace) -> int:
    import os

    if args.workers < 1:
        print(
            f"repro adversarial: error: --workers must be >= 1, "
            f"got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.executions < 1:
        print(
            f"repro adversarial: error: --executions must be >= 1, "
            f"got {args.executions}",
            file=sys.stderr,
        )
        return 2
    if args.node_budget is not None and args.node_budget < 1:
        print(
            f"repro adversarial: error: --node-budget must be >= 1, "
            f"got {args.node_budget}",
            file=sys.stderr,
        )
        return 2
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        print(
            f"repro adversarial: error: --out path {args.out!r} exists and "
            f"is not a directory",
            file=sys.stderr,
        )
        return 2

    from repro.oracle import render_scorecard
    from repro.oracle.adversarial import (
        ALL_TARGETS,
        DEFAULT_NODE_BUDGET,
        run_adversarial,
    )
    from repro.oracle.runner import write_telemetry_line

    targets = ALL_TARGETS
    if args.targets is not None:
        requested = tuple(
            part.strip() for part in args.targets.split(",") if part.strip()
        )
        unknown = [t for t in requested if t not in ALL_TARGETS]
        if not requested or unknown:
            print(
                f"repro adversarial: error: --targets must name corners "
                f"from {', '.join(ALL_TARGETS)}"
                + (f"; unknown: {', '.join(unknown)}" if unknown else ""),
                file=sys.stderr,
            )
            return 2
        targets = requested

    node_budget = (
        DEFAULT_NODE_BUDGET if args.node_budget is None else args.node_budget
    )
    os.makedirs(args.out, exist_ok=True)
    telemetry_path = os.path.join(args.out, "telemetry.jsonl")
    with open(telemetry_path, "w") as handle:
        run = run_adversarial(
            seed=args.seed,
            targets=targets,
            workers=args.workers,
            executions_per_app=args.executions,
            node_budget=node_budget,
            telemetry=lambda e: write_telemetry_line(handle, e),
        )
    scorecard = run.scorecard
    scorecard_path = os.path.join(args.out, "scorecard_adversarial.json")
    with open(scorecard_path, "w") as handle:
        handle.write(render_scorecard(scorecard))

    all_solved = True
    all_reached = True
    for target in targets:
        block = scorecard["targets"][target]
        solution = block["solution"]
        corner = block["corner"]
        solved = bool(solution and solution["solved"])
        reached = bool(corner and corner["reached"])
        all_solved = all_solved and solved
        all_reached = all_reached and reached
        detail = (
            f"solved in {solution['nodes_explored']} nodes, "
            f"{solution['allocations']} allocations"
            if solved
            else "UNSOLVED"
        )
        print(
            f"[adversarial] {target:14s} {detail}, corner "
            + ("reached" if reached else "NOT REACHED")
        )
    arms = scorecard["arms"]
    for arm in sorted(arms):
        block = arms[arm]
        rate = block["rate"]
        print(
            f"[adversarial] {arm:16s} detected {block['detected']}/"
            f"{block['eligible']} eligible"
            + (f" (rate {rate:.2f})" if rate is not None else "")
            + f", {block['fp_reports']} false-positive reports"
        )
    mm = scorecard["mismatches"]
    fp_total = sum(block["fp_reports"] for block in arms.values())
    print(
        f"[adversarial] mismatches: {mm['total']} total, "
        f"{mm['unexplained']} unexplained; {fp_total} false-positive "
        f"reports across arms"
    )
    print(f"[adversarial] wrote {scorecard_path}")
    print(f"[adversarial] wrote {telemetry_path}")
    clean = (
        all_solved
        and all_reached
        and mm["unexplained"] == 0
        and fp_total == 0
    )
    return 0 if clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    if not (0 <= args.port <= 65535):
        print(
            f"repro serve: error: --port must be in [0, 65535], "
            f"got {args.port}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"repro serve: error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.history < 1:
        print(
            f"repro serve: error: --history must be >= 1, got {args.history}",
            file=sys.stderr,
        )
        return 2
    if (
        args.out is not None
        and os.path.exists(args.out)
        and not os.path.isdir(args.out)
    ):
        print(
            f"repro serve: error: --out path {args.out!r} exists and is "
            f"not a directory",
            file=sys.stderr,
        )
        return 2
    event_log_path = None
    if args.out is not None:
        # Created before the --db check so a database nested under a
        # fresh --out (the natural layout) validates as writable.
        os.makedirs(args.out, exist_ok=True)
        event_log_path = os.path.join(args.out, "service-events.jsonl")
    if args.db is not None and not _db_writable(args.db):
        print(
            f"repro serve: error: --db path {args.db!r} is not writable",
            file=sys.stderr,
        )
        return 2

    from repro.service import ReproService
    from repro.triage import BugDatabase
    bug_db = BugDatabase(args.db) if args.db else None
    service = ReproService(
        host=args.host,
        port=args.port,
        total_workers=args.workers,
        bug_db=bug_db,
        history=args.history,
        event_log_path=event_log_path,
    )

    async def _amain() -> None:
        await service.start()
        print(
            f"[serve] listening on http://{service.host}:{service.port} "
            f"({args.workers} worker slots"
            + (f", bug db {args.db}" if args.db else "")
            + ")"
        )
        if event_log_path is not None:
            print(f"[serve] event log: {event_log_path}")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            # Ctrl-C: asyncio.run delivers SIGINT as a cancellation of
            # this task, so this — not KeyboardInterrupt — is the
            # normal shutdown path.
            print("[serve] shutting down")
        finally:
            await service.stop()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        print("[serve] shutting down")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    if not args.app:
        print(
            "repro submit: error: --app is required (repeatable)",
            file=sys.stderr,
        )
        return 2
    if not (0 <= args.port <= 65535):
        print(
            f"repro submit: error: --port must be in [0, 65535], "
            f"got {args.port}",
            file=sys.stderr,
        )
        return 2

    from repro.errors import ServiceError
    from repro.service import FINAL_STATES, CampaignSubmission, ServiceClient

    try:
        submissions = [
            CampaignSubmission(
                app=app,
                executions=args.executions,
                workers=args.workers,
                policy=args.policy,
                share_evidence=args.share_evidence,
                seed=args.seed,
                priority=args.priority,
                timeout_seconds=args.timeout,
            )
            for app in args.app
        ]
        for submission in submissions:
            submission.validate()
    except ServiceError as exc:
        # The submission's own field-named message, CLI-prefixed.
        print(f"repro submit: error: --{exc}", file=sys.stderr)
        return 2

    client = ServiceClient(args.host, args.port)
    try:
        jobs = client.submit_batch(submissions)
    except ServiceError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 1
    job_ids = [job["job_id"] for job in jobs]
    for job in jobs:
        print(
            f"[submit] {job['job_id']} queued: "
            f"{job['submission']['app']} x "
            f"{job['submission']['executions']} executions"
        )
    if not (args.wait or args.follow):
        return 0

    wanted = set(job_ids)
    try:
        if args.follow:
            since = 0
            finished = set()
            while finished < wanted:
                events, since = client.poll_events(
                    "firehose", since, timeout=5.0
                )
                for event in events:
                    if event.get("job_id") not in wanted:
                        continue
                    if event["event"] == "wave":
                        print(
                            f"[{event['job_id']}] wave "
                            f"{event['wave'] + 1}/{event['waves_total']}: "
                            f"{event['executions_done']}/"
                            f"{event['executions_total']} executions, "
                            f"{event['unique_reports']} unique reports, "
                            f"dedup {event['dedup_ratio']:.2f}, "
                            f"evidence epoch {event['evidence_epoch']}"
                        )
                    elif event["event"].startswith("bug_"):
                        print(
                            f"[{event['job_id']}] {event['event']}: "
                            f"{event['cluster_id']} ({event['kind']})"
                        )
                    elif event["event"] == "job":
                        print(
                            f"[{event['job_id']}] state: {event['state']}"
                        )
                        if event["state"] in FINAL_STATES:
                            finished.add(event["job_id"])
        statuses = client.wait(job_ids, timeout=3600.0)
    except ServiceError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("[submit] interrupted; jobs keep running server-side")
        return 130

    all_completed = True
    for job_id in job_ids:
        state = statuses[job_id]["state"]
        if state != "completed":
            all_completed = False
            print(f"[submit] {job_id} finished: {state}")
            continue
        payload = client.result(job_id)
        print(f"[submit] {job_id} scorecard:")
        print(json.dumps(payload["scorecard"], indent=1, sort_keys=True))
    return 0 if all_completed else 1


def _cmd_apps(args: argparse.Namespace) -> int:
    print("buggy applications (Table I):")
    for name in sorted(BUGGY_APPS):
        spec = BUGGY_APPS[name]
        print(f"  {name:12s} {spec.bug_kind:10s} {spec.reference}")
    print("performance applications (Table IV):")
    for name in PERF_APPS:
        spec = PERF_APPS[name]
        print(f"  {name:14s} {spec.suite:6s} {spec.allocations:>12,} allocations")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Every artifact, one command — the repository's headline demo."""
    import os

    os.makedirs(args.out, exist_ok=True)

    def emit(name: str, text: str) -> None:
        path = os.path.join(args.out, name)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"[reproduce] wrote {path}")

    emit("table1.txt", effectiveness.render_table1())
    emit(
        "table2.txt",
        effectiveness.render_table2(effectiveness.run_table2(runs=args.runs)),
    )
    emit("table3.txt", characteristics.render_table3(characteristics.run_table3()))
    emit(
        "table4.txt",
        characteristics.render_table4(
            characteristics.run_table4(sim_alloc_cap=args.cap)
        ),
    )
    emit("table5.txt", memory_usage.render_table5(memory_usage.run_table5()))
    emit("figure6.txt", effectiveness.figure6_report())
    rows = performance.run_figure7(sim_alloc_cap=args.cap)
    emit(
        "figure7.txt",
        performance.render_figure7(rows)
        + "\n\n"
        + performance.render_figure7_chart(rows),
    )
    emit(
        "evidence.txt",
        evidence.render_evidence(evidence.run_evidence_experiment(attempts=10)),
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import render_validation, validate

    results = validate(runs=args.runs, cap=args.cap)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "run": _cmd_run,
    "inspect": _cmd_inspect,
    "reproduce": _cmd_reproduce,
    "validate": _cmd_validate,
    "table": _cmd_table,
    "figure7": _cmd_figure7,
    "evidence": _cmd_evidence,
    "effectiveness": _cmd_effectiveness,
    "fleet": _cmd_fleet,
    "triage": _cmd_triage,
    "oracle": _cmd_oracle,
    "adversarial": _cmd_adversarial,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "apps": _cmd_apps,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
