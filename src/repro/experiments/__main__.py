"""Campaign CLI: run the paper's experiment grids from the command line.

Usage:
    python -m repro.experiments run <scenario>|all [--jobs N] [--seeds K]
                                    [--base-seed B] [--scale S]
                                    [--cache-dir DIR] [--no-cache] [--refresh]
                                    [--export] [--export-dir DIR]
    python -m repro.experiments report [<scenario>|<export.json>]
                                    [--export-dir DIR]
    python -m repro.experiments plot [<scenario>|<export.json>]
                                    [--export-dir DIR] [--output DIR]
    python -m repro.experiments serve <scenario> [--tenants N] [--workers W]
                                    [--port P] [--host H] [--duration S]
                                    [--scale S] [--base-seed B]
                                    [--loadtest [FILE]] [--clients N]
                                    [--requests N]
    python -m repro.experiments list
    python -m repro.experiments clear-cache [--cache-dir DIR]

Scenarios are the named grids of ``scenarios.py`` (E/A experiment ids from
DESIGN.md work as aliases; ``list`` prints the registry). ``--seeds K``
replicates every trial over K seeds and reports the mean ± 95% CI per
trial label; ``--jobs N`` fans the runs out over N worker processes —
results are identical to a serial run. Completed trials land in the
persistent result cache (keys salted with a source-tree hash, so code
edits self-invalidate), so re-running a campaign is free. ``run`` prints
the markdown tables of the campaign's export document, and ``--export``
writes that document under ``benchmarks/results/campaigns/``, with the
scale it ran at; ``report`` prints the same tables for the latest (or a
given) export and checks the scenario's registered claims on it (exit 1
when a claim fails), and ``plot`` renders its Figure-3/4/5-style charts
— neither re-runs anything. ``serve`` boots a scenario's
spec as resident deployments (one per tenant), shards them across
``--workers`` worker processes, and answers framed-protocol queries over
TCP (E16's serving layer; clients connect with
``repro.service.AsyncScoopClient``). ``--loadtest`` drives the bound
server from ``--clients`` real concurrent connections and reports the
run as JSON — the nightly real-socket E16 job.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments.cache import ResultCache, default_cache_root
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.export import (
    campaign_to_dict,
    default_export_root,
    export_campaign,
    latest_export,
    load_campaign_export,
)
from repro.experiments.plotting import plot_campaign
from repro.experiments.reporting import figure_table_markdown
from repro.experiments.scenarios import (
    SCENARIO_ALIASES,
    SCENARIOS,
    bench_scale,
    canonical_scenario_name,
    check_export,
    scenario_names,
    scenario_trials,
    unknown_scenario_error,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run paper experiment scenarios as cached, parallel campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario (or 'all') as a campaign")
    run.add_argument("scenario", help="scenario name, E/A experiment id, or 'all'")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument("--seeds", type=int, default=1, help="seeds per trial")
    run.add_argument("--base-seed", type=int, default=1, help="first seed")
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="time-scale factor (default: REPRO_BENCH_SCALE)",
    )
    run.add_argument("--cache-dir", default=None, help="result cache directory")
    run.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    run.add_argument(
        "--refresh", action="store_true", help="re-run trials even on cache hits"
    )
    run.add_argument(
        "--export",
        action="store_true",
        help="write the campaign's JSON export (every trial's metric "
        "breakdowns plus the run's provenance)",
    )
    run.add_argument(
        "--export-dir",
        default=None,
        help="export directory (default: benchmarks/results/campaigns, "
        "or REPRO_EXPORT_DIR)",
    )

    report = sub.add_parser(
        "report",
        help="render the markdown figure table of a campaign export and "
        "check its scenario's claims (exit 1 if one fails)",
    )
    report.add_argument(
        "target",
        nargs="?",
        default=None,
        help="scenario name or export file path (default: latest export)",
    )
    report.add_argument("--export-dir", default=None, help="export directory to search")

    plot = sub.add_parser(
        "plot",
        help="render Figure-3/4/5-style SVG charts from a campaign export",
    )
    plot.add_argument(
        "target",
        nargs="?",
        default=None,
        help="scenario name or export file path (default: latest export)",
    )
    plot.add_argument("--export-dir", default=None, help="export directory to search")
    plot.add_argument(
        "--output",
        "--out-dir",
        dest="out_dir",
        default=None,
        help="image output directory (default: <export dir>/plots)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a scenario's deployments over TCP (framed protocol, "
        "sharded across worker processes)",
    )
    serve.add_argument(
        "scenario",
        help="scenario name or E/A experiment id; its first SCOOP trial's "
        "spec becomes the resident deployment",
    )
    serve.add_argument(
        "--tenants", type=int, default=1, help="resident deployments (one per tenant)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes the tenants are sharded across",
    )
    serve.add_argument(
        "--loadtest",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="after binding, drive the server from --clients real "
        "concurrent connections, write the JSON report to FILE "
        "('-' = stdout), then exit",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=2,
        help="concurrent loadtest connections (with --loadtest)",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=40,
        help="requests per loadtest client (with --loadtest)",
    )
    serve.add_argument(
        "--chaos-kill-worker",
        action="store_true",
        help="fault injection (with --loadtest): SIGKILL one shard worker "
        "after ~1/3 of the load has settled; the supervisor respawns it "
        "and clients retry the 'retry'-coded failures, so the run must "
        "still complete with zero lost answers",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7016, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many wall-clock seconds, then print stats and "
        "exit (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--scale",
        type=float,
        default=None,
        help="time-scale factor for the deployment spec (overrides "
        "REPRO_BENCH_SCALE)",
    )
    serve.add_argument("--base-seed", type=int, default=1, help="first tenant's seed")

    sub.add_parser("list", help="list scenarios and their trial grids")

    clear = sub.add_parser("clear-cache", help="delete all cached results")
    clear.add_argument("--cache-dir", default=None, help="result cache directory")
    return parser


def _cmd_list() -> int:
    print(f"scenarios (trial counts at scale {bench_scale():g}, one seed):")
    width = max(len(name) for name in scenario_names()) + 6
    for name in scenario_names():
        scenario = SCENARIOS[name]
        alias = f" [{scenario.alias}]" if scenario.alias else ""
        head = f"{name}{alias}".ljust(width)
        trials = len(scenario_trials(name))
        print(f"  {head} {trials:3d} trials  {scenario.description}")
    print(f"\nresult cache: {default_cache_root()}")
    print(f"campaign exports: {default_export_root()}")
    return 0


def _resolve_export(
    target: Optional[str], export_dir: Optional[str]
) -> Tuple[Optional[Path], Optional[str]]:
    """Resolve report/plot's target into an export file.

    Returns ``(path, None)`` on success or ``(None, error message)``; the
    message names the directory searched, and suggests ``list`` when the
    target isn't a registered scenario either.
    """
    root = Path(export_dir) if export_dir else None
    if target and (target.endswith(".json") or Path(target).is_file()):
        path = Path(target)
        if not path.is_file():
            return None, f"export file {path} does not exist"
        return path, None
    scenario = SCENARIO_ALIASES.get(target, target) if target else None
    path = latest_export(scenario, root=root)
    if path is None:
        where = root if root is not None else default_export_root()
        what = f"scenario {target!r}" if target else "any campaign"
        hint = (
            "; run the scenario with --export first"
            if scenario is None or scenario in SCENARIOS
            else f"; {unknown_scenario_error(target)}"
        )
        return None, f"no export for {what} under {where}{hint}"
    return path, None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario == "all":
        names = [n for n in scenario_names() if n != "smoke"]
    else:
        names = [args.scenario]
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()

    status = 0
    for name in names:
        try:
            campaign = Campaign.from_scenario(name, seeds=seeds, scale=args.scale)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        try:
            out = run_campaign(
                campaign,
                jobs=args.jobs,
                cache=cache,
                use_cache=not args.no_cache,
                refresh=args.refresh,
            )
        except Exception as exc:  # a failed trial fails the campaign
            print(f"error: campaign {name!r} failed: {exc}", file=sys.stderr)
            status = 1
            continue
        elapsed = time.perf_counter() - started
        doc = campaign_to_dict(
            out,
            jobs=args.jobs,
            elapsed_s=elapsed,
            scale=args.scale if args.scale is not None else bench_scale(),
        )
        print(figure_table_markdown(doc))
        print(
            f"\n{len(out.trials)} trials: {out.executed} executed, "
            f"{out.cached} cache hits, {elapsed:.1f}s"
        )
        if args.export:
            path = export_campaign(
                doc, out_dir=Path(args.export_dir) if args.export_dir else None
            )
            print(f"export: {path}")
        print()
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    path, error = _resolve_export(args.target, args.export_dir)
    if path is None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        doc = load_campaign_export(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(figure_table_markdown(doc))
    execution = doc.get("execution", {})
    print(
        f"\n{execution.get('trials', '?')} trials "
        f"({execution.get('executed', '?')} executed, "
        f"{execution.get('cached', '?')} cached) — {path}"
    )
    scenario = SCENARIOS.get(str(doc.get("name")))
    if scenario is None or scenario.check is None:
        return 0
    if doc.get("scale") is None:
        print(
            f"error: {path} records no scale, so the bounds of the "
            f"{scenario.name} check are unknown; re-run it with --export",
            file=sys.stderr,
        )
        return 2
    failed = check_export(doc)
    for claim in failed:
        print(f"claim failed: {claim}")
    if failed:
        return 1
    print(f"every claim of the {scenario.name} check holds")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    path, error = _resolve_export(args.target, args.export_dir)
    if path is None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        doc = load_campaign_export(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir:
        out_dir = Path(args.out_dir)
    else:
        out_dir = path.parent / "plots"
    try:
        written = plot_campaign(doc, out_dir, stem=path.stem)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for image in written:
        print(f"plot: {image}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.experiments.campaign import _scale_override
    from repro.service import PROTOCOL_VERSION, ShardedGateway, serve_framed

    name = canonical_scenario_name(args.scenario)
    if name not in SCENARIOS:
        print(f"error: {unknown_scenario_error(args.scenario)}", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print(f"error: need at least one tenant, got {args.tenants}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: need at least one worker, got {args.workers}", file=sys.stderr)
        return 2
    if args.chaos_kill_worker and args.loadtest is None:
        print("error: --chaos-kill-worker needs --loadtest", file=sys.stderr)
        return 2
    with _scale_override(args.scale):
        trials = scenario_trials(name, seed=args.base_seed)
    label, spec = next(
        ((lbl, s) for lbl, s in trials if s.policy == "scoop"), trials[0]
    )

    async def _serve() -> Tuple[dict, Optional[dict]]:
        gateway = ShardedGateway(
            spec,
            tenants=args.tenants,
            workers=args.workers,
            base_seed=args.base_seed,
        )
        await gateway.start()
        server = await serve_framed(gateway, host=args.host, port=args.port)
        print(
            f"serving on {server.host}:{server.port} — framed protocol "
            f"v{PROTOCOL_VERSION}, {gateway.workers} worker(s); connect "
            "with repro.service.AsyncScoopClient"
        )
        print(
            f"booting {args.tenants} tenant(s) of {name} ({label}) "
            "across the shard pool (client hellos block until ready)..."
        )
        await gateway.wait_ready()
        print(f"all shards ready: tenants {gateway.tenants}")
        report = None
        try:
            if args.loadtest is not None:
                from repro.service.loadtest import drive_socket_load

                chaos = None
                retries = None
                if args.chaos_kill_worker:
                    def chaos() -> object:
                        killed = gateway.chaos_kill_worker()
                        print(f"chaos: killed worker of {killed}")
                        return killed

                    # Enough retry budget to ride out a full worker
                    # reboot (deployment boot + stabilization).
                    retries = 30
                report = await drive_socket_load(
                    "127.0.0.1" if args.host == "0.0.0.0" else args.host,
                    server.port,
                    clients=args.clients,
                    requests=args.requests,
                    seed=args.base_seed,
                    retries=retries,
                    chaos=chaos,
                )
                report["scenario"] = name
                report["label"] = label
            elif args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until Ctrl-C
        finally:
            await server.close()
        stats = await gateway.service_stats()
        await gateway.close()
        return stats.to_wire(), report

    try:
        stats, report = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0
    if report is not None:
        counts = report["counts"]
        print(
            f"loadtest: {args.clients} client(s) x {args.requests} requests "
            f"-> {counts['ok']} ok, {counts['shed']} shed, "
            f"{counts['failed']} failed, {counts.get('retried', 0)} retried, "
            f"{report['qps']:.1f} req/s "
            f"over {report['elapsed_s']:.2f}s"
        )
        chaos_record = report.get("chaos", {})
        if chaos_record.get("fired"):
            restarts = sum(
                shard.get("restarts", 0)
                for shard in report["stats"].get("shards", {}).values()
            )
            print(
                f"chaos: killed {chaos_record.get('killed')}, "
                f"{restarts:.0f} restart(s) recorded"
            )
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.loadtest == "-":
            print(payload)
        else:
            Path(args.loadtest).write_text(payload)
            print(f"loadtest report: {args.loadtest}")
    tenants_stats = stats.get("tenants", {})
    for tenant in sorted(tenants_stats):
        snap = tenants_stats[tenant]
        print(
            f"{tenant}: {snap['requests_offered']:.0f} offered, "
            f"{snap['requests_served']:.0f} served, "
            f"{snap['requests_shed']:.0f} shed, "
            f"hit rate {snap['cache_hit_rate']:.2f}, "
            f"p95 latency {snap['latency_p95_s']:.2f}s (simulated)"
        )
    for shard in sorted(stats.get("shards", {})):
        snap = stats["shards"][shard]
        print(
            f"{shard}: {snap['tenants']:.0f} tenant(s), "
            f"{snap['requests_served']:.0f} served, "
            f"{snap['requests_shed']:.0f} shed, "
            f"queue depth {snap['queue_depth']:.0f}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "plot":
        return _cmd_plot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "clear-cache":
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    return _cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
