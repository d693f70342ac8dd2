"""E16 — past the paper: the serving layer under an offered-load sweep.

The ROADMAP's north star is a system *serving* heavy query traffic, not
just replaying batch campaigns. This grid drives one resident deployment
per cell through the query gateway's batch discipline
(`repro.service.loadtest`): Poisson request arrivals against a bounded
admission queue, bucket-coalesced basestation queries once per interval,
and an epoch-keyed hot-answer cache. The qualitative shape must hold as
load sweeps past the batch capacity: tail latency (p95/p99) and the shed
rate only rise with offered load, the cache earns hits, and the oracle's
precision check stays clean — cached serving must never fabricate a
reading.

The median is deliberately not gated: at high load most requests are
cache hits served at ~zero latency, so p50 *improves* while the tails
collapse — that inversion is the scenario's most instructive output.

A second benchmark exercises the *sharded* serving stack end to end:
real worker processes behind a real TCP server, driven by concurrent
client connections (`repro.service.loadtest.drive_socket_load`). Its
hard gate is the tentpole invariant — per-tenant answer transcripts are
bit-identical across worker counts. The throughput scaling gate (4
workers ≥ 2x 1 worker on the committed load point) only arms on hosts
with ≥4 CPUs; on smaller boxes extra processes cannot speed anything up
and the assertion would test the scheduler, not the system.
"""

import asyncio
import os

from _harness import emit, run_specs

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec
from repro.experiments.scenarios import query_service
from repro.service import ShardedGateway, drive_socket_load, serve_framed

LOADS = (0.05, 0.2, 0.6, 1.5)

#: The committed load point for the socket benchmark: worker counts
#: swept over a fixed fleet of concurrent clients replaying fixed
#: programs (seeded), one client per tenant.
SOCKET_WORKERS = (1, 2, 4)
SOCKET_TENANTS = 4
SOCKET_CLIENTS = 4
SOCKET_REQUESTS = 25
SOCKET_SEED = 11

#: Required 4-vs-1 worker speedup on the committed load point — only
#: gated where the host actually has the cores to show it.
MIN_SPEEDUP = 2.0

#: Seed-to-seed slack on adjacent-load tail-latency comparisons, in
#: simulated seconds (different loads coalesce different request mixes;
#: the 0 -> max rise must be strict).
LATENCY_SLACK_S = 2.0
#: Slack on adjacent-load shed-rate comparisons.
SHED_SLACK = 0.02


def test_query_service(benchmark):
    def run():
        grid = [
            (qps, spec)
            for qps, specs in query_service(loads=LOADS)
            for spec in specs
        ]
        results = run_specs([spec for _, spec in grid])
        table = {}
        for (qps, spec), result in zip(grid, results):
            table.setdefault(qps, {})[spec.policy] = result
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for qps in LOADS:
        scoop = table[qps]["scoop"].metrics.service
        local = table[qps]["local"].metrics.service
        rows.append(
            [
                f"{qps:g}",
                f"{scoop['qps_served']:.2f}",
                f"{scoop['latency_p50_s']:.1f}",
                f"{scoop['latency_p95_s']:.1f}",
                f"{scoop['cache_hit_rate']:.0%}",
                f"{scoop['shed_rate']:.0%}",
                f"{local['latency_p95_s']:.1f}",
                f"{local['cache_hit_rate']:.0%}",
            ]
        )
    emit(
        "query_service",
        format_table(
            [
                "qps",
                "SCOOP served",
                "SCOOP p50",
                "SCOOP p95",
                "SCOOP hits",
                "SCOOP shed",
                "LOCAL p95",
                "LOCAL hits",
            ],
            rows,
            "E16: serving latency, cache hits and shedding vs offered load",
        ),
    )

    some_shed = False
    some_hits = False
    for policy in ("scoop", "local"):
        for metric in ("latency_p95_s", "latency_p99_s"):
            series = [table[qps][policy].metrics.service[metric] for qps in LOADS]
            # Tail latency only degrades as offered load rises (up to
            # batch-mix noise), and the sweep's top is strictly worse
            # than its bottom.
            for a, b in zip(series, series[1:]):
                assert b >= a - LATENCY_SLACK_S, (policy, metric, series)
            assert series[-1] > series[0], (policy, metric, series)
        shed = [table[qps][policy].metrics.service["shed_rate"] for qps in LOADS]
        for a, b in zip(shed, shed[1:]):
            assert b >= a - SHED_SLACK, (policy, shed)
        some_shed = some_shed or shed[-1] > 0
        hits = [
            table[qps][policy].metrics.service["cache_hit_rate"] for qps in LOADS
        ]
        some_hits = some_hits or any(rate > 0 for rate in hits)
    assert some_shed, "the sweep never saturates the service"
    assert some_hits, "the answer cache never hit"
    for qps in LOADS:
        for policy in ("scoop", "local"):
            result = table[qps][policy]
            # Cached serving never fabricates readings.
            assert result.metrics.oracle["precision_violations"] == 0, (
                qps,
                policy,
            )


def _socket_spec() -> ExperimentSpec:
    """The socket benchmark's committed deployment: a 25-mote grid so
    each served query does real simulator work (boot stays ~a second per
    tenant). Distinct from the E16 sweep specs — this one measures the
    serving *stack*, not the serving *policy*."""
    config = ScoopConfig(
        domain=ValueDomain(0, 100),
        n_nodes=25,
        sample_interval=10.0,
        summary_interval=60.0,
        remap_interval=300.0,
        query_interval=12.0,
        query_reply_window=8.0,
        duration=600.0,
        stabilization=60.0,
    )
    return ExperimentSpec(
        policy="scoop",
        workload="gaussian",
        scoop=config,
        seed=SOCKET_SEED,
        topology_kind="grid",
    )


async def _serve_and_drive(workers: int, chaos_kill: bool = False) -> dict:
    gateway = ShardedGateway(
        _socket_spec(), tenants=SOCKET_TENANTS, workers=workers
    )
    await gateway.start()
    server = await serve_framed(gateway)
    try:
        await gateway.wait_ready()
        chaos = gateway.chaos_kill_worker if chaos_kill else None
        retries = 30 if chaos_kill else None
        report = await drive_socket_load(
            "127.0.0.1",
            server.port,
            clients=SOCKET_CLIENTS,
            requests=SOCKET_REQUESTS,
            seed=SOCKET_SEED,
            keep_answers=False,
            retries=retries,
            chaos=chaos,
        )
    finally:
        await server.close()
        await gateway.close()
    return report


def test_sharded_socket_serving(benchmark):
    def run():
        return {w: asyncio.run(_serve_and_drive(w)) for w in SOCKET_WORKERS}

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for workers in SOCKET_WORKERS:
        report = reports[workers]
        stats = report["stats"]
        rows.append(
            [
                str(workers),
                str(len(stats["shards"])),
                f"{report['qps']:.1f}",
                str(report["counts"]["ok"]),
                str(report["counts"]["shed"]),
                report["answers_digest"][:12],
            ]
        )
    emit(
        "query_service_sockets",
        format_table(
            ["workers", "shards", "qps", "ok", "shed", "digest"],
            rows,
            "E16: sharded socket serving — worker-count sweep "
            f"({SOCKET_CLIENTS} clients x {SOCKET_REQUESTS} requests)",
        ),
    )

    expected = SOCKET_CLIENTS * SOCKET_REQUESTS
    for workers in SOCKET_WORKERS:
        report = reports[workers]
        assert report["workers"] == workers
        assert report["counts"]["failed"] == 0, report["errors"]
        assert report["counts"]["malformed"] == 0
        assert report["counts"]["ok"] + report["counts"]["shed"] == expected
        assert report["stats"]["protocol"]["protocol_errors"] == 0
        assert len(report["stats"]["shards"]) == min(workers, SOCKET_TENANTS)

    # The tentpole invariant: worker count is invisible in the answers.
    digests = {reports[w]["answers_digest"] for w in SOCKET_WORKERS}
    assert len(digests) == 1, {
        w: reports[w]["answers_digest"] for w in SOCKET_WORKERS
    }

    # Scaling only gates where the host has cores to scale onto.
    if (os.cpu_count() or 1) >= 4:
        speedup = reports[4]["qps"] / reports[1]["qps"]
        assert speedup >= MIN_SPEEDUP, {
            w: round(reports[w]["qps"], 1) for w in SOCKET_WORKERS
        }


def test_sharded_chaos_recovery(benchmark):
    """Chaos leg: SIGKILL one worker mid-load; the supervisor must
    respawn it and the clients' retry policy must deliver every offered
    request anyway — zero lost answers is the availability gate the
    re-placement story is built on."""

    def run():
        return asyncio.run(_serve_and_drive(2, chaos_kill=True))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    counts = report["counts"]
    shards = report["stats"]["shards"]
    restarts = sum(s.get("restarts", 0) for s in shards.values())

    emit(
        "query_service_chaos",
        format_table(
            ["killed", "ok", "shed", "retried", "restarts"],
            [
                [
                    str(report["chaos"]["killed"]),
                    str(counts["ok"]),
                    str(counts["shed"]),
                    str(counts["retried"]),
                    f"{restarts:.0f}",
                ]
            ],
            "E16: chaos recovery — worker killed mid-load "
            f"({SOCKET_CLIENTS} clients x {SOCKET_REQUESTS} requests)",
        ),
    )

    expected = SOCKET_CLIENTS * SOCKET_REQUESTS
    assert report["chaos"]["fired"], report["chaos"]
    assert report["chaos"]["killed"] is not None, report["chaos"]
    assert counts["failed"] == 0, report["errors"]
    assert counts["ok"] + counts["shed"] == expected, counts
    assert restarts >= 1, shards
    killed = shards[report["chaos"]["killed"]]
    assert killed["last_exit"] != 0, killed
