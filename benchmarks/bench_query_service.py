"""E16 — past the paper: the sharded serving stack end to end.

Real worker processes behind a real TCP server, driven by concurrent
client connections (`repro.service.loadtest.drive_socket_load`). The
hard gate is the tentpole invariant: per-tenant answer transcripts are
bit-identical across worker counts. The throughput scaling gate (4
workers ≥ 2x 1 worker on the committed load point) only arms on hosts
with ≥4 CPUs; on smaller boxes extra processes cannot speed anything up
and the assertion would test the scheduler, not the system. E16's
offered-load sweep through the query gateway (the `query_service`
scenario and its registered check) runs in `bench_scenarios.py`.
"""

import asyncio
import os

from _harness import emit

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.reporting import markdown_table
from repro.experiments.runner import ExperimentSpec
from repro.service import ShardedGateway, drive_socket_load, serve_framed

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
        "E16: sharded socket serving — worker-count sweep "
        f"({SOCKET_CLIENTS} clients x {SOCKET_REQUESTS} requests)\n\n"
        + markdown_table(["workers", "shards", "qps", "ok", "shed", "digest"], rows),
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
        "E16: chaos recovery — worker killed mid-load "
        f"({SOCKET_CLIENTS} clients x {SOCKET_REQUESTS} requests)\n\n"
        + markdown_table(
            ["killed", "ok", "shed", "retried", "restarts"],
            [
                [
                    report["chaos"]["killed"],
                    counts["ok"],
                    counts["shed"],
                    counts["retried"],
                    f"{restarts:.0f}",
                ]
            ],
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
