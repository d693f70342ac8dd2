"""Scoop as a service: the sharded server and the typed client.

Boots the full serving stack in one process — two tenants sharded
across two worker processes behind a framed TCP server — then tours the
supported client entry point, ``AsyncScoopClient``: the WELCOME fields,
a query and its cached repeat, a typed fault, many queries in flight on
one connection, server-push METRICS telemetry and per-shard stats.

Everything crosses the wire as the typed API (``QueryAnswer`` in,
``ShedError``/``MalformedRequestError``/... out) — no raw dicts.
Connecting blocks until every shard reports ready, so the
first query after ``connect()`` always finds a live deployment.

Usage:
    python examples/service_client.py
"""

import asyncio

from repro import ExperimentSpec, ScoopConfig, ValueDomain
from repro.service import (
    AsyncScoopClient,
    MalformedRequestError,
    ShardedGateway,
    serve_framed,
)


def small_spec() -> ExperimentSpec:
    """A 16-mote grid with a short warm-up: boots in about a second per
    tenant, which keeps the demo snappy."""
    config = ScoopConfig(
        domain=ValueDomain(0, 100),
        n_nodes=16,
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
        seed=7,
        topology_kind="grid",
    )


async def tour(port: int) -> None:
    """One connection: typed answers and faults, concurrent queries,
    the METRICS subscription and per-shard stats."""
    async with AsyncScoopClient(
        "127.0.0.1", port, name="demo", metrics=True
    ) as client:
        print(
            f"connected: tenants={client.tenants} "
            f"workers={client.workers} credits={client.credits}"
        )
        answer = await client.query(tenant="tenant0", attr=0, lo=20, hi=60)
        print(
            f"tenant0 [20, 60] -> {answer.n_readings} readings in "
            f"{answer.latency_s:.1f}s simulated (shard {answer.shard})"
        )
        again = await client.query(tenant="tenant0", attr=0, lo=20, hi=60)
        print(f"same range again: cache_hit={again.cache_hit}")
        try:
            await client.query(tenant="nobody")
        except MalformedRequestError as exc:
            print(f"typed fault for a bad request: {exc}")

        ranges = [(0, 30), (30, 60), (60, 100), (10, 90)]
        answers = await asyncio.gather(
            *(
                client.query(tenant=tenant, attr=0, lo=lo, hi=hi)
                for tenant in client.tenants
                for lo, hi in ranges
            )
        )
        total = sum(a.n_readings for a in answers)
        print(
            f"{len(answers)} concurrent queries over one "
            f"connection -> {total} readings"
        )
        # Give the server's metrics pump one interval to push.
        await asyncio.sleep(0.3)
        if client.metrics:
            push = client.metrics[-1]
            print(
                f"METRICS push from {push['shard']}: "
                f"tick={push['tick']} "
                f"served={push['stats']['requests_served']:.0f}"
            )
        stats = await client.stats()
        for shard, card in sorted(stats.shards.items()):
            print(
                f"{shard}: {card['tenants']:.0f} tenant(s), "
                f"{card['requests_served']:.0f} served, "
                f"hit rate {card['cache_hit_rate']:.0%}"
            )


async def main() -> None:
    print("booting 2 tenants on 2 worker processes ...")
    gateway = ShardedGateway(small_spec(), tenants=2, workers=2)
    await gateway.start()
    server = await serve_framed(gateway, metrics_interval=0.2)
    try:
        # No explicit wait: the client's connect() blocks on the
        # server's readiness-gated WELCOME.
        await tour(server.port)
    finally:
        await server.close()
        await gateway.close()
    print("done.")


if __name__ == "__main__":
    # The guard is load-bearing: worker processes spawn (re-import this
    # module), so the demo must not re-run itself in children.
    asyncio.run(main())
