"""End-to-end tests for the sharded serving stack over real sockets.

The contract under test, from ISSUE 8:

* the hello/WELCOME handshake doubles as the readiness barrier — a
  client that connects while shards are still booting blocks, never
  errors;
* answers are a function of each tenant's ordered request stream, so a
  fixed client program gets bit-identical transcripts from ``workers=1``
  and ``workers=4``;
* overload and misuse surface as typed faults over the wire (socket
  credit shed → :class:`ShedError`, version skew →
  :class:`ProtocolVersionError`, unknown tenant →
  :class:`MalformedRequestError`);
* metrics subscribers receive per-shard scorecard pushes.

ISSUE 10 adds the supervision contract (:class:`TestShardSupervision`):
a worker killed at any point — before ready or mid-batch — or answering
``fatal`` is respawned and the service keeps answering;
with the respawn budget exhausted its tenants are re-placed onto
survivors; in every case no request hangs (they fail typed and
retryable) and no worker process outlives its gateway.

:class:`TestServingFront` pins where a request is settled: at its
tenant's front in the parent, without a worker exchange for a cache hit
on an idle tenant, after the in-flight window for a request that arrives
behind one, and against a fresh front after a respawn.

Every test boots real :class:`ShardedGateway` worker processes; the
protocol-behavior tests use one worker hosting one tenant of
:func:`tiny_spec`.
"""

import asyncio
import json
import threading

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments import __main__ as cli
from repro.experiments.runner import ExperimentSpec
from repro.service.api import (
    PROTOCOL_VERSION,
    MalformedRequestError,
    ProtocolVersionError,
    QueryRequest,
    ServiceUnavailableError,
    ShardRestartingError,
    ShedError,
)
from repro.service.client import AsyncScoopClient
from repro.service.loadtest import drive_socket_load
from repro.service.server import serve_framed
from repro.service.shard import BackoffPolicy, ShardedGateway


def assert_no_zombies(gateway: ShardedGateway) -> None:
    """After close(), no worker may survive (the kill-fallback bug):
    every process is dead *and* reaped (exitcode set = waited on)."""
    for shard in gateway._shards.values():
        process = shard.process
        if process is None:
            continue
        assert not process.is_alive(), f"{shard.name} worker outlived close()"
        assert process.exitcode is not None, f"{shard.name} worker not reaped"


async def poll_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    """Await ``predicate()`` turning truthy; fail loudly on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert (
            asyncio.get_running_loop().time() < deadline
        ), f"condition not reached within {timeout}s"
        await asyncio.sleep(interval)


def tiny_spec(seed: int = 3) -> ExperimentSpec:
    """The smallest spec that still serves queries: 8 motes, short
    warm-up, one attribute over [0, 100]. Worker boot stays well under a
    second, which is what makes multi-process tests affordable."""
    config = ScoopConfig(
        domain=ValueDomain(0, 100),
        n_nodes=8,
        sample_interval=10.0,
        summary_interval=60.0,
        remap_interval=180.0,
        query_interval=12.0,
        query_reply_window=8.0,
        duration=120.0,
        stabilization=40.0,
    )
    return ExperimentSpec(
        policy="scoop",
        workload="gaussian",
        scoop=config,
        seed=seed,
        topology_kind="grid",
    )


def one_worker_gateway() -> ShardedGateway:
    return ShardedGateway(tiny_spec(), tenants=1, workers=1)


class TestFramedServer:
    """Protocol behavior over a real socket, one worker, one tenant."""

    def test_query_stats_ping_round_trip(self):
        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    assert client.tenants == ["tenant0"]
                    assert client.workers == 1
                    answer = await client.query(tenant="tenant0", lo=10, hi=60)
                    assert answer.ok and answer.shard == "shard0"
                    assert answer.seq == 1
                    assert await client.ping() == ["tenant0"]
                    stats = await client.stats()
                    assert "tenant0" in stats.tenants
                    assert "shard0" in stats.shards
                    assert stats.protocol["requests"] >= 1
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_socket_credit_shed(self):
        """With a zero-credit window every request sheds at the socket:
        the client sees ShedError, the server counts it, and the
        connection stays usable for control frames."""

        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway, credits=0)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    assert client.credits == 0
                    with pytest.raises(ShedError):
                        await client.query(tenant="tenant0")
                    assert server.counters["sheds_socket"] == 1
                    # Sheds don't poison the stream — PING still works.
                    assert await client.ping() == ["tenant0"]
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_version_skew_is_typed_and_fatal(self):
        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                client = AsyncScoopClient(
                    port=server.port, version=PROTOCOL_VERSION + 1
                )
                with pytest.raises(ProtocolVersionError):
                    await client.connect()
                await client.aclose()
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_unknown_tenant_is_malformed(self):
        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    with pytest.raises(MalformedRequestError, match="martian"):
                        await client.query(tenant="martian")
                    # The fault is per-request: the connection survives.
                    answer = await client.query(tenant="tenant0")
                    assert answer.ok
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_metrics_subscription_pushes_shard_scorecards(self):
        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway, metrics_interval=0.02)
            try:
                async with AsyncScoopClient(
                    port=server.port, metrics=True
                ) as client:
                    await client.query(tenant="tenant0")
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while len(client.metrics) < 2:
                        assert (
                            asyncio.get_running_loop().time() < deadline
                        ), "no second METRICS frame within 5s"
                        await asyncio.sleep(0.02)
                    push = client.metrics[0]
                    assert push["shard"] == "shard0"
                    assert push["tick"] == 1
                    assert "requests_offered" in push["stats"]
                    # Each push carries the tenant scorecards from the
                    # parent's fronts, without any STATS request.
                    assert "requests_offered" in push["tenants"]["tenant0"]
                    assert client.metrics[-1]["tick"] > push["tick"]
                assert server.counters["metrics_pushed"] >= 1
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())


class TestShardedGateway:
    """Real worker processes behind the framed server."""

    def test_readiness_gates_welcome(self):
        """The server accepts connections the moment it binds — before
        any shard has booted — and parks the WELCOME behind the
        readiness barrier, so connect() blocking is the handshake."""

        async def program():
            gateway = ShardedGateway(tiny_spec(), tenants=2, workers=2)
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                # Spawned workers take ≥100ms to even import; the bind
                # happened synchronously above, so this races nothing.
                assert not gateway.ready.is_set()
                async with AsyncScoopClient(port=server.port) as client:
                    assert gateway.ready.is_set()
                    assert client.tenants == ["tenant0", "tenant1"]
                    assert client.workers == 2
                    answer = await client.query(tenant="tenant1", lo=0, hi=50)
                    assert answer.ok and answer.shard == "shard1"
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_workers_1_and_4_answer_identically(self):
        """The shard-determinism gate: one sequential client per tenant
        replaying a fixed program gets byte-identical per-tenant
        transcripts whatever the worker count."""

        async def serve_and_drive(workers: int):
            gateway = ShardedGateway(tiny_spec(), tenants=4, workers=workers)
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                await gateway.wait_ready()
                report = await drive_socket_load(
                    "127.0.0.1", server.port, clients=4, requests=6, seed=11
                )
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)
            return report

        report1 = asyncio.run(serve_and_drive(1))
        report4 = asyncio.run(serve_and_drive(4))

        for report, workers in ((report1, 1), (report4, 4)):
            assert report["workers"] == workers
            assert report["counts"]["failed"] == 0, report["errors"]
            assert report["counts"]["ok"] == 4 * 6
            assert report["stats"]["protocol"]["protocol_errors"] == 0
        # 1 worker hosts every tenant on shard0; 4 spread one per shard.
        assert set(report1["stats"]["shards"]) == {"shard0"}
        assert set(report4["stats"]["shards"]) == {
            "shard0",
            "shard1",
            "shard2",
            "shard3",
        }
        # The tentpole invariant: identical transcripts, hence digests.
        assert report1["answers"] == report4["answers"]
        assert report1["answers_digest"] == report4["answers_digest"]

    def test_closed_gateway_refuses_typed(self):
        """After close(), answer() fails fast with a typed fault rather
        than queueing onto a shard whose worker is gone."""

        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
            finally:
                await gateway.close()
                assert_no_zombies(gateway)
            with pytest.raises(ServiceUnavailableError, match="gateway is closed"):
                await gateway.answer(_request(gateway, "tenant0", seq=1))

        asyncio.run(program())

    def test_close_during_boot_fails_every_readiness_waiter(self):
        """close() while shards still boot wakes everything parked on
        readiness — answer(), wait_ready() and a client's HELLO — with
        ServiceUnavailableError within 1 s, instead of leaving them
        parked for good."""

        async def program():
            gateway = one_worker_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            client = AsyncScoopClient(port=server.port)
            try:
                await asyncio.sleep(0.05)
                waiters = [
                    asyncio.create_task(
                        gateway.answer(_request(gateway, "tenant0", seq=1))
                    ),
                    asyncio.create_task(gateway.wait_ready()),
                    asyncio.create_task(client.connect()),
                ]
                await asyncio.sleep(0.05)  # the HELLO reaches the server
                assert not gateway.ready.is_set()
                closing = asyncio.create_task(gateway.close())
                done, pending = await asyncio.wait(waiters, timeout=1.0)
                await closing
                assert not pending
                for task in done:
                    with pytest.raises(
                        ServiceUnavailableError, match="gateway is closed"
                    ):
                        task.result()
            finally:
                await client.aclose()
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())


class TestSocketLoadDriver:
    """``drive_socket_load``'s outcome counting and chaos hook."""

    @staticmethod
    def drive(gateway: ShardedGateway, **kwargs) -> dict:
        async def program():
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                return await drive_socket_load("127.0.0.1", server.port, **kwargs)
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        return asyncio.run(program())

    def test_malformed_requests_are_counted_per_request(self):
        """Ranges outside tiny_spec's [0, 100] are rejected one request
        at a time: counted as ``malformed`` while the client carries on
        with the rest of its program."""
        gateway = ShardedGateway(tiny_spec(), tenants=2, workers=1)
        report = self.drive(gateway, clients=2, requests=10, domain=(0, 1000))
        counts = report["counts"]
        assert counts["failed"] == 0, report["errors"]
        assert counts["malformed"] > 0
        assert counts["ok"] + counts["shed"] + counts["malformed"] == 2 * 10

    def test_chaos_hook_kills_once_and_every_request_lands(self):
        """The chaos leg at tier-1 scale: the hook fires once, mid-load,
        and the clients' retries deliver every offered request (what
        assert_query_service.check_chaos_report gates nightly)."""
        gateway = ShardedGateway(tiny_spec(), tenants=2, workers=2)
        kills = []

        def chaos():
            kills.append(gateway.chaos_kill_worker())
            return kills[-1]

        report = self.drive(gateway, clients=2, requests=12, retries=30, chaos=chaos)
        counts = report["counts"]
        assert report["chaos"] == {"fired": True, "killed": kills[0]}
        assert len(kills) == 1 and kills[0] is not None
        assert counts["failed"] == 0, report["errors"]
        assert counts["ok"] + counts["shed"] == 2 * 12
        shards = report["stats"]["shards"]
        recoveries = sum(
            s.get("restarts", 0) + s.get("replacements", 0) for s in shards.values()
        )
        assert recoveries >= 1, shards
        assert shards[kills[0]]["last_exit"] != 0, shards


class TestShardSupervision:
    """The death/recovery matrix: real workers, really killed."""

    def test_kill_before_ready_respawns(self):
        """A worker killed while still booting is respawned: the
        readiness barrier eventually opens and the shard serves."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            await gateway.start()
            try:
                assert not gateway.ready.is_set()
                gateway._shards["shard0"].process.kill()
                await gateway.wait_ready(timeout=60.0)
                answer = await gateway.answer(
                    _request(gateway, "tenant0", seq=1)
                )
                assert answer.ok and answer.shard == "shard0"
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] >= 1
                assert stats.shards["shard0"]["last_exit"] == -9
                assert stats.shards["shard1"]["restarts"] == 0
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_kill_mid_batch_clients_retry_to_success(self):
        """Kill a worker while concurrent client queries are on the
        wire, over a real socket: every in-flight and queued request is
        failed retryable (nothing hangs), the clients' retry policy
        resends, and all of them ultimately succeed. The serving parent
        (gateway, server and client) starts no thread on the way."""

        async def program():
            threads_before = set(threading.enumerate())
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.5, budget=3),
            )
            # Kill shard0 just before its first batch goes out, so the
            # kill always lands mid-batch. (Killing just after the send
            # races the worker's answer.)
            exchange = gateway._exchange
            kills = []

            async def kill_before_first_batch(shard, command):
                if shard.name == "shard0" and command[0] == "batch" and not kills:
                    kills.append(gateway.chaos_kill_worker("shard0"))
                return await exchange(shard, command)

            gateway._exchange = kill_before_first_batch
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(
                    port=server.port, retries=30
                ) as client:
                    half = asyncio.gather(
                        *(client.query(tenant="tenant0", lo=0, hi=80)
                          for _ in range(8))
                    )
                    answers = await asyncio.wait_for(half, timeout=120.0)
                    assert kills == ["shard0"]
                    assert len(answers) == 8
                    assert all(a.tenant == "tenant0" for a in answers)
                    assert client.retries_used >= 1
                    stats = await client.stats()
                    assert stats.shards["shard0"]["restarts"] >= 1
                    assert stats.protocol["retries_signalled"] >= 1
                    assert set(threading.enumerate()) <= threads_before
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_fatal_reply_restarts_once(self):
        """A ``fatal`` reply is a death seen before the exit sentinel's:
        the request fails retryable and the shard restarts exactly once
        (the exit reader's wake-up must not reach the next incarnation),
        then serves again."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            # shard0's first batch goes out as an unknown command: the
            # worker replies ("fatal", "unknown shard command ...") and
            # exits.
            exchange = gateway._exchange
            sabotaged = []

            async def unknown_first_batch(shard, command):
                if shard.name == "shard0" and command[0] == "batch" and not sabotaged:
                    sabotaged.append(command)
                    command = ("bogus",) + command[1:]
                return await exchange(shard, command)

            gateway._exchange = unknown_first_batch
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                with pytest.raises(ShardRestartingError, match="fatal"):
                    await gateway.answer(_request(gateway, "tenant0", seq=1))
                await poll_until(
                    lambda: gateway.shard_states()["shard0"] == "ready"
                )
                for seq in range(2, 7):
                    answer = await gateway.answer(
                        _request(gateway, "tenant0", seq=seq)
                    )
                    assert answer.ok and answer.shard == "shard0"
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] == 1
                assert gateway.shard_states()["shard0"] == "ready"
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_budget_exhausted_replaces_tenants_onto_survivor(self):
        """With a zero respawn budget, a worker death re-places the dead
        shard's tenants onto the survivor: the routing table flips, the
        tenant keeps answering (from the other shard), the supervision
        counters record the whole story, and each tenant is counted on
        one shard only."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=0),
            )
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                before = await gateway.answer(
                    _request(gateway, "tenant0", seq=1)
                )
                assert before.shard == "shard0"
                probed = await gateway.service_stats()
                assert probed.shards["shard0"]["tenants"] == 1.0
                assert gateway.chaos_kill_worker("shard0") == "shard0"
                await poll_until(
                    lambda: gateway.shard_states()["shard0"] == "replaced"
                )
                assert gateway.shard_of("tenant0") == "shard1"
                after = await gateway.answer(
                    _request(gateway, "tenant0", seq=2)
                )
                assert after.ok and after.shard == "shard1"
                # The survivor still serves its own tenant too.
                own = await gateway.answer(_request(gateway, "tenant1", seq=3))
                assert own.ok and own.shard == "shard1"
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] == 0
                assert stats.shards["shard0"]["last_exit"] == -9
                assert stats.shards["shard1"]["replacements"] == 1
                # Both tenants report through the adopting shard now, and
                # the retired shard reports none: the report adds up.
                assert set(stats.tenants) == {"tenant0", "tenant1"}
                assert stats.shards["shard0"]["tenants"] == 0.0
                assert stats.shards["shard1"]["tenants"] == 2.0
                placed = sum(card["tenants"] for card in stats.shards.values())
                assert placed == len(gateway.tenants)
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_wait_ready_timeout_is_typed(self):
        """The readiness timeout surfaces as ServiceUnavailableError,
        not a bare asyncio.TimeoutError leaking through the ladder."""

        async def program():
            gateway = ShardedGateway(tiny_spec(), tenants=1, workers=1)
            await gateway.start()
            try:
                with pytest.raises(ServiceUnavailableError, match="not ready"):
                    await gateway.wait_ready(timeout=0.001)
                # The boot itself is unharmed: it completes afterwards.
                await gateway.wait_ready(timeout=60.0)
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())


def recording_exchange(gateway: ShardedGateway, gate=None) -> list:
    """Wrap ``gateway._exchange`` to record ``(worker pid, command op)``
    per exchange; with ``gate`` (an ``asyncio.Event``) every ``batch``
    waits on it before it ships, holding the tenant's miss in flight."""
    exchange = gateway._exchange
    seen = []

    async def recorded(shard, command):
        seen.append((shard.process.pid, command[0]))
        if gate is not None and command[0] == "batch":
            await gate.wait()
        return await exchange(shard, command)

    gateway._exchange = recorded
    return seen


class TestServingFront:
    """Each tenant's front lives in the parent; the worker only runs
    windows of bucket queries."""

    def test_idle_repeat_is_a_hit_without_an_exchange(self):
        async def program():
            gateway = one_worker_gateway()
            seen = recording_exchange(gateway)
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                miss = await gateway.answer(_request(gateway, "tenant0", seq=1))
                assert not miss.cache_hit
                assert [op for _pid, op in seen] == ["batch"]
                hit = await gateway.answer(_request(gateway, "tenant0", seq=2))
                assert hit.cache_hit and hit.seq == 2 and hit.shard == "shard0"
                assert hit.readings == miss.readings
                assert len(seen) == 1
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_repeat_behind_an_inflight_miss_settles_after_it(self):
        """A repeat that arrives while the first request's window is in
        flight waits for it, then hits the cache at the epoch the window
        left: one exchange for both."""

        async def program():
            gateway = one_worker_gateway()
            gate = asyncio.Event()
            seen = recording_exchange(gateway, gate)
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                first = asyncio.create_task(
                    gateway.answer(_request(gateway, "tenant0", seq=1))
                )
                await poll_until(lambda: seen, interval=0.001)
                repeat = asyncio.create_task(
                    gateway.answer(_request(gateway, "tenant0", seq=2))
                )
                await asyncio.sleep(0.05)
                assert not first.done() and not repeat.done()
                gate.set()
                miss, hit = await asyncio.wait_for(
                    asyncio.gather(first, repeat), timeout=30.0
                )
                assert not miss.cache_hit and hit.cache_hit
                assert hit.epoch == miss.epoch and hit.staleness_s == 0.0
                assert [op for _pid, op in seen] == ["batch"]
            finally:
                gate.set()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_respawn_resets_the_front(self):
        """A miss in flight when the worker dies fails typed and leaves
        no backlog behind. After the respawn the fresh deployment
        restarts at epoch 0, so the tenant's first request is a miss the
        new worker answers."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=1,
                workers=1,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            gate = asyncio.Event()
            gate.set()
            seen = recording_exchange(gateway, gate)
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                await gateway.answer(_request(gateway, "tenant0", seq=1))
                hit = await gateway.answer(_request(gateway, "tenant0", seq=2))
                assert hit.cache_hit
                shard = gateway._shards["shard0"]
                old_pid = shard.process.pid
                gate.clear()
                narrow = QueryRequest(tenant="tenant0", attr=0, lo=0, hi=5, seq=3)
                inflight = asyncio.create_task(gateway.answer(narrow))
                await poll_until(lambda: len(seen) == 2, interval=0.001)
                assert gateway.chaos_kill_worker("shard0") == "shard0"
                await poll_until(shard.exited.done)
                gate.set()
                with pytest.raises(ShardRestartingError):
                    await asyncio.wait_for(inflight, timeout=30.0)
                assert gateway.shard_states()["shard0"] == "restarting"
                stats = await gateway.service_stats()
                assert stats.tenants["tenant0"]["backlog"] == 0.0
                assert stats.shards["shard0"]["queue_depth"] == 0.0
                await poll_until(
                    lambda: gateway._shards["shard0"].restarts == 1
                    and gateway.shard_states()["shard0"] == "ready"
                )
                new_pid = gateway._shards["shard0"].process.pid
                after = await gateway.answer(_request(gateway, "tenant0", seq=4))
                assert after.ok and not after.cache_hit
                assert seen[-1] == (new_pid, "batch") and new_pid != old_pid
                stats = await gateway.service_stats()
                assert stats.tenants["tenant0"]["requests_served"] == 1.0
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())


#: ``answers_digest`` of ``serve smoke --tenants 2 --clients 2
#: --requests 6 --scale 0.05`` at any worker count. The answers hold
#: integers and floats rounded to 6 places, with no builtin float
#: ``sum()`` on their path, so the pin should not depend on the
#: interpreter version. A change that moves it is a behaviour change:
#: re-pin from the command's ``--loadtest`` report and say so in
#: CHANGES.md.
SERVE_SMOKE_DIGEST = "6735dd0955584777178652ccd74461b7ffb8e6293692e5a6839c13031c281243"


class TestServeCommand:
    """The ``serve --loadtest`` command the nightly serving job runs."""

    def test_loadtest_answers_match_across_worker_counts(self, tmp_path):
        digests = []
        for workers in (1, 2):
            path = tmp_path / f"loadtest_w{workers}.json"
            args = "serve smoke --tenants 2 --clients 2 --requests 6 --scale 0.05"
            args += f" --workers {workers} --port 0"
            assert cli.main(args.split() + ["--loadtest", str(path)]) == 0
            report = json.loads(path.read_text())
            assert report["workers"] == workers
            assert report["counts"]["ok"] == 12
            assert report["counts"]["failed"] == 0
            assert report["stats"]["protocol"]["protocol_errors"] == 0
            digests.append(report["answers_digest"])
        assert digests == [SERVE_SMOKE_DIGEST, SERVE_SMOKE_DIGEST]


def _request(gateway: ShardedGateway, tenant: str, seq: int):
    from repro.service.api import QueryRequest

    return QueryRequest(tenant=tenant, attr=0, lo=0, hi=100, seq=seq)
