"""Unit tests for the shard supervisor's pure machinery (ISSUE 10).

Everything here runs without worker processes: the backoff schedule is
plain math, the placement deal is a pure function, and the supervisor
loop is driven with a scripted ``_pump`` plus a fake clock (the
injectable ``gateway._sleep``) — so the respawn/replace decisions and
the queue-drain guarantees are pinned deterministically. The worker's
command loop runs in a thread over an in-process pipe, and the serving
fronts the parent keeps are plain objects. The matching
real-process matrix (actual SIGKILLs over real sockets) lives in
``tests/integration/test_sharded_serving.py``.
"""

import asyncio
import multiprocessing
import threading

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec
from repro.service.api import (
    QueryRequest,
    ServiceUnavailableError,
    ShardRestartingError,
)
from repro.service.shard import (
    BOOTING,
    FAILED,
    READY,
    REPLACING,
    RESTARTING,
    BackoffPolicy,
    ShardedGateway,
    _Shard,
    _shard_worker_main,
    round_robin,
)
from repro.service.deployment import Deployment
from repro.service.gateway import run_window


def tiny_spec(seed: int = 3) -> ExperimentSpec:
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


class FakeProcess:
    """Stands in for a dead multiprocessing.Process."""

    def __init__(self, exitcode: int = -9):
        self.exitcode = exitcode
        self.killed = 0

    def kill(self) -> None:
        self.killed += 1


def dead_shard(exitcode: int = -9) -> _Shard:
    """shard0 whose fake worker has exited: its exit future is already
    resolved, as the exit-sentinel reader leaves it. Needs a running
    loop."""
    shard = _Shard("shard0")
    shard.process = FakeProcess(exitcode)
    shard.exited = asyncio.get_running_loop().create_future()
    shard.exited.set_result(exitcode)
    return shard


class TestBackoffPolicy:
    def test_delay_schedule_doubles_up_to_cap(self):
        policy = BackoffPolicy(base_s=0.25, cap_s=5.0)
        delays = [policy.delay(i) for i in range(6)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0]

    def test_cap_binds_immediately_when_base_exceeds_it(self):
        policy = BackoffPolicy(base_s=10.0, cap_s=3.0)
        assert [policy.delay(i) for i in range(2)] == [3.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(budget=-1)
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)


class TestPlacementPlans:
    def test_round_robin_placement(self):
        """Tenants deal round-robin over min(workers, tenants) shards;
        the table keeps tenant order, the order a shard boots them in."""
        gateway = ShardedGateway(tiny_spec(), tenants=3, workers=2)
        assert gateway._shard_of == {
            "tenant0": "shard0",
            "tenant1": "shard1",
            "tenant2": "shard0",
        }
        assert gateway.workers == 2
        assert gateway._tenants_on(_Shard("shard0")) == ["tenant0", "tenant2"]
        assert ShardedGateway(tiny_spec(), tenants=2, workers=5).workers == 2

    def test_replacement_round_robins_over_survivors(self):
        plan = round_robin(["t0", "t1", "t2"], ["shard1", "shard2"])
        assert plan == {"t0": "shard1", "t1": "shard2", "t2": "shard1"}

    def test_no_survivors_fails_the_shard(self):
        """With no live shard left to adopt its tenants, a retired shard
        fails terminally, its tenants stay placed on it, and readiness
        still concludes."""

        async def program():
            gateway = _bare_gateway()
            dead, other = _Shard("shard0"), _Shard("shard1")
            dead.state = REPLACING
            other.state = FAILED
            gateway._shards = {"shard0": dead, "shard1": other}
            await gateway._replace(dead)
            assert dead.state == FAILED
            assert "no shard survives" in dead.failed
            assert gateway.shard_of("tenant0") == "shard0"
            assert gateway.ready.is_set()

        asyncio.run(program())


def _bare_gateway(**kwargs) -> ShardedGateway:
    return ShardedGateway(tiny_spec(), tenants=2, workers=2, **kwargs)


class TestSupervisorLoop:
    """The respawn state machine, driven by a scripted worker and a
    recording fake clock — no processes, no wall time."""

    def test_respawns_with_backoff_then_serves(self):
        """Two deaths then a clean run: the supervisor sleeps the
        backoff ladder's first two delays, respawns twice, and counts
        both restarts."""

        async def program():
            gateway = _bare_gateway(
                backoff=BackoffPolicy(base_s=0.25, cap_s=5.0, budget=3)
            )
            shard = dead_shard(exitcode=-9)
            gateway._shards["shard0"] = shard

            outcomes = [("died", "kill 1"), ("died", "kill 2"), None]
            spawns = []
            sleeps = []

            async def scripted_run(s):
                return outcomes.pop(0)

            async def fake_sleep(delay):
                sleeps.append(delay)

            gateway._pump = scripted_run
            gateway._spawn = lambda s: spawns.append(s.name)
            gateway._sleep = fake_sleep

            await gateway._supervise(shard)

            assert spawns == ["shard0", "shard0"]
            assert sleeps == [0.25, 0.5]
            assert shard.restarts == 2
            assert shard.last_exit == -9

        asyncio.run(program())

    def test_budget_exhausted_hands_off_to_replacement(self):
        """Once restarts hit the budget, the next death goes to
        _replace() instead of another spawn."""

        async def program():
            gateway = _bare_gateway(
                backoff=BackoffPolicy(base_s=0.01, cap_s=0.01, budget=1)
            )
            shard = dead_shard()
            gateway._shards["shard0"] = shard

            outcomes = [("died", "kill 1"), ("died", "kill 2")]
            replaced = []

            async def scripted_run(s):
                return outcomes.pop(0)

            async def fake_replace(s):
                replaced.append(s.name)
                s.state = FAILED  # terminal: ends the drain loop fast
                s.failed = "replaced in test"

            async def fake_sleep(delay):
                pass

            gateway._pump = scripted_run
            gateway._replace = fake_replace
            gateway._sleep = fake_sleep
            gateway._spawn = lambda s: None
            gateway._closed = False

            supervise = asyncio.create_task(gateway._supervise(shard))
            # The terminal drain loop parks on the queue; closing
            # releases it.
            await asyncio.sleep(0)
            while not replaced:
                await asyncio.sleep(0.001)
            shard.queue.put_nowait(None)
            await asyncio.wait_for(supervise, timeout=5.0)

            assert replaced == ["shard0"]
            assert shard.restarts == 1  # only the budgeted respawn

        asyncio.run(program())

    def test_boot_error_is_terminal_not_respawned(self):
        """A worker-reported boot exception is deterministic: the shard
        fails permanently instead of burning the respawn budget."""

        async def program():
            gateway = _bare_gateway()
            shard = dead_shard(exitcode=1)
            gateway._shards["shard0"] = shard

            async def scripted_run(s):
                return ("boot_error", "ValueError: bad spec")

            gateway._pump = scripted_run
            gateway._spawn = lambda s: pytest.fail("must not respawn")

            supervise = asyncio.create_task(gateway._supervise(shard))
            while shard.state != FAILED:
                await asyncio.sleep(0.001)
            shard.queue.put_nowait(None)
            await asyncio.wait_for(supervise, timeout=5.0)

            assert shard.restarts == 0
            assert "bad spec" in gateway._boot_error
            assert gateway.ready.is_set()  # waiters wake to see the failure

        asyncio.run(program())


def fail_pending(gateway: ShardedGateway, shard: _Shard) -> None:
    """The supervisor's sweep: each entry fails with the shard's fault."""
    gateway._fail_pending(shard, lambda: gateway._death_exception(shard))


class TestQueueDraining:
    """The satellite bug: nothing queued on a dead shard may hang."""

    def test_drain_fails_queued_futures_retryable(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0")
            shard.state = RESTARTING
            shard.failed = "worker died"
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            for future in futures:
                shard.queue.put_nowait(("req", future, None))
            # An exit reader's wake-up mixed in must be skipped, not failed.
            shard.queue.put_nowait(("dead", "exitcode -9"))

            fail_pending(gateway, shard)

            assert shard.queue.empty()
            for future in futures:
                with pytest.raises(ShardRestartingError, match="restarting"):
                    future.result()

        asyncio.run(program())

    def test_drain_on_terminal_shard_fails_unavailable(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0")
            shard.state = FAILED
            shard.failed = "no survivors"
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            shard.queue.put_nowait(("req", future, None))

            fail_pending(gateway, shard)

            with pytest.raises(ServiceUnavailableError, match="no survivors"):
                future.result()

        asyncio.run(program())

    def test_fail_inflight_clears_the_live_batch(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0")
            shard.state = RESTARTING
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            shard.inflight = [("req", f, None) for f in futures[:2]]
            shard.queue.put_nowait(("req", futures[2], None))

            fail_pending(gateway, shard)

            assert shard.inflight == [] and shard.queue.empty()
            for future in futures:
                assert isinstance(future.exception(), ShardRestartingError)
            # Each future gets its OWN exception instance: seq stamping
            # in answer() mutates it, so sharing would cross-talk.
            assert futures[0].exception() is not futures[1].exception()

        asyncio.run(program())


class TestStateBookkeeping:
    def test_initial_state_and_counters(self):
        async def program():
            shard = _Shard("shard3")
            assert shard.state == BOOTING
            assert shard.restarts == 0
            assert shard.replacements == 0
            assert shard.last_exit is None

        asyncio.run(program())

    def test_supervision_stats_overlay(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0")
            shard.restarts = 2
            shard.replacements = 1
            shard.last_exit = -9
            card = gateway._scorecard(shard, {})
            overlay = {k: card[k] for k in ("restarts", "replacements", "last_exit")}
            assert overlay == {
                "restarts": 2.0,
                "replacements": 1.0,
                "last_exit": -9.0,
            }

        asyncio.run(program())

    def test_closed_gateway_reports_every_tenant(self):
        """Scorecards live in the parent's fronts: a METRICS push that
        outlives close() gets every tenant's scorecard at once, and
        nothing is queued on a pump that has stopped."""

        async def program():
            gateway = _bare_gateway()
            shards = {name: _Shard(name) for name in ("shard0", "shard1")}
            for shard in shards.values():
                shard.state = READY
            gateway._shards = shards
            gateway._reset_fronts({"tenant0": (40.0, 0), "tenant1": (40.0, 0)})
            front = gateway._fronts["tenant0"]
            front.submit(attr=0, lo=10, hi=12)
            (window,) = front.windows()
            front.settle(window, (0, 48.0, 0, [[(11, 45.0, 3)]]))
            assert front.submit(attr=0, lo=10, hi=12).cache_hit
            gateway._closed = True
            stats = await asyncio.wait_for(gateway.service_stats(), timeout=5.0)
            assert all(shard.queue.empty() for shard in shards.values())
            assert sorted(stats.tenants) == ["tenant0", "tenant1"]
            assert stats.tenants["tenant0"]["requests_served"] == 2.0
            assert stats.tenants["tenant0"]["cache_hits"] == 1.0
            assert stats.tenants["tenant1"]["requests_offered"] == 0.0
            assert stats.shards["shard0"]["tenants"] == 1.0
            assert stats.shards["shard0"]["requests_served"] == 2.0
            assert stats.shards["shard1"]["tenants"] == 1.0

        asyncio.run(program())

    def test_a_booting_shard_fails_retryable(self):
        """Once a sibling's boot error has set readiness early, a request
        for a still-booting shard fails with ``retry`` instead of
        waiting."""

        async def program():
            gateway = _bare_gateway()
            gateway._shards = {"shard0": _Shard("shard0"), "shard1": _Shard("shard1")}
            gateway.ready.set()
            request = QueryRequest(tenant="tenant0", attr=0, lo=0, hi=100, seq=7)
            with pytest.raises(ShardRestartingError, match="booting") as fault:
                await gateway.answer(request)
            assert fault.value.seq == 7

        asyncio.run(program())

    def test_maybe_ready_counts_terminal_states(self):
        """A shard that dies terminally before ever being ready must not
        park wait_ready forever — terminal counts as concluded."""

        async def program():
            gateway = _bare_gateway()
            ready = _Shard("shard0")
            ready.state = READY
            dead = _Shard("shard1")
            dead.state = FAILED
            gateway._shards = {"shard0": ready, "shard1": dead}
            gateway._maybe_ready()
            assert gateway.ready.is_set()

        asyncio.run(program())


class TestWorkerLoop:
    """The worker's command loop, run in a thread over an in-process
    pipe: it executes windows and builds no scorecard."""

    def test_batch_replies_carry_answers_only(self):
        """``ready`` carries each tenant's starting clock and epoch; a
        ``batch`` reply carries one ``(epoch, clock, epoch, readings)``
        result per window, the same result the window executor gives in
        process; ``close`` is answered with ``closed``."""
        parent, child = multiprocessing.Pipe()
        payloads = [
            ("tenant0", tiny_spec(seed=3).to_dict()),
            ("tenant1", tiny_spec(seed=4).to_dict()),
        ]
        worker = threading.Thread(
            target=_shard_worker_main, args=(child, "shard0", payloads, {})
        )
        worker.start()
        windows = [[(0, 7, 13), (0, 98, 100)], [(0, 0, 6)]]
        try:
            op, shard, starts = parent.recv()
            assert (op, shard) == ("ready", "shard0")
            assert starts == {"tenant0": (40.0, 0), "tenant1": (40.0, 0)}
            parent.send(("batch", [("tenant0", windows)]))
            op, results = parent.recv()
            assert op == "windows"
            ((first, second),) = results
            assert first[:3] == (0, 48.0, 0) and second[:3] == (0, 56.0, 0)
            assert len(first[3]) == 2 and len(second[3]) == 1
            reference = Deployment.create(tiny_spec(seed=3))
            reference.boot()
            reference.stabilize()
            assert [run_window(reference, w) for w in windows] == [first, second]
            parent.send(("close",))
            assert parent.recv() == ("closed", "shard0")
        finally:
            # A failed assertion must not leave the worker in recv().
            parent.close()
            worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_stats_is_an_unknown_command(self):
        """Scorecards live in the parent's fronts: a worker answers a
        ``stats`` command as an unknown one, with ``fatal``, and exits."""
        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(
            target=_shard_worker_main, args=(child, "shard1", [], {})
        )
        worker.start()
        try:
            assert parent.recv() == ("ready", "shard1", {})
            parent.send(("stats",))
            op, message = parent.recv()
            assert op == "fatal" and "unknown shard command 'stats'" in message
        finally:
            parent.close()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
