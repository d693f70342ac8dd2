"""Sharded serving: tenants placed across a supervised pool of workers.

PR 7's gateway kept every tenant in one Python process; one busy tenant
starved the rest of the interpreter. :class:`ShardedGateway` places
tenants round-robin onto ``workers`` long-lived worker processes — the
same deterministic-seed and spec-serialization machinery the campaign
pool uses (specs cross the process boundary as
:meth:`ExperimentSpec.to_dict` payloads, plug-in policies re-register in
each worker) — so tenant deployments boot and serve concurrently.

Each tenant is served in two halves (:mod:`repro.service.gateway`). Its
:class:`~repro.service.gateway.ServingFront` lives in the parent:
validation, the answer cache, admission and shedding, window grouping
and the scorecard. Its resident deployment lives in one worker, which
only executes windows of bucket queries
(:func:`~repro.service.gateway.run_window`). A cache hit is therefore
answered in the parent and never crosses the pipe. A tenant's
trajectory depends only on its own ordered request stream. That is the
sharding invariant the determinism tests pin: for a fixed client
program, per-tenant answers are identical at ``--workers 1`` and
``--workers 4`` (when no faults are injected).

The front settles each request against exactly the state the worker
would hold for it. A request whose tenant has nothing queued or in
flight is settled at once: a hit or a shed returns without touching the
pump, a miss is queued for the next command. Any other request is held
on the shard's queue and settled, in arrival order, when the pump builds
its tenant's next command — after the in-flight windows have moved the
tenant's clock, epoch and cache.

The parent ↔ worker protocol is deliberately lockstep (one command in
flight per shard, over one :func:`multiprocessing.Pipe`): the parent
pump task ships every touched tenant's queued windows as one ``batch``
command and awaits the per-window results — so worker replies can never
interleave and the pipe needs no framing of its own. The pump waits on
the pipe through an event-loop reader, so the parent runs no threads.
Shards are independent; concurrency comes from running one pump per
shard.

Placement lives in one table, tenant → shard name
(``ShardedGateway._shard_of``): a shard's tenants are the ones the table
maps to it, in tenant order, and a re-placement only flips their entries.

Workers announce ``ready`` after their deployments finish boot +
stabilization, with each tenant's starting clock and epoch.
:attr:`ShardedGateway.ready` is the one readiness event: it gates the
server's HELLO handshake so first queries can never race warmup, and
:meth:`ShardedGateway.answer` waits on it too. Scorecards are read from
the fronts, so :meth:`ShardedGateway.service_stats` asks no worker
anything.

Supervision
-----------

Each shard is driven by a supervisor task walking this state machine::

    booting ──► ready ──► restarting ──► ready        (respawn succeeded)
       │          │            │
       │          │            └──► replaced          (budget exhausted,
       │          │                                    tenants adopted by
       │          │                                    surviving shards)
       └──────────┴───────────────► failed            (deterministic boot
                                                       error, or nowhere
                                                       left to re-place)

Worker death is detected by pipe EOF or a ``fatal`` reply while an
exchange is in flight, and by the process's exit sentinel at any time:
an event-loop reader on :attr:`multiprocessing.Process.sentinel` fires
once the worker has exited, which also wakes an idle pump. On death the
supervisor fails every in-flight and queued request through one sweep
(the one :meth:`ShardedGateway.close` uses too) with the *retryable*
:class:`~repro.service.api.ShardRestartingError` (wire code ``retry``,
honored by the clients' capped retry policy), respawns the
worker with bounded exponential backoff (:class:`BackoffPolicy`), and
re-creates its tenants from the stored spec payloads via the same
deterministic seed ladder. When the respawn budget runs out, the dead
shard's tenants are *re-placed*: surviving workers ``adopt`` them
(booting fresh deployments from the same specs) and the routing table
flips — the service degrades instead of dying. A fresh deployment
restarts at epoch 0, so the ``ready`` of a respawned worker and the
``adopted`` of an adopter reset the tenants' fronts: no old cache entry
answers for the new incarnation, and the scorecard restarts at 0. Until
then a dead shard's fronts keep their scorecards, and the misses the
sweep failed leave their queues: offered, but neither served nor shed.
Per-shard ``restarts`` / ``replacements`` / ``last_exit`` counters
surface in ``ServiceStats.shards`` and the METRICS push; a retired
shard reports no tenants.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import multiprocessing
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.api import (
    MalformedRequestError,
    QueryAnswer,
    QueryRequest,
    ServiceFault,
    ServiceStats,
    ServiceUnavailableError,
    ShardRestartingError,
    aggregate_shard_stats,
)
from repro.service.gateway import (
    ServiceLimits,
    ServiceTicket,
    ServingFront,
    run_window,
)

#: Start method for shard workers: ``spawn`` everywhere, for identical
#: behavior across platforms.
_START_METHOD = "spawn"

# Shard lifecycle states (see the module docstring's state machine).
BOOTING = "booting"
READY = "ready"
RESTARTING = "restarting"
REPLACING = "replacing"
REPLACED = "replaced"
FAILED = "failed"

#: Transient states: requests fail with the retryable ``retry`` code. A
#: request meets a booting shard only once a sibling's boot error has set
#: the gateway's readiness early.
_RETRYABLE_STATES = (BOOTING, RESTARTING, REPLACING)
#: Terminal states: the shard will never serve again.
_TERMINAL_STATES = (REPLACED, FAILED)


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff for worker respawns.

    ``delay(attempt)`` is ``min(cap_s, base_s * 2**attempt)`` for the
    0-based respawn attempt; ``budget`` is how many respawns a shard is
    granted before its tenants are re-placed. Pure math — the fake-clock
    unit tests drive it directly.
    """

    base_s: float = 0.25
    cap_s: float = 5.0
    budget: int = 3

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError(f"backoff delays must be >= 0, got {self}")
        if self.budget < 0:
            raise ValueError(f"respawn budget must be >= 0, got {self.budget}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before 0-based respawn ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.cap_s, self.base_s * (2.0**attempt))


def shard_name(index: int) -> str:
    return f"shard{index}"


def round_robin(tenants: Sequence[str], shards: Sequence[str]) -> Dict[str, str]:
    """Deal ``tenants`` over ``shards`` in order (shard i gets tenants
    i, i+S, i+2S, ...): the initial placement and a dead shard's
    re-placement onto the survivors. Deterministic in the two ordered
    lists alone."""
    return {tenant: shards[i % len(shards)] for i, tenant in enumerate(tenants)}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _boot_tenants(
    tenant_payloads: Sequence[Tuple[str, Dict[str, object]]],
):
    """Boot + stabilize one deployment per payload; returns the
    ``{tenant: Deployment}`` dict (shared by initial boot and
    re-placement adoption)."""
    from repro.experiments.runner import ExperimentSpec
    from repro.service.deployment import Deployment

    deployments = {}
    for tenant, spec_dict in tenant_payloads:
        spec = ExperimentSpec.from_dict(spec_dict)
        deployment = Deployment.create(spec)
        deployment.boot()
        deployment.stabilize()
        deployments[tenant] = deployment
    return deployments


def _starts(deployments) -> Dict[str, Tuple[float, int]]:
    """Each tenant's starting ``(clock, index epoch)``: what the parent
    resets the tenant's front to."""
    return {t: (d.now, d.index_epoch) for t, d in deployments.items()}


def _shard_worker_main(
    conn,
    shard: str,
    tenant_payloads: List[Tuple[str, Dict[str, object]]],
    plugins: Dict[str, object],
) -> None:
    """One shard worker: boot the assigned tenants, announce readiness
    with ``("ready", shard, {tenant: (clock, epoch)})``, then execute
    lockstep commands until ``close``.

    Commands (parent → worker):
      ``("batch", [(tenant, [window, ...]), ...])`` →
      ``("windows", [[result, ...], ...])``: each window is a list of
      ``(attr, bucket_lo, bucket_hi)`` groups, and each result is
      :func:`~repro.service.gateway.run_window`'s ``(epoch before the
      advance, clock after it, epoch after it, readings per group)``,
      in command order;
      ``("adopt", [(tenant, spec_dict), ...])`` → boot the re-placed
      tenants and reply ``("adopted", {tenant: (clock, epoch)})``
      (``("adopt_error", message)`` on a boot failure — the worker
      survives, only the adoption fails);
      ``("close",)`` → ``("closed", shard)``, and the worker exits.

    Any exception outside adoption is reported as ``("fatal", repr)``
    before the worker dies — the parent converts in-flight requests into
    the retryable :class:`~repro.service.api.ShardRestartingError` and
    respawns.
    """
    try:
        from repro.experiments import registry

        # Same plug-in re-registration as the campaign pool's workers:
        # under spawn the child registry holds only the built-ins.
        for name, factory in plugins.items():
            if not registry.is_registered(name):
                registry.register_policy(name, factory)

        deployments = _boot_tenants(tenant_payloads)
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("boot_error", shard, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    conn.send(("ready", shard, _starts(deployments)))
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "batch":
                results = [
                    [run_window(deployments[tenant], w) for w in windows]
                    for tenant, windows in command[1]
                ]
                conn.send(("windows", results))
            elif op == "adopt":
                try:
                    adopted = _boot_tenants(command[1])
                except Exception as exc:  # noqa: BLE001 — adoption-scoped
                    conn.send(("adopt_error", f"{type(exc).__name__}: {exc}"))
                    continue
                deployments.update(adopted)
                conn.send(("adopted", _starts(adopted)))
            elif op == "close":
                conn.send(("closed", shard))
                return
            else:
                conn.send(("fatal", f"unknown shard command {op!r}"))
                return
    except (EOFError, KeyboardInterrupt):
        return
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side gateway
# ----------------------------------------------------------------------
class _WorkerDied(Exception):
    """A lockstep exchange ended in worker death; the message is the
    supervisor's reason."""


async def _await_exit(
    exited: "asyncio.Future", timeout: float, *escalations: Callable[[], None]
) -> None:
    """Wait up to ``timeout`` seconds for a worker's exit future; while
    it is still pending, apply the next escalation (terminate, kill) and
    wait again."""
    await asyncio.wait([exited], timeout=timeout)
    for escalate in escalations:
        if exited.done():
            return
        escalate()
        await asyncio.wait([exited], timeout=timeout)


class _Shard:
    """Parent-side handle of one worker: process, pipe, request queue,
    and the supervision bookkeeping (state, restart counters)."""

    def __init__(self, name: str):
        self.name = name
        self.process = None
        self.conn = None
        #: resolved by the exit-sentinel reader once the process exits.
        self.exited: Optional["asyncio.Future"] = None
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.state = BOOTING
        self.failed: Optional[str] = None
        self.supervisor: Optional[asyncio.Task] = None
        #: entries shipped to (or being assembled for) the worker; the
        #: supervisor fails these typed when the worker dies mid-batch.
        self.inflight: List[tuple] = []
        #: per tenant, requests queued unsettled because the tenant had
        #: something queued or in flight when they arrived.
        self.held: "Counter[str]" = Counter()
        # -- supervision counters (surfaced in ServiceStats.shards) ----
        #: respawns so far, which the backoff budget bounds.
        self.restarts = 0
        self.replacements = 0
        self.last_exit: Optional[int] = None


class ShardedGateway:
    """Tenants sharded across supervised worker processes, one asyncio
    front — the gateway :class:`~repro.service.server.ScoopServer`
    serves. ``await answer(request)`` returns a
    :class:`~repro.service.api.QueryAnswer` or raises a
    :class:`~repro.service.api.ServiceFault` subclass.
    """

    def __init__(
        self,
        spec,
        tenants: int = 1,
        workers: int = 1,
        base_seed: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
    ):
        if tenants < 1:
            raise ValueError(f"need at least one tenant, got {tenants}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.spec = spec
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        seed0 = spec.seed if base_seed is None else base_seed
        names = [f"tenant{i}" for i in range(tenants)]
        #: tenant -> spec payload (the campaign pool's serialization).
        #: Retained for the worker's whole life: respawn and re-placement
        #: both re-create tenants from these via the same seed ladder.
        self._payloads = {
            name: dataclasses.replace(spec, seed=seed0 + i).to_dict()
            for i, name in enumerate(names)
        }
        #: shards placed at start; a retired shard still counts.
        self.workers = min(workers, tenants)
        #: tenant -> shard name, in tenant order: the only record of
        #: placement. A re-placement flips entries.
        self._shard_of = round_robin(
            names, [shard_name(i) for i in range(self.workers)]
        )
        self._shards: Dict[str, _Shard] = {}
        #: tenant -> serving front, set from each ``ready`` and
        #: ``adopted`` reply (see the module docstring).
        self._fronts: Dict[str, ServingFront] = {}
        #: set once every shard's first boot has concluded (ready or
        #: terminal), or early by a boot error.
        self.ready = asyncio.Event()
        self._closed = False
        self._boot_error: Optional[str] = None
        self._plugins: Dict[str, object] = {}
        #: injectable for the fake-clock supervisor tests.
        self._sleep = asyncio.sleep

    # -- lifecycle -----------------------------------------------------
    @property
    def tenants(self) -> List[str]:
        return sorted(self._shard_of)

    def shard_of(self, tenant: str) -> str:
        return self._shard_of[tenant]

    def _tenants_on(self, shard: _Shard) -> List[str]:
        """The tenants placed on ``shard``, in tenant order."""
        return [t for t, name in self._shard_of.items() if name == shard.name]

    def shard_states(self) -> Dict[str, str]:
        """Current supervision state per shard (diagnostics, tests)."""
        return {name: shard.state for name, shard in self._shards.items()}

    async def start(self) -> None:
        """Spawn the worker pool and the per-shard supervisor tasks.

        Returns immediately — workers boot their deployments in the
        background and report ``ready`` over their pipes;
        :meth:`wait_ready` (or the HELLO handshake) blocks on that.
        """
        from repro.experiments import registry

        self._plugins = registry.plugin_policies()
        for i in range(self.workers):
            shard = _Shard(shard_name(i))
            self._spawn(shard)
            self._shards[shard.name] = shard
        for shard in self._shards.values():
            shard.supervisor = asyncio.create_task(
                self._supervise(shard), name=f"supervise-{shard.name}"
            )

    def _spawn(self, shard: _Shard) -> None:
        """(Re)spawn one shard's worker process over a fresh pipe; its
        tenants are re-created from the stored spec payloads. A loop
        reader on the process's exit sentinel resolves ``shard.exited``
        and wakes an idle pump once the worker exits."""
        ctx = multiprocessing.get_context(_START_METHOD)
        parent_conn, child_conn = ctx.Pipe()
        payload = [(t, self._payloads[t]) for t in self._tenants_on(shard)]
        process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard.name, payload, self._plugins),
            name=f"scoop-{shard.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        exited = loop.create_future()

        def on_exit() -> None:
            loop.remove_reader(process.sentinel)
            # The sentinel is readable only once the process has exited,
            # so join() returns at once and makes exitcode trustworthy.
            process.join()
            exited.set_result(process.exitcode)
            # A worker outliving _reap must not wake its successor's pump.
            if process is shard.process:
                shard.queue.put_nowait(
                    ("dead", f"worker exited (exitcode {process.exitcode})")
                )

        loop.add_reader(process.sentinel, on_exit)
        shard.process = process
        shard.conn = parent_conn
        shard.exited = exited

    async def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until every shard's boot concludes (or one fails).

        Every failure mode surfaces as
        :class:`~repro.service.api.ServiceUnavailableError` — including
        the timeout itself, so callers handle one exception family.
        """
        try:
            await asyncio.wait_for(self.ready.wait(), timeout)
        except asyncio.TimeoutError:
            raise ServiceUnavailableError(
                f"shards not ready within {timeout}s"
            ) from None
        if self._closed:
            raise ServiceUnavailableError("gateway is closed")
        if self._boot_error is not None:
            raise ServiceUnavailableError(self._boot_error)

    async def _recv(self, shard: _Shard):
        """Await the next worker message on a loop reader. Readability
        means at least one byte; ``recv()`` then reads the rest, which a
        live worker writes back to back and a dead one ends with EOF."""
        loop = asyncio.get_running_loop()
        fd = shard.conn.fileno()
        readable = asyncio.Event()  # unlike a future, safe to set after a cancel
        loop.add_reader(fd, readable.set)
        try:
            await readable.wait()
        finally:
            loop.remove_reader(fd)
        return shard.conn.recv()

    async def _exchange(self, shard: _Shard, command: tuple):
        """Ship one lockstep command and return the worker's reply;
        raises :class:`_WorkerDied` on pipe failure or a ``fatal`` reply."""
        try:
            shard.conn.send(command)
            reply = await self._recv(shard)
        except (EOFError, OSError) as exc:
            raise _WorkerDied(f"worker pipe failed: {exc}") from exc
        if reply[0] == "fatal":
            raise _WorkerDied(f"worker fatal: {reply[1]}")
        return reply

    # -- supervision ---------------------------------------------------
    def _maybe_ready(self) -> None:
        """Flip the gateway-level ready event once every shard's boot
        has concluded — successfully or terminally."""
        if all(
            s.state == READY or s.state in _TERMINAL_STATES
            for s in self._shards.values()
        ):
            self.ready.set()

    def _death_exception(self, shard: _Shard) -> ServiceFault:
        """The typed fault a request on ``shard`` fails with right now:
        retryable while the shard is (re)booting, terminal otherwise."""
        if shard.state in _RETRYABLE_STATES:
            reason = f": {shard.failed}" if shard.failed else ""
            return ShardRestartingError(
                f"{shard.name} is {shard.state}{reason}; retry shortly"
            )
        return ServiceUnavailableError(
            shard.failed or f"{shard.name} is {shard.state}"
        )

    def _fail_entry(self, entry, exc: ServiceFault) -> None:
        """Settle one queue/in-flight entry with ``exc`` (typed)."""
        if entry is None or entry[0] == "dead":
            return
        future = entry[1]
        if not future.done():
            future.set_exception(exc)

    def _fail_pending(self, shard: _Shard, fault: Callable[[], ServiceFault]) -> None:
        """Fail the in-flight batch and every queued entry, each with its
        own ``fault()`` (``answer()`` stamps its request's seq on it): a
        request sent to a shard that stops serving must never hang until
        the client's timeout. The shard's tenants' fronts drop the misses
        they queued for it, so their backlog reads 0."""
        entries = shard.inflight
        shard.inflight = []
        while not shard.queue.empty():
            entries.append(shard.queue.get_nowait())
        shard.held.clear()
        for tenant in self._tenants_on(shard):
            if tenant in self._fronts:
                self._fronts[tenant].abandon()
        for entry in entries:
            self._fail_entry(entry, fault())

    async def _supervise(self, shard: _Shard) -> None:
        """One shard's supervisor: run the worker, and on death respawn
        with bounded backoff or re-place the tenants when the respawn
        budget is spent (see the module docstring's state machine)."""
        fault = functools.partial(self._death_exception, shard)
        while True:
            outcome = await self._pump(shard)
            if outcome is None or self._closed:
                return
            kind, reason = outcome
            shard.failed = reason
            if kind == "boot_error":
                # The worker itself reported the exception: the spec is
                # broken, every respawn would fail identically.
                self._boot_error = f"{shard.name} failed to boot: {reason}"
                self._mark_failed(shard, reason)
                self.ready.set()  # wake waiters so they can see the failure
            elif shard.restarts < self.backoff.budget:
                shard.state = RESTARTING
            else:
                shard.state = REPLACING
            self._fail_pending(shard, fault)
            # Reap before the second sweep: the exit reader's ``dead``
            # entry is queued by then, so it cannot reach the next
            # incarnation.
            await self._reap(shard)
            self._fail_pending(shard, fault)
            if shard.state == REPLACING:
                await self._replace(shard)
            if shard.state != RESTARTING:
                return await self._drain_until_closed(shard)
            delay = self.backoff.delay(shard.restarts)
            shard.restarts += 1
            await self._sleep(delay)
            if self._closed:
                return
            self._spawn(shard)

    async def _reap(self, shard: _Shard) -> None:
        """Await the dead worker's exit (killing it if it lingers), record
        its exit code, and retire its pipe."""
        process = shard.process
        if process is None:
            return
        await _await_exit(shard.exited, 2.0, process.kill)
        # Only trustworthy after the exit reader's join: reading it at
        # EOF time races the kernel retiring the child (and reads None).
        shard.last_exit = process.exitcode
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass

    def _mark_failed(self, shard: _Shard, reason: str) -> None:
        shard.state = FAILED
        shard.failed = reason
        self._maybe_ready()

    async def _replace(self, shard: _Shard) -> None:
        """Respawn budget exhausted and the worker reaped: re-place the
        shard's tenants across the surviving shards so the service
        degrades instead of dying."""
        survivors = [
            s.name
            for s in self._shards.values()
            if s is not shard and s.state not in _TERMINAL_STATES
        ]
        if not survivors:
            self._mark_failed(
                shard,
                f"{shard.name} worker died {shard.restarts + 1} times "
                "and no shard survives to adopt its tenants",
            )
            return
        plan = round_robin(self._tenants_on(shard), sorted(survivors))
        adopters = sorted(set(plan.values()))
        for survivor_name in adopters:
            survivor = self._shards[survivor_name]
            tenants = [t for t, name in plan.items() if name == survivor_name]
            payload = [(t, self._payloads[t]) for t in tenants]
            future = asyncio.get_running_loop().create_future()
            survivor.queue.put_nowait(("adopt", future, payload))
            try:
                await future
            except ServiceFault:
                # The adopting shard failed too; its own supervisor owns
                # that. These tenants stay on the dead shard and fail
                # unavailable — the rest still re-place.
                continue
            survivor.replacements += len(tenants)
            for tenant in tenants:
                self._shard_of[tenant] = survivor_name
        shard.state = REPLACED
        shard.failed = (
            f"{shard.name} exhausted its respawn budget "
            f"({self.backoff.budget}); tenants re-placed onto {adopters}"
        )
        self._maybe_ready()

    async def _drain_until_closed(self, shard: _Shard) -> None:
        """Terminal-state drainer: anything that still lands on this
        shard's queue (an enqueue racing the state flip) fails typed
        instead of hanging."""
        while not self._closed:
            entry = await shard.queue.get()
            if entry is None:
                return
            self._fail_entry(entry, self._death_exception(shard))

    def chaos_kill_worker(self, shard: Optional[str] = None) -> Optional[str]:
        """Fault injection: SIGKILL one live worker process.

        Kills the named shard's worker, or the first ready one in shard
        order. Returns the shard name killed (``None`` if no worker was
        live). Synchronous, so the loadtest driver can fire it inline
        from a client coroutine mid-load.
        """
        names = [shard] if shard is not None else sorted(self._shards)
        for name in names:
            candidate = self._shards.get(name)
            if candidate is None or candidate.process is None:
                continue
            if candidate.state == READY and candidate.process.is_alive():
                candidate.process.kill()
                return name
        return None

    # -- pump ----------------------------------------------------------
    def _reset_fronts(self, starts: Dict[str, Tuple[float, int]]) -> None:
        """Give each tenant a fresh front at its new deployment's
        starting clock and epoch."""
        for tenant, (now, epoch) in starts.items():
            self._fronts[tenant] = ServingFront(
                tenant, self.spec.scoop, ServiceLimits(), now=now, epoch=epoch
            )

    async def _pump(self, shard: _Shard):
        """One worker incarnation's lockstep driver: readiness first,
        then commands. Returns ``None`` on clean close or a
        ``(kind, reason)`` death outcome for the supervisor."""
        try:
            message = await self._recv(shard)
        except (EOFError, OSError):
            return ("died", "worker pipe closed during boot")
        if message[0] != "ready":
            return ("boot_error", str(message[-1]))
        self._reset_fronts(message[2])
        shard.state = READY
        shard.failed = None
        self._maybe_ready()
        while not self._closed:
            item = await shard.queue.get()
            if item is None:
                return None
            if item[0] == "dead":
                return ("died", item[1])
            batch = [item]
            # The live list doubles as the in-flight record: whatever is
            # in it when the worker dies gets failed by the supervisor.
            shard.inflight = batch
            while not shard.queue.empty():
                extra = shard.queue.get_nowait()
                if extra is None:
                    self._closed = True
                    break
                if extra[0] == "dead":
                    return ("died", extra[1])
                batch.append(extra)
            queries = [entry for entry in batch if entry[0] == "req"]
            adoptions = [entry for entry in batch if entry[0] == "adopt"]
            try:
                if queries:
                    await self._run_queries(shard, queries)
                for _kind, future, payload in adoptions:
                    reply = await self._exchange(shard, ("adopt", payload))
                    if reply[0] == "adopt_error":
                        if not future.done():
                            future.set_exception(
                                ServiceUnavailableError(
                                    f"adoption failed on {shard.name}: "
                                    f"{reply[1]}"
                                )
                            )
                        continue
                    self._reset_fronts(reply[1])
                    if not future.done():
                        future.set_result(sorted(reply[1]))
                shard.inflight = []
            except _WorkerDied as death:
                return ("died", str(death))
        return None

    async def _run_queries(self, shard: _Shard, entries: List[tuple]) -> None:
        """Settle the held requests in arrival order, ship every touched
        tenant's queued windows as one ``batch`` command, and answer the
        misses from the per-window results."""
        misses = []
        for _kind, future, request, ticket in entries:
            if ticket is None:
                shard.held[request.tenant] -= 1
                try:
                    ticket = self._submit(request)
                except MalformedRequestError as fault:
                    if not future.done():
                        future.set_exception(fault)
                    continue
                if ticket.status != "pending":
                    if not future.done():
                        future.set_result(self._answer_of(shard, request, ticket))
                    continue
            misses.append((future, request, ticket))
        if not misses:
            return
        fronts = {r.tenant: self._fronts[r.tenant] for _f, r, _t in misses}
        plan = [(tenant, front.windows()) for tenant, front in fronts.items()]
        _op, results = await self._exchange(shard, ("batch", plan))
        for (tenant, windows), outcomes in zip(plan, results):
            for window, outcome in zip(windows, outcomes):
                fronts[tenant].settle(window, outcome)
        for future, request, ticket in misses:
            if not future.done():
                future.set_result(self._answer_of(shard, request, ticket))

    # -- serving -------------------------------------------------------
    def _submit(self, request: QueryRequest) -> ServiceTicket:
        """Admit ``request`` at its tenant's front (hit, queued miss or
        shed); a malformed request raises typed."""
        try:
            return self._fronts[request.tenant].submit(
                request.attr, request.lo, request.hi
            )
        except ValueError as exc:
            raise MalformedRequestError(str(exc), seq=request.seq) from None

    @staticmethod
    def _answer_of(
        shard: _Shard, request: QueryRequest, ticket: ServiceTicket
    ) -> QueryAnswer:
        return QueryAnswer.from_ticket(ticket, shard=shard.name, seq=request.seq)

    async def answer(self, request: QueryRequest) -> QueryAnswer:
        """Settle one request at its tenant's front, and await the
        worker only for a miss.

        Raises the typed faults: :class:`MalformedRequestError` for
        unknown tenants / invalid ranges, :class:`ShedError` via the
        front's admission control,
        :class:`~repro.service.api.ShardRestartingError` (retryable)
        while the shard's worker is being respawned or its tenants
        re-placed, and :class:`ServiceUnavailableError` when the shard
        is terminally gone. Called before the gateway is :attr:`ready`,
        it waits — the HELLO handshake normally makes that impossible —
        and a :meth:`close` meanwhile fails it as closed.
        """
        if request.tenant not in self._shard_of:
            raise MalformedRequestError(
                f"unknown tenant {request.tenant!r}; one of {self.tenants}",
                seq=request.seq,
            )
        await self.ready.wait()
        if self._closed:
            raise ServiceUnavailableError("gateway is closed", seq=request.seq)
        shard = self._shards[self._shard_of[request.tenant]]
        if shard.state != READY:
            fault = self._death_exception(shard)
            fault.seq = request.seq
            raise fault
        ticket = None
        if self._fronts[request.tenant].backlog or shard.held[request.tenant]:
            # Queued or in flight: the pump settles it after them.
            shard.held[request.tenant] += 1
        else:
            ticket = self._submit(request)
            if ticket.status != "pending":
                return self._answer_of(shard, request, ticket)
        future = asyncio.get_running_loop().create_future()
        shard.queue.put_nowait(("req", future, request, ticket))
        try:
            return await future
        except ServiceFault as fault:
            if fault.seq == 0:
                fault.seq = request.seq
            raise

    # -- telemetry -----------------------------------------------------
    def _scorecard(
        self, shard: _Shard, tenants: Dict[str, Dict[str, float]]
    ) -> Dict[str, float]:
        """One shard's scorecard: the scorecards in ``tenants`` of the
        tenants placed on it now, the worker's pid and the supervision
        counters."""
        process = shard.process
        card = aggregate_shard_stats(
            {t: tenants[t] for t in self._tenants_on(shard) if t in tenants},
            worker_pid=process.pid if process is not None else 0,
        )
        card["restarts"] = float(shard.restarts)
        card["replacements"] = float(shard.replacements)
        card["last_exit"] = float(shard.last_exit or 0)
        return card

    async def service_stats(self) -> ServiceStats:
        """Every tenant's scorecard, read from its front, and every
        shard's. No worker is asked, so this never waits: a restarting
        shard reports its tenants' fronts as the death left them, a
        retired one no tenants, and a closed gateway still answers."""
        tenants = {t: front.snapshot() for t, front in sorted(self._fronts.items())}
        return ServiceStats(
            tenants=tenants,
            shards={
                name: self._scorecard(shard, tenants)
                for name, shard in self._shards.items()
            },
        )

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Wake every waiter on readiness; each re-checks ``closed``.
        self.ready.set()
        for shard in self._shards.values():
            shard.queue.put_nowait(None)
        supervisors = [
            s.supervisor for s in self._shards.values() if s.supervisor is not None
        ]
        for task in supervisors:
            task.cancel()
        await asyncio.gather(*supervisors, return_exceptions=True)
        for shard in self._shards.values():
            try:
                shard.conn.send(("close",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        closed = functools.partial(ServiceUnavailableError, "gateway is closed")
        for shard in self._shards.values():
            process = shard.process
            if process is None:
                continue
            # A worker wedged in uninterruptible boot work can survive
            # terminate(); SIGKILL is the last word — a closed gateway
            # must never leave a live child behind.
            await _await_exit(
                shard.exited, 5.0, process.terminate, process.kill
            )
            try:
                shard.conn.close()
            except OSError:
                pass
            # Nothing may be left hanging on a closed gateway.
            self._fail_pending(shard, closed)
