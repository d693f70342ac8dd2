"""Sharded serving: tenants placed across a supervised pool of workers.

PR 7's gateway kept every tenant in one Python process; one busy tenant
starved the rest of the interpreter. :class:`ShardedGateway` places
tenants round-robin onto ``workers`` long-lived worker processes — the
same deterministic-seed and spec-serialization machinery the campaign
pool uses (specs cross the process boundary as
:meth:`ExperimentSpec.to_dict` payloads, plug-in policies re-register in
each worker) — so tenant deployments boot and serve concurrently.

Each worker owns its tenants outright: their resident deployments and
:class:`~repro.service.gateway.TenantService` state never leave the
process, and a tenant's trajectory depends only on its own ordered
request stream. That is the sharding invariant the determinism tests
pin: for a fixed client program, per-tenant answers are identical at
``--workers 1`` and ``--workers 4`` (when no faults are injected).

The parent ↔ worker protocol is deliberately lockstep (one command in
flight per shard, over one :func:`multiprocessing.Pipe`): the parent
pump task batches concurrently arriving requests per shard, ships one
``batch`` command, and awaits the answers — so worker replies can never
interleave and the pipe needs no framing of its own. The pump waits on
the pipe through an event-loop reader, so the parent runs no threads.
Shards are independent; concurrency comes from running one pump per
shard.

Placement lives in one table, tenant → shard name
(``ShardedGateway._shard_of``): a shard's tenants are the ones the table
maps to it, in tenant order, and a re-placement only flips their entries.

Workers announce ``ready`` after their deployments finish boot +
stabilization. :attr:`ShardedGateway.ready` is the one readiness event:
it gates the server's HELLO handshake so first queries can never race
warmup, and :meth:`ShardedGateway.answer` waits on it too.

Replies carry answers only. A tenant scorecard sorts every latency the
tenant has served, so workers build scorecards only when a ``stats``
probe asks, and the parent folds each shard's last probe into its shard
scorecard in one place (:meth:`ShardedGateway._scorecard`), keeping
only the tenants placed on that shard now.

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
flips — the service degrades instead of dying. Per-shard ``restarts`` /
``replacements`` / ``last_exit`` counters surface in
``ServiceStats.shards`` and the METRICS push. A restarting shard reports
its last probe with them; a retired shard reports no tenants, and a
re-placed tenant's scorecard restarts at 0 on its adopter, which boots
it afresh.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.api import (
    MalformedRequestError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceFault,
    ServiceStats,
    ServiceUnavailableError,
    ShardRestartingError,
    aggregate_shard_stats,
    error_to_exception,
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
    ``{tenant: TenantService}`` dict (shared by initial boot and
    re-placement adoption)."""
    from repro.experiments.runner import ExperimentSpec
    from repro.service.deployment import Deployment
    from repro.service.gateway import TenantService

    services = {}
    for tenant, spec_dict in tenant_payloads:
        spec = ExperimentSpec.from_dict(spec_dict)
        deployment = Deployment.create(spec)
        deployment.boot()
        deployment.stabilize()
        services[tenant] = TenantService(tenant, deployment)
    return services


def _shard_worker_main(
    conn,
    shard: str,
    tenant_payloads: List[Tuple[str, Dict[str, object]]],
    plugins: Dict[str, object],
) -> None:
    """One shard worker: boot the assigned tenants, announce readiness,
    then serve lockstep commands until ``close``.

    Commands (parent → worker):
      ``("batch", [(req_id, tenant, attr, lo, hi), ...])`` →
      ``("answers", [(req_id, kind, payload)])`` with
      ``kind`` of ``ok``/``shed`` (payload = answer wire dict) or
      ``error`` (payload = (code, message));
      ``("stats",)`` → ``("stats", {tenant: scorecard})``, the only
      reply that builds scorecards;
      ``("adopt", [(tenant, spec_dict), ...])`` → boot the re-placed
      tenants and reply ``("adopted", [tenant, ...])``
      (``("adopt_error", message)`` on a boot failure — the worker
      survives, only the adoption fails);
      ``("close",)`` → worker exits.

    Any exception outside per-request handling is reported as
    ``("fatal", repr)`` before the worker dies — the parent converts
    in-flight requests into the retryable
    :class:`~repro.service.api.ShardRestartingError` and respawns.
    """
    try:
        from repro.experiments import registry

        # Same plug-in re-registration as the campaign pool's workers:
        # under spawn the child registry holds only the built-ins.
        for name, factory in plugins.items():
            if not registry.is_registered(name):
                registry.register_policy(name, factory)

        services = _boot_tenants(tenant_payloads)
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("boot_error", shard, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    conn.send(("ready", shard))
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "close":
                conn.send(("closed", shard))
                return
            if op == "stats":
                cards = {name: svc.snapshot() for name, svc in services.items()}
                conn.send(("stats", cards))
                continue
            if op == "adopt":
                try:
                    adopted = _boot_tenants(command[1])
                except Exception as exc:  # noqa: BLE001 — adoption-scoped
                    conn.send(
                        ("adopt_error", f"{type(exc).__name__}: {exc}")
                    )
                    continue
                services.update(adopted)
                conn.send(("adopted", sorted(adopted)))
                continue
            if op != "batch":
                conn.send(("fatal", f"unknown shard command {op!r}"))
                return
            requests = command[1]
            tickets: List[Tuple[int, object]] = []  # (req_id, ticket|fault)
            touched = {}
            for req_id, tenant, attr, lo, hi in requests:
                service = services.get(tenant)
                if service is None:
                    tickets.append(
                        (req_id, ("malformed", f"unknown tenant {tenant!r}"))
                    )
                    continue
                try:
                    ticket = service.submit(attr, lo, hi)
                except ValueError as exc:
                    tickets.append((req_id, ("malformed", str(exc))))
                    continue
                tickets.append((req_id, ticket))
                touched[tenant] = service
            # Drain every touched tenant's backlog: batch capacity may
            # need several windows for a burst.
            for service in touched.values():
                while service.backlog:
                    service.process_batch()
            answers = []
            for req_id, outcome in tickets:
                if isinstance(outcome, tuple):
                    answers.append((req_id, "error", outcome))
                else:
                    answer = QueryAnswer.from_ticket(outcome, shard=shard)
                    answers.append((req_id, answer.status, answer.to_wire()))
            conn.send(("answers", answers))
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
        #: the tenant scorecards of the last ``stats`` probe.
        self.tenant_stats: Dict[str, Dict[str, float]] = {}
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
        the client's timeout."""
        entries = shard.inflight
        shard.inflight = []
        while not shard.queue.empty():
            entries.append(shard.queue.get_nowait())
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
    async def _pump(self, shard: _Shard):
        """One worker incarnation's lockstep driver: readiness first,
        then batches. Returns ``None`` on clean close or a
        ``(kind, reason)`` death outcome for the supervisor."""
        try:
            message = await self._recv(shard)
        except (EOFError, OSError):
            return ("died", "worker pipe closed during boot")
        if message[0] != "ready":
            return ("boot_error", str(message[-1]))
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
            probes = [entry for entry in batch if entry[0] == "stats"]
            adoptions = [entry for entry in batch if entry[0] == "adopt"]
            try:
                if queries:
                    requests = [
                        (i, r.tenant, r.attr, r.lo, r.hi)
                        for i, (_kind, _future, r) in enumerate(queries)
                    ]
                    _op, answers = await self._exchange(shard, ("batch", requests))
                    self._settle_batch(queries, answers)
                if probes:
                    _op, shard.tenant_stats = await self._exchange(shard, ("stats",))
                    for _kind, future in probes:
                        if not future.done():
                            future.set_result(shard.tenant_stats)
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
                    if not future.done():
                        future.set_result(list(reply[1]))
                shard.inflight = []
            except _WorkerDied as death:
                return ("died", str(death))
        return None

    def _settle_batch(self, queries, answers) -> None:
        """Resolve one lockstep batch's futures from the worker's answers."""
        by_id = {req_id: (kind, payload) for req_id, kind, payload in answers}
        for i, (_kind, future, request) in enumerate(queries):
            if future.done():
                continue
            kind, payload = by_id.get(
                i, ("error", ("unavailable", "no answer from shard"))
            )
            if kind == "error":
                code, message = payload
                future.set_exception(
                    error_to_exception(
                        ServiceError(code=code, message=message, seq=request.seq)
                    )
                )
            else:
                future.set_result(QueryAnswer.from_wire(payload))

    # -- serving -------------------------------------------------------
    async def answer(self, request: QueryRequest) -> QueryAnswer:
        """Route one request to its tenant's shard and await the answer.

        Raises the typed faults: :class:`MalformedRequestError` for
        unknown tenants / invalid ranges, :class:`ShedError` via the
        shard's admission control,
        :class:`~repro.service.api.ShardRestartingError` (retryable)
        while the shard's worker is being respawned or its tenants
        re-placed, and :class:`ServiceUnavailableError` when the shard
        is terminally gone. Called before the gateway is :attr:`ready`,
        it waits — the HELLO handshake normally makes that impossible.
        """
        if self._closed:
            raise ServiceUnavailableError("gateway is closed", seq=request.seq)
        if request.tenant not in self._shard_of:
            raise MalformedRequestError(
                f"unknown tenant {request.tenant!r}; one of {self.tenants}",
                seq=request.seq,
            )
        await self.ready.wait()
        shard = self._shards[self._shard_of[request.tenant]]
        if shard.state != READY:
            fault = self._death_exception(shard)
            fault.seq = request.seq
            raise fault
        future = asyncio.get_running_loop().create_future()
        shard.queue.put_nowait(("req", future, request))
        try:
            answer = await future
        except ServiceFault as fault:
            if fault.seq == 0:
                fault.seq = request.seq
            raise
        if answer.seq != request.seq:
            answer = dataclasses.replace(answer, seq=request.seq)
        return answer

    # -- telemetry -----------------------------------------------------
    def _last_probe(self, shard: _Shard) -> Dict[str, Dict[str, float]]:
        """``shard``'s last probed tenant scorecards, for the tenants
        placed on it now: a re-placed tenant reports from its adopter, so
        a retired shard reports none."""
        return {
            tenant: card
            for tenant, card in shard.tenant_stats.items()
            if self._shard_of[tenant] == shard.name
        }

    def _scorecard(self, shard: _Shard) -> Dict[str, float]:
        """One shard's scorecard: its tenants' last probed scorecards,
        the worker's pid and the supervision counters, which only the
        parent knows."""
        process = shard.process
        card = aggregate_shard_stats(
            self._last_probe(shard),
            worker_pid=process.pid if process is not None else 0,
        )
        card["restarts"] = float(shard.restarts)
        card["replacements"] = float(shard.replacements)
        card["last_exit"] = float(shard.last_exit or 0)
        return card

    async def service_stats(self) -> ServiceStats:
        """Probe every ready shard for fresh tenant scorecards (the probe
        rides the same lockstep pump as queries, so it can never
        interleave a batch) and build every shard's scorecard. A shard
        mid-restart reports its last probe and a retired one no tenants;
        a closed gateway probes nothing."""
        loop = asyncio.get_running_loop()
        probes: Dict[str, "asyncio.Future"] = {}
        for shard in self._shards.values():
            if shard.state == READY and not self._closed:
                probes[shard.name] = loop.create_future()
                shard.queue.put_nowait(("stats", probes[shard.name]))
        tenants: Dict[str, Dict[str, float]] = {}
        for name, future in probes.items():
            try:
                tenants.update(await future)
            except ServiceFault:
                # Died mid-probe: its last probe stands.
                tenants.update(self._last_probe(self._shards[name]))
        return ServiceStats(
            tenants=tenants,
            shards={
                name: self._scorecard(shard)
                for name, shard in self._shards.items()
            },
        )

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
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
