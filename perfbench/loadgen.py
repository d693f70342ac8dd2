"""Open-loop load from one asyncio thread against a launched server.

Each launch starts ``server.py`` in its own process and times set-up
from the launch to the first WELCOME, which the server sends only once
every shard has booted and stabilized. The load itself follows a
schedule built up front (``specs.open_loop_schedule``): each request is
sent when it is due, whatever is still outstanding, over one connection
per tenant, and its latency runs from the due time to its answer, so
a stall also delays the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.service import AsyncScoopClient, QueryAnswer, ServiceFault, ShedError

from layers import Patches, Tracer, span_classmethod, span_method
from specs import Offer

SERVER = Path(__file__).resolve().parent / "server.py"

#: A request with no outcome this long after it was due has failed.
DEADLINE_S = 10.0
#: Bound on a launch reaching its first WELCOME, and on shutting down.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: The load starts this long after the clients connected.
LEAD_S = 0.25


@dataclass
class Outcome:
    """What became of one offered request; times are seconds."""

    status: str
    late_s: float
    latency_s: float = math.inf
    rtt_s: float = math.inf
    #: ``tenant:seq`` of the answer, matching the server's answer times
    key: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Launch:
    """One server process: started by :meth:`start`, reaped by
    :meth:`stop` (which returns the server's report) or :meth:`kill`."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int, launched: float):
        self.proc = proc
        self.port = port
        self.launched = launched

    @classmethod
    async def start(cls, trace: bool, env: Dict[str, str]) -> "Launch":
        launched = time.perf_counter()
        args = [str(SERVER)] + (["--trace"] if trace else [])
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), BOOT_TIMEOUT_S)
            port = int(json.loads(line)["port"])
        except BaseException:
            await _reap(proc)
            raise
        return cls(proc, port, launched)

    async def connect(self, name: str) -> AsyncScoopClient:
        client = AsyncScoopClient("127.0.0.1", self.port, name=name, retries=0)
        await asyncio.wait_for(client.connect(), BOOT_TIMEOUT_S)
        return client

    async def stop(self) -> dict:
        self.proc.stdin.write(b"stop\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), STOP_TIMEOUT_S)
        self.proc.stdin.close()
        await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        return json.loads(line)

    async def kill(self) -> None:
        await _reap(self.proc)


async def _reap(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.kill()
        await proc.wait()


def answer_ok(offer: Offer, answer: QueryAnswer) -> bool:
    """The answer echoes its request and every reading lies in range."""
    return (
        answer.ok
        and (answer.tenant, answer.attr, answer.lo, answer.hi)
        == (offer.tenant, offer.attr, offer.lo, offer.hi)
        and all(offer.lo <= value <= offer.hi for value, _t, _node in answer.readings)
    )


async def offer_load(
    clients: Dict[str, AsyncScoopClient], schedule: Sequence[Offer]
) -> List[Outcome]:
    """Send every offer when it is due; one outcome per offer."""
    loop = asyncio.get_running_loop()
    start = loop.time() + LEAD_S

    async def one(offer: Offer, due: float) -> Outcome:
        sent = loop.time()
        late = sent - due
        try:
            answer = await asyncio.wait_for(
                clients[offer.tenant].query(
                    tenant=offer.tenant, attr=offer.attr, lo=offer.lo, hi=offer.hi
                ),
                timeout=max(0.0, due + DEADLINE_S - sent),
            )
        except ShedError:
            return Outcome("shed", late)
        except asyncio.TimeoutError:
            return Outcome("timeout", late)
        except ServiceFault as fault:
            return Outcome(fault.code, late)
        done = loop.time()
        status = "ok" if answer_ok(offer, answer) else "wrong"
        return Outcome(status, late, done - due, done - sent, f"{offer.tenant}:{answer.seq}")

    tasks = []
    for offer in schedule:
        due = start + offer.offset_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(offer, due)))
    return list(await asyncio.gather(*tasks))


def install_client_codec(tracer: Tracer) -> Patches:
    """Time the generator's side of the frame codec: request encode,
    frame decode and answer parse."""
    import repro.service.client as client
    from repro.service.protocol import FrameDecoder

    patches = Patches()
    span_method(patches, tracer, client, "request_frame", "service.client.codec")
    span_method(patches, tracer, FrameDecoder, "feed", "service.client.codec")
    span_classmethod(patches, tracer, QueryAnswer, "from_wire", "service.client.codec")
    return patches


async def setup_only(env: Dict[str, str]) -> float:
    """Launch, wait for the first WELCOME, shut down; the set-up time."""
    launch = await Launch.start(False, env)
    try:
        client = await launch.connect("perfbench-setup")
        welcomed = time.perf_counter() - launch.launched
        await client.aclose()
        await launch.stop()
    finally:
        await launch.kill()
    return welcomed


async def serve_run(
    schedule: Sequence[Offer], tenants: Sequence[str], env: Dict[str, str], trace: bool
) -> dict:
    """Launch a server, offer the schedule, stop it. Returns set-up time,
    outcomes, the server's report and (traced) client codec seconds."""
    launch = await Launch.start(trace, env)
    tracer = Tracer()
    try:
        clients = {}
        for tenant in tenants:
            clients[tenant] = await launch.connect(f"perfbench-{tenant}")
            if len(clients) == 1:
                setup_s = time.perf_counter() - launch.launched
        patches = install_client_codec(tracer) if trace else Patches()
        try:
            outcomes = await offer_load(clients, schedule)
        finally:
            patches.restore()
        for client in clients.values():
            await client.aclose()
        report = await launch.stop()
    finally:
        await launch.kill()
    return {
        "setup_s": setup_s,
        "outcomes": outcomes,
        "report": report,
        "client_codec_s": tracer.self_s.get("service.client.codec", 0.0),
    }
