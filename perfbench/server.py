"""Server launcher for the serve-open workload.

    python3 perfbench/server.py [--trace]

Boots a ``ShardedGateway`` behind a ``ScoopServer`` in this process, so
the load generator runs apart from it, and prints ``{"port": P}`` once
the socket listens (clients' HELLOs then block until every shard has
booted and stabilized). A line on stdin, or its end, stops the server:
before shutting down it prints one JSON report with the service stats,
the peak RSS (``VmHWM``) of itself and each worker, and, with
``--trace``, how long ``ShardedGateway.answer`` took per request and
the time spent in the frame codec. Spawned workers import the program
afresh, so they never see the wrappers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.service import ShardedGateway, serve_framed  # noqa: E402

from layers import Patches, Tracer, span_classmethod, span_method  # noqa: E402
from specs import SERVE_TENANTS, SERVE_WORKERS, serve_spec  # noqa: E402


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def install_server_layers(tracer: Tracer, answer_s: Dict[str, float]) -> Patches:
    """Time ``ShardedGateway.answer`` per request and the server side of
    the frame codec (decode, request parse, response encode)."""
    import repro.service.server as server
    from repro.service.api import QueryRequest
    from repro.service.protocol import FrameDecoder

    patches = Patches()
    answer = ShardedGateway.answer

    async def traced_answer(gateway: Any, request: Any) -> Any:
        started = time.perf_counter()
        try:
            return await answer(gateway, request)
        finally:
            answer_s[f"{request.tenant}:{request.seq}"] = time.perf_counter() - started

    patches.set(ShardedGateway, "answer", traced_answer)
    span_method(patches, tracer, FrameDecoder, "feed", "service.server.codec")
    span_classmethod(patches, tracer, QueryRequest, "from_wire", "service.server.codec")
    span_method(patches, tracer, server, "response_frame", "service.server.codec")
    return patches


async def serve(trace: bool) -> None:
    tracer = Tracer()
    answer_s: Dict[str, float] = {}
    if trace:
        install_server_layers(tracer, answer_s)
    gateway = ShardedGateway(serve_spec(), tenants=SERVE_TENANTS, workers=SERVE_WORKERS)
    await gateway.start()
    server = await serve_framed(gateway)
    try:
        print(json.dumps({"port": server.port}), flush=True)
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
        stats = (await server.service_stats()).to_wire()
        pids = [os.getpid()] + [
            int(shard["worker_pid"]) for shard in stats["shards"].values()
        ]
        report = {
            "stats": stats,
            "peak_rss_mb": {str(pid): peak_rss_mb(pid) for pid in pids},
        }
        if trace:
            report["answer_s"] = answer_s
            report["codec_s"] = tracer.self_s.get("service.server.codec", 0.0)
        print(json.dumps(report), flush=True)
    finally:
        await server.close()
        await gateway.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    asyncio.run(serve(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
