"""Scoop as a service: resident deployments, shards, protocol, client.

:class:`~repro.service.deployment.Deployment` is the canonical way to
wire and run a Scoop network — the batch runner
(:func:`repro.experiments.runner.run_experiment`) is a thin driver over
it. Batch trials serve their offered load in-process through
:func:`~repro.service.loadtest.drive_load`, which is what the oracle and
cache-replay gates pin. Live serving places tenants across a pool of
worker processes with :class:`~repro.service.shard.ShardedGateway`,
served over TCP by :class:`~repro.service.server.ScoopServer` speaking
the framed protocol of :mod:`repro.service.protocol`; the client entry
point is :class:`~repro.service.client.AsyncScoopClient`. The only types
crossing that boundary are the frozen dataclasses of
:mod:`repro.service.api` (:class:`~repro.service.api.QueryRequest`,
:class:`~repro.service.api.QueryAnswer`, ...) and its typed exceptions.
"""

from repro.service.api import (
    PROTOCOL_VERSION,
    MalformedRequestError,
    ProtocolError,
    ProtocolVersionError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceFault,
    ServiceStats,
    ServiceUnavailableError,
    ShardRestartingError,
    ShedError,
)
from repro.service.client import AsyncScoopClient
from repro.service.deployment import Deployment
from repro.service.gateway import ServiceLimits
from repro.service.loadtest import (
    answers_digest,
    build_arrivals,
    build_client_program,
    drive_load,
    drive_socket_load,
)
from repro.service.server import ScoopServer, serve_framed
from repro.service.shard import BackoffPolicy, ShardedGateway

# ServiceTicket / ServingFront / TenantService / AnswerCache / run_window
# are deliberately NOT re-exported: they are gateway internals, and a test
# (tests/unit/test_api_boundary.py) fails any outside import of them.

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncScoopClient",
    "BackoffPolicy",
    "Deployment",
    "MalformedRequestError",
    "ProtocolError",
    "ProtocolVersionError",
    "QueryAnswer",
    "QueryRequest",
    "ScoopServer",
    "ServiceError",
    "ServiceFault",
    "ServiceLimits",
    "ServiceStats",
    "ServiceUnavailableError",
    "ShardRestartingError",
    "ShardedGateway",
    "ShedError",
    "answers_digest",
    "build_arrivals",
    "build_client_program",
    "drive_load",
    "drive_socket_load",
    "serve_framed",
]
