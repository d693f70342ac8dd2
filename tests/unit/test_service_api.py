"""The public service API: typed request/answer/error/stats dataclasses,
the exception ↔ wire-code mapping, shard-stat aggregation, and a
golden-bytes pin of an answer's RESPONSE frame.
"""

import pytest

from repro.service.api import (
    MAX_WIRE_READINGS,
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
    aggregate_shard_stats,
    error_to_exception,
    exception_to_error,
)
from repro.service.gateway import ServiceTicket
from repro.service.protocol import response_frame


class TestQueryRequest:
    def test_wire_round_trip(self):
        request = QueryRequest(tenant="t3", attr=2, lo=5, hi=90, seq=17)
        assert QueryRequest.from_wire(request.to_wire()) == request

    def test_open_bounds_survive(self):
        request = QueryRequest(lo=None, hi=None)
        again = QueryRequest.from_wire(request.to_wire())
        assert again.lo is None and again.hi is None

    def test_bad_payload_is_malformed(self):
        with pytest.raises(MalformedRequestError):
            QueryRequest.from_wire({"attr": "not-an-int"})

    def test_frozen(self):
        with pytest.raises(Exception):
            QueryRequest().tenant = "other"  # type: ignore[misc]


class TestQueryAnswer:
    def _ticket(self, n_readings=3) -> ServiceTicket:
        ticket = ServiceTicket(
            seq=4, tenant="t0", attr=1, lo=10, hi=40, arrival=100.0
        )
        ticket.status = "ok"
        ticket.readings = [(10 + i, 101.5, i) for i in range(n_readings)]
        ticket.latency_s = 1.23456789
        ticket.cache_hit = True
        ticket.staleness_s = 0.000000123
        ticket.epoch = 2
        return ticket

    def test_from_ticket_rounds_and_truncates(self):
        answer = QueryAnswer.from_ticket(self._ticket(60), shard="shard1")
        assert answer.latency_s == round(1.23456789, 6)
        assert answer.staleness_s == round(0.000000123, 6)
        assert answer.n_readings == 60
        assert len(answer.readings) == MAX_WIRE_READINGS
        assert answer.shard == "shard1"
        assert answer.ok

    def test_wire_round_trip(self):
        answer = QueryAnswer.from_ticket(self._ticket(), shard="shard0")
        assert QueryAnswer.from_wire(answer.to_wire()) == answer

    def test_golden_bytes_pinned_literal(self):
        """The exact RESPONSE frame bytes of one answer: length prefix,
        header (type, version, seq) and the sorted-key JSON payload. A
        change here is a wire change and needs a PROTOCOL_VERSION bump."""
        ticket = ServiceTicket(
            seq=1, tenant="tenant0", attr=0, lo=10, hi=30, arrival=600.0
        )
        ticket.status = "ok"
        ticket.readings = [(12, 600.0, 3)]
        ticket.latency_s = 8.0
        ticket.epoch = 0
        answer = QueryAnswer.from_ticket(ticket, shard="shard0")
        assert response_frame(answer) == (
            b"\x00\x00\x00\xc1\x04\x01\x00\x00\x00\x01"
            b'{"attr":0,"cache_hit":false,"epoch":0,"hi":30,"latency_s":8.0,'
            b'"lo":10,"n_readings":1,"readings":[[12,600.0,3]],"seq":1,'
            b'"shard":"shard0","staleness_s":0.0,"status":"ok",'
            b'"tenant":"tenant0"}'
        )

    def test_bad_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            QueryAnswer.from_wire({"tenant": "t"})


class TestFaultMapping:
    @pytest.mark.parametrize(
        "exc_type, code",
        [
            (ShedError, "shed"),
            (MalformedRequestError, "malformed"),
            (ProtocolVersionError, "version"),
            (ProtocolError, "protocol"),
            (ServiceUnavailableError, "unavailable"),
            (ShardRestartingError, "retry"),
        ],
    )
    def test_round_trip(self, exc_type, code):
        error = exception_to_error(exc_type("boom", seq=9))
        assert error.code == code and error.seq == 9
        back = error_to_exception(error)
        assert isinstance(back, exc_type)
        assert back.seq == 9 and "boom" in str(back)

    def test_unknown_code_degrades_to_base_fault(self):
        exc = error_to_exception(ServiceError(code="martian", message="m"))
        assert isinstance(exc, ServiceFault)
        assert exc.code == "martian"

    def test_service_error_wire_round_trip(self):
        error = ServiceError(code="shed", message="overloaded", seq=3)
        assert ServiceError.from_wire(error.to_wire()) == error


class TestServiceStats:
    def test_wire_round_trip(self):
        stats = ServiceStats(
            tenants={"tenant0": {"requests_served": 3.0}},
            shards={"shard0": {"tenants": 1.0}},
            protocol={"frames_in": 7.0},
        )
        assert ServiceStats.from_wire(stats.to_wire()) == stats


class TestAggregateShardStats:
    def test_counters_sum_and_rates_recompute(self):
        tenants = {
            "a": {
                "requests_offered": 10.0,
                "requests_served": 8.0,
                "requests_shed": 2.0,
                "cache_hits": 4.0,
                "backlog": 1.0,
                "queries_issued": 5.0,
                "latency_p95_s": 8.0,
            },
            "b": {
                "requests_offered": 30.0,
                "requests_served": 30.0,
                "requests_shed": 0.0,
                "cache_hits": 0.0,
                "backlog": 2.0,
                "queries_issued": 9.0,
                "latency_p95_s": 16.0,
            },
        }
        agg = aggregate_shard_stats(tenants, worker_pid=42)
        assert agg["tenants"] == 2.0
        assert agg["worker_pid"] == 42.0
        assert agg["requests_offered"] == 40.0
        assert agg["requests_shed"] == 2.0
        assert agg["shed_rate"] == pytest.approx(2.0 / 40.0)
        assert agg["cache_hit_rate"] == pytest.approx(4.0 / 38.0)
        assert agg["queue_depth"] == 3.0
        # Worst tenant's p95, not a mean of means.
        assert agg["latency_p95_s"] == 16.0

    def test_empty_shard(self):
        agg = aggregate_shard_stats({})
        assert agg["tenants"] == 0.0
        assert agg["shed_rate"] == 0.0
        assert agg["latency_p95_s"] == 0.0
        # A shard before its first probe, or a retired one, still sends
        # floats: ServiceStats.shards is Dict[str, Dict[str, float]].
        assert {k: type(v) for k, v in agg.items()} == dict.fromkeys(agg, float)


def test_version_constant_is_one():
    # Bumping PROTOCOL_VERSION is an intentional compatibility event;
    # this pin makes it a conscious edit, not a drive-by.
    assert PROTOCOL_VERSION == 1
