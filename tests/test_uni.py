from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnfv.cnc import CncState
from tsnfv.errors import (
    DecodeError,
    UnknownDomainError,
    ValidationError,
)
from tsnfv.model import (
    DataFrameSpec,
    EndpointRef,
    HopReservation,
    StreamRequirement,
    StreamSchedule,
    TrafficSpec,
)
from tsnfv.topology import DOMAIN_KINDS, shortest_path
from tsnfv.uni import (
    CapabilityQuery,
    REFERENCE_POINTS,
    CncService,
    Dispatcher,
    RemoveStream,
    StreamRequest,
    UniResponse,
    decode_message,
    decode_routed,
    encode_message,
    encode_routed,
    reference_point,
)


def _requirement(sid="vl1~fwd"):
    return StreamRequirement(
        stream_id=sid,
        talker=EndpointRef("vnfA", "eth0", "A"),
        listener=EndpointRef("vnfC", "eth0", "C"),
        frame=DataFrameSpec("02:00:00:00:00:01", "02:00:00:00:00:02", 100, 7),
        traffic=TrafficSpec(250_000, 500, 1, 2_000_000),
    )


def _stream_request(topology, rid="req-0001"):
    return StreamRequest(
        request_id=rid,
        requirement=_requirement(),
        hops=shortest_path(topology, "A", "C").hops,
        latency_budget_ns=2_000_000,
        entry_offset_ns=0,
        entry_stride_ns=0,
    )


def _service(topology):
    state = CncState(domain_id="d1", topology=topology)
    return CncService(state)


class TestCodec:
    def test_stream_request_round_trip(self, intra_topology):
        msg = _stream_request(intra_topology)
        assert decode_message(encode_message(msg)) == msg

    def test_remove_round_trip(self):
        msg = RemoveStream("req-0002", "vl1~fwd")
        assert decode_message(encode_message(msg)) == msg

    def test_capability_round_trip(self):
        msg = CapabilityQuery("req-0003")
        assert decode_message(encode_message(msg)) == msg

    def test_response_round_trip(self):
        schedule = StreamSchedule(
            "vl1~fwd",
            (HopReservation("A.p0", 0, 4160, 7, "vl1~fwd", 0),),
            10_320,
            250_000,
        )
        ok = UniResponse("req-0001", "ok", schedule=schedule, domain_id="d1")
        assert decode_message(encode_message(ok)) == ok
        failed = UniResponse(
            "req-0004", "failed", cause="no_free_window", detail="port full", domain_id="d1"
        )
        assert decode_message(encode_message(failed)) == failed

    def test_golden_line(self):
        line = encode_message(RemoveStream("req-0001", "vl1~fwd"))
        assert line == b'{"kind":"remove_stream","request_id":"req-0001","stream_id":"vl1~fwd"}\n'

    @pytest.mark.parametrize(
        "line",
        [
            b"{truncated",
            b"[]",
            b'"just a string"',
            b'{"kind": "teleport", "request_id": "r"}',
            b'{"kind": "remove_stream"}',
            b'{"kind": "stream_request", "request_id": "r", "hops": [], "latency_budget_ns": 5, "requirement": {}}',
            b"\xff\xfe",
            b'{"kind": "remove_stream", "request_id": "r", "stream_id": "s", "color": "blue"}',
            b'{"kind": "remove_stream", "request_id": "r", "stream_id": 7}',
            b'{"kind": "capability_query", "request_id": "r", "entry_offset_ns": true}',
        ],
    )
    def test_decode_errors(self, line):
        with pytest.raises(DecodeError):
            decode_message(line)

    def test_response_status_validation(self):
        with pytest.raises(ValidationError):
            UniResponse("r", "maybe")
        with pytest.raises(ValidationError):
            UniResponse("r", "failed", cause="bad_weather")

    @given(
        rid=st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True),
        sid=st.from_regex(r"[A-Za-z0-9_~-]{1,12}", fullmatch=True),
    )
    def test_remove_round_trip_property(self, rid, sid):
        msg = RemoveStream(rid, sid)
        assert decode_message(encode_message(msg)) == msg


class TestRouting:
    def test_routed_round_trip(self, intra_topology):
        msg = _stream_request(intra_topology)
        domain, decoded = decode_routed(encode_routed(msg, "d1"))
        assert domain == "d1"
        assert decoded == msg

    def test_routed_requires_domain(self):
        with pytest.raises(DecodeError):
            decode_routed(encode_message(RemoveStream("r", "s")))

    def test_every_domain_kind_has_a_reference_point(self):
        assert sorted(REFERENCE_POINTS) == sorted(DOMAIN_KINDS)


class TestCncService:
    def test_admits_a_request(self, intra_topology):
        service = _service(intra_topology)
        response = service.handle(_stream_request(intra_topology))
        assert response.status == "ok"
        assert response.domain_id == "d1"
        assert response.schedule.e2e_latency_ns == 10_320
        assert "vl1~fwd" in service.state.admitted

    def test_budget_failure_cause(self, intra_topology):
        service = _service(intra_topology)
        msg = StreamRequest(
            request_id="req-0001",
            requirement=_requirement(),
            hops=shortest_path(intra_topology, "A", "C").hops,
            latency_budget_ns=5,
        )
        response = service.handle(msg)
        assert (response.status, response.cause) == ("failed", "infeasible_budget")

    def test_foreign_hop_rejected(self, cross_topology):
        state = CncState(domain_id="d1", topology=cross_topology)
        service = CncService(state)
        msg = StreamRequest(
            request_id="req-0001",
            requirement=_requirement(),
            hops=shortest_path(cross_topology, "HA", "HB").hops,  # crosses wan and d2
            latency_budget_ns=2_000_000,
        )
        response = service.handle(msg)
        assert (response.status, response.cause) == ("failed", "malformed")
        assert "not in domain d1" in response.detail

    def test_hop_off_its_link_rejected(self, intra_topology):
        service = _service(intra_topology)
        msg = _stream_request(intra_topology)
        hops = (replace(msg.hops[0], egress_port="p9"),) + msg.hops[1:]
        response = service.handle(replace(msg, hops=hops))
        assert (response.status, response.cause) == ("failed", "malformed")
        assert "port A.p9 is not on link l1" in response.detail
        assert service.state.admitted == {}

    def test_remove_unknown_stream(self, intra_topology):
        service = _service(intra_topology)
        response = service.handle(RemoveStream("req-0002", "ghost"))
        assert (response.status, response.cause) == ("failed", "unknown_stream")

    def test_capability_summaries(self, cross_topology):
        state = CncState(domain_id="d2", topology=cross_topology)
        service = CncService(state)
        response = service.handle(CapabilityQuery("req-0003"))
        assert response.status == "ok"
        assert [c["bridge_id"] for c in response.capabilities] == ["B2", "B3"]
        assert response.capabilities[0]["supports_qbv"] is True
        assert response.capabilities[0]["processing_delay_ns"] == 1000


class TestDispatcher:
    def _dispatcher(self, topology):
        handles = {
            d: CncService(CncState(domain_id=d, topology=topology)) for d in topology.domains
        }
        return Dispatcher(handles)

    def test_audit_carries_reference_point(self, cross_topology):
        dispatcher = self._dispatcher(cross_topology)
        dispatcher.dispatch(CapabilityQuery("req-0001"), "d1")
        dispatcher.dispatch(CapabilityQuery("req-0002"), "wan")
        assert [
            (r.request_id, r.domain_id, reference_point(cross_topology, r.domain_id))
            for r in dispatcher.audit_log
        ] == [("req-0001", "d1", "Or-Vi"), ("req-0002", "wan", "Or-Wi")]

    def test_unknown_domain_leaves_no_audit(self, cross_topology):
        dispatcher = self._dispatcher(cross_topology)
        with pytest.raises(UnknownDomainError):
            dispatcher.dispatch(CapabilityQuery("req-0001"), "mars")
        assert dispatcher.audit_log == []

