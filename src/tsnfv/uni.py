"""User/Network Interface between the orchestrator and domain controllers.

Message schema, newline-delimited JSON codec, the controller service, and
the dispatcher that realizes the Or-Vi (orchestrator to VIM) and Or-Wi
(orchestrator to WIM) reference points; an audit record names the target
domain, whose kind gives the reference point (`reference_point`). In
process the messages cross as objects; the codec makes bytes only where a
line crosses TCP (`tsnfv serve` and `UniClient`). Over TCP a connection
carries any number of exchanges, one at a time: `UniClient` keeps its
connections open and reuses them, and the server holds one handler
thread per open connection.
"""

from __future__ import annotations

import json
import select
import socket
import threading
from dataclasses import dataclass

from .codec import Codec, dump_json

from .errors import (
    CapabilityError,
    DecodeError,
    HyperperiodOverflowError,
    InfeasibleError,
    ParseError,
    TransportError,
    UnknownDomainError,
    UnknownStreamError,
    ValidationError,
)
from .model import StreamRequirement, StreamSchedule
from .topology import Hop, PathSegment
from . import cnc

# domain kind -> the reference point its controller is reached over
REFERENCE_POINTS = {"nfvi_pop": "Or-Vi", "wan_segment": "Or-Wi"}

FAILURE_CAUSES = (
    "infeasible_budget",
    "no_free_window",
    "capability",
    "unknown_stream",
    "malformed",
)


class _Message(Codec):
    """A UNI message document: the fields plus the kind tag of the class."""

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["kind"] = self.kind
        return doc


@dataclass(frozen=True)
class StreamRequest(_Message):
    request_id: str
    requirement: StreamRequirement
    hops: tuple[Hop, ...]
    latency_budget_ns: int
    entry_offset_ns: int = 0
    entry_stride_ns: int = 0

    kind = "stream_request"


@dataclass(frozen=True)
class RemoveStream(_Message):
    request_id: str
    stream_id: str

    kind = "remove_stream"


@dataclass(frozen=True)
class CapabilityQuery(_Message):
    request_id: str

    kind = "capability_query"


@dataclass(frozen=True)
class UniResponse(_Message):
    request_id: str
    status: str  # ok | failed
    schedule: StreamSchedule | None = None
    cause: str | None = None
    detail: str | None = None
    domain_id: str | None = None
    capabilities: tuple[dict, ...] | None = None

    kind = "response"

    def __post_init__(self):
        if self.status not in ("ok", "failed"):
            raise ValidationError(f"response status must be ok or failed, got {self.status!r}")
        if self.status == "failed" and self.cause not in FAILURE_CAUSES:
            raise ValidationError(f"unknown failure cause {self.cause!r}")


UniMessage = StreamRequest | RemoveStream | CapabilityQuery | UniResponse
_MESSAGES = {cls.kind: cls for cls in (StreamRequest, RemoveStream, CapabilityQuery, UniResponse)}


def encode_message(msg: UniMessage) -> bytes:
    """One canonical JSON object per line."""
    return dump_json(msg.to_doc()) + b"\n"


def _load_line(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise DecodeError(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"not a JSON object: {exc}") from None
    if not isinstance(doc, dict):
        raise DecodeError("top level is not an object")
    return doc


def _decode_doc(doc: dict) -> UniMessage:
    kind = doc.pop("kind", None)
    cls = _MESSAGES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DecodeError(f"unknown message kind {kind!r}")
    try:
        return cls.from_doc(doc)
    except (ParseError, ValidationError) as exc:
        raise DecodeError(f"bad {kind} payload: {exc}") from None


def decode_message(line: bytes | str) -> UniMessage:
    return _decode_doc(_load_line(line))


def _as_request(msg: UniMessage) -> StreamRequest | RemoveStream | CapabilityQuery:
    if isinstance(msg, UniResponse):
        raise DecodeError("a response is not a request")
    return msg


def malformed_response(line: bytes | str, exc: Exception) -> bytes:
    """The failed response to a line that is no usable request, echoing
    its request_id when one can be recovered."""
    return encode_message(
        UniResponse(
            request_id=_fish_request_id(line),
            status="failed",
            cause="malformed",
            detail=str(exc),
        )
    )


class CncService:
    """One domain controller: answers a request object with a response.

    Owns the domain's scheduling state; translates admission outcomes into
    response causes. Lines that cannot be decoded are answered at the TCP
    edge and never reach it.
    """

    def __init__(self, state: cnc.CncState):
        self.state = state

    def handle(self, msg: StreamRequest | RemoveStream | CapabilityQuery) -> UniResponse:
        if isinstance(msg, StreamRequest):
            return self._handle_stream_request(msg)
        if isinstance(msg, RemoveStream):
            return self._handle_remove(msg)
        return self._handle_capability_query(msg)

    def _fail(self, request_id: str, cause: str, detail: str) -> UniResponse:
        return UniResponse(
            request_id=request_id,
            status="failed",
            cause=cause,
            detail=detail,
            domain_id=self.state.domain_id,
        )

    def _handle_stream_request(self, msg: StreamRequest) -> UniResponse:
        for hop in msg.hops:
            node = self.state.topology.nodes.get(hop.egress_node)
            if node is None or node.domain_id != self.state.domain_id:
                return self._fail(
                    msg.request_id,
                    "malformed",
                    f"hop {hop.port_key} is not in domain {self.state.domain_id}",
                )
        segment = PathSegment(domain_id=self.state.domain_id, hops=msg.hops)
        try:
            schedule = cnc.admit_stream(
                self.state,
                msg.requirement,
                segment,
                msg.latency_budget_ns,
                entry_offset_ns=msg.entry_offset_ns,
                entry_stride_ns=msg.entry_stride_ns,
            )
        except InfeasibleError as exc:
            cause = "infeasible_budget" if exc.cause == "exceeds_budget" else "no_free_window"
            return self._fail(msg.request_id, cause, exc.detail or str(exc))
        except CapabilityError as exc:
            return self._fail(msg.request_id, "capability", str(exc))
        except HyperperiodOverflowError as exc:
            # an unrepresentable cycle means no window can be planned
            return self._fail(msg.request_id, "no_free_window", str(exc))
        except (ValidationError, ParseError) as exc:
            return self._fail(msg.request_id, "malformed", str(exc))
        return UniResponse(
            request_id=msg.request_id,
            status="ok",
            schedule=schedule,
            domain_id=self.state.domain_id,
        )

    def _handle_remove(self, msg: RemoveStream) -> UniResponse:
        try:
            cnc.remove_stream(self.state, msg.stream_id)
        except UnknownStreamError as exc:
            return self._fail(msg.request_id, "unknown_stream", str(exc))
        return UniResponse(
            request_id=msg.request_id, status="ok", domain_id=self.state.domain_id
        )

    def _handle_capability_query(self, msg: CapabilityQuery) -> UniResponse:
        summaries = tuple(
            {
                "bridge_id": bridge.node_id,
                "supports_qbv": bridge.supports_qbv,
                "gcl_max_entries": bridge.gcl_max_entries,
                "processing_delay_ns": bridge.processing_delay_ns,
            }
            for bridge in sorted(
                self.state.topology.bridges_in_domain(self.state.domain_id),
                key=lambda b: b.node_id,
            )
        )
        return UniResponse(
            request_id=msg.request_id,
            status="ok",
            domain_id=self.state.domain_id,
            capabilities=summaries,
        )


def _fish_request_id(line: bytes | str) -> str:
    try:
        if isinstance(line, bytes):
            line = line.decode()
        doc = json.loads(line)
        rid = doc.get("request_id") if isinstance(doc, dict) else None
        return rid if isinstance(rid, str) else "unknown"
    except Exception:
        return "unknown"


@dataclass(frozen=True)
class AuditRecord(Codec):
    request_id: str
    domain_id: str


def reference_point(topology, domain_id: str) -> str:
    """The reference point toward the domain's controller, by its kind."""
    return REFERENCE_POINTS[topology.domains[domain_id].kind]


class Dispatcher:
    """Routes UNI requests to the owning domain's controller and keeps the
    audit log. A handle is anything that answers a request object with a
    `UniResponse` through handle. It refuses to admit or remove a stream
    an active NS instance holds, which only the instance's own admission,
    before it holds the stream, and its release, after, may do."""

    def __init__(self, handles: dict):
        self.handles = handles
        self.audit_log: list[AuditRecord] = []
        self.holders: dict[str, str] = {}  # stream id -> the active instance holding it

    def dispatch(self, request: StreamRequest | RemoveStream | CapabilityQuery, domain_id: str) -> UniResponse:
        try:
            handle = self.handles[domain_id]
        except KeyError:
            raise UnknownDomainError(f"no controller registered for domain {domain_id}") from None
        self.audit_log.append(AuditRecord(request.request_id, domain_id))
        holder = None
        if isinstance(request, (StreamRequest, RemoveStream)):
            sid = request.stream_id if isinstance(request, RemoveStream) else request.requirement.stream_id
            holder = self.holders.get(sid)
        if holder is not None:
            detail = f"stream {sid} is held by active instance {holder}"
            return UniResponse(request.request_id, "failed", cause="malformed", detail=detail, domain_id=domain_id)
        return handle.handle(request)


def encode_routed(msg: StreamRequest | RemoveStream | CapabilityQuery, domain_id: str) -> bytes:
    """Request line carrying its target domain, for single-socket service
    mode. Requests have no domain_id field of their own, so the wrapper
    key cannot collide."""
    doc = msg.to_doc()
    doc["domain_id"] = domain_id
    return dump_json(doc) + b"\n"


def decode_routed(line: bytes | str) -> tuple[str, StreamRequest | RemoveStream | CapabilityQuery]:
    doc = _load_line(line)
    domain_id = doc.pop("domain_id", None)
    if not isinstance(domain_id, str):
        raise DecodeError("routed message is missing domain_id")
    return domain_id, _as_request(_decode_doc(doc))


class UniClient:
    """Socket-side counterpart of the service mode: one request per call,
    strict request/response alternation on each connection.

    The client keeps its connections open and reuses them. A request takes
    an idle connection, or opens one, and gives it back once the whole
    response line is read, so callers on several threads each get their
    own. An idle connection the server has closed (a stop or a restart) is
    dropped before a request is sent on it, and the request goes over a
    new one. A failure once the request is being sent, or a connection
    closed before the end of the response, raises TransportError: that
    connection is closed, and the request is never resent, so a mutation
    is applied at most once. `close()`, or leaving a `with` block, closes
    the idle connections, and any connection in use when its request ends.
    """

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self._lock = threading.Lock()  # guards _idle and _closed
        self._idle: list[socket.socket] = []
        self._closed = False

    def __enter__(self) -> UniClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def _connection(self) -> socket.socket:
        """An idle connection the server has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                sock = self._idle.pop()
            # between exchanges the server sends nothing: a readable idle
            # connection is one it has closed
            if not select.select([sock], [], [], 0)[0]:
                return sock
            sock.close()
        return socket.create_connection(self.address, timeout=10.0)

    def _release(self, sock: socket.socket, answered: bool) -> None:
        """Pool a connection whose exchange completed; close any other."""
        if answered:
            with self._lock:
                if not self._closed:
                    self._idle.append(sock)
                    return
        sock.close()

    def request(
        self, msg: StreamRequest | RemoveStream | CapabilityQuery, domain_id: str
    ) -> UniResponse:
        host, port = self.address
        raw = b""
        try:
            sock = self._connection()
            try:
                sock.sendall(encode_routed(msg, domain_id))
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    if chunk.endswith(b"\n"):
                        break
                raw = b"".join(chunks)
            finally:
                self._release(sock, raw.endswith(b"\n"))
        except OSError as exc:
            raise TransportError(f"UNI transport to {host}:{port} failed: {exc}") from None
        if not raw.endswith(b"\n"):
            raise TransportError(f"connection to {host}:{port} closed mid-response")
        response = decode_message(raw)
        if not isinstance(response, UniResponse):
            raise TransportError(f"service answered with a {response.kind} message")
        return response
