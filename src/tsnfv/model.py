"""Core domain types and time arithmetic.

All time quantities are exact integer nanoseconds. Link speeds are bits per
second. The values here are immutable and every operation is a pure
function, so they are safe to share between any number of callers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .codec import Codec
from .errors import HyperperiodOverflowError, ValidationError

# The network-wide schedule cycle is the LCM of all stream periods; cap it
# so schedules and simulations stay desk-sized.
HYPERPERIOD_CAP_NS = 1_000_000_000

# Preamble (8 B) + inter-frame gap (12 B): frames cannot be packed tighter
# than this on a real link.
WIRE_OVERHEAD_BYTES = 20

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1522

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")
_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")
# Stream ids are derived from a link id plus a '~'-separated direction
# suffix, so they get one extra allowed character.
_STREAM_ID_RE = re.compile(r"^[A-Za-z0-9_~-]+$")

# Identifier for one directed egress port; separator matches CLI usage
# ("B1.p1"), which is why ids themselves may not contain '.'.
def port_key(node_id: str, port_id: str) -> str:
    return f"{node_id}.{port_id}"


def check_identifier(value: str, what: str) -> str:
    if not isinstance(value, str) or not _ID_RE.match(value):
        raise ValidationError(f"{what} must match [A-Za-z0-9_-]+, got {value!r}")
    return value


def check_stream_id(value: str, what: str = "stream_id") -> str:
    if not isinstance(value, str) or not _STREAM_ID_RE.match(value):
        raise ValidationError(f"{what} must match [A-Za-z0-9_~-]+, got {value!r}")
    return value


def check_mac(value: str, what: str) -> str:
    if not isinstance(value, str) or not _MAC_RE.match(value.lower()):
        raise ValidationError(f"{what} is not a 48-bit MAC address: {value!r}")
    return value.lower()


@dataclass(frozen=True)
class TrafficSpec(Codec):
    """Periodic traffic contract of one stream: how often, how much, and the
    latency bound the network must honour."""

    period_ns: int
    max_frame_bytes: int
    frames_per_period: int
    max_latency_ns: int

    def __post_init__(self):
        if self.period_ns <= 0:
            raise ValidationError(f"period_ns must be positive, got {self.period_ns}")
        if not MIN_FRAME_BYTES <= self.max_frame_bytes <= MAX_FRAME_BYTES:
            raise ValidationError(
                f"max_frame_bytes must be in [{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}], "
                f"got {self.max_frame_bytes}"
            )
        if self.frames_per_period < 1:
            raise ValidationError(f"frames_per_period must be >= 1, got {self.frames_per_period}")
        if self.max_latency_ns <= 0:
            raise ValidationError(f"max_latency_ns must be positive, got {self.max_latency_ns}")


@dataclass(frozen=True)
class DataFrameSpec(Codec):
    """L2/L3 identification of the stream's frames."""

    src_mac: str
    dst_mac: str
    vlan_id: int
    pcp: int
    src_ip: str | None = None
    dst_ip: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "src_mac", check_mac(self.src_mac, "src_mac"))
        object.__setattr__(self, "dst_mac", check_mac(self.dst_mac, "dst_mac"))
        if self.src_mac == self.dst_mac:
            raise ValidationError("src_mac and dst_mac must differ")
        if not 1 <= self.vlan_id <= 4094:
            raise ValidationError(f"vlan_id must be in [1, 4094], got {self.vlan_id}")
        if not 0 <= self.pcp <= 7:
            raise ValidationError(f"pcp must be in [0, 7], got {self.pcp}")


@dataclass(frozen=True)
class EndpointRef(Codec):
    """One end station interface taking part in a stream."""

    station_id: str
    interface: str
    node_id: str

    def __post_init__(self):
        check_identifier(self.station_id, "station_id")
        check_identifier(self.interface, "interface")
        check_identifier(self.node_id, "node_id")


@dataclass(frozen=True)
class StreamRequirement(Codec):
    """One unidirectional talker-to-listener stream with its frame
    identification and traffic contract. Exactly one listener; multicast is
    unsupported."""

    stream_id: str
    talker: EndpointRef
    listener: EndpointRef
    frame: DataFrameSpec
    traffic: TrafficSpec

    def __post_init__(self):
        check_stream_id(self.stream_id)
        if (
            self.talker.node_id == self.listener.node_id
            and self.talker.interface == self.listener.interface
        ):
            raise ValidationError(
                f"stream {self.stream_id}: talker and listener refer to the same interface"
            )


@dataclass(frozen=True)
class GclEntry(Codec):
    """One (gate-state, interval) step of a port's gating cycle. Bit i of
    gate_states open means traffic class i may transmit."""

    gate_states: int
    interval_ns: int

    def __post_init__(self):
        if not 0 <= self.gate_states <= 0xFF:
            raise ValidationError(f"gate_states must be an 8-bit mask, got {self.gate_states}")
        if self.interval_ns <= 0:
            raise ValidationError(f"interval_ns must be positive, got {self.interval_ns}")


@dataclass(frozen=True)
class GateControlList(Codec):
    """Cyclic gate schedule of one egress port. base_time is fixed at 0:
    every port shares the synchronized epoch."""

    port_id: str
    cycle_ns: int
    entries: tuple[GclEntry, ...]
    base_time_ns: int = 0

    def __post_init__(self):
        if self.cycle_ns <= 0:
            raise ValidationError(f"cycle_ns must be positive, got {self.cycle_ns}")
        if not self.entries:
            raise ValidationError(f"GCL for {self.port_id} has no entries")
        total = sum(e.interval_ns for e in self.entries)
        if total != self.cycle_ns:
            raise ValidationError(
                f"GCL for {self.port_id}: entries sum to {total}, cycle is {self.cycle_ns}"
            )


@dataclass(frozen=True)
class HopReservation(Codec):
    """Reserved transmission window of one stream on one egress port.

    Offsets are relative to the stream's nominal release tick (k * period
    for instance k); the same window repeats every period. queue_from_ns is
    when the stream's frames enter the egress queue, used to keep same-class
    queue order consistent with window order.
    """

    port_id: str
    window_start_ns: int
    window_end_ns: int
    traffic_class: int
    stream_id: str
    queue_from_ns: int

    def __post_init__(self):
        if self.window_end_ns <= self.window_start_ns:
            raise ValidationError(
                f"reservation on {self.port_id}: window end must exceed start"
            )
        if not 0 <= self.traffic_class <= 7:
            raise ValidationError(f"traffic_class must be in [0, 7], got {self.traffic_class}")
        if self.queue_from_ns > self.window_start_ns:
            raise ValidationError(
                f"reservation on {self.port_id}: frames enqueue after their window opens"
            )

    @property
    def length_ns(self) -> int:
        return self.window_end_ns - self.window_start_ns


@dataclass(frozen=True)
class StreamSchedule(Codec):
    """Result of admitting one stream onto one path segment: the per-hop
    reserved windows in path order plus the latency from the segment entry
    to the last bit arriving at the segment exit."""

    stream_id: str
    reservations: tuple[HopReservation, ...]
    e2e_latency_ns: int
    entry_offset_ns: int = 0

    def __post_init__(self):
        if not self.reservations:
            raise ValidationError(f"schedule for {self.stream_id} has no reservations")

    @property
    def exit_offset_ns(self) -> int:
        """Offset (after each release tick) at which the last bit leaves the
        segment, i.e. arrives at the next segment's entry or the listener."""
        return self.entry_offset_ns + self.e2e_latency_ns


@dataclass(frozen=True)
class CapabilitySet(Codec):
    """Boolean capability flags of an end station. The host-level real-time
    mechanisms behind them are out of scope; only the flags travel."""

    time_sync: bool = False
    qbv_shaping: bool = False
    rt_scheduling_policy: bool = False
    rt_kernel_or_hypervisor: bool = False
    hw_isolation: bool = False

    @classmethod
    def from_doc(cls, doc, path="") -> CapabilitySet:
        # An unknown flag names a capability no check here can honour, so
        # it fails validation, as a wrong value does, rather than parsing.
        flags = cls.__dataclass_fields__.keys()
        if isinstance(doc, dict) and not doc.keys() <= flags:
            raise ValidationError(f"unknown capability flags: {sorted(doc.keys() - flags)}")
        return super().from_doc(doc, path)


def hyperperiod(periods: list[int]) -> int:
    """LCM of the given periods: the cycle of the network-wide schedule.

    Raises HyperperiodOverflowError beyond 1 s; such period mixes are
    treated as unschedulable rather than allowed to blow up schedule and
    simulation sizes.
    """
    if not periods:
        raise ValidationError("hyperperiod of an empty period list is undefined")
    for p in periods:
        if p <= 0:
            raise ValidationError(f"periods must be positive, got {p}")
    result = math.lcm(*periods)
    if result > HYPERPERIOD_CAP_NS:
        raise HyperperiodOverflowError(
            f"hyperperiod {result} ns exceeds cap {HYPERPERIOD_CAP_NS} ns"
        )
    return result


def wire_occupancy(frame_bytes: int, link_speed_bps: int) -> int:
    """Time one frame occupies the wire, including preamble and inter-frame
    gap, rounded up to whole nanoseconds."""
    if frame_bytes < MIN_FRAME_BYTES:
        raise ValidationError(f"frame_bytes must be >= {MIN_FRAME_BYTES}, got {frame_bytes}")
    if link_speed_bps <= 0:
        raise ValidationError(f"link_speed_bps must be positive, got {link_speed_bps}")
    bits = (frame_bytes + WIRE_OVERHEAD_BYTES) * 8
    return -(-bits * 1_000_000_000 // link_speed_bps)


def burst_occupancy(spec: TrafficSpec, link_speed_bps: int) -> int:
    """Wire time of one full period's burst, sent back to back."""
    return spec.frames_per_period * wire_occupancy(spec.max_frame_bytes, link_speed_bps)
