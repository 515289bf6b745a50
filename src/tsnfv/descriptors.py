"""Network-service descriptors with TSN virtual-link extensions.

An NSD declares VNF/PNF members joined by virtual links. A VL carrying a
TSN extension names its VLAN, priority, and one traffic contract per
direction; such a VL maps to exactly two unidirectional streams. Plain
VLs yield no streams. Placement is a separate document binding each
member to a topology node, an interface, and addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Codec, decoder, load_json
from .errors import CapabilityError, UnplacedMemberError, ValidationError
from .model import (
    CapabilitySet,
    DataFrameSpec,
    EndpointRef,
    StreamRequirement,
    TrafficSpec,
    check_identifier,
    check_mac,
)

# Direction suffixes appended to the VL id; '~' cannot occur in a VL id,
# so derived stream ids never collide with each other.
FWD_SUFFIX = "~fwd"
REV_SUFFIX = "~rev"


@dataclass(frozen=True)
class ConnectionPoint(Codec):
    cp_id: str
    interface: str

    def __post_init__(self):
        check_identifier(self.cp_id, "cp_id")
        check_identifier(self.interface, "interface")


def _check_unique_cps(member: str, connection_points: tuple[ConnectionPoint, ...]) -> None:
    seen = set()
    for cp in connection_points:
        if cp.cp_id in seen:
            raise ValidationError(f"{member}: duplicate cp {cp.cp_id}")
        seen.add(cp.cp_id)


@dataclass(frozen=True)
class Vnfd(Codec):
    """Virtualized function descriptor: its connection points and the
    capabilities its host must provide."""

    vnf_id: str
    connection_points: tuple[ConnectionPoint, ...]
    required_capabilities: CapabilitySet

    def __post_init__(self):
        check_identifier(self.vnf_id, "vnf_id")
        _check_unique_cps(f"vnf {self.vnf_id}", self.connection_points)


@dataclass(frozen=True)
class PnfRef(Codec):
    """Physical function reference. Capabilities are declared, not derived:
    the box either provides them or the stream is rejected up front."""

    pnf_id: str
    connection_points: tuple[ConnectionPoint, ...]
    capabilities: CapabilitySet

    def __post_init__(self):
        check_identifier(self.pnf_id, "pnf_id")
        _check_unique_cps(f"pnf {self.pnf_id}", self.connection_points)


@dataclass(frozen=True)
class TsnVlExtension(Codec):
    """TSN augmentation of a virtual link: VLAN tag, priority, and one
    traffic contract per direction (A-to-B forward, B-to-A reverse)."""

    vlan_id: int
    pcp: int
    traffic_fwd: TrafficSpec
    traffic_rev: TrafficSpec

    def __post_init__(self):
        if not 1 <= self.vlan_id <= 4094:
            raise ValidationError(f"vlan_id must be in [1, 4094], got {self.vlan_id}")
        # Class 0 is reserved for best effort; a scheduled stream there
        # would share its queue with background traffic.
        if not 1 <= self.pcp <= 7:
            raise ValidationError(f"pcp must be in [1, 7] for a TSN VL, got {self.pcp}")


@dataclass(frozen=True)
class VlEndpoint(Codec):
    member_id: str
    cp_id: str


@dataclass(frozen=True)
class VirtualLink(Codec):
    """Bidirectional link between exactly two member connection points
    (A first, then B), optionally TSN-extended."""

    vl_id: str
    endpoints: tuple[VlEndpoint, VlEndpoint]
    tsn: TsnVlExtension | None = None

    def __post_init__(self):
        check_identifier(self.vl_id, "vl_id")

    def to_doc(self) -> dict:
        # a plain VL states its missing extension as null
        doc = super().to_doc()
        doc.setdefault("tsn", None)
        return doc


@dataclass(frozen=True)
class Nsd(Codec):
    ns_id: str
    vnfds: tuple[Vnfd, ...]
    virtual_links: tuple[VirtualLink, ...]
    pnfs: tuple[PnfRef, ...] = ()

    def __post_init__(self):
        check_identifier(self.ns_id, "ns_id")
        members: dict[str, tuple[ConnectionPoint, ...]] = {}
        for vnfd in self.vnfds:
            if vnfd.vnf_id in members:
                raise ValidationError(f"duplicate member id {vnfd.vnf_id}")
            members[vnfd.vnf_id] = vnfd.connection_points
        for pnf in self.pnfs:
            if pnf.pnf_id in members:
                raise ValidationError(f"duplicate member id {pnf.pnf_id}")
            members[pnf.pnf_id] = pnf.connection_points
        vl_ids = set()
        for vl in self.virtual_links:
            if vl.vl_id in vl_ids:
                raise ValidationError(f"duplicate vl id {vl.vl_id}")
            vl_ids.add(vl.vl_id)
            for ep in vl.endpoints:
                cps = members.get(ep.member_id)
                if cps is None:
                    raise ValidationError(
                        f"vl {vl.vl_id}: endpoint references unknown member {ep.member_id}"
                    )
                if not any(cp.cp_id == ep.cp_id for cp in cps):
                    raise ValidationError(
                        f"vl {vl.vl_id}: member {ep.member_id} has no cp {ep.cp_id}"
                    )

    @property
    def member_ids(self) -> list[str]:
        return [v.vnf_id for v in self.vnfds] + [p.pnf_id for p in self.pnfs]

    def member_capabilities(self, member_id: str) -> CapabilitySet:
        for vnfd in self.vnfds:
            if vnfd.vnf_id == member_id:
                return vnfd.required_capabilities
        for pnf in self.pnfs:
            if pnf.pnf_id == member_id:
                return pnf.capabilities
        raise ValidationError(f"unknown member {member_id}")


@dataclass(frozen=True)
class PlacementEntry(Codec):
    node_id: str
    interface: str
    mac: str
    ip: str | None = None

    def __post_init__(self):
        check_identifier(self.node_id, "node_id")
        check_identifier(self.interface, "interface")
        object.__setattr__(self, "mac", check_mac(self.mac, "mac"))


# Binding of every NS member to its substrate node and addresses, keyed by
# member id: the document and the record are the same map.
Placement = dict[str, PlacementEntry]


def parse_nsd(text: str) -> Nsd:
    """Parse and validate an NSD JSON document."""
    return Nsd.from_doc(load_json(text, "nsd"), "nsd")


def parse_placement(text: str) -> Placement:
    """Parse a placement JSON document: member id to node binding."""
    return decoder(Placement)(load_json(text, "placement"), "placement")


def derive_streams(nsd: Nsd, placement: Placement) -> list[StreamRequirement]:
    """Expand every TSN-extended VL into its two unidirectional streams.

    Output order is fixed: VL declaration order, forward before reverse,
    so repeated derivation is byte-identical.
    """
    streams: list[StreamRequirement] = []
    for vl in nsd.virtual_links:
        if vl.tsn is None:
            continue
        end_a, end_b = vl.endpoints
        for end in vl.endpoints:
            if end.member_id not in placement:
                raise UnplacedMemberError(f"member {end.member_id} has no placement entry")
        place_a, place_b = placement[end_a.member_id], placement[end_b.member_id]
        ref_a = EndpointRef(end_a.member_id, place_a.interface, place_a.node_id)
        ref_b = EndpointRef(end_b.member_id, place_b.interface, place_b.node_id)
        for suffix, talker_ref, listener_ref, talker_pl, listener_pl, traffic in (
            (FWD_SUFFIX, ref_a, ref_b, place_a, place_b, vl.tsn.traffic_fwd),
            (REV_SUFFIX, ref_b, ref_a, place_b, place_a, vl.tsn.traffic_rev),
        ):
            streams.append(
                StreamRequirement(
                    stream_id=vl.vl_id + suffix,
                    talker=talker_ref,
                    listener=listener_ref,
                    frame=DataFrameSpec(
                        src_mac=talker_pl.mac,
                        dst_mac=listener_pl.mac,
                        vlan_id=vl.tsn.vlan_id,
                        pcp=vl.tsn.pcp,
                        src_ip=talker_pl.ip,
                        dst_ip=listener_pl.ip,
                    ),
                    traffic=traffic,
                )
            )
    return streams


def validate_capabilities(
    stream: StreamRequirement,
    talker_caps: CapabilitySet,
    listener_caps: CapabilitySet,
) -> None:
    """Check both stations can take part in a scheduled stream. Time sync
    and gate shaping are hard requirements; the remaining flags only steer
    the emitted configuration."""
    for role, ref, caps in (
        ("talker", stream.talker, talker_caps),
        ("listener", stream.listener, listener_caps),
    ):
        for flag in ("time_sync", "qbv_shaping"):
            if not getattr(caps, flag):
                raise CapabilityError(f"{role} {ref.station_id}", flag)
