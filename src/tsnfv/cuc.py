"""Centralized user configuration: the NFVO+VNFM side of the architecture.

Drives the NS lifecycle: derives streams from descriptors, routes them,
splits latency budgets across domains, negotiates per-segment admissions
over the UNI, and emits end-station configuration documents for managed
stations. Admission across segments is a saga: a failure leaves every
controller as it was. The controllers keep the schedules they grant;
once loaded, an active instance's chain links hold their records.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, replace

from . import descriptors
from .codec import Codec, parse_error
from .errors import (
    AdmissionFailedError,
    AlreadyTerminatedError,
    UnknownInstanceError,
    UnknownStreamError,
    UpdateFailedError,
    ValidationError,
)
from .model import (
    CapabilitySet,
    GateControlList,
    HopReservation,
    StreamRequirement,
    StreamSchedule,
    wire_occupancy,
)
from .topology import PathSegment, Topology, shortest_path, split_by_domain
from .uni import Dispatcher, RemoveStream, StreamRequest


def partition_latency_budget(max_latency_ns: int, hop_counts: list[int]) -> list[int]:
    """Split a stream's budget across its path segments in proportion to
    hop count; rounding remainder goes to the last segment."""
    total = sum(hop_counts)
    if total < 1:
        raise ValidationError("cannot partition a budget over zero hops")
    budgets = [max_latency_ns * hops // total for hops in hop_counts]
    budgets[-1] += max_latency_ns - sum(budgets)
    return budgets


@dataclass(frozen=True)
class EndStationConfig(Codec):
    """Configuration directives for one managed talker: sync daemon, VLAN,
    priority mapping, process scheduling, the egress gating schedule and
    per-instance transmission offsets."""

    station_id: str
    interface: str
    sync_daemon: bool
    vlan: tuple[int, int]  # (vlan_id, pcp)
    socket_priority_map: dict[str, int]
    scheduling_policy: str  # deadline | fifo_rt
    tas_schedule: dict
    txtime_offsets_ns: dict[str, list[int]]


def generate_endstation_config(
    stream: StreamRequirement,
    first_hop: HopReservation,
    topology: Topology,
    capabilities: CapabilitySet,
    egress_gcl: GateControlList | None,
) -> EndStationConfig | None:
    """Build the directive document for the talker of one stream, or None
    for a talker outside MANO responsibility (an unmanaged external box).

    Besides sync, VLAN and priority directives, the document carries the
    talker port's gating schedule and the stream's transmission offsets
    over that schedule's cycle, one per period from the first-hop window.
    """
    station = stream.talker
    node = topology.node(station.node_id)
    if not node.is_managed_station:
        return None
    if egress_gcl is None:
        raise ValidationError(
            f"talker config for {stream.stream_id} needs the egress gate schedule"
        )
    period = stream.traffic.period_ns
    offsets = [first_hop.window_start_ns + k * period for k in range(egress_gcl.cycle_ns // period)]
    return EndStationConfig(
        station_id=station.station_id,
        interface=station.interface,
        sync_daemon=True,
        vlan=(stream.frame.vlan_id, stream.frame.pcp),
        socket_priority_map={str(stream.frame.pcp): stream.frame.pcp},
        scheduling_policy="deadline" if capabilities.rt_scheduling_policy else "fifo_rt",
        tas_schedule={
            "cycle_ns": egress_gcl.cycle_ns,
            "base_time_ns": egress_gcl.base_time_ns,
            "entries": [[e.gate_states, e.interval_ns] for e in egress_gcl.entries],
        },
        txtime_offsets_ns={stream.stream_id: offsets},
    )


class ChainLink(typing.NamedTuple):
    """One domain's part of a stream's schedule chain."""

    domain_id: str
    schedule: StreamSchedule | None = None  # None only in an active instance's document

# an instance is active until terminated; a failed one is kept for audit
STATUSES = ("active", "terminated", "failed")


@dataclass(frozen=True)
class NsInstance(Codec):
    """One NS instance at one step of its lifecycle. A step stores a new
    record in place of the old one, which stays as it was."""

    instance_id: str
    nsd: descriptors.Nsd
    placement: descriptors.Placement
    # per stream id, the chain of domain schedules in talker->listener order
    schedules: dict[str, tuple[ChainLink, ...]] = field(default_factory=dict)
    status: str = "active"

    @functools.cached_property
    def streams(self) -> list[StreamRequirement]:
        """The instance's streams, derived from its descriptors."""
        return descriptors.derive_streams(self.nsd, self.placement)

    def stream_schedules(self):
        """(requirement, chain) pairs of an active instance, in derivation order."""
        return [(req, self.schedules[req.stream_id]) for req in self.streams]

    def to_doc(self) -> dict:
        """An active instance's links name only their domains, whose records hold its schedules."""
        if self.status != "active":
            return super().to_doc()
        domains = {sid: tuple(ChainLink(d) for d, _ in chain) for sid, chain in self.schedules.items()}
        return Codec.to_doc(replace(self, schedules=domains))


@dataclass(frozen=True)
class _RoutedStream:
    requirement: StreamRequirement
    segments: list[PathSegment]
    budgets: list[int]


class Cuc:
    """Orchestrator facade: owns instances, talks UNI, emits configs.

    gcl_provider maps a domain id and a list of ports to those ports'
    current synthesized gate control lists; talker configs need the
    talker port's full schedule, which only the owning controller can
    provide.
    """

    def __init__(self, topology: Topology, dispatcher: Dispatcher, gcl_provider, records: dict[str, dict]):
        self.topology = topology
        self.dispatcher = dispatcher
        self.gcl_provider = gcl_provider
        self.records = records  # domain id -> its controller's admitted streams, kept current by it
        self.instances: dict[str, NsInstance] = {}
        self.holders = dispatcher.holders  # stream id -> the active instance deriving it
        self.request_seq = 0
        self.instance_seq = 0

    def _next_request_id(self) -> str:
        self.request_seq += 1
        return f"req-{self.request_seq:04d}"

    def _next_instance_id(self) -> str:
        self.instance_seq += 1
        return f"ns-{self.instance_seq:04d}"

    def restore(self, instances: dict[str, NsInstance]) -> None:
        """Take loaded instances, checked in one pass against the
        controllers' records (docs/formats.md lists the refusals in order).
        An active instance holds its stream ids, those it derives, each by
        a chain that names every controller holding the stream once.
        It is stored with its derived streams and links holding the records'
        schedules, so configs from links agree with GCLs from records."""
        holders = {}
        restored = {}
        for iid, instance in instances.items():
            if instance.instance_id != iid:
                raise ValidationError(
                    f"instances.{iid}.instance_id: the instance filed under {iid} is {instance.instance_id}"
                )
            if instance.status not in STATUSES:
                raise ValidationError(
                    f"instances.{iid}.status: expected one of {', '.join(STATUSES)}, got {instance.status!r}"
                )
            restored[iid] = instance
            if instance.status != "active":
                for sid, chain in instance.schedules.items():
                    for i, link in enumerate(chain):
                        if link.schedule is None:
                            raise parse_error(f"instances.{iid}.schedules.{sid}[{i}]", "missing keys ['schedule']")
                continue
            derived = {req.stream_id for req in instance.streams}
            unmatched = sorted(derived ^ instance.schedules.keys())
            if unmatched:
                sid = unmatched[0]
                problem = "has no chain for the stream it derives" if sid in derived else "derives no such stream"
                raise ValidationError(f"instances.{iid}.schedules.{sid}: the instance {problem}")
            chains = {}
            for sid, chain in instance.schedules.items():
                where = f"instances.{iid}.schedules.{sid}"
                if sid in holders:
                    raise ValidationError(
                        f"{where}: stream {sid} is held by active instances {holders[sid]} and {iid}"
                    )
                holders[sid] = iid
                if not chain:
                    raise ValidationError(f"{where}: the chain is empty")
                for domain_id, schedule in chain:
                    entry = self.records[domain_id].get(sid) if domain_id in self.records else None
                    if entry is None or (schedule is not None and entry.schedule != schedule):
                        raise ValidationError(
                            f"{where}: the schedule in domain {domain_id} is not its controller's record"
                        )
                domains = [domain_id for domain_id, _ in chain]
                if len(set(domains)) < len(domains):
                    raise ValidationError(f"{where}: the chain names a domain twice ({', '.join(domains)})")
                unnamed = [d for d, admitted in self.records.items() if sid in admitted and d not in domains]
                if unnamed:
                    raise ValidationError(f"{where}: controller {unnamed[0]} holds the stream but is not in the chain")
                chains[sid] = tuple(ChainLink(d, self.records[d][sid].schedule) for d in domains)
            restored[iid] = NsInstance(iid, instance.nsd, instance.placement, chains)
            restored[iid].__dict__["streams"] = instance.streams  # derived once, as on instantiation
        self.instances = restored
        self.holders.clear()
        self.holders.update(holders)

    def instance(self, instance_id: str) -> NsInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise UnknownInstanceError(f"no instance {instance_id}") from None

    # -- lifecycle ---------------------------------------------------------

    def instantiate_ns(
        self,
        nsd: descriptors.Nsd,
        placement: descriptors.Placement,
        instance_id: str | None = None,
    ) -> NsInstance:
        """Derive, route and admit; all of it or none of it.

        Raises before any UNI traffic when descriptors, capabilities,
        placement, or routing are unusable, or when a stream id is held by
        another active instance. Raises AdmissionFailedError after rolling
        back every already-granted reservation when any segment admission
        fails; an exchange that raises is rolled back alike and its error
        raised again. Every compensation runs; if one raises, the first
        such error is raised instead. The failed instance is kept for audit.
        """
        prior = self.instances.get(instance_id)
        if prior is not None and prior.status == "active":
            raise ValidationError(f"instance {instance_id} is already active")

        streams = descriptors.derive_streams(nsd, placement)
        self._check_stream_ids(streams)
        routed: list[_RoutedStream] = []
        for req in streams:
            descriptors.validate_capabilities(
                req,
                nsd.member_capabilities(req.talker.station_id),
                nsd.member_capabilities(req.listener.station_id),
            )
            path = shortest_path(self.topology, req.talker.node_id, req.listener.node_id)
            segments = split_by_domain(path, self.topology)
            budgets = partition_latency_budget(
                req.traffic.max_latency_ns, [len(s.hops) for s in segments]
            )
            routed.append(_RoutedStream(req, segments, budgets))
        # an input rejected before any UNI traffic consumes no instance id
        if instance_id is None:
            instance_id = self._next_instance_id()

        # Deterministic global admission order; tightest periods first.
        order = sorted(
            routed,
            key=lambda r: (
                r.requirement.traffic.period_ns,
                r.requirement.traffic.max_latency_ns,
                r.requirement.stream_id,
            ),
        )

        granted: list[tuple[str, str]] = []  # (domain_id, stream_id)
        chains: dict[str, tuple[ChainLink, ...]] = {}
        for item in order:
            req = item.requirement
            chain: list[ChainLink] = []
            entry_offset = 0
            entry_stride = 0
            for segment, budget in zip(item.segments, item.budgets):
                request = StreamRequest(
                    request_id=self._next_request_id(),
                    requirement=req,
                    hops=tuple(segment.hops),
                    latency_budget_ns=budget,
                    entry_offset_ns=entry_offset,
                    entry_stride_ns=entry_stride,
                )
                try:
                    response = self.dispatcher.dispatch(request, segment.domain_id)
                    if response.status != "ok":
                        cause, detail = response.cause or "unknown", response.detail or ""
                        raise AdmissionFailedError(req.stream_id, segment.domain_id, cause, detail)
                except BaseException:
                    self.instances[instance_id] = NsInstance(instance_id, nsd, placement, {}, "failed")
                    self._rollback(granted)
                    raise
                granted.append((segment.domain_id, req.stream_id))
                chain.append(ChainLink(segment.domain_id, response.schedule))
                entry_offset = response.schedule.exit_offset_ns
                last_hop = segment.hops[-1]
                entry_stride = wire_occupancy(
                    req.traffic.max_frame_bytes,
                    self.topology.link(last_hop.link_id).speed_bps,
                )
            chains[req.stream_id] = tuple(chain)

        instance = NsInstance(instance_id, nsd, placement, chains)
        instance.__dict__["streams"] = streams  # cached as derived, so terminate derives none
        self.instances[instance_id] = instance
        self.holders.update(dict.fromkeys(chains, instance_id))
        return instance

    def _check_stream_ids(self, streams: list[StreamRequirement]) -> None:
        """A stream id names one stream on every controller, so no two
        active instances may derive the same one, and none may derive a
        stream that a controller already holds for a UNI client."""
        for req in streams:
            holder = self.holders.get(req.stream_id)
            if holder is not None:
                raise ValidationError(f"stream {req.stream_id} is held by active instance {holder}")
            for domain_id, admitted in self.records.items():
                if req.stream_id in admitted:
                    raise ValidationError(f"stream {req.stream_id} is already admitted in domain {domain_id}")

    def _rollback(self, granted: list[tuple[str, str]]) -> None:
        """Compensate every grant in reverse order, then raise the first error."""
        errors = []
        for domain_id, stream_id in reversed(granted):
            try:
                self.dispatcher.dispatch(RemoveStream(self._next_request_id(), stream_id), domain_id)
            except BaseException as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def _emit_configs(self, instance: NsInstance) -> list[EndStationConfig]:
        """One config per managed endpoint, against the talker ports'
        current gate control lists: each endpoint talks exactly one of its
        VL's two streams, and the talker document is a superset of the
        listener one, so emitting per talked stream covers everything."""
        configs = []
        for req, chain in instance.stream_schedules():
            first_domain, first = chain[0]
            first_hop = first.reservations[0]
            gcl = self.gcl_provider(first_domain, [first_hop.port_id]).get(first_hop.port_id)
            config = generate_endstation_config(
                req,
                first_hop,
                self.topology,
                instance.nsd.member_capabilities(req.talker.station_id),
                gcl,
            )
            if config is not None:
                configs.append(config)
        return configs

    def terminate_ns(self, instance_id: str) -> NsInstance:
        """Release every reservation of the instance and return its
        terminated record; the schedules stay on it for audit. Bridges
        need no touch beyond the controllers dropping the windows; end
        stations get none."""
        instance = self.instance(instance_id)
        if instance.status != "active":
            raise AlreadyTerminatedError(
                f"instance {instance_id} is {instance.status}, not active"
            )
        return self._release_all(instance)

    def _release_all(self, instance: NsInstance) -> NsInstance:
        """Remove the instance's streams from their controllers, then store
        and return its terminated record. It gives up its stream ids first,
        as the dispatcher removes no stream an active instance holds, and
        takes them back when a removal fails or raises."""
        iid = instance.instance_id
        for sid in instance.schedules:
            self.holders.pop(sid, None)
        try:
            for req in instance.streams:
                for domain_id, _ in instance.schedules.get(req.stream_id, []):
                    request = RemoveStream(request_id=self._next_request_id(), stream_id=req.stream_id)
                    response = self.dispatcher.dispatch(request, domain_id)
                    if response.status != "ok":
                        raise UnknownStreamError(
                            f"controller {domain_id} no longer holds {req.stream_id}: {response.detail}"
                        )
        except BaseException:
            self.holders.update(dict.fromkeys(instance.schedules, iid))
            raise
        done = NsInstance(iid, instance.nsd, instance.placement, instance.schedules, "terminated")
        self.instances[iid] = done
        return done

    def update_ns(
        self,
        instance_id: str,
        new_nsd: descriptors.Nsd,
        new_placement: descriptors.Placement,
    ) -> NsInstance:
        """Replace an instance's descriptors: terminate, then re-instantiate
        under the same id. If the new spec cannot be admitted, the original
        one goes through greedy admission again, which may place its
        windows elsewhere or fail even though its capacity was just freed;
        UpdateFailedError then says whether the instance is active again
        (restored) or was left failed or terminated (not restored)."""
        instance = self.instance(instance_id)
        if instance.status != "active":
            raise UnknownInstanceError(f"instance {instance_id} is {instance.status}")
        self._release_all(instance)
        try:
            return self.instantiate_ns(new_nsd, new_placement, instance_id=instance_id)
        except Exception as exc:
            try:
                # the old record still holds the original descriptors
                self.instantiate_ns(instance.nsd, instance.placement, instance_id=instance_id)
                restored = True
            except Exception:
                restored = False
            raise UpdateFailedError(str(exc), restored) from exc
