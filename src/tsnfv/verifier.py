"""Discrete-event verification oracle.

Replays admitted streams through the topology under the synthesized gate
schedules, with adversarial best-effort background traffic, and reports
observed worst-case latencies and drops. The simulator is an independent
implementation of the gating semantics: it shares no scheduling code
with the controller, so agreement between the two is evidence, not
tautology.

Transmission rule per egress port: the head-of-line frame of the
highest-numbered open-gate non-empty class transmits, and only if it fits
entirely before that gate next closes. Frames that do not fit wait; there
is no preemption and no fragmentation. Store-and-forward with a constant
per-bridge processing delay.

`simulate`'s event loop is the reference. A verification first builds a
plan from the schedules: the scheduled arrivals and departures that the
window starts fix at each port. Every run, the quiet one (background
load 0) included, then takes each port alone against the plan, since
best-effort frames never leave their port: ports meet only through
scheduled arrivals, and an arrival lands strictly after the transmit
that sent it, so restricted to one port the loop's order is (time,
pusher time, the port's own push order). Where every port departs on
plan, by induction on time the replays are the run, port by port. Where
a departure is off plan, or an order no port sees decides, the run
takes the full event loop instead.

Each port's scheduled frames are replayed once, without background
(`_replay_port`). Where no gate entry opens best effort together with a
crossing flow's class, the port is apart: neither delays the other, so
every run reuses that replay, and a loaded run counts best effort alone
by a queue recurrence (`_best_effort`). A coupled port, or a tie the
recurrence cannot order, replays with background. See `_Plan`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .codec import Codec
from .errors import SimConfigError, ValidationError
from .model import (
    GateControlList,
    MAX_FRAME_BYTES,
    StreamRequirement,
    StreamSchedule,
    hyperperiod,
    wire_occupancy,
)
from .topology import Topology

# Background queues are bounded; best-effort drops are reported but never
# fail verification, only scheduled traffic carries guarantees.
BG_QUEUE_CAP = 64
BE_CLASS = 0

# A class whose open runs `_Gates` has not laid yet.
_UNLAID = object()


@dataclass(frozen=True)
class SimConfig:
    duration_cycles: int = 3
    bg_load: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.duration_cycles, int) or self.duration_cycles < 1:
            raise SimConfigError(
                f"duration_cycles must be an integer >= 1, got {self.duration_cycles}"
            )
        try:
            in_range = 0.0 <= self.bg_load <= 1.0
        except TypeError:  # not a number: a string or None
            in_range = False
        if not in_range:
            raise SimConfigError(f"bg_load must be in [0, 1], got {self.bg_load!r}")
        if not isinstance(self.seed, int):
            raise SimConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class ScheduledFlow:
    """One admitted stream, flattened to its full talker-to-listener path:
    the egress ports in order and the window start at each, as offsets
    after every release tick."""

    requirement: StreamRequirement
    ports: tuple[str, ...]
    window_starts_ns: tuple[int, ...]

    @property
    def release_offset_ns(self) -> int:
        """When the talker launches the burst, after each release tick."""
        return self.window_starts_ns[0]


def flow_from_schedules(
    requirement: StreamRequirement, schedules: list[StreamSchedule]
) -> ScheduledFlow:
    """Flatten the per-segment schedules of one stream into a sim flow."""
    hops = [res for schedule in schedules for res in schedule.reservations]
    return ScheduledFlow(
        requirement=requirement,
        ports=tuple(res.port_id for res in hops),
        window_starts_ns=tuple(res.window_start_ns for res in hops),
    )


@dataclass
class StreamReport(Codec):
    stream_id: str
    observed_worst_latency_ns: int = 0
    observed_frame_count: int = 0
    dropped_frames: int = 0


@dataclass
class SimReport(Codec):
    streams: dict[str, StreamReport] = field(default_factory=dict)
    gate_violations: dict[str, int] = field(default_factory=dict)
    be_sent: int = 0
    be_dropped: int = 0
    duration_ns: int = 0

    @property
    def total_violations(self) -> int:
        return sum(self.gate_violations.values())

    @property
    def total_dropped(self) -> int:
        return sum(s.dropped_frames for s in self.streams.values())

    def to_doc(self) -> dict:
        # ports without a violation are left out
        doc = super().to_doc()
        doc["gate_violations"] = {p: v for p, v in self.gate_violations.items() if v}
        return doc


class _Gates:
    """Per-class open intervals of one port's gating cycle, merged
    cyclically. No gate control list means every gate is always open.

    Each class keeps its run starts in ascending order and the matching
    run ends. A run that wraps the cycle boundary is stored last, with its
    end past the cycle; so a query finds its run by bisection. A class's
    runs are laid on first use: a run asks only about the classes of the
    flows that cross the port, and best effort's."""

    def __init__(self, gcl: GateControlList | None):
        self.gcl = gcl
        self.cycle = gcl.cycle_ns if gcl else 0
        self.starts: list[list[int]] = [[] for _ in range(8)]
        self.ends: list[list[int]] = [[] for _ in range(8)]
        # Longest open run per class; None means always open.
        self.longest: list[object] = [_UNLAID if gcl else None] * 8

    def _lay(self, cls: int) -> int | None:
        starts, ends = self.starts[cls], self.ends[cls]
        t = 0
        for entry in self.gcl.entries:
            if entry.gate_states >> cls & 1:
                if ends and ends[-1] == t:
                    ends[-1] += entry.interval_ns
                else:
                    starts.append(t)
                    ends.append(t + entry.interval_ns)
            t += entry.interval_ns
        if len(starts) > 1 and starts[0] == 0 and ends[-1] == self.cycle:
            del starts[0]
            ends[-1] += ends.pop(0)
        longest = None
        if not starts:
            longest = 0
        elif ends[0] - starts[0] < self.cycle:
            longest = max(e - s for s, e in zip(starts, ends))
        self.longest[cls] = longest
        return longest

    def max_run(self, cls: int) -> int | None:
        """Longest open run; None means always open."""
        longest = self.longest[cls]
        return self._lay(cls) if longest is _UNLAID else longest

    def span(self, cls: int, t: int) -> tuple[int | None, int | None]:
        """(start, end) of the open run that holds t, or else of the next
        one. start <= t means open at t, with end the next close (None if
        the gate never closes); start None means the gate never opens."""
        longest = self.longest[cls]
        if longest is _UNLAID:
            longest = self._lay(cls)
        if longest is None:
            return t, None
        starts = self.starts[cls]
        if not starts:
            return None, None
        cycle = self.cycle
        tau = t % cycle
        ends = self.ends[cls]
        i = bisect_right(starts, tau)
        # The last run starting at or before tau; before the first start,
        # the wrapped part of the cycle's last run.
        end = ends[i - 1] if i else ends[-1] - cycle
        if tau < end:
            return t, t + end - tau
        base = t - tau
        if i == len(starts):
            i, base = 0, base + cycle
        return base + starts[i], base + ends[i]


class _Frame:
    """One scheduled frame in flight. A best-effort frame has no state that
    anything reads, so it sits in its class-0 queue as None."""

    __slots__ = ("flow", "cls", "release_tick", "hop")

    def __init__(self, flow: int, cls: int, release_tick: int):
        self.flow = flow  # index into flows
        self.cls = cls
        self.release_tick = release_tick
        self.hop = 0


class _Port:
    """One egress port: its class queues, the time its wire frees up, the
    time of its one pending transmit wakeup, and where a frame sent on it
    arrives. Also what a verification fixes once: a full-size best-effort
    frame's wire time, whether any class-0 run can carry one, and the
    classes of the flows that cross it; and what a run fixes: the classes
    that can queue here, highest first, and the background arrival gaps."""

    __slots__ = (
        "key", "speed", "gates", "queues", "busy_until", "wake_at", "peer_node",
        "propagation_ns", "peer_delay_ns", "be_wire", "be_fits", "flow_classes",
        "classes", "gaps",
    )

    def __init__(self, key: str, topology: Topology, gates: _Gates):
        link = topology.link_at(key)
        if link is None:
            raise ValidationError(f"gate control list for unknown port {key}")
        self.key = key
        self.speed = link.speed_bps
        self.gates = gates
        self.peer_node = link.peer_of(key.split(".", 1)[0])[0]
        self.propagation_ns = link.propagation_ns
        self.peer_delay_ns = topology.node(self.peer_node).forwarding_delay_ns
        self.be_wire = wire_occupancy(MAX_FRAME_BYTES, self.speed)
        cap = gates.max_run(BE_CLASS)
        self.be_fits = cap is None or self.be_wire <= cap
        self.flow_classes: set[int] = set()
        self.reset(background=False)

    def reset(self, background: bool) -> None:
        """Empty queues and an idle wire, for a new run. Only the classes
        of the flows that cross the port, and best effort's under
        background load, ever queue here, so a transmit scans no others."""
        self.queues: list[deque[_Frame | None]] = [deque() for _ in range(8)]
        self.busy_until = 0
        self.wake_at: int | None = None
        classes = (self.flow_classes | {BE_CLASS}) if background else self.flow_classes
        self.classes: tuple[int, ...] = tuple(sorted(classes, reverse=True))
        self.gaps: Iterator[int] | None = None


def _gaps(rng: random.Random, base: int) -> Iterator[int]:
    """One port's background arrival gaps: `base` jittered by up to an
    eighth either way. Each is what `base + rng.randrange(-(base // 8),
    base // 8 + 1)` gives, drawn as `randrange` draws it, so `rng` ends
    in the same state. Below 8 there is no jitter and nothing is drawn."""
    if base < 8:
        yield from itertools.repeat(base)
    least, width = base - base // 8, 2 * (base // 8) + 1
    getrandbits, bits = rng.getrandbits, width.bit_length()
    while True:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        yield least + r


def _build(
    topology: Topology, gcls: dict[str, GateControlList], flows: list[ScheduledFlow]
) -> tuple[dict[str, _Port], list[list[tuple[_Port, int, bool]]]]:
    """Every port a run can use, in sorted order, and each flow's hops
    resolved once: the port, the frame's wire time there, and whether an
    open run of its class can ever carry it (a frame that none can carry
    is lost at that hop)."""
    port_keys = set(topology.all_port_keys()) | set(gcls)
    for flow in flows:
        for port in flow.ports:
            if topology.link_at(port) is None:
                raise ValidationError(f"flow {flow.requirement.stream_id}: unknown port {port}")
            port_keys.add(port)
    ports = {key: _Port(key, topology, _Gates(gcls.get(key))) for key in sorted(port_keys)}
    routes = []
    for flow in flows:
        pcp = flow.requirement.frame.pcp
        route = []
        for key in flow.ports:
            port = ports[key]
            port.flow_classes.add(pcp)
            wire = wire_occupancy(flow.requirement.traffic.max_frame_bytes, port.speed)
            cap = port.gates.max_run(pcp)
            route.append((port, wire, cap is None or wire <= cap))
        routes.append(route)
    return ports, routes


def _background(ports: dict[str, _Port], cfg: SimConfig) -> list[tuple[_Port, int, Iterator[int]]]:
    """One seeded background arrival chain per port, in sorted port order:
    the port, its first arrival and the gaps after it."""
    chains = []
    for idx, port in enumerate(ports.values()):
        rng = random.Random(cfg.seed * 1_000_003 + idx)
        try:
            base = max(1, round(port.be_wire / cfg.bg_load))
        except OverflowError:
            raise SimConfigError(
                f"bg_load {cfg.bg_load!r} is too small: the gap between "
                f"background frames on {port.key} overflows"
            ) from None
        chains.append((port, rng.randrange(0, base + 1), _gaps(rng, base)))
    return chains


def _horizon(gcls: dict[str, GateControlList], flows: list[ScheduledFlow], duration_cycles: int) -> int:
    """When a run stops releasing: `duration_cycles` hyperperiods of the
    flows, or without flows of the longest gate cycle."""
    periods = [f.requirement.traffic.period_ns for f in flows]
    sim_cycle = hyperperiod(periods) if periods else max(
        (g.cycle_ns for g in gcls.values()), default=1_000_000
    )
    return duration_cycles * sim_cycle


def simulate(
    topology: Topology,
    gcls: dict[str, GateControlList],
    flows: list[ScheduledFlow],
    cfg: SimConfig,
    _plan: _Plan | None = None,
) -> SimReport:
    """Run the event simulation and collect the report. Deterministic for
    fixed inputs and seed.

    Each port has at most one pending transmit event ("tx"): `wake` pushes
    one only when it is earlier than the pending one, and a popped tx
    event whose time is no longer the port's pending time is dropped.
    Events run in (time, push order); the hot branches, a background
    arrival and a transmit, do their wakeups inline.

    `_plan` is `verify_ns`'s, built from the same inputs and duration.
    The run first replays each port alone against it (see `_Plan`), and
    takes the event loop only where that fails."""
    report = SimReport(streams={f.requirement.stream_id: StreamReport(f.requirement.stream_id) for f in flows})
    if not flows and cfg.bg_load == 0:
        return report

    t_end = report.duration_ns = _horizon(gcls, flows, cfg.duration_cycles)
    if _plan is not None and _plan.replay(report, cfg):
        return report
    ports, routes = _build(topology, gcls, flows)
    for port in ports.values():
        port.reset(background=cfg.bg_load > 0)

    released = [0] * len(flows)
    recs = [report.streams[flow.requirement.stream_id] for flow in flows]
    be_sent = be_dropped = 0

    # Looked up per run: a push counter may stand in for the module's `heapq`.
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list[tuple[int, int, str, object]] = []
    seq = itertools.count()

    def wake(port: _Port, t: int) -> None:
        # A port evaluated while it is still sending does nothing, so the
        # wakeup moves to the end of the current frame.
        if t < port.busy_until:
            t = port.busy_until
        if port.wake_at is None or t < port.wake_at:
            port.wake_at = t
            heappush(heap, (t, next(seq), "tx", port))

    # Scheduled releases: the talker launches the whole burst at its
    # per-instance transmission offset.
    for i, flow in enumerate(flows):
        period = flow.requirement.traffic.period_ns
        for k in range(t_end // period):
            heappush(heap, (flow.release_offset_ns + k * period, next(seq), "rel", (i, k * period)))

    # Background sources: one seeded arrival chain per port.
    if cfg.bg_load > 0:
        for port, first, gaps in _background(ports, cfg):
            heappush(heap, (first, next(seq), "bg", port))
            port.gaps = gaps

    while heap:
        t, _, action, payload = heappop(heap)

        if action == "bg":
            port = payload
            if t < t_end:
                queue = port.queues[BE_CLASS]
                if port.be_fits and len(queue) < BG_QUEUE_CAP:
                    queue.append(None)
                    t_wake = port.busy_until if t < port.busy_until else t
                    if port.wake_at is None or t_wake < port.wake_at:
                        port.wake_at = t_wake
                        heappush(heap, (t_wake, next(seq), "tx", port))
                else:
                    be_dropped += 1
                heappush(heap, (t + next(port.gaps), next(seq), "bg", port))
            continue

        if action == "rel":
            i, tick = payload
            flow = flows[i]
            count = flow.requirement.traffic.frames_per_period
            released[i] += count
            port, _, fits = routes[i][0]
            if fits:
                cls = flow.requirement.frame.pcp
                port.queues[cls].extend(_Frame(i, cls, tick) for _ in range(count))
                wake(port, t)
            continue

        if action == "enq":
            frame = payload
            port, _, fits = routes[frame.flow][frame.hop]
            if fits:
                port.queues[frame.cls].append(frame)
                wake(port, t)
            continue

        # action == "tx"
        port = payload
        if t != port.wake_at:
            continue  # stale: an earlier wakeup replaced this one
        port.wake_at = None
        # The highest open non-empty class; `opens` is the earliest time a
        # closed non-empty class above it opens.
        queues = port.queues
        chosen = close = opens = None
        for cls in port.classes:
            if queues[cls]:
                start, end = port.gates.span(cls, t)
                if start is None:
                    continue
                if start <= t:
                    chosen, close = cls, end
                    break
                if opens is None or start < opens:
                    opens = start
        if chosen is None:
            if opens is not None:
                wake(port, opens)
            continue
        queue = queues[chosen]
        frame = queue[0]
        wire = port.be_wire if frame is None else routes[frame.flow][frame.hop][1]
        if close is not None and t + wire > close:
            # Highest-priority head does not fit before its gate closes;
            # nothing transmits until the gate landscape changes.
            wake(port, close if opens is None else min(close, opens))
            continue
        queue.popleft()
        # The wire is free from t + wire on, and no wakeup is pending.
        port.busy_until = port.wake_at = t + wire
        heappush(heap, (t + wire, next(seq), "tx", port))

        if frame is None:
            be_sent += 1
            continue
        flow = flows[frame.flow]
        peer_node = port.peer_node
        arrival = t + wire + port.propagation_ns
        if frame.hop + 1 >= len(flow.ports):
            if peer_node != flow.requirement.listener.node_id:
                raise ValidationError(
                    f"flow {flow.requirement.stream_id}: path ends at {peer_node}, "
                    f"listener is at {flow.requirement.listener.node_id}"
                )
            rec = recs[frame.flow]
            latency = arrival - frame.release_tick
            rec.observed_frame_count += 1
            if latency > rec.observed_worst_latency_ns:
                rec.observed_worst_latency_ns = latency
        else:
            frame.hop += 1
            next_port = flow.ports[frame.hop]
            if not next_port.startswith(peer_node + "."):
                raise ValidationError(
                    f"flow {flow.requirement.stream_id}: hop {frame.hop} egresses "
                    f"{next_port}, frame arrived at {peer_node}"
                )
            heappush(heap, (arrival + port.peer_delay_ns, next(seq), "enq", frame))

    for rec, count in zip(recs, released):
        rec.dropped_frames = count - rec.observed_frame_count
    report.be_sent, report.be_dropped = be_sent, be_dropped
    return report


# A time after every event of a run.
_NEVER = 1 << 62


class _Plan:
    """What the schedules fix for every run of one verification.

    The replays share the ports, built once. The window starts fix each
    port's scheduled departures: frame j of the burst released at `tick`
    leaves hop h at `tick + start_h + j * wire_h`, and reaches hop h + 1 a
    wire time, the propagation and the bridge's forwarding delay later.
    An arrival carries its time, its pusher time (the departure that sent
    it, or -1 for a release), its set-up order, class, burst size and wire
    time, and the frame's flow, release tick and hop.

    A run takes each port alone on its planned arrivals plus its own
    background chain, and checks that the port departs on plan. Ports
    meet only through arrivals, and an arrival lands strictly after the
    transmit that pushed it, so a port's events run in the global order
    (time, push order) exactly when they run in (time, pusher time, the
    port's own push order). If every port departs on plan, so does the
    run, by induction on time: at the run's earliest deviation, every
    arrival at its port came from an earlier departure, on plan, so that
    port's replay deviates too. The report is then the planned latencies
    with the background counts summed; otherwise `simulate` runs the
    full event loop.

    A port is apart when no flow crosses it, or when it has a gate list
    in which no entry opens class 0 together with a crossing flow's
    class; else it is coupled. On an apart port best effort and the
    flows never have open gates at once, and a frame is sent only if it
    ends before its own gate closes, so neither is ever on the wire
    while the other's gate is open: in any order of ties, neither waits
    for the other. Its scheduled departures are then its quiet ones at
    every load, and its best effort alone is a FIFO queue with one
    service time, which `_best_effort` counts. On first use the plan
    replays each port's scheduled arrivals without background and keeps
    the ports off plan, for the quiet run and every loaded run. A loaded
    run replays with background (`_replay_port`) only on a coupled port,
    or where an arrival ties a best-effort start with the queue full.

    `_replay_port` fails where a scheduled arrival ties another event of
    its port on time and pusher time, an order no port sees, except for
    two ties that commute: with a background arrival, and with an arrival
    of another class (each appends to its own queue, and both wake the
    port to the same time). No run replays where two same-class arrivals
    tie, since that order is their FIFO order; nor where a flow cannot
    follow its plan (`_fixed`), or two flows share a stream id."""

    __slots__ = ("ports", "t_end", "arrivals", "departures", "streams", "coupled", "off_plan")

    def __init__(
        self, topology: Topology, gcls: dict[str, GateControlList], flows: list[ScheduledFlow], duration_cycles: int
    ):
        self.ports, routes = _build(topology, gcls, flows)
        self.t_end = _horizon(gcls, flows, duration_cycles)
        self.coupled = {key for key, port in self.ports.items() if _coupled(port)}
        self.off_plan: set[str] | None = None  # ports off plan in the quiet run; None: not replayed yet
        self.arrivals: dict[str, list[tuple]] | None = None  # None: no run replays
        if len({flow.requirement.stream_id for flow in flows}) < len(flows) or not all(map(_fixed, flows, routes)):
            return
        arrivals: dict[str, list[tuple]] = {key: [] for key in self.ports}
        departures: dict[str, list[tuple[int, tuple[int, int, int]]]] = {key: [] for key in self.ports}
        streams = []  # per flow: stream id, worst latency, frame count
        order = 0  # releases are pushed first, in this order
        for i, (flow, route) in enumerate(zip(flows, routes)):
            traffic, cls = flow.requirement.traffic, flow.requirement.frame.pcp
            count, ticks = traffic.frames_per_period, range(0, self.t_end, traffic.period_ns)
            port, wire, _ = route[0]
            arrivals[port.key] += [
                (tick + flow.release_offset_ns, -1, order + k, cls, count, wire, (i, tick, 0))
                for k, tick in enumerate(ticks)
            ]
            order += len(ticks)
            hops = list(zip(route, flow.window_starts_ns, strict=True))
            for hop, ((port, wire, _), start) in enumerate(hops):
                sends = [(tick + start + j * wire, tick) for tick in ticks for j in range(count)]
                departures[port.key] += [(t, (i, tick, hop)) for t, tick in sends]
                if hop + 1 < len(hops):
                    nxt, nxt_wire, _ = route[hop + 1]
                    lag = wire + port.propagation_ns + port.peer_delay_ns
                    arrivals[nxt.key] += [(t + lag, t, 0, cls, 1, nxt_wire, (i, tick, hop + 1)) for t, tick in sends]
            (port, wire, _), start = hops[-1]
            streams.append((flow.requirement.stream_id, start + count * wire + port.propagation_ns, count * len(ticks)))
        for entries in arrivals.values():
            entries.sort()
            for a, b in zip(entries, entries[1:]):
                if a[0] == b[0] and a[1] == b[1] >= 0 and a[3] == b[3]:
                    return  # a same-class tie: FIFO order is the ports' order
        for entries in departures.values():
            entries.sort()
        self.arrivals, self.departures, self.streams = arrivals, departures, streams

    def replay(self, report: SimReport, cfg: SimConfig) -> bool:
        """Fill `report` from per-port replays of the run at `cfg`'s load;
        False, and `report` untouched, where the event loop must run
        instead."""
        if self.arrivals is None:
            return False
        if self.off_plan is None:  # the quiet verdict, kept for every run
            self.off_plan = {
                key for key, arrivals in self.arrivals.items()
                if arrivals and _replay_port(self.ports[key], arrivals, self.departures[key], []) is None
            }
        # an apart port departs at every load as it does in the quiet run
        if self.off_plan - self.coupled or (self.off_plan and cfg.bg_load == 0):
            return False
        be_sent = be_dropped = 0
        if cfg.bg_load > 0:
            t_end = self.t_end
            for port, first, gaps in _background(self.ports, cfg):
                times = list(itertools.takewhile(t_end.__gt__, itertools.accumulate(gaps, initial=first)))
                key = port.key
                counts = None if key in self.coupled else _best_effort(port, times)
                if counts is None:
                    counts = _replay_port(port, self.arrivals[key], self.departures[key], times)
                    if counts is None:
                        return False
                be_sent += counts[0]
                be_dropped += counts[1]
        report.streams = {sid: StreamReport(sid, worst, count) for sid, worst, count in self.streams}
        report.be_sent, report.be_dropped = be_sent, be_dropped
        return True


def _fixed(flow: ScheduledFlow, route: list[tuple[_Port, int, bool]]) -> bool:
    """Whether the plan fixes `flow`'s departures: each hop's class can
    carry its frame, each hop egresses where the last one's frame arrived,
    and the last reaches the listener. Elsewhere the event loop drops the
    frame, which a replay would hold forever, or raises as it does without
    a plan. A class-0 flow's frames share best effort's queue, so their
    order is never fixed."""
    if flow.requirement.frame.pcp == BE_CLASS or not all(fits for _, _, fits in route):
        return False
    nodes = [port.peer_node for port, _, _ in route]
    return nodes[-1] == flow.requirement.listener.node_id and all(
        key.startswith(node + ".") for node, key in zip(nodes, flow.ports[1:])
    )


def _coupled(port: _Port) -> bool:
    """Whether best effort can share an open gate with a flow crossing
    `port`: it has no gate list, or an entry opens class 0 together with
    a crossing flow's class."""
    mask, gcl = sum(1 << cls for cls in port.flow_classes), port.gates.gcl
    return mask > 0 and (gcl is None or any(e.gate_states & 1 and e.gate_states & mask for e in gcl.entries))


def _best_effort(port: _Port, bg_times: list[int]) -> tuple[int, int] | None:
    """Best effort alone on an apart port: (frames sent, dropped), or
    None where an arrival lands on a start while the queue is at the cap.

    The queue is FIFO with one service time, so Lindley's recurrence
    gives each accepted frame's start: the earliest time at or after both
    its arrival and the last start plus `be_wire` at which a class-0 open
    run holds the whole frame. A frame leaves the queue as it starts, so
    an arrival is dropped when `BG_QUEUE_CAP` accepted frames start after
    it. A start at the arrival's own time leaves first or not by the push
    order of the two, which only a replay knows; at the cap that order
    decides the drop. Every accepted frame is sent, after the horizon if
    need be."""
    if not port.be_fits:
        return 0, len(bg_times)
    span, wire = port.gates.span, port.be_wire
    starts: list[int] = []
    head = 0  # the first start at or after the arrival, where one is
    full = -BG_QUEUE_CAP  # the queue is full while `head` is here
    last, latest = -wire, -1  # the last start; the latest that class 0's open run holds
    for t in bg_times:
        if t <= last:
            while starts[head] < t:
                head += 1
            if head == full:
                if starts[head] == t:
                    return None
                continue
        s = last + wire if last + wire > t else t
        if s > latest:
            # never None: `be_fits` says some open run holds a frame
            lo, hi = span(BE_CLASS, s)
            while hi is not None and (lo if lo > s else s) + wire > hi:
                lo, hi = span(BE_CLASS, hi)
            latest = _NEVER if hi is None else hi - wire
            if lo > s:
                s = lo
        starts.append(s)
        last = s
        full += 1
    return len(starts), len(bg_times) - len(starts)


def _replay_port(
    port: _Port, arrivals: list[tuple], departures: list, bg_times: list[int]
) -> tuple[int, int] | None:
    """One port of a run, alone: its planned scheduled arrivals and its
    background arrival times, under the event loop's rules. Events run in
    (time, pusher time, push order); an arrival goes first on equal time
    and pusher time. Returns (best-effort frames sent, dropped), or
    None where a scheduled departure is off plan or an arrival ties a
    pending transmit on time and pusher time.

    Every port's quiet run replays here, without background. A loaded
    run replays here only where best effort and the scheduled frames
    can meet, on a coupled port, or where `_best_effort` cannot order a
    background arrival that ties a start with the queue full."""
    heappush, heappop = heapq.heappush, heapq.heappop
    span = port.gates.span
    be_wire = port.be_wire
    cap = BG_QUEUE_CAP if port.be_fits else 0
    scheduled = tuple(sorted(port.flow_classes, reverse=True))
    queues: list[deque[tuple[int, tuple]]] = [deque() for _ in range(8)]
    queued = waiting = 0  # scheduled and best-effort frames queued
    busy = 0
    wake_at = None
    heap: list[tuple[int, int, int]] = []  # transmits: (time, pusher time, push order)
    order = 1
    next_background = iter([*bg_times, _NEVER]).__next__
    tb, pb, ob = next_background(), -1, 0
    dropped = matched = 0
    ia, na = 0, len(arrivals)
    ta, pa = arrivals[0][:2] if na else (_NEVER, _NEVER)
    # Class 0 is closed over [lo, opens_0) and open over [opens_0, closes_0).
    lo = opens_0 = closes_0 = 0
    while True:
        tt, tp, to = heap[0] if heap else (_NEVER, _NEVER, _NEVER)
        background = tb < tt or (tb == tt and (pb < tp or (pb == tp and ob < to)))
        t, p = (tb, pb) if background else (tt, tp)
        if ta < t or (ta == t and pa <= p):
            if ta == _NEVER:
                break
            now, pusher, _, cls, count, wire, frame = arrivals[ia]
            ia += 1
            ta, pa = arrivals[ia][:2] if ia < na else (_NEVER, _NEVER)
            if pusher >= 0 and any(e[0] == now and e[1] == pusher for e in heap):
                return None
            queues[cls].extend(itertools.repeat((wire, frame), count))
            queued += count
            w = busy if now < busy else now
            if wake_at is None or w < wake_at:
                wake_at = w
                heappush(heap, (w, now, order))
                order += 1
            continue
        if t == _NEVER:
            break
        if background:
            now = tb
            if waiting < cap:
                waiting += 1
                w = busy if now < busy else now
                if wake_at is None or w < wake_at:
                    wake_at = w
                    heappush(heap, (w, now, order))
                    order += 1
            else:
                dropped += 1
            tb = next_background()
            pb, ob = now, order
            order += 1
            continue
        heappop(heap)
        if tt != wake_at:
            continue
        wake_at = None
        now = tt
        chosen = close = opens = None
        if queued:
            for cls in scheduled:
                if queues[cls]:
                    start, end = span(cls, now)
                    if start is None:
                        continue
                    if start <= now:
                        chosen, close = cls, end
                        break
                    if opens is None or start < opens:
                        opens = start
        if chosen is None and waiting:
            if not lo <= now < closes_0:
                # never None: a class 0 that never opens queues nothing
                start, end = span(BE_CLASS, now)
                lo, opens_0, closes_0 = now, start, _NEVER if end is None else end
            if opens_0 <= now:
                chosen, close = BE_CLASS, closes_0
            elif opens is None or opens_0 < opens:
                opens = opens_0
        if chosen is not None:
            wire = queues[chosen][0][0] if chosen else be_wire
            if close is None or now + wire <= close:
                busy = wake_at = now + wire
                heappush(heap, (busy, now, order))
                order += 1
                if chosen:
                    _, frame = queues[chosen].popleft()
                    queued -= 1
                    if matched == len(departures) or departures[matched] != (now, frame):
                        return None
                    matched += 1
                else:
                    waiting -= 1
                continue
            opens = close if opens is None else min(close, opens)
        if opens is not None:
            wake_at = busy if opens < busy else opens
            heappush(heap, (wake_at, now, order))
            order += 1
    if matched < len(departures):
        return None
    return len(bg_times) - dropped - waiting, dropped


def malformed_gcl_keys(doc: dict) -> list[str]:
    """Key paths of a gate control list document that are missing or not
    integers: `cycle_ns`, and `gate_states` and `interval_ns` of every
    entry. The other checks need all of them."""
    bad = [] if type(doc.get("cycle_ns")) is int else ["cycle_ns"]
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return bad + ["entries"]
    for index, entry in enumerate(entries):
        for key in ("gate_states", "interval_ns"):
            if not isinstance(entry, dict) or type(entry.get(key)) is not int:
                bad.append(f"entries[{index}].{key}")
    return bad


def check_gcl_wellformed(gcl: GateControlList | dict, link_speed_bps: int) -> list[dict]:
    """Structural checks on one gate control list; empty result means ok.

    Accepts the document form as well, so hand-corrupted or hand-built
    lists that the typed constructor would reject can still be examined.
    A document with a missing or non-integer value gets one `bad_entry`
    violation per such key and no other check.
    """
    if isinstance(gcl, GateControlList):
        doc = gcl.to_doc()
    else:
        doc = gcl
    bad = malformed_gcl_keys(doc)
    if bad:
        return [{"kind": "bad_entry", "key": key} for key in bad]
    violations: list[dict] = []
    cycle = doc["cycle_ns"]
    entries = [(e["gate_states"], e["interval_ns"]) for e in doc["entries"]]

    total = 0
    for mask, interval in entries:
        if interval <= 0:
            violations.append({"kind": "zero_length", "interval_ns": interval})
        total += interval
    if total != cycle:
        violations.append({"kind": "sum_mismatch", "sum_ns": total, "cycle_ns": cycle})

    # Scheduled windows carry exactly one open gate. Class 0 never owns a
    # window, so a lone bit 0 is the remaining-time mask of a port whose
    # other seven classes all hold windows, not a window itself.
    owned = 0
    for mask, _ in entries:
        if mask != 0 and mask != 0x01 and mask & (mask - 1) == 0:
            owned |= mask
    expected_others = 0xFF & ~owned
    for index, (mask, _) in enumerate(entries):
        if mask == 0 or (mask != 0x01 and mask & (mask - 1) == 0):
            continue
        if mask != expected_others:
            violations.append({"kind": "bad_window_gates", "entry": index, "gate_states": mask})

    # Guards must cover one full-size best-effort frame; a guard split by
    # the cycle boundary counts as one run. A run right after a window may
    # be shorter: best effort has been off the wire since before it.
    need = wire_occupancy(MAX_FRAME_BYTES, link_speed_bps)
    runs: list[list[int]] = []  # [start, length, mask of the entry before]
    t = 0
    before = entries[-1][0] if entries else 0
    for mask, interval in entries:
        if mask == 0:
            if runs and runs[-1][0] + runs[-1][1] == t:
                runs[-1][1] += interval
            else:
                runs.append([t, interval, before])
        before = mask
        t += interval
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][0] + runs[-1][1] == total:
        first = runs.pop(0)
        runs[-1][1] += first[1]
    for start, length, before in runs:
        after_window = before not in (0, 0x01) and before & (before - 1) == 0
        if length < need and not after_window:
            violations.append(
                {"kind": "guard_too_short", "start_ns": start, "have_ns": length, "need_ns": need}
            )
    return violations


@dataclass
class VerifyResult(Codec):
    passed: bool
    gcl_violations: dict[str, list[dict]]
    reports: dict[str, SimReport]


def verify_ns(instance, topology: Topology, gcls: dict[str, dict], cfg: SimConfig) -> VerifyResult:
    """Full verification of one active NS instance.

    Checks every gate control list structurally, then simulates at zero
    and at saturating background load (plus the configured load when it
    differs). Passes iff all lists are well formed and no run drops a
    scheduled frame, exceeds a stream's latency bound, or disagrees with
    bg0 on a stream's worst latency. A replayed run takes the planned
    latencies, so only a run that fell back to the event loop can
    disagree.
    """
    if getattr(instance, "status", None) != "active":
        raise ValidationError(
            f"instance {getattr(instance, 'instance_id', '?')} is not active"
        )

    gcl_violations: dict[str, list[dict]] = {}
    for port, doc in sorted(gcls.items()):
        link = topology.link_at(port)
        if link is None:
            gcl_violations[port] = [{"kind": "unknown_port"}]
            continue
        found = check_gcl_wellformed(doc, link.speed_bps)
        if found:
            gcl_violations[port] = found
    if gcl_violations:
        return VerifyResult(passed=False, gcl_violations=gcl_violations, reports={})

    typed = {port: GateControlList.from_doc(doc) for port, doc in gcls.items()}
    flows = [
        flow_from_schedules(req, [sched for _, sched in chain])
        for req, chain in instance.stream_schedules()
    ]

    loads = [0.0, 1.0]
    if cfg.bg_load not in (0.0, 1.0):
        loads.append(cfg.bg_load)
    reports: dict[str, SimReport] = {}
    plan = _Plan(topology, typed, flows, cfg.duration_cycles)
    for load in loads:
        run_cfg = SimConfig(duration_cycles=cfg.duration_cycles, bg_load=load, seed=cfg.seed)
        reports[f"bg{load:g}"] = simulate(topology, typed, flows, run_cfg, plan)

    passed = True
    baseline = reports["bg0"]
    for report in reports.values():
        if report.total_dropped:
            passed = False
        for flow in flows:
            sid = flow.requirement.stream_id
            rec = report.streams[sid]
            if rec.observed_worst_latency_ns > flow.requirement.traffic.max_latency_ns:
                passed = False
            if rec.observed_worst_latency_ns != baseline.streams[sid].observed_worst_latency_ns:
                passed = False
    return VerifyResult(passed=passed, gcl_violations={}, reports=reports)
