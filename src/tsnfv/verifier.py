"""Discrete-event verification oracle.

Replays admitted streams through the topology under the synthesized gate
schedules, with adversarial best-effort background traffic, and reports
observed worst-case latencies, drops, and gate violations. The simulator
is an independent implementation of the gating semantics: it shares no
scheduling code with the controller, so agreement between the two is
evidence, not tautology.

Transmission rule per egress port: the head-of-line frame of the
highest-numbered open-gate non-empty class transmits, and only if it fits
entirely before that gate next closes. Frames that do not fit wait; there
is no preemption and no fragmentation. Store-and-forward with a constant
per-bridge processing delay.
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
    the egress ports in order, the talker launch offset, and the latency
    the scheduler promised."""

    requirement: StreamRequirement
    ports: tuple[str, ...]
    release_offset_ns: int
    planned_latency_ns: int


def flow_from_schedules(
    requirement: StreamRequirement, schedules: list[StreamSchedule]
) -> ScheduledFlow:
    """Flatten the per-segment schedules of one stream into a sim flow."""
    ports = tuple(
        res.port_id for schedule in schedules for res in schedule.reservations
    )
    return ScheduledFlow(
        requirement=requirement,
        ports=ports,
        release_offset_ns=schedules[0].reservations[0].window_start_ns,
        planned_latency_ns=schedules[-1].exit_offset_ns,
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
    end past the cycle; so a query finds its run by bisection."""

    def __init__(self, gcl: GateControlList | None):
        self.cycle = gcl.cycle_ns if gcl else 0
        self.starts: list[list[int]] = [[] for _ in range(8)]
        self.ends: list[list[int]] = [[] for _ in range(8)]
        # Longest open run per class; None means always open.
        self.longest: list[int | None] = [None] * 8
        if gcl is None:
            return
        for cls in range(8):
            starts, ends = self.starts[cls], self.ends[cls]
            t = 0
            for entry in gcl.entries:
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
            if not starts:
                self.longest[cls] = 0
            elif ends[0] - starts[0] < self.cycle:
                self.longest[cls] = max(e - s for s, e in zip(starts, ends))

    def max_run(self, cls: int) -> int | None:
        """Longest open run; None means always open."""
        return self.longest[cls]

    def span(self, cls: int, t: int) -> tuple[int | None, int | None]:
        """(start, end) of the open run that holds t, or else of the next
        one. start <= t means open at t, with end the next close (None if
        the gate never closes); start None means the gate never opens."""
        if self.longest[cls] is None:
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
    arrives. Also what a run fixes once: a full-size best-effort frame's
    wire time, whether any class-0 run can carry one, the classes that can
    queue here, highest first, and the background arrival gaps."""

    __slots__ = (
        "key", "speed", "gates", "queues", "busy_until", "wake_at", "violations",
        "peer_node", "propagation_ns", "peer_delay_ns", "be_wire", "be_fits", "classes", "gaps",
    )

    def __init__(self, key: str, topology: Topology, gates: _Gates):
        link = topology.link_at(key)
        if link is None:
            raise ValidationError(f"gate control list for unknown port {key}")
        self.key = key
        self.speed = link.speed_bps
        self.gates = gates
        self.queues: list[deque[_Frame | None]] = [deque() for _ in range(8)]
        self.busy_until = 0
        self.wake_at: int | None = None
        self.violations = 0
        self.peer_node = link.peer_of(key.split(".", 1)[0])[0]
        self.propagation_ns = link.propagation_ns
        self.peer_delay_ns = topology.node(self.peer_node).forwarding_delay_ns
        self.be_wire = wire_occupancy(MAX_FRAME_BYTES, self.speed)
        cap = gates.max_run(BE_CLASS)
        self.be_fits = cap is None or self.be_wire <= cap
        self.classes: tuple[int, ...] = ()
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


def simulate(
    topology: Topology,
    gcls: dict[str, GateControlList],
    flows: list[ScheduledFlow],
    cfg: SimConfig,
) -> SimReport:
    """Run the event simulation and collect the report. Deterministic for
    fixed inputs and seed.

    Each port has at most one pending transmit event ("tx"): `wake` pushes
    one only when it is earlier than the pending one, and a popped tx
    event whose time is no longer the port's pending time is dropped.
    Events run in (time, push order); the hot branches, a background
    arrival and a transmit, do their wakeups inline."""
    report = SimReport()
    for flow in flows:
        report.streams[flow.requirement.stream_id] = StreamReport(
            stream_id=flow.requirement.stream_id
        )
    if not flows and cfg.bg_load == 0:
        return report

    periods = [f.requirement.traffic.period_ns for f in flows]
    sim_cycle = hyperperiod(periods) if periods else max(
        (g.cycle_ns for g in gcls.values()), default=1_000_000
    )
    t_end = cfg.duration_cycles * sim_cycle
    report.duration_ns = t_end

    port_keys = set(topology.all_port_keys()) | set(gcls)
    for flow in flows:
        for port in flow.ports:
            if topology.link_at(port) is None:
                raise ValidationError(f"flow {flow.requirement.stream_id}: unknown port {port}")
            port_keys.add(port)

    ports: dict[str, _Port] = {
        key: _Port(key, topology, _Gates(gcls.get(key))) for key in sorted(port_keys)
    }
    # Each flow's hops, resolved once: the port, the frame's wire time
    # there, and whether an open run of its class can ever carry it (a
    # frame that none can carry is lost at that hop). Only the classes of
    # the flows that cross a port, and best effort's, ever queue there, so
    # a transmit scans no others.
    classes = {key: {BE_CLASS} if cfg.bg_load > 0 else set() for key in ports}
    routes = []
    for flow in flows:
        pcp = flow.requirement.frame.pcp
        route = []
        for key in flow.ports:
            port = ports[key]
            classes[key].add(pcp)
            wire = wire_occupancy(flow.requirement.traffic.max_frame_bytes, port.speed)
            cap = port.gates.max_run(pcp)
            route.append((port, wire, cap is None or wire <= cap))
        routes.append(route)
    for key, port in ports.items():
        port.classes = tuple(sorted(classes[key], reverse=True))

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
        for k in range(cfg.duration_cycles * sim_cycle // period):
            heappush(heap, (flow.release_offset_ns + k * period, next(seq), "rel", (i, k * period)))

    # Background sources: one seeded arrival chain per port.
    if cfg.bg_load > 0:
        for idx, port in enumerate(ports.values()):
            rng = random.Random(cfg.seed * 1_000_003 + idx)
            try:
                base = max(1, round(port.be_wire / cfg.bg_load))
            except OverflowError:
                raise SimConfigError(
                    f"bg_load {cfg.bg_load!r} is too small: the gap between "
                    f"background frames on {port.key} overflows"
                ) from None
            heappush(heap, (rng.randrange(0, base + 1), next(seq), "bg", port))
            port.gaps = _gaps(rng, base)

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
    report.gate_violations = {key: p.violations for key, p in ports.items()}
    return report


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
    differs). Passes iff all lists are well formed, no scheduled frame is
    dropped, no gate is violated, every stream stays within its latency
    bound, and the runs agree on every scheduled latency.
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
    for load in loads:
        run_cfg = SimConfig(duration_cycles=cfg.duration_cycles, bg_load=load, seed=cfg.seed)
        reports[f"bg{load:g}"] = simulate(topology, typed, flows, run_cfg)

    passed = True
    baseline = reports["bg0"]
    for report in reports.values():
        if report.total_dropped or report.total_violations:
            passed = False
        for flow in flows:
            sid = flow.requirement.stream_id
            rec = report.streams[sid]
            if rec.observed_worst_latency_ns > flow.requirement.traffic.max_latency_ns:
                passed = False
            if rec.observed_worst_latency_ns != baseline.streams[sid].observed_worst_latency_ns:
                passed = False
    return VerifyResult(passed=passed, gcl_violations={}, reports=reports)
