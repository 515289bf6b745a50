"""Straightforward versions of what the package does faster, kept as
references for the differential tests.

- `check_candidate` tests a candidate window start against every
  expanded instance of every window on the port, where the controller
  bisects a kept layout (`tsnfv.cnc._check_candidate`).
- `shortest_path` is a best-first search keyed on (hop count, hop
  sequence), where the topology reads a table filled by one breadth-first
  search per source (`tsnfv.topology.shortest_path`).
- `simulate` allocates a frame per best-effort arrival, works out each
  frame's wire time and gate fit at every hop, and scans all eight class
  queues on each transmit, where the package's simulator fixes those per
  port and per flow once a run and handles background arrivals and
  transmits inline (`tsnfv.verifier.simulate`). It builds the package's
  report types and shares only the model's arithmetic.

All must give the same answers, errors and messages included.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_right
from collections import deque

from tsnfv.cnc import _overlaps, _queue_order_conflict, _Window
from tsnfv.errors import InfeasibleError, NoPathError, ValidationError
from tsnfv.model import MAX_FRAME_BYTES, hyperperiod, wire_occupancy
from tsnfv.topology import Hop, Path
from tsnfv.verifier import SimReport, StreamReport

BG_QUEUE_CAP = 64
BE_CLASS = 0


def port_windows(state, port: str, cycle: int) -> list[_Window]:
    """Expand the port's committed reservations, read from the admitted
    schedules, into their per-period instances on the given cycle, in
    (start, stream id) order."""
    windows = []
    for sid, entry in state.admitted.items():
        period = entry.requirement.traffic.period_ns
        for res in [res for res in entry.schedule.reservations if res.port_id == port]:
            for k in range(cycle // period):
                shift = k * period
                windows.append(
                    _Window(
                        start=(res.window_start_ns + shift) % cycle,
                        length=res.length_ns,
                        traffic_class=res.traffic_class,
                        stream_id=sid,
                        queue_at=(res.queue_from_ns + shift) % cycle,
                        queue_len=res.window_end_ns - res.queue_from_ns,
                    )
                )
    windows.sort(key=lambda w: (w.start, w.stream_id))
    return windows


def place_window(
    port, existing, earliest, burst, guard, period, cycle, traffic_class, queue_from,
) -> int:
    """The first start at or after `earliest` that check_candidate accepts."""
    instances = cycle // period
    start = earliest
    limit = earliest + cycle
    while True:
        if start >= limit:
            raise InfeasibleError("no_free_window", f"no window fits on {port}")
        advance = check_candidate(
            existing, start, burst, guard, period, instances, cycle,
            traffic_class, queue_from, port,
        )
        if advance == 0:
            return start
        start += advance


def check_candidate(
    existing, start, burst, guard, period, instances, cycle, traffic_class, queue_from, port,
) -> int:
    """Return 0 when the candidate fits, otherwise the smallest advance of
    the window start worth trying next. Raises when no advance can help."""
    q_rel = start if queue_from is None else queue_from
    q_len = start + burst - q_rel
    for k in range(instances):
        a = (start + k * period) % cycle
        a_end = a + burst
        for other in existing:
            # wire exclusivity
            if _overlaps(a, burst, other.start, other.length, cycle):
                adv = (other.end - a) % cycle
                if adv == 0:
                    raise InfeasibleError(
                        "no_free_window", f"port {port} is fully reserved"
                    )
                return adv
        # guard spacing against nearest neighbours
        prev_gap = None
        next_gap = None
        for other in existing:
            before = (a - other.end % cycle) % cycle
            after = (other.start % cycle - a_end % cycle) % cycle
            if prev_gap is None or before < prev_gap:
                prev_gap = before
            if next_gap is None or after < next_gap:
                next_gap = after
        if prev_gap is not None and 0 < prev_gap < guard:
            return guard - prev_gap
        if next_gap is not None and 0 < next_gap < guard:
            return next_gap
        # queue order against same-class residents
        q_at = (q_rel + k * period) % cycle
        for other in existing:
            if other.traffic_class != traffic_class:
                continue
            verdict = _queue_order_conflict(q_at, q_len, burst, other, cycle)
            if verdict == "advance":
                if queue_from is None:
                    return (other.end - a) % cycle or cycle
                raise InfeasibleError(
                    "no_free_window",
                    f"queue order conflict with {other.stream_id} on {port}",
                )
            if verdict == "abort":
                raise InfeasibleError(
                    "no_free_window",
                    f"queue order conflict with {other.stream_id} on {port}",
                )
    return 0


def shortest_path(topology, src_node: str, dst_node: str) -> Path:
    """Minimum-hop path from src to dst, ties broken by the smallest
    sequence of (egress node, egress port) pairs."""
    topology.node(src_node)
    topology.node(dst_node)
    if src_node == dst_node:
        raise NoPathError(f"no path: {src_node} to itself (zero-hop streams are rejected)")
    heap = [(0, (), src_node, ())]
    settled: set[str] = set()
    while heap:
        hops_count, seq, node_id, hops = heapq.heappop(heap)
        if node_id == dst_node:
            return Path(hops)
        if node_id in settled:
            continue
        settled.add(node_id)
        for link in topology._adjacency[node_id]:
            egress_port = link.port_of(node_id)
            peer, _ = link.peer_of(node_id)
            if peer in settled:
                continue
            hop = Hop(node_id, egress_port, link.link_id, peer)
            heapq.heappush(
                heap,
                (hops_count + 1, seq + ((node_id, egress_port),), peer, hops + (hop,)),
            )
    raise NoPathError(f"no path from {src_node} to {dst_node}")


class _Gates:
    """Per-class open runs of one port's gating cycle, merged cyclically;
    no gate control list means every gate is always open."""

    def __init__(self, gcl):
        self.cycle = gcl.cycle_ns if gcl else 0
        self.starts: list[list[int]] = [[] for _ in range(8)]
        self.ends: list[list[int]] = [[] for _ in range(8)]
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

    def max_run(self, cls):
        return self.longest[cls]

    def span(self, cls, t):
        if self.longest[cls] is None:
            return t, None
        starts = self.starts[cls]
        if not starts:
            return None, None
        cycle = self.cycle
        tau = t % cycle
        ends = self.ends[cls]
        i = bisect_right(starts, tau)
        end = ends[i - 1] if i else ends[-1] - cycle
        if tau < end:
            return t, t + end - tau
        base = t - tau
        if i == len(starts):
            i, base = 0, base + cycle
        return base + starts[i], base + ends[i]


class _Frame:
    def __init__(self, flow, cls, nbytes, release_tick):
        self.flow = flow  # index into flows, None for best effort
        self.cls = cls
        self.bytes = nbytes
        self.release_tick = release_tick
        self.hop = 0


class _Port:
    def __init__(self, key, topology, gates):
        link = topology.link_at(key)
        if link is None:
            raise ValidationError(f"gate control list for unknown port {key}")
        self.key = key
        self.speed = link.speed_bps
        self.gates = gates
        self.queues = [deque() for _ in range(8)]
        self.busy_until = 0
        self.wake_at = None
        self.violations = 0
        self.peer_node = link.peer_of(key.split(".", 1)[0])[0]
        self.propagation_ns = link.propagation_ns
        self.peer_delay_ns = topology.node(self.peer_node).forwarding_delay_ns


def simulate(topology, gcls, flows, cfg, departures=None) -> SimReport:
    """The event simulation: the same events, at the same times, in the
    same order, as `tsnfv.verifier.simulate`. A `departures` list gets
    each scheduled transmit as (flow index, release tick, hop, time)."""
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

    ports = {key: _Port(key, topology, _Gates(gcls.get(key))) for key in sorted(port_keys)}
    released = {i: 0 for i in range(len(flows))}
    heap = []
    seq = itertools.count()

    def push(t, action, payload):
        heapq.heappush(heap, (t, next(seq), action, payload))

    def wake(port, t):
        if t < port.busy_until:
            t = port.busy_until
        if port.wake_at is None or t < port.wake_at:
            port.wake_at = t
            heapq.heappush(heap, (t, next(seq), "tx", port))

    for i, flow in enumerate(flows):
        period = flow.requirement.traffic.period_ns
        for k in range(cfg.duration_cycles * sim_cycle // period):
            push(flow.release_offset_ns + k * period, "rel", (i, k * period))

    if cfg.bg_load > 0:
        for idx, port in enumerate(ports.values()):
            rng = random.Random(cfg.seed * 1_000_003 + idx)
            base = max(1, round(wire_occupancy(MAX_FRAME_BYTES, port.speed) / cfg.bg_load))
            push(rng.randrange(0, base + 1), "bg", (port, rng, base))

    def enqueue(port, frame, now):
        wire = wire_occupancy(frame.bytes, port.speed)
        cap = port.gates.max_run(frame.cls)
        if cap is not None and wire > cap:
            if frame.flow is None:
                report.be_dropped += 1
            return
        if frame.flow is None and len(port.queues[BE_CLASS]) >= BG_QUEUE_CAP:
            report.be_dropped += 1
            return
        port.queues[frame.cls].append(frame)
        wake(port, now)

    def deliver(frame, at):
        rec = report.streams[flows[frame.flow].requirement.stream_id]
        latency = at - frame.release_tick
        rec.observed_frame_count += 1
        if latency > rec.observed_worst_latency_ns:
            rec.observed_worst_latency_ns = latency

    while heap:
        t, _, action, payload = heapq.heappop(heap)

        if action == "rel":
            i, tick = payload
            flow = flows[i]
            traffic = flow.requirement.traffic
            port = ports[flow.ports[0]]
            released[i] += traffic.frames_per_period
            for _ in range(traffic.frames_per_period):
                enqueue(port, _Frame(i, flow.requirement.frame.pcp, traffic.max_frame_bytes, tick), t)
            continue

        if action == "bg":
            port, rng, base = payload
            if t < t_end:
                enqueue(port, _Frame(None, BE_CLASS, MAX_FRAME_BYTES, t), t)
                jitter = rng.randrange(-(base // 8), base // 8 + 1) if base >= 8 else 0
                push(t + max(1, base + jitter), "bg", (port, rng, base))
            continue

        if action == "enq":
            port, frame = payload
            enqueue(port, frame, t)
            continue

        port = payload
        if t != port.wake_at:
            continue
        port.wake_at = None
        chosen = close = opens = None
        for cls in range(7, -1, -1):
            if port.queues[cls]:
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
        frame = port.queues[chosen][0]
        wire = wire_occupancy(frame.bytes, port.speed)
        if close is not None and t + wire > close:
            wake(port, close if opens is None else min(close, opens))
            continue
        port.queues[chosen].popleft()
        port.busy_until = t + wire
        wake(port, t + wire)

        if frame.flow is None:
            report.be_sent += 1
            continue
        if departures is not None:
            departures.append((frame.flow, frame.release_tick, frame.hop, t))
        flow = flows[frame.flow]
        peer_node = port.peer_node
        arrival = t + wire + port.propagation_ns
        if frame.hop + 1 >= len(flow.ports):
            if peer_node != flow.requirement.listener.node_id:
                raise ValidationError(
                    f"flow {flow.requirement.stream_id}: path ends at {peer_node}, "
                    f"listener is at {flow.requirement.listener.node_id}"
                )
            deliver(frame, arrival)
        else:
            frame.hop += 1
            next_port = flow.ports[frame.hop]
            if not next_port.startswith(peer_node + "."):
                raise ValidationError(
                    f"flow {flow.requirement.stream_id}: hop {frame.hop} egresses "
                    f"{next_port}, frame arrived at {peer_node}"
                )
            push(arrival + port.peer_delay_ns, "enq", (ports[next_port], frame))

    for i, flow in enumerate(flows):
        rec = report.streams[flow.requirement.stream_id]
        rec.dropped_frames = released[i] - rec.observed_frame_count
    report.gate_violations = {key: p.violations for key, p in ports.items()}
    return report
