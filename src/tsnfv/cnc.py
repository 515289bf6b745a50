"""Per-domain controller: stream admission and gate schedule synthesis.

Admission uses a greedy as-soon-as-possible search. Each stream gets one
reserved window per hop, expressed as an offset from the stream's release
tick (k * period for instance k), so the same window repeats every period.
The search advances a window past conflicts until it fits; a failed
admission leaves the controller state untouched. Greedy placement may
reject stream sets a global search could fit; that incompleteness is a
documented trade for determinism and a checkable oracle.

Three constraint families keep the synthesized schedule exact under load:

* wire exclusivity: windows on one port never overlap, whatever the class;
* spacing: the gap between neighbouring windows is either zero or at
  least one guard band, so every window span can be preceded by a
  full-length all-closed guard;
* queue consistency: two same-class streams resident in one egress queue
  at the same time must transmit in their arrival order, or the FIFO
  queue would hand the earlier frame the later window.

All three constrain one egress port at a time, so the state keeps one
record per port: its reservations, and its window instances laid from
them on one cycle in (start, stream id) order, with the entry count of
the port's gate control list, which is built only when read. Admitting a
stream reads only the records of its own segment. A candidate start is
checked by bisection (the one window that can overlap it first, and the
nearest end before and start after it for the guard gaps) plus a scan of
the same-class windows for queue order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .codec import Codec
from .errors import (
    CapabilityError,
    GclOverflowError,
    InfeasibleError,
    UnknownStreamError,
    ValidationError,
)
from .model import (
    GateControlList,
    GclEntry,
    HopReservation,
    MAX_FRAME_BYTES,
    StreamRequirement,
    StreamSchedule,
    burst_occupancy,
    hyperperiod,
    wire_occupancy,
)
from .topology import PathSegment, Topology


@dataclass(frozen=True)
class _AdmittedStream(Codec):
    requirement: StreamRequirement
    schedule: StreamSchedule


@dataclass(frozen=True)
class _Snapshot(Codec):
    domain_id: str
    hyperperiod_ns: int
    streams: tuple[_AdmittedStream, ...]


@dataclass
class CncState:
    """Mutable admission state of one domain's controller.

    Two indexes are derived from the admitted streams, kept current by
    admit_stream and remove_stream, and never snapshotted: the number of
    streams per distinct period (their LCM is the hyperperiod), and one
    record per egress port holding reservations, its _Layout. A layout
    takes an admission in place. A removal only marks it stale; a stale
    layout, or one laid on another cycle than the hyperperiod, is laid
    again from its reservations, in one pass, when next read.

    Loading checks what the scheduler relies on: the schedules name their
    own streams and existing ports, the hyperperiod is the streams' own,
    and no two windows on a port overlap.
    """

    domain_id: str
    topology: Topology
    admitted: dict[str, _AdmittedStream] = field(default_factory=dict)
    hyperperiod_ns: int = 0
    period_counts: dict[int, int] = field(init=False, repr=False, compare=False)
    ports: dict[str, _Layout] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.period_counts = {}
        self.ports = {}
        # A loaded record is where the gate lists are synthesized from, so
        # its schedules must name their own streams and ports that exist.
        for sid, entry in self.admitted.items():
            schedule = entry.schedule
            if schedule.stream_id != sid:
                raise ValidationError(f"schedule of stream {sid} names stream {schedule.stream_id}")
            for res in schedule.reservations:
                if self.topology.link_at(res.port_id) is None:
                    raise ValidationError(f"stream {sid} reserves port {res.port_id}, which no link has")
            self._index(entry.requirement.traffic.period_ns, schedule)
        # every gate list is laid out on this cycle, so it must be the streams' own
        cycle = math.lcm(*self.period_counts) if self.period_counts else 0
        if self.hyperperiod_ns != cycle:
            raise ValidationError(
                f"domain {self.domain_id}: hyperperiod_ns is {self.hyperperiod_ns}, "
                f"but the periods of its streams give {cycle}"
            )
        # placement bisects each port's layout, which only works on
        # windows that admission keeps disjoint
        for port in sorted(self.ports):
            _check_disjoint(port, self.layout(port).windows, cycle)

    def _index(self, period: int, schedule: StreamSchedule) -> None:
        sid = schedule.stream_id
        for res in schedule.reservations:
            layout = self.ports.get(res.port_id)
            if layout is None:
                guard = wire_occupancy(MAX_FRAME_BYTES, self.topology.link_at(res.port_id).speed_bps)
                layout = self.ports[res.port_id] = _Layout(guard)
            elif sid in layout.reservations:
                raise ValidationError(f"stream {sid} reserves port {res.port_id} twice")
            layout.reservations[sid] = (res, period)
            if layout.cycle:
                layout.insert(_instances(sid, res, period, layout.cycle))
        self.period_counts[period] = self.period_counts.get(period, 0) + 1

    def layout(self, port: str) -> _Layout:
        """The layout of a port holding reservations, on the hyperperiod."""
        return self.ports[port].on(self.hyperperiod_ns)

    def snapshot(self) -> dict:
        """Canonical document of the state, for persistence and for the
        deep-equality checks of rollback and termination."""
        return _Snapshot(self.domain_id, self.hyperperiod_ns, tuple(self.admitted.values())).to_doc()

    @classmethod
    def from_doc(cls, doc: dict, topology: Topology, path="") -> CncState:
        snapshot = _Snapshot.from_doc(doc, path)
        admitted = {entry.requirement.stream_id: entry for entry in snapshot.streams}
        return cls(snapshot.domain_id, topology, admitted, snapshot.hyperperiod_ns)


@dataclass(frozen=True)
class _Window:
    """One expanded reservation instance on the cycle: absolute positions
    modulo H. queue_at is when the first frame enters the egress queue."""

    start: int
    length: int
    traffic_class: int
    stream_id: str
    queue_at: int
    queue_len: int

    @property
    def end(self) -> int:
        return self.start + self.length


def _overlaps(s1: int, l1: int, s2: int, l2: int, cycle: int) -> bool:
    """Do two cyclic intervals intersect anywhere on the cycle?"""
    if l1 <= 0 or l2 <= 0:
        return False
    if l1 >= cycle or l2 >= cycle:
        return True
    s1 %= cycle
    s2 %= cycle
    for shift in (-cycle, 0, cycle):
        a = s2 + shift
        if s1 < a + l2 and a < s1 + l1:
            return True
    return False


def _instances(sid: str, res: HopReservation, period: int, cycle: int) -> list[_Window]:
    """The per-period instances of one reservation on the given cycle."""
    return [
        _Window(
            start=(res.window_start_ns + shift) % cycle,
            length=res.length_ns,
            traffic_class=res.traffic_class,
            stream_id=sid,
            queue_at=(res.queue_from_ns + shift) % cycle,
            queue_len=res.window_end_ns - res.queue_from_ns,
        )
        for shift in range(0, cycle, period)
    ]


_start = attrgetter("start")
_order = attrgetter("start", "stream_id")


class _Layout:
    """One port's record: its reservations, stream id -> (reservation,
    period), and their window instances laid on one cycle, in (start,
    stream id) order, with their starts in that order, each class's
    windows in that order, and the entry count of the list _build_entries
    lays from them with the given guard.

    Admission keeps the windows of a port disjoint, so no two share a
    start, and the starts and the ends rise together, except that the
    last window may wrap past the cycle end. A start is thus where a new
    window goes, and it changes only its neighbours' terms of the count.
    A removal marks the windows stale (cycle 0). `on` returns the layout
    on a given cycle, laid again from the reservations in one pass when
    stale or laid on another cycle."""

    __slots__ = ("guard", "reservations", "cycle", "windows", "starts", "by_class", "entries")

    def __init__(self, guard: int):
        self.guard = guard
        self.reservations: dict[str, tuple[HopReservation, int]] = {}
        self.cycle = 0

    def on(self, cycle: int) -> _Layout:
        if cycle != self.cycle:
            windows = []
            for sid, (res, period) in self.reservations.items():
                windows += _instances(sid, res, period, cycle)
            windows.sort(key=_order)
            self._lay(windows, cycle)
        return self

    def _lay(self, windows: list[_Window], cycle: int) -> None:
        self.cycle = cycle
        self.windows = windows
        self.starts = [w.start for w in windows]
        self.by_class: dict[int, list[_Window]] = {}
        for w in windows:
            self.by_class.setdefault(w.traffic_class, []).append(w)
        self.entries = len(windows) + sum(map(self._gap, windows, windows[1:] + windows[:1])) + self._edge()

    def _gap(self, a: _Window, b: _Window) -> int:
        """Entries the gap from window a to the next window b adds: one per
        run _gap_runs lays in it, and one fewer when b merges into a's run."""
        others_open, closed, merges = _gap_runs(a, b, self.guard, self.cycle)
        return (others_open > 0) + (closed > 0) - merges

    def _edge(self) -> int:
        """One entry more where the cycle start cuts a window wrapping past
        the cycle end, or else the run spanning the start, unless a window
        or the guard before the first window begins exactly there."""
        if not self.windows:
            return 0
        first_start, last_end = self.windows[0].start, self.windows[-1].end
        return int(last_end > self.cycle or last_end < self.cycle and 0 < first_start != self.guard)

    def insert(self, instances: list[_Window]) -> None:
        windows = self.windows
        for w in instances:
            i = bisect_left(self.starts, w.start)
            # an empty layout's one pair is the new window with itself
            prev, nxt = (windows[i - 1], windows[i % len(windows)]) if windows else (w, w)
            self.entries += 1 + self._gap(prev, w) + self._gap(w, nxt) - self._gap(prev, nxt) - self._edge()
            windows.insert(i, w)
            self.starts.insert(i, w.start)
            same = self.by_class.setdefault(w.traffic_class, [])
            same.insert(bisect_left(same, w.start, key=_start), w)
            self.entries += self._edge()


def _check_disjoint(port: str, windows: list[_Window], cycle: int) -> None:
    """Raise unless the windows, in (start, stream id) order, are pairwise
    disjoint on the cycle: each ends by the next one's start, and the last
    by the first one's start one cycle later."""
    if not windows:
        return
    following = [(w.start, w) for w in windows[1:]] + [(windows[0].start + cycle, windows[0])]
    for w, (next_start, nxt) in zip(windows, following):
        if w.end > next_start:
            raise ValidationError(
                f"port {port}: the window of {w.stream_id} at [{w.start}, {w.end}) "
                f"overlaps the window of {nxt.stream_id} at [{nxt.start}, {nxt.end})"
            )


def _queue_order_conflict(
    mine_q: int, mine_qlen: int, mine_burst: int,
    other: _Window, cycle: int,
) -> str | None:
    """Check FIFO consistency of two same-class queue residencies.

    A residency runs from the moment a stream's first frame enters the
    egress queue to the end of its window. Overlapping residencies are
    fine only when the earlier-queued stream's window lies entirely
    before the later one's, so the FIFO head is always the right frame.

    Returns None when compatible, "advance" when moving my window past the
    other's resolves it, "abort" when no later placement can.
    """
    if not _overlaps(mine_q, mine_qlen, other.queue_at, other.queue_len, cycle):
        return None
    # Find the unrolling in which the residencies intersect; two arcs
    # intersecting in more than one alignment have no usable order.
    hits = []
    for shift in (-cycle, 0, cycle):
        o_q = other.queue_at + shift
        if mine_q < o_q + other.queue_len and o_q < mine_q + mine_qlen:
            hits.append(shift)
    if len(hits) != 1:
        return "abort"
    o_q = other.queue_at + hits[0]
    o_w_start = other.start + hits[0]
    o_w_end = o_q + other.queue_len
    mine_w_end = mine_q + mine_qlen
    mine_w_start = mine_w_end - mine_burst
    if mine_q < o_q:
        # I queue first, so my window must come first. Windows are wire
        # disjoint, so either mine already ends before theirs starts (no
        # conflict) or advancing only makes the inversion worse.
        if mine_w_end <= o_w_start:
            return None
        return "abort"
    # They queue first (or tied): my window must follow theirs entirely.
    if o_q < mine_q and o_w_end <= mine_w_start:
        return None
    return "advance"


def admit_stream(
    state: CncState,
    req: StreamRequirement,
    segment: PathSegment,
    latency_budget_ns: int,
    entry_offset_ns: int = 0,
    entry_stride_ns: int = 0,
) -> StreamSchedule:
    """Place one stream onto its segment of the path, or raise.

    entry_offset_ns is the offset after each release tick at which the
    stream's burst has fully arrived at the segment entry; zero for the
    talker's own segment. entry_stride_ns is the upstream per-frame wire
    spacing, used to recover when the first frame of the burst arrived.
    On success the reservations are committed and the returned schedule
    reports the latency from segment entry to the last bit leaving the
    segment. A stream that would give a bridge port more gate control
    entries than the bridge supports, by its layout's count, is refused.
    On any failure the state is unchanged.
    """
    if not segment.hops:
        raise ValidationError(f"stream {req.stream_id}: empty path segment")
    if req.stream_id in state.admitted:
        raise ValidationError(f"stream {req.stream_id} is already admitted")
    if req.frame.pcp == 0:
        raise ValidationError(
            f"stream {req.stream_id}: class 0 is reserved for best effort"
        )
    if len({hop.port_key for hop in segment.hops}) < len(segment.hops):
        raise ValidationError(f"stream {req.stream_id}: segment leaves a port twice")
    for hop in segment.hops:
        link = state.topology.link_at(hop.port_key)
        if link is None or link.link_id != hop.link_id:
            raise ValidationError(
                f"stream {req.stream_id}: port {hop.port_key} is not on link {hop.link_id}"
            )
        node = state.topology.node(hop.egress_node)
        if node.kind == "bridge" and not node.supports_qbv:
            raise CapabilityError(f"bridge {node.node_id}", "qbv_shaping")

    period = req.traffic.period_ns
    cycle = hyperperiod([*state.period_counts, period])
    settled = cycle == state.hyperperiod_ns
    traffic_class = req.frame.pcp
    talker_first_hop = segment.hops[0].egress_node == req.talker.node_id

    placed: list[HopReservation] = []
    prev_start = 0
    prev_wire = 0
    prev_burst = 0
    prev_prop = 0
    for index, hop in enumerate(segment.hops):
        link = state.topology.link(hop.link_id)
        node = state.topology.node(hop.egress_node)
        wire = wire_occupancy(req.traffic.max_frame_bytes, link.speed_bps)
        burst = burst_occupancy(req.traffic, link.speed_bps)
        guard = wire_occupancy(MAX_FRAME_BYTES, link.speed_bps)
        port = hop.port_key

        # A window longer than the period would collide with the stream's
        # own next instance; a shorter one must leave room for a guard
        # between consecutive instances.
        if burst > period:
            raise InfeasibleError(
                "no_free_window", f"burst {burst} exceeds period {period} on {port}"
            )
        if 0 < period - burst < guard:
            raise InfeasibleError(
                "no_free_window",
                f"gap between instances on {port} is {period - burst}, guard needs {guard}",
            )

        if index == 0:
            if talker_first_hop:
                # The talker holds the burst in memory and launches it at
                # the window start, so queueing begins with the window.
                earliest = entry_offset_ns
                queue_from = None
            else:
                earliest = entry_offset_ns + node.forwarding_delay_ns
                # The first frame of the burst reached the entry node one
                # upstream stride per remaining frame earlier.
                lead = (req.traffic.frames_per_period - 1) * entry_stride_ns
                queue_from = max(0, entry_offset_ns - lead) + node.forwarding_delay_ns
        else:
            # The whole burst is forwarded as a unit: the next hop may not
            # start before the last bit has arrived and been processed.
            arrival = prev_start + prev_burst + prev_prop
            earliest = arrival + node.forwarding_delay_ns
            # The first frame, though, enters the egress queue as soon as
            # it alone has been stored and forwarded.
            queue_from = prev_start + prev_wire + prev_prop + node.forwarding_delay_ns

        # a port new to the state checks against an empty layout
        start = _place_window(
            port=port,
            layout=(state.ports.get(port) or _Layout(guard)).on(cycle),
            earliest=earliest,
            burst=burst,
            guard=guard,
            period=period,
            cycle=cycle,
            traffic_class=traffic_class,
            queue_from=queue_from,
        )

        placed.append(
            HopReservation(
                port_id=port,
                window_start_ns=start,
                window_end_ns=start + burst,
                traffic_class=traffic_class,
                stream_id=req.stream_id,
                queue_from_ns=start if queue_from is None else queue_from,
            )
        )
        prev_start, prev_wire, prev_burst, prev_prop = start, wire, burst, link.propagation_ns

    e2e = prev_start + prev_burst + prev_prop - entry_offset_ns
    if e2e > latency_budget_ns:
        raise InfeasibleError(
            "exceeds_budget",
            f"stream {req.stream_id} needs {e2e} ns, budget is {latency_budget_ns} ns",
        )

    schedule = StreamSchedule(
        stream_id=req.stream_id,
        reservations=tuple(placed),
        e2e_latency_ns=e2e,
        entry_offset_ns=entry_offset_ns,
    )
    state.admitted[req.stream_id] = _AdmittedStream(req, schedule)
    state.hyperperiod_ns = cycle
    state._index(period, schedule)
    # Only the touched ports' counts change, unless the cycle did.
    try:
        check_gcl_capacity(state, [res.port_id for res in placed] if settled else None)
    except Exception as exc:
        remove_stream(state, req.stream_id)
        if isinstance(exc, GclOverflowError):
            raise InfeasibleError("no_free_window", str(exc)) from None
        raise
    return schedule


def check_gcl_capacity(state: CncState, ports=None) -> None:
    """Raise GclOverflowError at the first bridge port, of the given ones
    or else of every reserved one in port order, whose layout counts more
    gate control entries than the bridge supports."""
    for port in sorted(state.ports) if ports is None else ports:
        node = state.topology.node(port.split(".", 1)[0])
        if node.kind == "bridge":
            needed = state.layout(port).entries
            if needed > node.gcl_max_entries:
                raise GclOverflowError(port, needed, node.gcl_max_entries)


def _place_window(
    port: str,
    layout: _Layout,
    earliest: int,
    burst: int,
    guard: int,
    period: int,
    cycle: int,
    traffic_class: int,
    queue_from: int | None,
) -> int:
    """Find the first window start at or after `earliest` whose per-period
    instances respect wire exclusivity, guard spacing, and queue order
    against every committed window on the port."""
    instances = cycle // period
    start = earliest
    limit = earliest + cycle
    while True:
        if start >= limit:
            raise InfeasibleError("no_free_window", f"no window fits on {port}")
        advance = _check_candidate(
            layout, start, burst, guard, period, instances, cycle,
            traffic_class, queue_from, port,
        )
        if advance == 0:
            return start
        start += advance


def _check_candidate(
    layout: _Layout,
    start: int,
    burst: int,
    guard: int,
    period: int,
    instances: int,
    cycle: int,
    traffic_class: int,
    queue_from: int | None,
    port: str,
) -> int:
    """Return 0 when the candidate fits, otherwise the smallest advance of
    the window start worth trying next. Raises when no advance can help."""
    windows, starts = layout.windows, layout.starts
    same_class = layout.by_class.get(traffic_class, ())
    last = len(windows) - 1
    q_rel = start if queue_from is None else queue_from
    q_len = start + burst - q_rel
    # A residency of a full cycle or more (a port wholly owned by one
    # saturating stream) effectively covers everything; the overlap logic
    # below then conflicts with any later same-class candidate, which is
    # exactly the conservative answer, so no special case is needed.
    for k in range(instances):
        a = (start + k * period) % cycle
        a_end = a + burst
        if windows:
            # wire exclusivity. Windows are disjoint and sorted, so the
            # first one overlapping [a, a_end) is the last to start at or
            # before a (it may hold a) or the first to start after a, unless
            # something wraps past the cycle end: then window 0 may overlap
            # the instance's wrapped part, and the last window may hold a.
            after = bisect_right(starts, a)
            if a_end > cycle or windows[last].end > cycle:
                nearest = (0, after - 1, after, last)
            else:
                nearest = (after - 1, after)
            for i in nearest:
                if not 0 <= i <= last:
                    continue
                other = windows[i]
                if _overlaps(a, burst, other.start, other.length, cycle):
                    adv = (other.end - a) % cycle
                    if adv == 0:
                        raise InfeasibleError(
                            "no_free_window", f"port {port} is fully reserved"
                        )
                    return adv
            # guard spacing against the nearest end before and start after;
            # with no overlap, the nearest end is that of the last window to
            # start before a
            prev_gap = (a - windows[after - 1].end) % cycle
            a_end %= cycle
            following = bisect_left(starts, a_end)
            next_gap = (starts[following if following <= last else 0] - a_end) % cycle
            if 0 < prev_gap < guard:
                return guard - prev_gap
            if 0 < next_gap < guard:
                return next_gap
        # queue order against same-class residents
        q_at = (q_rel + k * period) % cycle
        for other in same_class:
            verdict = _queue_order_conflict(q_at, q_len, burst, other, cycle)
            if verdict:
                if verdict == "advance" and queue_from is None:
                    return (other.end - a) % cycle or cycle
                # An abort, or they queued first but my queueing point is
                # fixed before their window ended: FIFO order cannot be
                # repaired.
                raise InfeasibleError(
                    "no_free_window",
                    f"queue order conflict with {other.stream_id} on {port}",
                )
    return 0


def remove_stream(state: CncState, stream_id: str) -> CncState:
    """Delete a stream's reservations; remaining schedules are untouched.
    The cycle shrinks to the LCM of the remaining periods."""
    if stream_id not in state.admitted:
        raise UnknownStreamError(f"stream {stream_id} is not admitted")
    entry = state.admitted.pop(stream_id)
    period = entry.requirement.traffic.period_ns
    for res in entry.schedule.reservations:
        layout = state.ports[res.port_id]
        del layout.reservations[stream_id]
        layout.cycle = 0
        if not layout.reservations:
            del state.ports[res.port_id]
    state.period_counts[period] -= 1
    if not state.period_counts[period]:
        del state.period_counts[period]
    state.hyperperiod_ns = hyperperiod(list(state.period_counts)) if state.period_counts else 0
    return state


def synthesize_gcls(state: CncState, ports=None) -> dict[str, GateControlList]:
    """The gate control lists of the given ports, or of every port carrying
    a reservation in port order; a port without reservations has none.
    Each list is built afresh from the port's layout, once the layout's
    entry count is known to fit the bridge.

    Construction: one walk over the port's windows, which are disjoint
    and in start order, with only the last one wrapping past the cycle
    end. It starts at the last window's end one cycle earlier, and lays
    each window after the gap before it, by _gap_runs, which the entry
    count reads too: every gate open except the classes that own windows
    on the port, which stay closed outside them, then all gates closed
    for the last full best-effort frame time (the guard), or for the
    whole gap when it is shorter. A window merges into the run before it
    when the two touch and share a class, so a run of touching windows
    gets one guard, before its first window. The walk is then cut at the
    cycle start, as _Layout._edge counts.
    """
    ports = sorted(state.ports) if ports is None else [port for port in ports if port in state.ports]
    check_gcl_capacity(state, ports)
    cycle = state.hyperperiod_ns
    gcls = {}
    for port in ports:
        layout = state.layout(port)
        gcls[port] = GateControlList(port, cycle, _build_entries(layout.windows, layout.guard, cycle))
    return gcls


def _gap_runs(a: _Window, b: _Window, guard: int, cycle: int) -> tuple[int, int, bool]:
    """The runs of the gap from window a to the next window b: its
    others-open length, its all-closed length (one guard, or the whole
    gap when shorter), and whether b merges into a's run: they touch,
    share a class, and b does not start at the cycle start, where the
    list is cut anyway."""
    gap = (b.start - a.start - a.length) % cycle
    if gap > guard:
        return gap - guard, guard, False
    return 0, gap, not gap and a.traffic_class == b.traffic_class and b.start != 0


def _build_entries(windows: list[_Window], guard: int, cycle: int) -> tuple[GclEntry, ...]:
    others = 0xFF & ~sum(1 << c for c in {w.traffic_class for w in windows})
    # A last window wrapping past the cycle end is cut at the cycle start:
    # its part past the end opens the walk, which then ends at the cycle end.
    prev = windows[-1]
    spill = prev.end - cycle
    steps = [(1 << prev.traffic_class, spill)] if spill > 0 else []
    for w in windows:
        others_open, closed, merges = _gap_runs(prev, w, guard, cycle)
        if others_open:
            steps.append((others, others_open))
        if closed:
            steps.append((0, closed))
        mask, length = steps.pop() if merges else (1 << w.traffic_class, 0)
        steps.append((mask, length + w.length))
        prev = w
    if spill > 0:
        mask, length = steps.pop()
        steps.append((mask, length - spill))
    # Otherwise the walk's first `lead` ns lie before the cycle start and
    # move to the end, so the one run across the start splits in two.
    lead = -spill
    while lead > 0:
        mask, length = steps.pop(0)
        if length > lead:
            steps.insert(0, (mask, length - lead))
        steps.append((mask, min(length, lead)))
        lead -= length
    # Steps repeat (a guard, a burst's window), and entries are immutable,
    # so each distinct step is made once.
    made: dict[tuple[int, int], GclEntry] = {}
    entries = []
    for step in steps:
        entry = made.get(step)
        if entry is None:
            entry = made[step] = GclEntry(*step)
        entries.append(entry)
    return tuple(entries)
