"""Straightforward versions of two searches the package does faster, kept
as references for the differential tests.

- `check_candidate` tests a candidate window start against every
  expanded instance of every window on the port, where the controller
  bisects a kept layout (`tsnfv.cnc._check_candidate`).
- `shortest_path` is a best-first search keyed on (hop count, hop
  sequence), where the topology reads a table filled by one breadth-first
  search per source (`tsnfv.topology.shortest_path`).

Both must give the same answers, errors and messages included.
"""

from __future__ import annotations

import heapq

from tsnfv.cnc import _overlaps, _queue_order_conflict, _Window
from tsnfv.errors import InfeasibleError, NoPathError
from tsnfv.topology import Hop, Path


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
