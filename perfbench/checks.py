"""Output checks computed apart from the scheduler.

Every function takes plain data (topology and controller documents, the
package's result objects read as records) and raises CheckFailed with a
message naming the offending stream or port. Nothing here calls the
package's scheduling, synthesis or simulation code.
"""

from __future__ import annotations

WIRE_OVERHEAD_BYTES = 20  # preamble + SFD (8 B) and inter-frame gap (12 B)
GUARD_FRAME_BYTES = 1522  # one full-size best-effort frame


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def wire_ns(frame_bytes: int, speed_bps: int) -> int:
    return -(-(frame_bytes + WIRE_OVERHEAD_BYTES) * 8 * 10**9 // speed_bps)


class TopologyIndex:
    """Port key ("node.port") -> link facts, read from the topology document."""

    def __init__(self, topo_doc: dict):
        self.nodes = {n["node_id"]: n for n in topo_doc["nodes"]}
        self.ports: dict[str, dict] = {}
        for link in topo_doc["links"]:
            ends = link["endpoints"]
            for here, there in ((ends[0], ends[1]), (ends[1], ends[0])):
                self.ports[f"{here['node_id']}.{here['port_id']}"] = {
                    "speed": link["speed_bps"],
                    "prop": link["propagation_ns"],
                    "peer": there["node_id"],
                }

    def processing_ns(self, node_id: str) -> int:
        node = self.nodes[node_id]
        return node["processing_delay_ns"] if node["kind"] == "bridge" else 0

    def guard_ns(self, port: str) -> int:
        return wire_ns(GUARD_FRAME_BYTES, self.ports[port]["speed"])


def floor_latency_ns(topo: TopologyIndex, ports: list[str], frame_bytes: int, frames: int) -> int:
    """Physical lower bound of a stream's latency along its egress ports:
    per hop the whole burst on the wire plus propagation, plus the
    processing delay of every bridge the burst is forwarded by."""
    total = 0
    previous_peer = None
    for port in ports:
        node = port.split(".", 1)[0]
        require(previous_peer is None or node == previous_peer, f"path breaks at {port}")
        link = topo.ports[port]
        total += wire_ns(frame_bytes, link["speed"]) * frames + link["prop"]
        total += topo.processing_ns(node)
        previous_peer = link["peer"]
    return total


def check_stream_plan(topo: TopologyIndex, req, chain) -> int:
    """Planned latency of one admitted stream lies between the physical
    floor and the bound; returns the planned latency."""
    ports = [res.port_id for _, sched in chain for res in sched.reservations]
    planned = chain[-1][1].entry_offset_ns + chain[-1][1].e2e_latency_ns
    require(
        topo.ports[ports[-1]]["peer"] == req.listener.node_id,
        f"{req.stream_id}: path ends at {topo.ports[ports[-1]]['peer']}, not the listener",
    )
    floor = floor_latency_ns(
        topo, ports, req.traffic.max_frame_bytes, req.traffic.frames_per_period
    )
    require(planned >= floor, f"{req.stream_id}: planned {planned} ns is below the floor {floor} ns")
    require(
        planned <= req.traffic.max_latency_ns,
        f"{req.stream_id}: planned {planned} ns exceeds the bound {req.traffic.max_latency_ns} ns",
    )
    return planned


def check_simulation(instance, result) -> None:
    """At background load 0 the simulated worst latency is exactly the
    planned one; at load 1 it is unchanged; nothing is dropped."""
    require(result.passed, f"{instance.instance_id}: verify_ns did not pass")
    quiet, loaded = result.reports["bg0"], result.reports["bg1"]
    for report in (quiet, loaded):
        require(report.total_dropped == 0, f"{instance.instance_id}: scheduled frames dropped")
    require(loaded.be_sent > 0, f"{instance.instance_id}: no best-effort frame was sent at load 1")
    for req, chain in instance.stream_schedules():
        planned = chain[-1][1].entry_offset_ns + chain[-1][1].e2e_latency_ns
        for name, report in (("bg0", quiet), ("bg1", loaded)):
            rec = report.streams[req.stream_id]
            require(rec.observed_frame_count > 0, f"{req.stream_id}: no frame delivered in {name}")
            require(
                rec.observed_worst_latency_ns == planned,
                f"{req.stream_id}: {name} worst {rec.observed_worst_latency_ns} ns, planned {planned} ns",
            )


def check_windows(topo: TopologyIndex, snapshot: dict) -> int:
    """On every port of one controller, the reserved windows expanded over
    the hyperperiod are pairwise disjoint and every gap between
    neighbours is 0 or at least one guard band. Returns the window count."""
    cycle = snapshot["hyperperiod_ns"]
    by_port: dict[str, list[tuple[int, int, str]]] = {}
    for entry in snapshot["streams"]:
        period = entry["requirement"]["traffic"]["period_ns"]
        require(cycle % period == 0, f"cycle {cycle} is not a multiple of period {period}")
        for res in entry["schedule"]["reservations"]:
            length = res["window_end_ns"] - res["window_start_ns"]
            require(0 < length <= period, f"{res['stream_id']}: window of {length} ns in period {period}")
            for k in range(cycle // period):
                start = (res["window_start_ns"] + k * period) % cycle
                by_port.setdefault(res["port_id"], []).append((start, start + length, res["stream_id"]))
    count = 0
    for port, windows in by_port.items():
        windows.sort()
        guard = topo.guard_ns(port)
        for i, (start, end, sid) in enumerate(windows):
            if i + 1 < len(windows):
                next_start, _, next_sid = windows[i + 1]
            else:  # the neighbour across the cycle boundary
                next_start, next_sid = windows[0][0] + cycle, windows[0][2]
            gap = next_start - end
            require(gap >= 0, f"{port}: windows of {sid} and {next_sid} overlap")
            require(
                gap == 0 or gap >= guard,
                f"{port}: gap of {gap} ns between {sid} and {next_sid} is below the guard {guard} ns",
            )
        count += len(windows)
    return count


def check_gcls(gcl_docs: dict) -> None:
    """Every gate control list's intervals sum to its cycle."""
    for port, doc in gcl_docs.items():
        total = sum(entry["interval_ns"] for entry in doc["entries"])
        require(total == doc["cycle_ns"], f"gcl {port}: intervals sum to {total}, cycle is {doc['cycle_ns']}")


def check_empty(snapshots: dict, empty: dict, gcl_docs: dict, when: str) -> None:
    """Every controller equals its empty snapshot and no GCL remains."""
    for domain_id in empty:
        require(snapshots[domain_id] == empty[domain_id], f"{when}: controller {domain_id} is not empty")
    require(not gcl_docs, f"{when}: {len(gcl_docs)} gate control lists remain")
