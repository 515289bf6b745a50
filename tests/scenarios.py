"""Scenario builders shared by the unit and acceptance suites.

Two fixed reference scenarios (one intra-PoP, one PoP-WAN-PoP) plus a
seeded random generator used for the soundness sweep. Everything is a
plain JSON document in the formats the parsers accept, so scenarios can
be fed to the library or written to files for CLI tests. `record_uni`
keeps a workspace's UNI exchanges as the lines they would be on the wire.
"""

from __future__ import annotations

import json
import random

from tsnfv.descriptors import parse_nsd, parse_placement
from tsnfv.topology import load_topology
from tsnfv.uni import decode_message, encode_message
from tsnfv.workspace import Workspace

GBPS = 1_000_000_000
PERIODS_NS = (125_000, 250_000, 500_000, 1_000_000)

CAPS = {"time_sync": True, "qbv_shaping": True}
CAPS_RT = dict(CAPS, rt_scheduling_policy=True)


def bridge(node_id: str, domain_id: str, proc_ns: int = 1000, max_entries: int = 256, qbv: bool = True) -> dict:
    return {
        "node_id": node_id,
        "kind": "bridge",
        "domain_id": domain_id,
        "processing_delay_ns": proc_ns,
        "gcl_max_entries": max_entries,
        "supports_qbv": qbv,
    }


def host(node_id: str, domain_id: str) -> dict:
    return {"node_id": node_id, "kind": "compute_host", "domain_id": domain_id}


def station(node_id: str, domain_id: str, managed: bool) -> dict:
    return {
        "node_id": node_id,
        "kind": "external_station",
        "domain_id": domain_id,
        "managed": managed,
    }


def link(link_id: str, a: str, pa: str, b: str, pb: str, speed: int = GBPS, prop: int = 500) -> dict:
    return {
        "link_id": link_id,
        "endpoints": [
            {"node_id": a, "port_id": pa},
            {"node_id": b, "port_id": pb},
        ],
        "speed_bps": speed,
        "propagation_ns": prop,
    }


def intra_pop_topology() -> dict:
    """host A - bridge B1 - host C, the hand-traced reference substrate."""
    return {
        "nodes": [host("A", "d1"), bridge("B1", "d1", max_entries=32), host("C", "d1")],
        "links": [
            link("l1", "A", "p0", "B1", "p0"),
            link("l2", "B1", "p1", "C", "p0"),
        ],
        "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
    }


def cross_pop_topology(b3_qbv: bool = True) -> dict:
    """HA - B1 | W1 | B2 - B3 - HB across two PoPs and a WAN segment."""
    return {
        "nodes": [
            host("HA", "d1"),
            bridge("B1", "d1"),
            bridge("W1", "wan", proc_ns=2000),
            bridge("B2", "d2"),
            bridge("B3", "d2", qbv=b3_qbv),
            host("HB", "d2"),
        ],
        "links": [
            link("l1", "HA", "p0", "B1", "p0"),
            link("l2", "B1", "p1", "W1", "p0"),
            link("l3", "W1", "p1", "B2", "p0", prop=2000),
            link("l4", "B2", "p1", "B3", "p0"),
            link("l5", "B3", "p1", "HB", "p0"),
        ],
        "domains": {
            "d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"},
            "wan": {"kind": "wan_segment", "controller_id": "cnc-w"},
            "d2": {"kind": "nfvi_pop", "controller_id": "cnc-2"},
        },
    }


def wan_slow_topology() -> dict:
    """HA - B1 | W1 | B2 - HB with a 100 Mb/s WAN hop; exercises per-link
    wire times, a multi-frame burst spreading out downstream, and the
    hand-traced cross-domain latencies."""
    doc = {
        "nodes": [
            host("HA", "d1"),
            bridge("B1", "d1"),
            bridge("W1", "wan", proc_ns=2000),
            bridge("B2", "d2"),
            host("HB", "d2"),
        ],
        "links": [
            link("l1", "HA", "p0", "B1", "p0"),
            link("l2", "B1", "p1", "W1", "p0"),
            link("l3", "W1", "p1", "B2", "p0", speed=100_000_000, prop=2000),
            link("l4", "B2", "p1", "HB", "p0"),
        ],
        "domains": {
            "d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"},
            "wan": {"kind": "wan_segment", "controller_id": "cnc-w"},
            "d2": {"kind": "nfvi_pop", "controller_id": "cnc-2"},
        },
    }
    return doc


def wan_slow_nsd(latency: int = 2_000_000) -> dict:
    """One VL across the slow WAN: three 500 B frames forward, one back."""
    return nsd(
        "wanns",
        [vnf("vnfHA", CAPS_RT), vnf("vnfHB", CAPS_RT)],
        [
            vl(
                "wl",
                "vnfHA",
                "vnfHB",
                200,
                6,
                traffic(frames=3, latency=latency),
                rev=traffic(latency=latency),
            )
        ],
    )


def wan_slow_placement() -> dict:
    return placement({"vnfHA": "HA", "vnfHB": "HB"})


def traffic(period: int = 250_000, frame: int = 500, frames: int = 1, latency: int = 2_000_000) -> dict:
    return {
        "period_ns": period,
        "max_frame_bytes": frame,
        "frames_per_period": frames,
        "max_latency_ns": latency,
    }


def vl(vl_id: str, member_a: str, member_b: str, vlan: int, pcp: int, fwd: dict, rev: dict | None = None) -> dict:
    return {
        "vl_id": vl_id,
        "endpoints": [
            {"member_id": member_a, "cp_id": "cp0"},
            {"member_id": member_b, "cp_id": "cp0"},
        ],
        "tsn": {"vlan_id": vlan, "pcp": pcp, "traffic_fwd": fwd, "traffic_rev": rev or dict(fwd)},
    }


def vnf(member_id: str, caps: dict | None = None) -> dict:
    return {
        "vnf_id": member_id,
        "connection_points": [{"cp_id": "cp0", "interface": "eth0"}],
        "required_capabilities": caps or CAPS,
    }


def pnf(member_id: str, caps: dict | None = None) -> dict:
    return {
        "pnf_id": member_id,
        "connection_points": [{"cp_id": "cp0", "interface": "eth0"}],
        "capabilities": caps or CAPS,
    }


def nsd(ns_id: str, vnfds: list[dict], vls: list[dict], pnfs: list[dict] | None = None) -> dict:
    doc = {"ns_id": ns_id, "vnfds": vnfds, "virtual_links": vls}
    if pnfs:
        doc["pnfs"] = pnfs
    return doc


def placement(members: dict[str, str]) -> dict:
    """member -> node, with deterministic MACs."""
    doc = {}
    for index, (member, node) in enumerate(sorted(members.items()), start=1):
        doc[member] = {
            "node_id": node,
            "interface": "eth0",
            "mac": f"02:00:00:00:{index >> 8:02x}:{index & 255:02x}",
        }
    return doc


def demo_nsd(latency: int = 2_000_000) -> dict:
    return nsd(
        "demo",
        [vnf("vnfA", CAPS_RT), vnf("vnfC", CAPS_RT)],
        [vl("vl1", "vnfA", "vnfC", 100, 7, traffic(latency=latency))],
    )


def demo_placement() -> dict:
    return placement({"vnfA": "A", "vnfC": "C"})


def build_workspace(topology_doc: dict) -> Workspace:
    return Workspace(load_topology(json.dumps(topology_doc)))


def instantiate(ws: Workspace, nsd_doc: dict, placement_doc: dict):
    return ws.instantiate(
        parse_nsd(json.dumps(nsd_doc)), parse_placement(json.dumps(placement_doc))
    )


class _RecordingHandle:
    """Controller handle that keeps every exchange as its (request line,
    response line) pair, and checks that each line decodes back to an
    equal message, so the codec is held lossless on whatever a test drives
    through the dispatcher."""

    def __init__(self, service, exchanges: list):
        self.service = service
        self.exchanges = exchanges

    def handle(self, msg):
        response = self.service.handle(msg)
        pair = (encode_message(msg), encode_message(response))
        assert (decode_message(pair[0]), decode_message(pair[1])) == (msg, response)
        self.exchanges.append(pair)
        return response


def record_uni(ws: Workspace) -> list[tuple[bytes, bytes]]:
    """Wrap every controller handle of `ws`; the returned list fills with
    its exchanges in dispatch order."""
    exchanges: list[tuple[bytes, bytes]] = []
    ws.dispatcher.handles = {
        d: _RecordingHandle(h, exchanges) for d, h in ws.dispatcher.handles.items()
    }
    return exchanges


def parse_nsd_doc(doc: dict):
    return parse_nsd(json.dumps(doc))


def parse_placement_doc(doc: dict):
    return parse_placement(json.dumps(doc))


# -- randomized sweep ------------------------------------------------------


def random_scenario(seed: int) -> tuple[dict, dict, dict]:
    """(topology, nsd, placement) with <=5 bridges, <=3 domains, <=8 streams.

    Latency bounds are generous: the sweep measures whether admitted
    schedules hold up under load, not the rejection rate. Some scenarios
    still get rejected when a port saturates; callers count those.
    """
    rng = random.Random(seed)
    cross = rng.random() < 0.45

    nodes = []
    links = []
    if cross:
        pop1 = rng.randint(1, 2)
        pop2 = rng.randint(1, 2)
        chain = (
            [(f"B{i}", "d1") for i in range(1, pop1 + 1)]
            + [("W1", "wan")]
            + [(f"B{i}", "d2") for i in range(pop1 + 1, pop1 + pop2 + 1)]
        )
        domains = {
            "d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"},
            "wan": {"kind": "wan_segment", "controller_id": "cnc-w"},
            "d2": {"kind": "nfvi_pop", "controller_id": "cnc-2"},
        }
    else:
        chain = [(f"B{i}", "d1") for i in range(1, rng.randint(1, 4) + 1)]
        domains = {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}}

    for name, dom in chain:
        nodes.append(bridge(name, dom, proc_ns=rng.choice([500, 1000, 2000])))
    for i in range(len(chain) - 1):
        links.append(
            link(
                f"lb{i}",
                chain[i][0],
                "pn",
                chain[i + 1][0],
                "pp",
                prop=rng.choice([100, 500, 1000]),
            )
        )

    # hosts hang off bridges; keep WAN bridges host-free
    hosts = []
    attachable = [(n, d) for n, d in chain if d != "wan"]
    n_hosts = rng.randint(2, 4)
    for h in range(n_hosts):
        bridge_node, dom = attachable[h % len(attachable)]
        name = f"H{h + 1}"
        hosts.append((name, dom))
        nodes.append(host(name, dom))
        links.append(
            link(f"lh{h}", name, "p0", bridge_node, f"ph{h}", prop=rng.choice([100, 500]))
        )

    n_vls = rng.randint(1, 4)
    vnfds = []
    vls = []
    members: dict[str, str] = {}
    for v in range(n_vls):
        a = f"m{2 * v + 1}"
        b = f"m{2 * v + 2}"
        host_a, host_b = rng.sample(hosts, 2)
        members[a] = host_a[0]
        members[b] = host_b[0]
        vnfds += [vnf(a), vnf(b)]
        vls.append(
            vl(
                f"vl{v + 1}",
                a,
                b,
                vlan=100 + v,
                pcp=rng.choice([3, 5, 6, 7]),
                fwd=traffic(
                    period=rng.choice(PERIODS_NS),
                    frame=rng.choice([128, 500, 1000, 1522]),
                    frames=rng.choice([1, 1, 2]),
                    latency=rng.choice([2_000_000, 3_000_000, 4_000_000]),
                ),
                rev=traffic(
                    period=rng.choice(PERIODS_NS),
                    frame=rng.choice([128, 500, 1522]),
                    frames=1,
                    latency=rng.choice([2_000_000, 4_000_000]),
                ),
            )
        )

    topo = {"nodes": nodes, "links": links, "domains": domains}
    return topo, nsd(f"sc{seed}", vnfds, vls), placement(members)


# -- one-bridge fill ---------------------------------------------------------


def fill_topology(pairs: int) -> dict:
    """One bridge B1 with talker/listener host pairs T<i>/L<i>: every
    stream crosses B1, and each port carries only its own pair's streams."""
    nodes = [bridge("B1", "d1", max_entries=1024)]
    links = []
    for i in range(pairs):
        for role, port in (("T", 2 * i), ("L", 2 * i + 1)):
            nodes.append(host(f"{role}{i:02d}", "d1"))
            links.append(link(f"l{role}{i:02d}", f"{role}{i:02d}", "p0", "B1", f"p{port:02d}"))
    return {
        "nodes": nodes,
        "links": links,
        "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
    }


def fill_service(seed: int, k: int, pairs: int) -> tuple[dict, dict]:
    """(nsd, placement) of service k of a fill: two VLs (four streams) of
    class 5-7 between pair k mod pairs, periods 250/500/1000 us."""
    rng = random.Random(f"fill/{seed}/{k}")
    t, l = f"s{k:03d}t", f"s{k:03d}l"

    def fill_vl(vl_id: str, vlan: int) -> dict:
        return vl(
            vl_id, t, l, vlan=vlan, pcp=rng.choice([5, 6, 7]),
            fwd=traffic(rng.choice(PERIODS_NS[1:]), rng.choice([128, 256, 384, 512])),
            rev=traffic(rng.choice(PERIODS_NS[1:]), rng.choice([128, 256, 384, 512])),
        )

    doc = nsd(
        f"svc{k:03d}",
        [vnf(t, CAPS_RT), vnf(l, CAPS_RT)],
        [fill_vl(f"s{k:03d}a", 100 + 2 * k), fill_vl(f"s{k:03d}b", 101 + 2 * k)],
    )
    pair = k % pairs
    return doc, placement({t: f"T{pair:02d}", l: f"L{pair:02d}"})
