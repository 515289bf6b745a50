"""Release gate.

One test per shipping requirement, each exercising the full pipeline
(descriptor parsing, path routing, per-domain admission, gate list
synthesis, end-station configs, simulation) over a shared sweep of
randomized scenarios plus hand-built cases. The sweep is built once per
module; tests that mutate workspaces build their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

import oracle_bruteforce as oracle
import scenarios as sc
from tsnfv.descriptors import derive_streams, parse_nsd, parse_placement
from tsnfv.errors import AdmissionFailedError
from tsnfv.topology import load_topology, shortest_path
from tsnfv.verifier import SimConfig, check_gcl_wellformed, verify_ns
from tsnfv.workspace import Workspace

N_SCENARIOS = 200
BASE_SEED = 1000


@dataclass
class Case:
    seed: int
    topo_doc: dict
    nsd_doc: dict
    placement_doc: dict
    ws: Workspace
    instance: object | None  # None when admission failed
    failure_cause: str | None
    result: object | None  # verification outcome for admitted cases


@pytest.fixture(scope="module")
def sweep() -> list[Case]:
    cases = []
    for i in range(N_SCENARIOS):
        seed = BASE_SEED + i
        topo_doc, nsd_doc, placement_doc = sc.random_scenario(seed)
        ws = sc.build_workspace(topo_doc)
        try:
            instance = sc.instantiate(ws, nsd_doc, placement_doc)
        except AdmissionFailedError as exc:
            cases.append(
                Case(seed, topo_doc, nsd_doc, placement_doc, ws, None, exc.cause, None)
            )
            continue
        result = verify_ns(instance, ws.topology, ws.gcl_docs, SimConfig())
        cases.append(
            Case(seed, topo_doc, nsd_doc, placement_doc, ws, instance, None, result)
        )
    return cases


def _admitted(sweep: list[Case]) -> list[Case]:
    return [case for case in sweep if case.instance is not None]


def test_criterion_01_admitted_streams_meet_bounds_under_full_load(sweep):
    assert len(sweep) >= 200
    admitted = _admitted(sweep)
    assert len(admitted) >= 150
    checked = 0
    for case in admitted:
        report = case.result.reports["bg1"]
        assert report.total_dropped == 0, case.seed
        assert report.total_violations == 0, case.seed
        for req, _ in case.instance.stream_schedules():
            rec = report.streams[req.stream_id]
            assert rec.observed_worst_latency_ns <= req.traffic.max_latency_ns, case.seed
            assert rec.observed_frame_count > 0, case.seed
            checked += 1
    assert checked >= 400


def test_criterion_02_simulator_reproduces_planned_latency_exactly(sweep):
    for case in _admitted(sweep):
        quiet = case.result.reports["bg0"]
        for req, chain in case.instance.stream_schedules():
            planned = chain[-1][1].exit_offset_ns
            assert quiet.streams[req.stream_id].observed_worst_latency_ns == planned, case.seed

    # hand trace of the two-hop reference case: 500-byte frame at 1 Gb/s,
    # 500 ns propagation per link, 1000 ns bridge processing
    on_wire = (500 + 8 + 12) * 8  # payload + preamble/SFD + IFG, 8 ns per byte
    hand = on_wire + 500 + 1000 + on_wire + 500
    assert hand == 10_320

    ws = sc.build_workspace(sc.intra_pop_topology())
    instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
    chains = {req.stream_id: chain for req, chain in instance.stream_schedules()}
    assert chains["vl1~fwd"][-1][1].exit_offset_ns == hand
    sim = verify_ns(instance, ws.topology, ws.gcl_docs, SimConfig())
    assert sim.reports["bg0"].streams["vl1~fwd"].observed_worst_latency_ns == hand


def test_criterion_03_background_load_cannot_shift_scheduled_traffic(sweep):
    for case in _admitted(sweep):
        quiet = case.result.reports["bg0"]
        loaded = case.result.reports["bg1"]
        assert loaded.be_sent > 0, case.seed
        assert set(quiet.streams) == set(loaded.streams)
        for sid in quiet.streams:
            assert (
                quiet.streams[sid].observed_worst_latency_ns
                == loaded.streams[sid].observed_worst_latency_ns
            ), (case.seed, sid)
            assert (
                quiet.streams[sid].observed_frame_count
                == loaded.streams[sid].observed_frame_count
            ), (case.seed, sid)


def test_criterion_04_virtual_links_map_to_direction_pairs(sweep):
    for case in sweep:
        nsd = parse_nsd(json.dumps(case.nsd_doc))
        placement = parse_placement(json.dumps(case.placement_doc))
        streams = derive_streams(nsd, placement)
        tsn_vls = [vl for vl in nsd.virtual_links if vl.tsn is not None]
        assert len(streams) == 2 * len(tsn_vls), case.seed
        by_id = {s.stream_id: s for s in streams}
        for vl in tsn_vls:
            fwd = by_id[f"{vl.vl_id}~fwd"]
            rev = by_id[f"{vl.vl_id}~rev"]
            assert fwd.talker == rev.listener, case.seed
            assert fwd.listener == rev.talker, case.seed
            assert fwd.frame.src_mac == rev.frame.dst_mac, case.seed
            assert fwd.frame.dst_mac == rev.frame.src_mac, case.seed


def test_criterion_05_termination_restores_controller_baseline():
    restored = 0
    for i in range(30):
        topo_doc, nsd_doc, placement_doc = sc.random_scenario(BASE_SEED + i)
        ws = sc.build_workspace(topo_doc)
        baseline = ws.snapshot_states()
        try:
            instance = sc.instantiate(ws, nsd_doc, placement_doc)
        except AdmissionFailedError:
            continue
        assert ws.snapshot_states() != baseline
        schedules_before = dict(instance.schedules)
        done = ws.terminate(instance.instance_id)
        assert done.status == "terminated"
        assert ws.snapshot_states() == baseline
        # the granted schedules stay on record for audit
        assert done.schedules == schedules_before
        restored += 1
    assert restored >= 20


def test_criterion_06_mid_chain_failure_rolls_back_contacted_domains():
    # final segment lacks gate scheduling: the first two domains admit,
    # the third refuses, and both earlier admissions must be compensated
    ws = sc.build_workspace(sc.cross_pop_topology(b3_qbv=False))
    baseline = ws.snapshot_states()
    doc = sc.nsd(
        "x",
        [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
        [sc.vl("vl1", "m1", "m2", 100, 7, sc.traffic())],
    )
    with pytest.raises(AdmissionFailedError) as info:
        sc.instantiate(ws, doc, sc.placement({"m1": "HA", "m2": "HB"}))
    assert info.value.domain_id == "d2"
    assert info.value.cause == "capability"
    assert ws.snapshot_states() == baseline
    assert ws.cuc.instances["ns-0001"].status == "failed"
    points = [r.reference_point for r in ws.dispatcher.audit_log]
    assert points[:3] == ["Or-Vi", "Or-Wi", "Or-Vi"]
    assert len(points) > 3  # the compensating removals are on record too


def test_criterion_07_audit_reference_points_match_domain_kinds(sweep):
    ws = sc.build_workspace(sc.intra_pop_topology())
    sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
    assert [r.reference_point for r in ws.dispatcher.audit_log] == ["Or-Vi", "Or-Vi"]

    ws2 = sc.build_workspace(sc.wan_slow_topology())
    sc.instantiate(ws2, sc.wan_slow_nsd(), sc.wan_slow_placement())
    points = [r.reference_point for r in ws2.dispatcher.audit_log]
    assert points == ["Or-Vi", "Or-Wi", "Or-Vi"] * 2

    for case in sweep:
        for record in case.ws.dispatcher.audit_log:
            expected = "Or-Wi" if record.domain_id == "wan" else "Or-Vi"
            assert record.reference_point == expected, case.seed
        if "wan" not in case.topo_doc["domains"]:
            assert all(
                r.reference_point == "Or-Vi" for r in case.ws.dispatcher.audit_log
            ), case.seed


def _adapt_admitted(case: Case, req, chain):
    """Admitted reservations as oracle windows, hops resolved from topology."""
    topo = case.ws.topology
    reservations = [r for _, schedule in chain for r in schedule.reservations]
    hops = []
    windows = []
    for res in reservations:
        node_id = res.port_id.split(".")[0]
        link = topo.link_at(res.port_id)
        next_node, _ = link.peer_of(node_id)
        hops.append(
            oracle.HopSpec(
                port=res.port_id,
                speed_bps=link.speed_bps,
                propagation_ns=link.propagation_ns,
                ingress_processing_ns=topo.nodes[next_node].forwarding_delay_ns,
            )
        )
        windows.append(
            oracle.PlacedWindow(
                port=res.port_id,
                start_ns=res.window_start_ns,
                length_ns=res.window_end_ns - res.window_start_ns,
                traffic_class=res.traffic_class,
                queue_from_ns=res.queue_from_ns,
            )
        )
    flow = oracle.FlowSpec(
        stream_id=req.stream_id,
        traffic_class=req.frame.pcp,
        frame_bytes=req.traffic.max_frame_bytes,
        frames=req.traffic.frames_per_period,
        period_ns=req.traffic.period_ns,
        max_latency_ns=req.traffic.max_latency_ns,
        hops=tuple(hops),
    )
    return flow, windows


def _flows_from_descriptors(topo_doc, nsd_doc, placement_doc):
    """Flow specs for a scenario without any admission result."""
    topo = load_topology(json.dumps(topo_doc))
    nsd = parse_nsd(json.dumps(nsd_doc))
    placement = parse_placement(json.dumps(placement_doc))
    flows = []
    for req in derive_streams(nsd, placement):
        path = shortest_path(topo, req.talker.node_id, req.listener.node_id)
        hops = []
        for hop in path.hops:
            link = topo.links[hop.link_id]
            hops.append(
                oracle.HopSpec(
                    port=hop.port_key,
                    speed_bps=link.speed_bps,
                    propagation_ns=link.propagation_ns,
                    ingress_processing_ns=topo.nodes[hop.ingress_node].forwarding_delay_ns,
                )
            )
        flows.append(
            oracle.FlowSpec(
                stream_id=req.stream_id,
                traffic_class=req.frame.pcp,
                frame_bytes=req.traffic.max_frame_bytes,
                frames=req.traffic.frames_per_period,
                period_ns=req.traffic.period_ns,
                max_latency_ns=req.traffic.max_latency_ns,
                hops=tuple(hops),
            )
        )
    return flows


def test_criterion_08_independent_checker_accepts_every_small_admission(sweep):
    small = 0
    for case in _admitted(sweep):
        pairs = list(case.instance.stream_schedules())
        if len(pairs) > 3:
            continue
        flows = []
        windows = {}
        for req, chain in pairs:
            flow, placed = _adapt_admitted(case, req, chain)
            flows.append(flow)
            windows[flow.stream_id] = placed
        if any(len(f.hops) > 4 for f in flows):
            continue
        verdict = oracle.check_assignment(flows, windows)
        assert verdict is None, (case.seed, verdict)
        small += 1
    assert small >= 20

    # rejected small cases: when the exhaustive no-wait search still finds
    # a schedule, that is known greedy incompleteness, reported not failed
    probes = [
        (case.topo_doc, case.nsd_doc, case.placement_doc)
        for case in sweep
        if case.instance is None
    ]
    engineered = _engineered_rejection()
    with pytest.raises(AdmissionFailedError):
        sc.instantiate(sc.build_workspace(engineered[0]), engineered[1], engineered[2])
    probes.append(engineered)
    searched = 0
    schedulable = 0
    for topo_doc, nsd_doc, placement_doc in probes:
        flows = _flows_from_descriptors(topo_doc, nsd_doc, placement_doc)
        if len(flows) > 3 or any(len(f.hops) > 4 for f in flows):
            continue
        searched += 1
        if oracle.search_no_wait(flows, cap=24) is not None:
            schedulable += 1
    assert searched >= 1
    print(f"small rejected cases: searched={searched} schedulable_by_search={schedulable}")


def _engineered_rejection():
    """A port whose residual gap falls under one guard: rejected by the
    controller and confirmed unschedulable by the search."""
    nsd_doc = sc.nsd(
        "sat",
        [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
        [
            sc.vl(
                "vl1",
                "m1",
                "m2",
                100,
                7,
                sc.traffic(period=625_000, frame=1522, frames=50, latency=4_000_000),
                sc.traffic(period=625_000),
            )
        ],
    )
    return sc.intra_pop_topology(), nsd_doc, sc.placement({"m1": "A", "m2": "C"})


def test_criterion_09_rebuilds_are_byte_identical(tmp_path):
    for i in range(10):
        seed = BASE_SEED + i
        states = []
        configs = []
        for run in ("a", "b"):
            topo_doc, nsd_doc, placement_doc = sc.random_scenario(seed)
            ws = sc.build_workspace(topo_doc)
            try:
                instance = sc.instantiate(ws, nsd_doc, placement_doc)
                configs.append([c.to_doc() for c in ws.cuc._emit_configs(instance)])
            except AdmissionFailedError:
                configs.append(None)
            path = tmp_path / f"{seed}-{run}.json"
            ws.save(path)
            states.append(path.read_bytes())
        assert states[0] == states[1], seed
        assert configs[0] == configs[1], seed


def test_criterion_10_every_emitted_gcl_is_wellformed(sweep):
    checked = 0
    for case in sweep:
        topo = case.ws.topology
        for port, doc in case.ws.gcl_docs.items():
            speed = topo.link_at(port).speed_bps
            assert check_gcl_wellformed(doc, speed) == [], (case.seed, port)
            checked += 1
    assert checked >= 200
