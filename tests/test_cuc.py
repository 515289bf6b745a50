from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import scenarios as sc
from tsnfv import descriptors, uni
from tsnfv.cuc import partition_latency_budget
from tsnfv.topology import shortest_path
from tsnfv.verifier import SimConfig, verify_ns
from tsnfv.workspace import Workspace
from tsnfv.errors import (
    AdmissionFailedError,
    AlreadyTerminatedError,
    TransportError,
    TsnNfvError,
    UnknownInstanceError,
    UnknownStreamError,
    UpdateFailedError,
    ValidationError,
)


class TestBudgetPartition:
    def test_proportional_with_remainder_to_last(self):
        assert partition_latency_budget(300_000, [2, 1, 2]) == [120_000, 60_000, 120_000]
        assert partition_latency_budget(100_000, [3]) == [100_000]
        assert partition_latency_budget(100, [1, 1, 1]) == [33, 33, 34]

    def test_zero_hops_rejected(self):
        with pytest.raises(ValidationError):
            partition_latency_budget(100_000, [])

    @given(
        total=st.integers(min_value=1, max_value=10_000_000),
        hops=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    )
    def test_partition_sums_exactly(self, total, hops):
        parts = partition_latency_budget(total, hops)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)


class TestInstantiate:
    def test_intra_pop_reference_instance(self, demo_instance):
        ws, instance = demo_instance
        assert instance.instance_id == "ns-0001"
        assert instance.status == "active"
        assert [s.stream_id for s in instance.streams] == ["vl1~fwd", "vl1~rev"]
        fwd = instance.schedules["vl1~fwd"]
        assert [d for d, _ in fwd] == ["d1"]
        assert fwd[0][1].e2e_latency_ns == 10_320
        rev = instance.schedules["vl1~rev"]
        assert rev[0][1].e2e_latency_ns == 10_320  # symmetric substrate

    def test_configs_for_both_managed_endpoints(self, demo_instance):
        ws, instance = demo_instance
        configs = ws.cuc._emit_configs(instance)
        assert sorted(c.station_id for c in configs) == ["vnfA", "vnfC"]
        by_station = {c.station_id: c for c in configs}
        talker_cfg = by_station["vnfA"]
        assert talker_cfg.sync_daemon is True
        assert talker_cfg.vlan == (100, 7)
        assert talker_cfg.socket_priority_map == {"7": 7}
        assert talker_cfg.scheduling_policy == "deadline"
        assert talker_cfg.txtime_offsets_ns == {"vl1~fwd": [0]}
        tas = talker_cfg.tas_schedule
        assert tas["cycle_ns"] == 250_000 and tas["base_time_ns"] == 0
        assert tas["entries"] == [[128, 4160], [127, 233_504], [0, 12_336]]

    def test_fifo_policy_without_rt_capability(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        doc = sc.demo_nsd()
        for vnfd in doc["vnfds"]:
            vnfd["required_capabilities"] = dict(sc.CAPS)  # no rt_scheduling_policy
        instance = sc.instantiate(ws, doc, sc.demo_placement())
        assert {c.scheduling_policy for c in ws.cuc._emit_configs(instance)} == {"fifo_rt"}

    def test_audit_trail_per_admission(self, demo_instance):
        ws, _ = demo_instance
        assert [
            (r.request_id, r.domain_id, uni.reference_point(ws.topology, r.domain_id))
            for r in ws.dispatcher.audit_log
        ] == [("req-0001", "d1", "Or-Vi"), ("req-0002", "d1", "Or-Vi")]

    def test_admission_order_is_tightest_period_first(self):
        # vl2 has the shorter period, so it must be requested first even
        # though vl1 is declared first
        ws = sc.build_workspace(sc.intra_pop_topology())
        doc = sc.nsd(
            "two",
            [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
            [
                sc.vl("vl1", "m1", "m2", 100, 7, sc.traffic(period=500_000)),
                sc.vl("vl2", "m1", "m2", 101, 6, sc.traffic(period=250_000)),
            ],
        )
        instance = sc.instantiate(ws, doc, sc.placement({"m1": "A", "m2": "C"}))
        first_window = instance.schedules["vl2~fwd"][0][1].reservations[0]
        assert first_window.window_start_ns == 0
        later_window = instance.schedules["vl1~fwd"][0][1].reservations[0]
        assert later_window.window_start_ns == 4160


class TestCrossDomain:
    def test_three_segments_with_chained_offsets(self):
        ws = sc.build_workspace(sc.wan_slow_topology())
        instance = sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
        chain = instance.schedules["wl~fwd"]
        assert [d for d, _ in chain] == ["d1", "wan", "d2"]
        d1, wan, d2 = (sched for _, sched in chain)
        # hand-traced: burst of three 500 B frames, 100 Mb/s WAN hop
        assert (d1.entry_offset_ns, d1.exit_offset_ns) == (0, 26_960)
        assert (wan.entry_offset_ns, wan.exit_offset_ns) == (26_960, 155_760)
        assert (d2.entry_offset_ns, d2.exit_offset_ns) == (155_760, 169_740)
        # first frame of the burst reaches W1 two wire strides early
        assert wan.reservations[0].queue_from_ns == 20_640
        # after the slow hop the stride is 41.6 us
        assert d2.reservations[0].queue_from_ns == 73_560

    def test_reverse_direction_latency(self):
        ws = sc.build_workspace(sc.wan_slow_topology())
        instance = sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
        rev = instance.schedules["wl~rev"]
        assert rev[-1][1].exit_offset_ns == 61_580

    def test_audit_shows_vim_wim_vim(self):
        ws = sc.build_workspace(sc.wan_slow_topology())
        sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
        points = [uni.reference_point(ws.topology, r.domain_id) for r in ws.dispatcher.audit_log]
        # two streams, three segments each
        assert points == ["Or-Vi", "Or-Wi", "Or-Vi"] * 2

    def test_intra_pop_uses_only_vim(self, demo_instance):
        ws, _ = demo_instance
        assert {uni.reference_point(ws.topology, r.domain_id) for r in ws.dispatcher.audit_log} == {"Or-Vi"}


class TestRollback:
    def test_capability_failure_in_last_domain_rolls_back_everything(self):
        # B3 cannot gate, so the d2 segment is rejected after d1 and wan
        # have already granted; both must be compensated
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
        failed = ws.cuc.instances["ns-0001"]
        assert failed.status == "failed"
        assert failed.schedules == {}

    def test_budget_failure_keeps_prior_instances_intact(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        baseline = ws.snapshot_states()
        tight = sc.nsd(
            "tight",
            [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
            [sc.vl("vl9", "m1", "m2", 101, 6, sc.traffic(latency=10_000))],
        )
        with pytest.raises(AdmissionFailedError) as info:
            sc.instantiate(ws, tight, sc.placement({"m1": "A", "m2": "C"}))
        assert info.value.cause == "infeasible_budget"
        assert ws.snapshot_states() == baseline
        assert ws.cuc.instances[first.instance_id].status == "active"

    def test_bridge_gcl_overflow_rolls_back(self):
        # a second class on B1.p1 needs more gate entries than the bridge
        # holds; the admission that would overflow is refused and the
        # streams granted before it are compensated
        doc = sc.intra_pop_topology()
        doc["nodes"][1]["gcl_max_entries"] = 4
        ws = sc.build_workspace(doc)
        empty = ws.snapshot_states()
        nsd_doc = sc.demo_nsd()
        nsd_doc["virtual_links"].append(sc.vl("vl2", "vnfA", "vnfC", 101, 6, sc.traffic()))
        with pytest.raises(AdmissionFailedError) as info:
            sc.instantiate(ws, nsd_doc, sc.demo_placement())
        assert info.value.cause == "no_free_window"
        assert ws.cuc.instances["ns-0001"].status == "failed"
        assert ws.snapshot_states() == empty
        assert ws.gcl_docs == {}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_transport_failure_at_exchange_k_rolls_back_everything(self, k):
        ws = sc.build_workspace(sc.cross_pop_topology())
        baseline = ws.snapshot_states()
        handles = ws.dispatcher.handles
        exchanges = itertools.count(1)

        class _DiesAtK:
            def __init__(self, inner):
                self.inner = inner

            def handle(self, msg):
                if next(exchanges) == k:
                    raise TransportError(f"exchange {k} lost")
                return self.inner.handle(msg)

        ws.dispatcher.handles = {d: _DiesAtK(h) for d, h in handles.items()}
        with pytest.raises(TsnNfvError):
            sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
        assert ws.snapshot_states() == baseline
        assert ws.cuc.instances["ns-0001"].status == "failed"
        assert ws.cuc.holders == {}
        ws.dispatcher.handles = handles
        assert sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement()).status == "active"

    def test_a_raising_compensation_leaves_the_others_to_run(self):
        """d2's admission of wl~fwd raises, then the wan's compensating
        removal raises too: d1's grant is still removed, the instance is
        stored as failed, and the wan's error is the one that escapes."""
        ws = sc.build_workspace(sc.wan_slow_topology())
        baseline = ws.snapshot_states()
        handles = ws.dispatcher.handles

        class _Raises:
            def __init__(self, inner, kind, error):
                self.inner, self.kind, self.error = inner, kind, error

            def handle(self, msg):
                if isinstance(msg, self.kind):
                    raise self.error
                return self.inner.handle(msg)

        ws.dispatcher.handles = {
            **handles,
            "d2": _Raises(handles["d2"], uni.StreamRequest, TransportError("d2 lost")),
            "wan": _Raises(handles["wan"], uni.RemoveStream, TransportError("wan lost")),
        }
        with pytest.raises(TransportError, match="^wan lost$") as info:
            sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
        assert str(info.value.__context__) == "d2 lost"
        assert ws.snapshot_states()["d1"] == baseline["d1"]
        assert ws.cuc.instances["ns-0001"].status == "failed"
        assert [(r.request_id, r.domain_id) for r in ws.dispatcher.audit_log] == [
            ("req-0001", "d1"), ("req-0002", "wan"), ("req-0003", "d2"), ("req-0004", "wan"), ("req-0005", "d1"),
        ]


class TestTerminate:
    def test_restores_controller_baseline(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        empty = ws.snapshot_states()
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        assert ws.snapshot_states() != empty
        ws.terminate(instance.instance_id)
        assert ws.snapshot_states() == empty
        kept = ws.cuc.instances[instance.instance_id]
        assert kept.status == "terminated"
        # the granted schedules survive termination for audit
        assert kept.schedules

    def test_double_terminate(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        ws.terminate(instance.instance_id)
        with pytest.raises(AlreadyTerminatedError):
            ws.terminate(instance.instance_id)

    def test_unknown_instance(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        with pytest.raises(UnknownInstanceError):
            ws.terminate("ns-9999")

    def test_terminating_one_of_two_leaves_the_other(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        a = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        second = sc.nsd(
            "second",
            [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
            [sc.vl("vl2", "m1", "m2", 101, 6, sc.traffic())],
        )
        b = sc.instantiate(ws, second, sc.placement({"m1": "A", "m2": "C"}))
        ws.terminate(a.instance_id)
        state = ws.states["d1"]
        assert set(state.admitted) == {"vl2~fwd", "vl2~rev"}
        assert ws.cuc.instances[b.instance_id].status == "active"


def test_terminating_the_middle_of_three_packed_services():
    """The middle service's windows leave gaps shorter than a guard behind;
    termination succeeds and the other two still verify under full
    background load."""
    ws = sc.build_workspace(sc.intra_pop_topology())
    ids = []
    for k in range(3):
        doc = sc.nsd(
            f"ns{k}",
            [sc.vnf(f"a{k}", sc.CAPS_RT), sc.vnf(f"c{k}", sc.CAPS_RT)],
            [sc.vl(f"vl{k}", f"a{k}", f"c{k}", 100 + k, 1, sc.traffic(period=100_000, frame=64))],
        )
        ids.append(sc.instantiate(ws, doc, sc.placement({f"a{k}": "A", f"c{k}": "C"})).instance_id)
    ws.terminate(ids[1])
    for iid in (ids[0], ids[2]):
        result = verify_ns(ws.cuc.instance(iid), ws.topology, ws.gcl_docs, SimConfig(bg_load=1.0))
        assert result.passed, result.gcl_violations


def _fault_second_removal(ws, fault) -> None:
    """Answer domain d1's second stream removal by fault(request) instead
    of its controller."""
    inner = ws.dispatcher.handles["d1"]
    removals = itertools.count(1)

    class _Faulty:
        def handle(self, request):
            if isinstance(request, uni.RemoveStream) and next(removals) == 2:
                return fault(request)
            return inner.handle(request)

    ws.dispatcher.handles["d1"] = _Faulty()


class TestStreamIdClash:
    def test_rejected_before_any_uni_exchange(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        audit = list(ws.dispatcher.audit_log)
        snapshots = ws.snapshot_states()
        with pytest.raises(ValidationError, match="stream vl1~fwd is held by active instance ns-0001"):
            sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        assert ws.dispatcher.audit_log == audit
        assert ws.snapshot_states() == snapshots
        assert list(ws.cuc.instances) == [first.instance_id]
        assert ws.cuc.instance_seq == 1

    def test_a_stream_a_uni_client_holds_is_rejected_before_any_uni_exchange(self):
        """Once a UNI client holds a stream id, an instance deriving it is
        refused as an input error, whichever domains its route crosses."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        req = descriptors.derive_streams(
            sc.parse_nsd_doc(sc.demo_nsd()), sc.parse_placement_doc(sc.demo_placement())
        )[0]
        hops = tuple(shortest_path(ws.topology, "A", "C").hops)
        assert ws.dispatcher.dispatch(uni.StreamRequest("r-1", req, hops, 2_000_000), "d1").status == "ok"
        audit = list(ws.dispatcher.audit_log)
        with pytest.raises(ValidationError, match="^stream vl1~fwd is already admitted in domain d1$"):
            sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        assert ws.dispatcher.audit_log == audit
        assert ws.cuc.instances == {}
        assert ws.cuc.instance_seq == 0

    def test_terminated_instance_holds_no_stream(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        ws.terminate(first.instance_id)
        again = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        assert again.status == "active"

    def test_failed_release_keeps_the_stream_ids(self):
        """A release gives up the ids before its removals, which the
        dispatcher would refuse otherwise, and takes them back when one
        fails: the instance stays active and holds them."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())

        class _Refuses:
            def handle(self, request):
                return uni.UniResponse(request.request_id, "failed", cause="unknown_stream", detail="gone")

        ws.dispatcher.handles["d1"] = _Refuses()
        with pytest.raises(UnknownStreamError):
            ws.terminate(first.instance_id)
        assert first.status == "active"
        assert ws.cuc.holders == {"vl1~fwd": "ns-0001", "vl1~rev": "ns-0001"}

    def test_raising_release_keeps_the_stream_ids(self):
        """A removal that raises gives the ids back as a failed one does,
        so a UNI removal of the stream the instance still holds is refused."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())

        def lost(request):
            raise TransportError("removal 2 lost")

        _fault_second_removal(ws, lost)
        with pytest.raises(TransportError):
            ws.terminate(first.instance_id)
        assert ws.cuc.instances["ns-0001"].status == "active"
        assert ws.cuc.holders == {"vl1~fwd": "ns-0001", "vl1~rev": "ns-0001"}
        response = ws.dispatcher.dispatch(uni.RemoveStream("r-1", "vl1~rev"), "d1")
        assert (response.status, response.cause, response.detail) == (
            "failed", "malformed", "stream vl1~rev is held by active instance ns-0001",
        )
        assert "vl1~rev" in ws.states["d1"].admitted

    @pytest.mark.xfail(
        strict=True,
        raises=ValidationError,
        reason="ROADMAP item 2: a removal that fails partway through terminate "
        "leaves the instance active with a stream its controller no longer holds",
    )
    def test_partial_release_saves_a_state_that_loads(self, tmp_path):
        """terminate's second removal fails; the state saved afterwards
        loads, and every active instance's chain agrees with its
        controllers, which hold no stream that no active chain names."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        _fault_second_removal(
            ws, lambda request: uni.UniResponse(request.request_id, "failed", cause="unknown_stream", detail="lost")
        )
        with pytest.raises(UnknownStreamError):
            ws.terminate(first.instance_id)
        path = tmp_path / "state.json"
        ws.save(path)
        restored = Workspace.load(path)
        links = {
            (domain_id, sid): schedule
            for instance in restored.cuc.instances.values()
            if instance.status == "active"
            for sid, chain in instance.schedules.items()
            for domain_id, schedule in chain
        }
        records = {
            (domain_id, sid): entry.schedule
            for domain_id, state in restored.states.items()
            for sid, entry in state.admitted.items()
        }
        assert links == records

    def test_failed_instance_holds_no_stream(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        with pytest.raises(AdmissionFailedError):
            sc.instantiate(ws, sc.demo_nsd(latency=10_000), sc.demo_placement())
        assert ws.cuc.instances["ns-0001"].status == "failed"
        assert sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement()).status == "active"

    def test_failed_update_holds_the_restored_streams_again(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        with pytest.raises(UpdateFailedError):
            ws.update(
                first.instance_id,
                sc.parse_nsd_doc(sc.demo_nsd(latency=10_000)),
                sc.parse_placement_doc(sc.demo_placement()),
            )
        with pytest.raises(ValidationError, match="stream vl1~fwd is held by active instance ns-0001"):
            sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())

    def test_refusal_holds_after_save_and_load(self, tmp_path):
        ws = sc.build_workspace(sc.intra_pop_topology())
        first = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        path = tmp_path / "state.json"
        ws.save(path)
        restored = Workspace.load(path)
        with pytest.raises(ValidationError, match="stream vl1~fwd is held by active instance ns-0001"):
            sc.instantiate(restored, sc.demo_nsd(), sc.demo_placement())
        restored.terminate(first.instance_id)
        restored.save(path)
        again = sc.instantiate(Workspace.load(path), sc.demo_nsd(), sc.demo_placement())
        assert again.status == "active"

    def test_update_to_its_own_nsd(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        updated = ws.update(
            instance.instance_id,
            sc.parse_nsd_doc(sc.demo_nsd()),
            sc.parse_placement_doc(sc.demo_placement()),
        )
        assert updated.status == "active"
        assert updated.schedules == instance.schedules


class TestImmutableRecords:
    """A lifecycle step stores a new instance record in place of the old
    one, which stays as it was."""

    def test_a_record_cannot_be_assigned_to(self, demo_instance):
        _, instance = demo_instance
        for name, value in [("status", "terminated"), ("instance_id", "ns-0002"), ("schedules", {})]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, value)
        assert all(type(chain) is tuple for chain in instance.schedules.values())

    def test_terminate_stores_a_new_record(self, demo_instance):
        ws, instance = demo_instance
        before = instance.to_doc()
        done = ws.terminate(instance.instance_id)
        assert ws.cuc.instance(instance.instance_id) is done is not instance
        assert (done.status, done.schedules) == ("terminated", instance.schedules)
        assert instance.status == "active"
        assert instance.to_doc() == before

    def test_update_stores_a_new_record(self, demo_instance):
        ws, instance = demo_instance
        before = instance.to_doc()
        bigger = sc.demo_nsd()
        bigger["virtual_links"][0]["tsn"]["traffic_fwd"]["frames_per_period"] = 2
        updated = ws.update(
            instance.instance_id,
            sc.parse_nsd_doc(bigger),
            sc.parse_placement_doc(sc.demo_placement()),
        )
        assert ws.cuc.instance(instance.instance_id) is updated is not instance
        assert updated.schedules != instance.schedules
        assert instance.to_doc() == before

    def test_terminate_reuses_the_streams_derived_at_instantiation(self, demo_instance, monkeypatch):
        ws, instance = demo_instance
        assert ws.cuc.instance(instance.instance_id) is instance
        monkeypatch.setattr(descriptors, "derive_streams", lambda *args: pytest.fail("derived again"))
        assert ws.terminate(instance.instance_id).status == "terminated"


class TestUpdate:
    def test_successful_update_replaces_streams(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        bigger = sc.demo_nsd()
        bigger["virtual_links"][0]["tsn"]["traffic_fwd"]["frames_per_period"] = 2
        updated = ws.update(
            instance.instance_id,
            sc.parse_nsd_doc(bigger),
            sc.parse_placement_doc(sc.demo_placement()),
        )
        assert updated.instance_id == instance.instance_id
        assert updated.status == "active"
        fwd = updated.schedules["vl1~fwd"][0][1]
        assert fwd.reservations[0].length_ns == 8320  # two frames now

    def test_failed_update_restores_original(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        impossible = sc.demo_nsd(latency=10_000)
        with pytest.raises(UpdateFailedError) as info:
            ws.update(
                instance.instance_id,
                sc.parse_nsd_doc(impossible),
                sc.parse_placement_doc(sc.demo_placement()),
            )
        assert info.value.restored is True
        restored = ws.cuc.instance(instance.instance_id)
        assert restored.status == "active"
        assert restored.schedules["vl1~fwd"][0][1].e2e_latency_ns == 10_320

    def test_update_of_terminated_instance_is_unknown(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        ws.terminate(instance.instance_id)
        with pytest.raises(UnknownInstanceError):
            ws.update(
                instance.instance_id,
                sc.parse_nsd_doc(sc.demo_nsd()),
                sc.parse_placement_doc(sc.demo_placement()),
            )


class TestUnmanagedStations:
    def test_pnf_talker_gets_no_config(self):
        doc = sc.intra_pop_topology()
        doc["nodes"].append(sc.station("CAM", "d1", managed=False))
        doc["links"].append(sc.link("l9", "CAM", "p0", "B1", "p2"))
        ws = sc.build_workspace(doc)
        nsd_doc = sc.nsd(
            "cams",
            [sc.vnf("sink", sc.CAPS_RT)],
            [sc.vl("feed", "cam1", "sink", 100, 5, sc.traffic())],
            pnfs=[sc.pnf("cam1")],
        )
        placement = sc.placement({"cam1": "CAM", "sink": "C"})
        instance = sc.instantiate(ws, nsd_doc, placement)
        # only the managed sink talks the reverse stream; the camera's
        # forward stream yields no config
        assert [c.station_id for c in ws.cuc._emit_configs(instance)] == ["sink"]

    def test_instance_round_trip(self, demo_instance):
        from tsnfv.cuc import NsInstance

        _, instance = demo_instance
        doc = instance.to_doc()
        again = NsInstance.from_doc(doc)
        assert again.to_doc() == doc
        assert again.stream_schedules()[0][0].stream_id == "vl1~fwd"
