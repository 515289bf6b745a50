from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scenarios as sc
from tsnfv import cnc, descriptors, uni
from tsnfv.errors import GclOverflowError, ParseError, TsnNfvError, ValidationError
from tsnfv.topology import shortest_path
from tsnfv.workspace import Workspace

V1_DEMO_STATE = Path(__file__).resolve().parent / "golden" / "demo_state.json"
V2_DEMO_STATE = Path(__file__).resolve().parent / "golden" / "demo_state_v2.json"


def _populated():
    ws = sc.build_workspace(sc.intra_pop_topology())
    sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
    return ws


class TestPersistence:
    def test_save_load_round_trip_is_byte_identical(self, tmp_path):
        ws = _populated()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        ws.save(first)
        Workspace.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_rebuild_from_scratch_is_byte_identical(self, tmp_path):
        a = _populated()
        b = _populated()
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_counters_continue_after_reload(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        restored = Workspace.load(path)
        assert restored.cuc.request_seq == 2
        second = sc.nsd(
            "second",
            [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
            [sc.vl("vl2", "m1", "m2", 101, 6, sc.traffic())],
        )
        instance = sc.instantiate(restored, second, sc.placement({"m1": "A", "m2": "C"}))
        assert instance.instance_id == "ns-0002"
        assert restored.dispatcher.audit_log[-1].request_id == "req-0004"

    def test_restored_instances_and_streams(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        restored = Workspace.load(path)
        instance = restored.cuc.instance("ns-0001")
        assert instance.status == "active"
        assert set(restored.states["d1"].admitted) == {"vl1~fwd", "vl1~rev"}
        # restored controllers answer on the same dispatcher
        ws2 = restored
        ws2.terminate("ns-0001")
        assert ws2.states["d1"].admitted == {}

    def test_saved_state_holds_no_derived_data(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 4
        assert sorted(doc) == ["audit", "cnc", "counters", "instances", "topology", "version"]
        instance = doc["instances"]["ns-0001"]
        assert sorted(instance) == ["instance_id", "nsd", "placement", "schedules", "status"]
        # an active chain names its domains; each schedule is stored once, as its controller's record
        assert instance["schedules"] == {"vl1~fwd": [{"domain_id": "d1"}], "vl1~rev": [{"domain_id": "d1"}]}
        schedules = [entry["schedule"] for entry in doc["cnc"]["d1"]["streams"]]
        assert len(schedules) == 2
        assert all("cycle_ns" not in schedule for schedule in schedules)

    def test_load_derives_gcls_and_streams(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        restored = Workspace.load(path)
        assert restored.gcl_docs == ws.gcl_docs
        assert restored.cuc.instance("ns-0001").streams == ws.cuc.instance("ns-0001").streams


def _reference_bytes(ws: Workspace) -> bytes:
    """The state file as the document defines it."""
    return (json.dumps(ws.to_doc(), sort_keys=True, separators=(",", ":")) + "\n").encode()


class TestIncrementalSave:
    """Each save of a changing workspace writes the bytes of the whole
    document's encoding, whatever changed since the last save."""

    PAIRS = 4

    def _refused(self, k: int) -> tuple[dict, dict]:
        """A service whose forward stream is granted, then refused on its
        reverse one's 3 us bound, so the forward grant is rolled back."""
        doc = sc.nsd(
            f"refused{k}",
            [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
            [
                sc.vl(
                    f"r{k}", "m1", "m2", 900 + k, 6,
                    sc.traffic(period=250_000, frame=128),
                    sc.traffic(period=1_000_000, frame=128, latency=3_000),
                )
            ],
        )
        pair = k % self.PAIRS
        return doc, sc.placement({"m1": f"T{pair:02d}", "m2": f"L{pair:02d}"})

    def _uni_request(self, ws: Workspace, n: int, k: int) -> uni.StreamRequest:
        nsd, placement = sc.fill_service(2, k, self.PAIRS)
        req = descriptors.derive_streams(sc.parse_nsd_doc(nsd), sc.parse_placement_doc(placement))[0]
        hops = shortest_path(ws.topology, req.talker.node_id, req.listener.node_id).hops
        return uni.StreamRequest(f"prop-{n}", req, hops, req.traffic.max_latency_ns)

    def _apply(self, ws: Workspace, n: int, step: tuple, path: Path) -> Workspace:
        kind, k = step
        active = sorted(i for i, inst in ws.cuc.instances.items() if inst.status == "active")
        try:
            if kind == "instantiate":
                sc.instantiate(ws, *sc.fill_service(1, k, self.PAIRS))
            elif kind == "refused":
                sc.instantiate(ws, *self._refused(k))
            elif kind == "terminate" and active:
                ws.terminate(active[k % len(active)])
            elif kind == "update" and active:
                nsd, placement = sc.fill_service(1, 100 + k, self.PAIRS)
                ws.update(active[k % len(active)], sc.parse_nsd_doc(nsd), sc.parse_placement_doc(placement))
            elif kind == "update_refused" and active:
                # the old descriptors are admitted again, where there is room now
                nsd, placement = self._refused(k)
                ws.update(active[k % len(active)], sc.parse_nsd_doc(nsd), sc.parse_placement_doc(placement))
            elif kind == "stream_request":
                ws.dispatcher.dispatch(self._uni_request(ws, n, k), "d1")
            elif kind == "remove_stream":
                held = sorted(ws.states["d1"].admitted) or ["nothing"]
                ws.dispatcher.dispatch(uni.RemoveStream(f"prop-{n}", held[k % len(held)]), "d1")
            elif kind == "capability_query":
                ws.dispatcher.dispatch(uni.CapabilityQuery(f"prop-{n}"), "d1")
            elif kind == "reload":
                return Workspace.load(path)
        except TsnNfvError:
            pass  # a refusal is a step too: it leaves a failed instance or audit records
        return ws

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "instantiate", "refused", "terminate", "update", "update_refused",
                        "stream_request", "remove_stream", "capability_query", "reload",
                    ]
                ),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # two services on pair 0; the first goes, and the second, on a failed
    # update, is admitted again with the same descriptors in the first's place
    @example(steps=[("instantiate", 0), ("instantiate", 4), ("terminate", 0), ("update_refused", 0)])
    def test_saves_are_the_documents_bytes(self, tmp_path, steps):
        """After every step the saved bytes are the document's encoding,
        and the ones a freshly loaded copy saves. In that copy, each active
        link holds its controller's record, and the active instances hold
        exactly the stream ids they derive."""
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        ws = sc.build_workspace(sc.fill_topology(self.PAIRS))
        ws.save(path)
        for n, step in enumerate(steps):
            ws = self._apply(ws, n, step, path)
            ws.save(path)
            saved = path.read_bytes()
            assert saved == _reference_bytes(ws), step
            loaded = Workspace.load(path)
            loaded.save(again)
            assert again.read_bytes() == saved, step
            active = [i for i in loaded.cuc.instances.values() if i.status == "active"]
            for instance in active:
                for sid, chain in instance.schedules.items():
                    for domain_id, schedule in chain:
                        assert schedule is loaded.states[domain_id].admitted[sid].schedule, step
            assert loaded.cuc.holders == {req.stream_id: i.instance_id for i in active for req in i.streams}, step

    @pytest.mark.parametrize(
        "edit",
        [
            lambda log: log[:3],  # another list, shorter
            lambda log: log + [log[0]],  # another list, longer
            lambda log: log.__setitem__(-1, log[0]),  # the same list, another record at the old end
            lambda log: log.__delitem__(slice(-2, None)),  # the same list, shorter
        ],
    )
    def test_audit_log_replaced_or_cut(self, tmp_path, edit):
        """A log that is not the saved one grown at its end is saved as it
        is."""
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        replaced = edit(ws.dispatcher.audit_log)
        if replaced is not None:
            ws.dispatcher.audit_log = replaced
        ws.save(path)
        assert path.read_bytes() == _reference_bytes(ws)


class TestVersion1:
    """A version 1 file stored copies of derived data; loading drops them
    and derives them afresh."""

    def test_loads_as_the_same_state(self, tmp_path):
        ws = _populated()
        old = Workspace.load(V1_DEMO_STATE)
        assert old.to_doc() == ws.to_doc()
        assert old.gcl_docs == ws.gcl_docs

    def test_tampered_v1_gcls_are_ignored_on_load(self, tmp_path):
        doc = json.loads(V1_DEMO_STATE.read_text())
        doc["gcls"]["B1.p1"]["entries"][0]["interval_ns"] -= 3000
        doc["instances"]["ns-0001"]["configs"][0]["tas_schedule"]["entries"] = []
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        restored = Workspace.load(path)
        assert restored.gcl_docs["B1.p1"]["entries"][0]["interval_ns"] == 5660
        assert restored.gcl_docs == _populated().gcl_docs

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(instances=[]),
            lambda doc: doc["instances"].update({"ns-0001": 7}),
            lambda doc: doc["instances"]["ns-0001"].update(schedules={"vl1~fwd": "x"}),
            lambda doc: doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"].append(3),
            lambda doc: doc["cnc"]["d1"].update(streams=[None]),
            lambda doc: doc["cnc"]["d1"]["streams"][0].update(schedule=[]),
            lambda doc: doc["cnc"]["d1"]["streams"][0]["schedule"].update(cycle="x"),
            lambda doc: doc.update(cnc="x"),
        ],
    )
    def test_malformed_v1_is_a_parse_error(self, edit):
        doc = json.loads(V1_DEMO_STATE.read_text())
        edit(doc)
        with pytest.raises(ParseError):
            Workspace.from_doc(doc)


def _demo_doc() -> dict:
    return _populated().to_doc()


def _cross_pop_doc() -> dict:
    """The wan_slow service, whose chains run d1 -> wan -> d2."""
    ws = sc.build_workspace(sc.wan_slow_topology())
    sc.instantiate(ws, sc.wan_slow_nsd(), sc.wan_slow_placement())
    return ws.to_doc()


def _rename_domain(doc):
    doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"][0]["domain_id"] = "d9"
    return "vl1~fwd: the schedule in domain d9 is not its controller's record"


def _drop_record(doc):
    streams = doc["cnc"]["d1"]["streams"]
    streams[:] = [s for s in streams if s["requirement"]["stream_id"] != "vl1~rev"]
    return "vl1~rev: the schedule in domain d1 is not its controller's record"


def _repeat_link(doc):
    chain = doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"]
    chain.append(chain[0])
    return "vl1~fwd: the chain names a domain twice (d1, d1)"


def _drop_link(doc):
    chain = doc["instances"]["ns-0001"]["schedules"]["wl~fwd"]
    assert chain.pop(0) == {"domain_id": "d1"}
    return "wl~fwd: controller d1 holds the stream but is not in the chain"


def _drop_chain(doc):
    del doc["instances"]["ns-0001"]["schedules"]["vl1~rev"]
    return "vl1~rev: the instance has no chain for the stream it derives"


def _empty_chain(doc):
    doc["instances"]["ns-0001"]["schedules"]["vl1~rev"] = []
    return "vl1~rev: the chain is empty"


def _foreign_chain(doc):
    doc["instances"]["ns-0001"]["schedules"]["vl9~fwd"] = [{"domain_id": "d1"}]
    return "vl9~fwd: the instance derives no such stream"


class TestChainLinks:
    """A chain link is a (domain, schedule) pair in memory. In the state
    file it is a {"domain_id"} object in an active instance, whose
    schedules are its controllers' records, and a {"domain_id",
    "schedule"} object in a terminated or failed one."""

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda link: [link["domain_id"], link["schedule"]], "expected an object, got a list"),
            (lambda link: {**link, "domain": "d1"}, "unknown keys ['domain']"),
            (lambda link: {"domain_id": link["domain_id"]}, "missing keys ['schedule']"),
        ],
    )
    def test_decode_errors_name_the_link(self, edit, problem):
        """Each on a terminated instance, whose links keep their schedules."""
        ws = _populated()
        ws.terminate("ns-0001")
        doc = ws.to_doc()
        chain = doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"]
        chain[0] = edit(chain[0])
        with pytest.raises(ParseError) as info:
            Workspace.from_doc(doc)
        assert str(info.value) == f"instances.ns-0001.schedules.vl1~fwd[0]: {problem}"

    def test_a_loaded_link_holds_its_controllers_schedule(self):
        ws = Workspace.from_doc(_populated().to_doc())
        link = ws.cuc.instance("ns-0001").schedules["vl1~fwd"][0]
        assert link == ("d1", link.schedule)
        assert link.schedule is ws.states["d1"].admitted["vl1~fwd"].schedule

    def test_a_copy_that_disagrees_with_its_controller_is_refused(self):
        """A version 2 file stored each active schedule twice."""
        doc = json.loads(V2_DEMO_STATE.read_text())
        window = doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"][0]["schedule"]["reservations"][0]
        window["window_start_ns"] += 2000
        window["window_end_ns"] += 2000
        with pytest.raises(ValidationError, match=r"^instances\.ns-0001\.schedules\.vl1~fwd: "):
            Workspace.from_doc(doc)
        doc["instances"]["ns-0001"]["status"] = "terminated"
        doc["cnc"]["d1"].update(hyperperiod_ns=0, streams=[])
        Workspace.from_doc(doc)  # only active instances are checked

    @pytest.mark.parametrize(
        "build, edit",
        [
            (_demo_doc, _rename_domain),
            (_demo_doc, _drop_record),
            (_demo_doc, _repeat_link),
            (_cross_pop_doc, _drop_link),
            (_demo_doc, _drop_chain),
            (_demo_doc, _empty_chain),
            (_demo_doc, _foreign_chain),
        ],
        ids=[
            "no-controller", "no-record", "repeated-link",
            "dropped-link", "dropped-chain", "empty-chain", "foreign-chain",
        ],
    )
    def test_a_chain_its_controllers_do_not_hold_is_refused(self, build, edit):
        """A link in a domain without a controller entry, a link its
        controller holds no record for, and a chain through one domain
        twice, which would have terminate remove one stream twice. Then
        the converse, each of which would leave a record reserved after
        terminate: a controller holding the stream in a domain the chain
        leaves out, a derived stream without a chain, and an empty chain;
        and a chain for a stream the instance does not derive."""
        doc = build()
        problem = edit(doc)
        with pytest.raises(ValidationError) as info:
            Workspace.from_doc(doc)
        assert str(info.value) == f"instances.ns-0001.schedules.{problem}"

    def test_a_uni_removal_of_a_held_stream_is_refused(self):
        """Only the orchestrator removes a stream an active instance holds,
        so that the instance's copy keeps matching its controller."""
        ws = Workspace.from_doc(_populated().to_doc())
        response = ws.dispatcher.dispatch(uni.RemoveStream("r-1", "vl1~fwd"), "d1")
        assert (response.status, response.cause, response.detail) == (
            "failed", "malformed", "stream vl1~fwd is held by active instance ns-0001",
        )
        assert "vl1~fwd" in ws.states["d1"].admitted
        ws.terminate("ns-0001")
        assert ws.states["d1"].admitted == {}



class TestGclView:
    def test_mutations_build_no_gate_list(self, monkeypatch):
        """Instantiating 16 services (64 streams, three periods), updating
        one and terminating them all builds no gate list; each read of
        gcl_docs builds every list afresh, equal to the lists of a cold
        rebuild of each controller from its snapshot."""
        pairs = 8
        ws = sc.build_workspace(sc.fill_topology(pairs))
        calls = 0
        build = cnc._build_entries

        def counting(*args):
            nonlocal calls
            calls += 1
            return build(*args)

        monkeypatch.setattr(cnc, "_build_entries", counting)

        def cold_docs() -> dict:
            docs = {}
            for domain_id in sorted(ws.states):
                cold = cnc.CncState.from_doc(ws.states[domain_id].snapshot(), ws.topology)
                docs.update({port: gcl.to_doc() for port, gcl in cnc.synthesize_gcls(cold).items()})
            return docs

        def step(mutate):
            nonlocal calls
            calls = 0
            result = mutate()
            assert calls == 0
            assert ws.gcl_docs == cold_docs()
            return result

        ids = [step(lambda k=k: sc.instantiate(ws, *sc.fill_service(1, k, pairs))).instance_id for k in range(16)]
        assert len(ws.states["d1"].admitted) == 64
        nsd, placement = sc.fill_service(1, 16, pairs)
        step(lambda: ws.update(ids[3], sc.parse_nsd_doc(nsd), sc.parse_placement_doc(placement)))
        for iid in ids:
            step(lambda iid=iid: ws.terminate(iid))
        assert ws.gcl_docs == {}


class TestLoadErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{oops")
        with pytest.raises(ParseError):
            Workspace.load(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ParseError):
            Workspace.load(path)

    def test_wrong_version(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            Workspace.load(path)

    def test_unknown_domain_in_state(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        doc["cnc"]["dX"] = doc["cnc"]["d1"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            Workspace.load(path)

    def test_stream_reserving_a_port_twice(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        schedule = doc["cnc"]["d1"]["streams"][0]["schedule"]
        schedule["reservations"].append(schedule["reservations"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="reserves port A.p0 twice"):
            Workspace.load(path)

    def _load_edited(self, tmp_path, edit):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return Workspace.load(path)

    def test_reservation_on_a_port_no_link_has(self, tmp_path):
        def edit(doc):
            doc["cnc"]["d1"]["streams"][0]["schedule"]["reservations"][0]["port_id"] = "A.p9"

        with pytest.raises(ValidationError, match="reserves port A.p9, which no link has"):
            self._load_edited(tmp_path, edit)

    def test_schedule_naming_another_stream(self, tmp_path):
        def edit(doc):
            doc["cnc"]["d1"]["streams"][0]["schedule"]["stream_id"] = "other"

        with pytest.raises(ValidationError, match="names stream other"):
            self._load_edited(tmp_path, edit)

    def test_bridge_port_needing_more_gate_entries_than_its_bridge_has(self, tmp_path):
        """The demo's bridge ports each need four gate entries; a state
        file whose topology gives B1 three is refused, at the first
        overflowing port in domain and port order."""

        def edit(doc):
            bridge = next(n for n in doc["topology"]["nodes"] if n["node_id"] == "B1")
            bridge["gcl_max_entries"] = 3

        with pytest.raises(GclOverflowError) as info:
            self._load_edited(tmp_path, edit)
        assert (info.value.port_id, info.value.needed, info.value.limit) == ("B1.p0", 4, 3)

    def test_active_instance_with_an_empty_chain(self, tmp_path):
        def edit(doc):
            doc["instances"]["ns-0001"]["schedules"]["vl1~rev"] = []

        with pytest.raises(ValidationError, match=r"^instances\.ns-0001\.schedules\.vl1~rev: the chain is empty$"):
            self._load_edited(tmp_path, edit)


class TestAtomicSave:
    """A save that fails leaves the previous state file byte-identical and
    no temporary file next to it."""

    def _saved(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        return ws, path, path.read_bytes()

    def test_failure_while_encoding(self, tmp_path):
        ws, path, before = self._saved(tmp_path)
        ws.terminate("ns-0001")
        ws.cuc.request_seq = object()  # not JSON
        with pytest.raises(TypeError):
            ws.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_failure_while_replacing(self, tmp_path, monkeypatch):
        ws, path, before = self._saved(tmp_path)
        ws.terminate("ns-0001")

        def refuse(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            ws.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        ws.save(path)
        assert Workspace.load(path).cuc.instance("ns-0001").status == "terminated"
