from __future__ import annotations

import json
import os

import pytest

import scenarios as sc
from tsnfv import cnc
from tsnfv.errors import ParseError, ValidationError
from tsnfv.workspace import Workspace


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

    def test_corrupted_gcls_survive_reload_until_mutation(self, tmp_path):
        ws = _populated()
        path = tmp_path / "state.json"
        ws.save(path)
        doc = json.loads(path.read_text())
        doc["gcls"]["B1.p1"]["entries"][0]["interval_ns"] -= 3000
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        restored = Workspace.load(path)
        # what was on disk is what gets verified
        assert restored.gcl_docs["B1.p1"]["entries"][0]["interval_ns"] == 2660
        restored.refresh_gcls()
        assert restored.gcl_docs["B1.p1"]["entries"][0]["interval_ns"] == 5660



class TestIncrementalSynthesis:
    def test_gcl_builds_follow_the_new_service(self, monkeypatch):
        """Instantiating a service next to 64 resident streams builds at
        most one gate list per port reservation its streams make (its
        four streams reserve two ports each), whatever else the domain
        holds, and the refresh keeps every other port's document."""
        pairs = 8
        ws = sc.build_workspace(sc.fill_topology(pairs))
        for k in range(16):
            sc.instantiate(ws, *sc.fill_service(1, k, pairs))
        assert len(ws.states["d1"].admitted) == 64
        before = dict(ws.gcl_docs)
        calls = 0
        build = cnc._build_entries

        def counting(*args):
            nonlocal calls
            calls += 1
            return build(*args)

        monkeypatch.setattr(cnc, "_build_entries", counting)
        instance = sc.instantiate(ws, *sc.fill_service(1, 16, pairs))
        reserved = [
            res.port_id
            for _, chain in instance.stream_schedules()
            for _, schedule in chain
            for res in schedule.reservations
        ]
        assert 0 < calls <= len(reserved)
        unchanged = set(before) - set(reserved)
        assert len(unchanged) == len(before) - 4
        assert all(ws.gcl_docs[port] is before[port] for port in unchanged)


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
        ws.gcl_docs["B1.p1"] = object()  # not JSON
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
