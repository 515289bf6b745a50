"""End-to-end checks of the operator CLI: exit codes, rendered output,
and the TCP service mode driven through a real subprocess."""

from __future__ import annotations

import contextlib
import hashlib
import json
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenarios as sc
from tsnfv import cli, cnc, descriptors, uni
from tsnfv.errors import TransportError, ValidationError
from tsnfv.model import DataFrameSpec, EndpointRef, StreamRequirement, TrafficSpec
from tsnfv.topology import load_topology, shortest_path, split_by_domain
from tsnfv.uni import StreamRequest, UniClient, decode_message, encode_routed
from tsnfv.workspace import Workspace, journal_path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def files(tmp_path):
    paths = {
        "topology": tmp_path / "topology.json",
        "nsd": tmp_path / "nsd.json",
        "placement": tmp_path / "placement.json",
        "state": tmp_path / "state.json",
    }
    paths["topology"].write_text(json.dumps(sc.intra_pop_topology()))
    paths["nsd"].write_text(json.dumps(sc.demo_nsd()))
    paths["placement"].write_text(json.dumps(sc.demo_placement()))
    return paths


def instantiate_demo(files) -> None:
    rc = run(
        "instantiate",
        "--topology", files["topology"],
        "--nsd", files["nsd"],
        "--placement", files["placement"],
        "--state", files["state"],
    )
    assert rc == 0


def load_corrupted(monkeypatch, corrupt) -> None:
    """Make every read of a workspace's GCL documents hand out port A.p0's
    as `corrupt` leaves it: the lists are built on each read, so a bad
    list can only be planted in what the read returns."""
    build = Workspace.gcl_docs.fget

    def corrupted(ws):
        docs = build(ws)
        corrupt(docs["A.p0"])
        return docs

    monkeypatch.setattr(Workspace, "gcl_docs", property(corrupted))


def config_documents(out: str) -> list[dict]:
    """The documents `show config` printed, one indented object each."""
    return json.loads("[" + out.replace("\n{", ",{") + "]")


def write_nsd(files, doc) -> None:
    files["nsd"].write_text(json.dumps(doc))


def tight_nsd():
    # 9 us bound: below the 10320 ns floor of the demo path
    return sc.nsd(
        "ns1",
        [sc.vnf("vnfA", sc.CAPS_RT), sc.vnf("vnfC", sc.CAPS_RT)],
        [sc.vl("vl1", "vnfA", "vnfC", 100, 7, sc.traffic(latency=9_000))],
    )


class TestLifecycle:
    def test_instantiate_reports_streams(self, files, capsys):
        instantiate_demo(files)
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "instance ns-0001: active",
            "  vl1~fwd: e2e 10320 ns (bound 2000000 ns) via d1",
            "  vl1~rev: e2e 10320 ns (bound 2000000 ns) via d1",
        ]
        assert files["state"].exists()

    def test_admission_failure_exits_2_and_saves_state(self, files, capsys):
        write_nsd(files, tight_nsd())
        rc = run(
            "instantiate",
            "--topology", files["topology"],
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert (
            "admission failed: stream vl1~fwd rejected by domain d1: infeasible_budget"
            in err
        )
        # the failed instance is kept on record
        assert run("show", "streams", "--state", files["state"]) == 0
        assert "instance ns-0001 [failed]" in capsys.readouterr().out

    def test_queue_order_rejection_names_the_conflict(self, files, capsys):
        """The exit-2 message carries the controller's detail: here the
        resident stream whose queue order the new one would break."""
        for key, doc in zip(("topology", "nsd", "placement"), sc.random_scenario(52)):
            files[key].write_text(json.dumps(doc))
        rc = run(
            "instantiate",
            "--topology", files["topology"],
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "admission failed: stream vl1~fwd rejected by domain d1: no_free_window "
            "(queue order conflict with vl2~rev on B1.ph3)\n"
        )

    def test_duplicate_stream_ids_are_rejected(self, files, capsys):
        """A second instance deriving a stream id that an active instance
        holds is an input error found before any UNI exchange: no audit
        record, no failed instance, the state file untouched."""
        instantiate_demo(files)
        before = files["state"].read_bytes()
        capsys.readouterr()
        rc = run(
            "instantiate",
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: stream vl1~fwd is held by active instance ns-0001\n"
        )
        assert files["state"].read_bytes() == before

    def test_terminate(self, files, capsys):
        instantiate_demo(files)
        assert run("terminate", "ns-0001", "--state", files["state"]) == 0
        assert "instance ns-0001: terminated" in capsys.readouterr().out
        assert run("terminate", "ns-0001", "--state", files["state"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_terminate_unknown_instance(self, files, capsys):
        instantiate_demo(files)
        assert run("terminate", "ghost", "--state", files["state"]) == 1
        assert "error: no instance ghost" in capsys.readouterr().err

    def test_update_success(self, files, capsys):
        instantiate_demo(files)
        write_nsd(
            files,
            sc.nsd(
                "ns1",
                [sc.vnf("vnfA", sc.CAPS_RT), sc.vnf("vnfC", sc.CAPS_RT)],
                [sc.vl("vl1", "vnfA", "vnfC", 100, 7, sc.traffic(frames=2), sc.traffic())],
            ),
        )
        rc = run(
            "update", "ns-0001",
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "instance ns-0001: active" in out
        # two frames per period stretch the burst by one wire time + guard slack
        assert "vl1~fwd: e2e 18640 ns" in out
        assert "vl1~rev: e2e 10320 ns" in out

    def test_update_failure_restores_original(self, files, capsys):
        instantiate_demo(files)
        write_nsd(files, tight_nsd())
        rc = run(
            "update", "ns-0001",
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "update failed:" in err
        assert "original restored: True" in err
        assert run("show", "streams", "--state", files["state"]) == 0
        assert "e2e=10320 ns" in capsys.readouterr().out


class TestInputErrors:
    def test_new_state_needs_topology(self, files, capsys):
        rc = run(
            "instantiate",
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert "does not exist and no --topology" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1

    def test_missing_required_option_exits_1(self, files):
        with pytest.raises(SystemExit) as exc:
            run("instantiate", "--nsd", files["nsd"])
        assert exc.value.code == 1

    def test_macs_differing_only_in_case_exit_1(self, files, capsys):
        doc = sc.demo_placement()
        doc["vnfA"]["mac"] = "02:00:00:00:00:AA"
        doc["vnfC"]["mac"] = "02:00:00:00:00:aa"
        files["placement"].write_text(json.dumps(doc))
        rc = run(
            "instantiate",
            "--topology", files["topology"],
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: src_mac and dst_mac must differ\n"

    def test_unreadable_descriptor(self, files, capsys):
        rc = run(
            "instantiate",
            "--topology", files["topology"],
            "--nsd", files["nsd"].parent / "missing.json",
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert "cannot read nsd file" in capsys.readouterr().err

    def test_out_of_range_bg_load(self, files, capsys):
        instantiate_demo(files)
        rc = run("verify", "ns-0001", "--state", files["state"], "--bg-load", "1.5")
        assert rc == 1
        assert "bg_load must be in [0, 1], got 1.5" in capsys.readouterr().err


class TestShow:
    def test_streams_empty_workspace(self, files, capsys):
        Workspace(load_topology(files["topology"].read_text())).save(files["state"])
        assert run("show", "streams", "--state", files["state"]) == 0
        assert capsys.readouterr().out == "no instances\n"

    def test_streams_listing(self, files, capsys):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "instance ns-0001 [active]",
            "  vl1~fwd  pcp=7  period=250000 ns  e2e=10320 ns  bound=2000000 ns  via d1",
            "  vl1~rev  pcp=7  period=250000 ns  e2e=10320 ns  bound=2000000 ns  via d1",
        ]

    def test_gcl_table(self, files, capsys):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "gcl", "B1.p1", "--state", files["state"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gcl B1.p1  cycle_ns=250000  base_time_ns=0",
            "  [         0,       5660)  gates=00000000",
            "  [      5660,       9820)  gates=10000000",
            "  [      9820,     243324)  gates=01111111",
            "  [    243324,     250000)  gates=00000000",
            "  entries=4  sum_ns=250000",
        ]

    def test_gcl_builds_only_the_ports_own_list(self, files, monkeypatch):
        instantiate_demo(files)
        assert len(Workspace.load(files["state"]).gcl_docs) > 1
        built = []
        build = cnc._build_entries
        monkeypatch.setattr(cnc, "_build_entries", lambda *args: built.append(args) or build(*args))
        assert run("show", "gcl", "B1.p1", "--state", files["state"]) == 0
        assert len(built) == 1

    def test_gcl_unknown_port(self, files, capsys):
        instantiate_demo(files)
        assert run("show", "gcl", "B9.p9", "--state", files["state"]) == 1
        assert "no gate control list for port B9.p9" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["B1.p9", "B1"])
    def test_gcl_unknown_port_of_a_known_node(self, files, capsys, port):
        instantiate_demo(files)
        assert run("show", "gcl", port, "--state", files["state"]) == 1
        assert f"no gate control list for port {port}" in capsys.readouterr().err

    def test_gcl_needs_selector(self, files, capsys):
        instantiate_demo(files)
        assert run("show", "gcl", "--state", files["state"]) == 1
        assert "needs a port key" in capsys.readouterr().err

    def test_config_document(self, files, capsys):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "config", "vnfA", "--state", files["state"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["station_id"] == "vnfA"
        assert doc["socket_priority_map"] == {"7": 7}
        assert doc["tas_schedule"]["cycle_ns"] == 250_000
        assert doc["txtime_offsets_ns"] == {"vl1~fwd": [0]}

    def test_config_offsets_span_the_gate_cycle(self, files, capsys):
        """A 1 ms VL next to the demo's 250 us one makes the talker port's
        cycle 1 ms, so the 250 us stream is sent four times per cycle."""
        doc = sc.demo_nsd()
        doc["virtual_links"].append(
            sc.vl("vl2", "vnfA", "vnfC", 101, 6, sc.traffic(period=1_000_000))
        )
        write_nsd(files, doc)
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "config", "vnfA", "--state", files["state"]) == 0
        docs = config_documents(capsys.readouterr().out)
        fwd = next(d for d in docs if "vl1~fwd" in d["txtime_offsets_ns"])
        assert fwd["tas_schedule"]["cycle_ns"] == 1_000_000
        assert fwd["txtime_offsets_ns"] == {"vl1~fwd": [0, 250_000, 500_000, 750_000]}

    def test_config_follows_the_live_gcl(self, files, capsys):
        """A second service on the same talker port changes its gate list;
        the first service's talker config shows the list as it is now."""
        instantiate_demo(files)
        write_nsd(
            files,
            sc.nsd(
                "second",
                [sc.vnf("m1", sc.CAPS_RT), sc.vnf("m2", sc.CAPS_RT)],
                [sc.vl("vlB", "m1", "m2", 101, 6, sc.traffic())],
            ),
        )
        files["placement"].write_text(json.dumps(sc.placement({"m1": "A", "m2": "C"})))
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "gcl", "A.p0", "--state", files["state"]) == 0
        gcl = []
        for line in capsys.readouterr().out.splitlines()[1:-1]:
            span, gates = line.split("gates=")
            start, end = (int(t) for t in span.strip(" [)").split(","))
            gcl.append([int(gates, 2), end - start])
        assert len(gcl) == 4
        assert run("show", "config", "vnfA", "--state", files["state"]) == 0
        docs = config_documents(capsys.readouterr().out)
        assert docs and all(d["tas_schedule"]["entries"] == gcl for d in docs)

    def test_config_unknown_station(self, files, capsys):
        instantiate_demo(files)
        assert run("show", "config", "ghost", "--state", files["state"]) == 1
        assert "unknown station ghost" in capsys.readouterr().err

    def test_config_unmanaged_pnf(self, files, capsys):
        topo = sc.intra_pop_topology()
        topo["nodes"].append(sc.station("CAM", "d1", managed=False))
        topo["links"].append(sc.link("l9", "CAM", "p0", "B1", "p2"))
        files["topology"].write_text(json.dumps(topo))
        write_nsd(
            files,
            sc.nsd(
                "cams",
                [sc.vnf("sink", sc.CAPS_RT)],
                [sc.vl("feed", "cam1", "sink", 100, 5, sc.traffic())],
                pnfs=[sc.pnf("cam1")],
            ),
        )
        files["placement"].write_text(json.dumps(sc.placement({"cam1": "CAM", "sink": "C"})))
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "config", "cam1", "--state", files["state"]) == 0
        assert capsys.readouterr().out == "no config (unmanaged PNF)\n"

    def test_audit_trail(self, files, capsys):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "audit", "--state", files["state"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "req-0001  d1  Or-Vi",
            "req-0002  d1  Or-Vi",
        ]

    def test_audit_trail_across_domains(self, files, capsys):
        """The wan_slow service's forward stream crosses d1, the wan and d2,
        its reverse stream the same domains the other way; the reference
        point is derived from each domain's kind."""
        files["topology"].write_text(json.dumps(sc.wan_slow_topology()))
        write_nsd(files, sc.wan_slow_nsd())
        files["placement"].write_text(json.dumps(sc.wan_slow_placement()))
        instantiate_demo(files)
        capsys.readouterr()
        assert run("show", "audit", "--state", files["state"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "req-0001  d1  Or-Vi",
            "req-0002  wan  Or-Wi",
            "req-0003  d2  Or-Vi",
            "req-0004  d2  Or-Vi",
            "req-0005  wan  Or-Wi",
            "req-0006  d1  Or-Vi",
        ]


class TestVerifyCommand:
    def test_pass(self, files, capsys):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("verify", "ns-0001", "--state", files["state"]) == 0
        out = capsys.readouterr().out
        assert "run bg0: drops=0 violations=0 be_sent=0 be_dropped=0" in out
        assert "run bg1: drops=0 violations=0" in out
        assert "  vl1~fwd: worst 10320 ns (bound 2000000 ns), 3 frames" in out
        assert out.splitlines()[-1] == "verify ns-0001: PASS"

    def test_corrupt_gcl_fails_with_3(self, files, capsys, monkeypatch):
        instantiate_demo(files)
        load_corrupted(monkeypatch, lambda gcl: gcl["entries"][0].update(
            interval_ns=gcl["entries"][0]["interval_ns"] - 2000
        ))
        capsys.readouterr()
        assert run("verify", "ns-0001", "--state", files["state"]) == 3
        out = capsys.readouterr().out
        assert "gcl A.p0: sum_mismatch cycle_ns=250000 sum_ns=248000" in out
        assert out.splitlines()[-1] == "verify ns-0001: FAIL"

    def test_unknown_instance(self, files, capsys):
        instantiate_demo(files)
        assert run("verify", "ghost", "--state", files["state"]) == 1
        assert "error: no instance ghost" in capsys.readouterr().err


def _probe_request(topology_text: str) -> StreamRequest:
    topo = load_topology(topology_text)
    return StreamRequest(
        request_id="req-9001",
        requirement=StreamRequirement(
            stream_id="cli~probe",
            talker=EndpointRef("vnfA", "eth0", "A"),
            listener=EndpointRef("vnfC", "eth0", "C"),
            frame=DataFrameSpec("02:aa:00:00:00:01", "02:aa:00:00:00:02", 300, 7),
            traffic=TrafficSpec(250_000, 500, 1, 2_000_000),
        ),
        hops=shortest_path(topo, "A", "C").hops,
        latency_budget_ns=2_000_000,
    )


def _serve_request(topology, talker: str, listener: str) -> StreamRequest:
    """A stream request between two hosts of a fill topology."""
    return StreamRequest(
        request_id="req-serve",
        requirement=StreamRequirement(
            stream_id="cli~serve",
            talker=EndpointRef("t", "eth0", talker),
            listener=EndpointRef("l", "eth0", listener),
            frame=DataFrameSpec("02:aa:00:00:00:03", "02:aa:00:00:00:04", 300, 7),
            traffic=TrafficSpec(1_000_000, 128, 1, 2_000_000),
        ),
        hops=shortest_path(topology, talker, listener).hops,
        latency_budget_ns=2_000_000,
    )


class TestServe:
    def _start(self, files, state_name="serve_state.json"):
        """Start a server on the state file; its stderr goes to a file
        beside it, which _stop shows when the server misbehaves."""
        state = files["state"].parent / state_name
        log = state.with_name(f"{state.name}.stderr")
        with log.open("wb") as stderr:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "tsnfv.cli", "serve",
                    "--listen", "127.0.0.1:0",
                    "--topology", str(files["topology"]),
                    "--state", str(state),
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        proc.stderr_log = log
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            banner = proc.stdout.readline().strip() if sel.select(10) else None
        if banner is None or not banner.startswith("listening on 127.0.0.1:"):
            self._stop(proc)
            pytest.fail(f"no banner within 10 s: {banner!r}; stderr: {log.read_text()!r}")
        return proc, int(banner.rsplit(":", 1)[1]), state

    def _stop(self, proc):
        """Stop the server as an operator would, with SIGTERM, and close
        the pipe its banner came through."""
        proc.send_signal(signal.SIGTERM)
        try:
            try:
                code = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                code = "no exit within 10 s of SIGTERM"
            assert code == 0, f"server: {code}; stderr: {proc.stderr_log.read_text()!r}"
        finally:
            self._kill(proc)

    def _kill(self, proc):
        proc.kill()  # a no-op once the server has exited
        proc.wait()
        proc.stdout.close()

    def test_wire_admission_and_shutdown(self, files):
        proc, port, state = self._start(files)
        try:
            with UniClient("127.0.0.1", port) as client:
                response = client.request(_probe_request(files["topology"].read_text()), "d1")
            assert response.status == "ok"
            assert response.domain_id == "d1"
            assert response.schedule.exit_offset_ns == 10_320

            # a client with one connection per request still works: the
            # wire is one line each way, whatever the connection's life
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(encode_routed(uni.CapabilityQuery("req-raw"), "d1"))
                raw = sock.recv(65536)
            answer = decode_message(raw)
            assert (answer.request_id, answer.status) == ("req-raw", "ok")

            # garbage must be answered in-band, not dropped
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"this is not json\n")
                raw = sock.recv(65536)
            answer = json.loads(raw)
            assert answer["status"] == "failed"
            assert answer["cause"] == "malformed"
            assert answer["request_id"] == "unknown"
        finally:
            self._stop(proc)
        doc = json.loads(state.read_text())
        admitted = [s["requirement"]["stream_id"] for s in doc["cnc"]["d1"]["streams"]]
        assert admitted == ["cli~probe"]

    def test_state_matches_in_process_admission(self, files):
        proc, port, state = self._start(files)
        try:
            with UniClient("127.0.0.1", port) as client:
                client.request(_probe_request(files["topology"].read_text()), "d1")
        finally:
            self._stop(proc)

        # the wire must be a transparent transport: same request in
        # process, byte-identical state file
        ws = Workspace(load_topology(files["topology"].read_text()))
        ws.dispatcher.dispatch(_probe_request(files["topology"].read_text()), "d1")
        ws.refresh_gcls()
        local = files["state"].parent / "local_state.json"
        ws.save(local)
        assert local.read_bytes() == state.read_bytes()

    def test_existing_state_is_not_rewritten_at_start(self, files):
        instantiate_demo(files)
        before = files["state"].stat()
        golden = files["state"].read_bytes()
        proc, port, state = self._start(files, state_name=files["state"].name)
        try:
            assert state == files["state"]
            assert state.read_bytes() == golden
            assert state.stat().st_mtime_ns == before.st_mtime_ns
            with UniClient("127.0.0.1", port) as client:
                response = client.request(_probe_request(files["topology"].read_text()), "d1")
            assert response.status == "ok"
            assert "cli~probe" in Workspace.load(state).states["d1"].admitted
            assert state.read_bytes() == golden  # the admission is in the journal
        finally:
            self._stop(proc)

    def test_shutdown_saves_the_audit_records_of_queries(self, files):
        """A query changes no decision, so the server does not save after
        one; the save at shutdown writes its audit record."""
        instantiate_demo(files)
        before = [r.request_id for r in Workspace.load(files["state"]).dispatcher.audit_log]
        probe = _probe_request(files["topology"].read_text())
        queries = [uni.CapabilityQuery(f"query-{k}") for k in range(3)]
        proc, port, state = self._start(files, state_name=files["state"].name)
        try:
            with UniClient("127.0.0.1", port) as client:
                for msg in [probe, *queries]:
                    assert client.request(msg, "d1").status == "ok"
        finally:
            self._stop(proc)
        after = [r.request_id for r in Workspace.load(state).dispatcher.audit_log]
        assert after == before + [probe.request_id] + [q.request_id for q in queries]

    def test_a_killed_server_keeps_what_it_journaled(self, files, capsys):
        """After SIGKILL the state holds every request up to the last
        mutation; the queries after it are lost. A restart and SIGTERM
        leave the bytes of the same requests made in process."""
        instantiate_demo(files)
        before = files["state"].parent / "before.json"
        before.write_bytes(files["state"].read_bytes())
        probe = _probe_request(files["topology"].read_text())
        msgs = []
        for k in range(3):
            msgs += [
                replace(probe, request_id=f"add-{k}"),
                uni.CapabilityQuery(f"query-{k}"),
                uni.RemoveStream(f"remove-{k}", probe.requirement.stream_id),
            ]
        msgs += [replace(probe, request_id="add-last"), uni.CapabilityQuery("query-lost")]
        proc, port, state = self._start(files, state_name=files["state"].name)
        try:
            with UniClient("127.0.0.1", port) as client:
                for msg in msgs:
                    assert client.request(msg, "d1").status == "ok"
        finally:
            self._kill(proc)
        capsys.readouterr()
        assert run("show", "audit", "--state", state) == 0
        audit = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert audit == ["req-0001", "req-0002"] + [msg.request_id for msg in msgs[:-1]]
        assert "cli~probe" in Workspace.load(state).states["d1"].admitted

        proc, port, state = self._start(files, state_name=files["state"].name)
        self._stop(proc)
        assert not journal_path(state).exists()
        local = Workspace.load(before)
        for msg in msgs[:-1]:
            local.dispatcher.dispatch(msg, "d1")
        local.save(before)
        assert state.read_bytes() == before.read_bytes()

    def test_an_idle_connection_does_not_hold_up_shutdown(self, files):
        """SIGTERM stops a server while a client keeps its connection open:
        the server exits 0 and checkpoints, and the client then drops the
        closed connection and fails to reach the stopped server."""
        proc, port, state = self._start(files)
        with UniClient("127.0.0.1", port) as client:
            try:
                assert client.request(_probe_request(files["topology"].read_text()), "d1").status == "ok"
            finally:
                self._stop(proc)
            with pytest.raises(TransportError, match="failed"):
                client.request(uni.CapabilityQuery("req-late"), "d1")
        assert not journal_path(state).exists()
        assert "cli~probe" in Workspace.load(state).states["d1"].admitted

    def test_bad_listen_spec(self, files, capsys):
        assert run("serve", "--listen", "nonsense") == 1
        assert "must be host:port" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        ["127.0.0.1:65536", "127.0.0.1:99999", "127.0.0.1:\u00b2", "127.0.0.1:" + "9" * 5000],
        ids=["65536", "99999", "superscript-two", "5000-digits"],
    )
    def test_port_outside_the_range_is_refused(self, files, capsys, spec):
        assert run("serve", "--listen", spec, "--topology", files["topology"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --listen must be host:port, got {spec!r}"]


class _CountingServer(cli._UniServer):
    """A server for a new workspace on the topology, serving on a thread
    and counting the connections it accepts. stop() also ends the open
    connections, as the exit of a `tsnfv serve` process does."""

    def __init__(self, topology: str, port: int = 0):
        self.accepted: list[socket.socket] = []
        super().__init__(("127.0.0.1", port), Workspace(load_topology(topology)), None)
        self.serving = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01})
        self.serving.start()

    def process_request(self, request, client_address):
        self.accepted.append(request)
        super().process_request(request, client_address)

    def requests(self) -> list[str]:
        return [record.request_id for record in self.workspace.dispatcher.audit_log]

    def stop(self) -> None:
        if not self.serving.is_alive():
            return
        self.shutdown()
        self.serving.join(timeout=10)
        assert not self.serving.is_alive()
        self.server_close()
        for sock in self.accepted:
            with contextlib.suppress(OSError):  # its handler has closed it
                sock.shutdown(socket.SHUT_RDWR)


class _HangUp(cli._UniHandler):
    """Handles the first request line and closes without answering."""

    def handle(self):
        self.server.handle_line(self.rfile.readline())


class _Late(cli._UniHandler):
    """Handles the first request line and answers it after the client has
    stopped waiting."""

    def handle(self):
        out = self.server.handle_line(self.rfile.readline())
        time.sleep(0.5)
        with contextlib.suppress(OSError):  # the client has closed the connection
            self.wfile.write(out)


class TestClientConnections:
    """`UniClient` keeps its connections and reuses them, never across a
    failed exchange, and never sends a request twice."""

    @pytest.fixture()
    def serve(self, files):
        servers = []

        def start(port: int = 0) -> _CountingServer:
            servers.append(_CountingServer(files["topology"].read_text(), port))
            return servers[-1]

        yield start
        for server in servers:
            server.stop()

    def test_sequential_requests_share_one_connection(self, files, serve):
        server = serve()
        probe = _probe_request(files["topology"].read_text())
        msgs = [probe, *(uni.CapabilityQuery(f"query-{k}") for k in range(4))]
        msgs.append(uni.RemoveStream("remove", probe.requirement.stream_id))
        with UniClient(*server.server_address[:2]) as client:
            for msg in msgs:
                assert client.request(msg, "d1").status == "ok"
        assert len(server.accepted) == 1
        assert server.requests() == [msg.request_id for msg in msgs]

    def test_a_restarted_server_is_reached_on_a_new_connection(self, files, serve):
        first = serve()
        host, port = first.server_address[:2]
        probe = _probe_request(files["topology"].read_text())
        with UniClient(host, port) as client:
            assert client.request(uni.CapabilityQuery("req-1"), "d1").status == "ok"
            first.stop()
            second = serve(port)
            assert client.request(probe, "d1").status == "ok"
        assert (len(first.accepted), len(second.accepted)) == (1, 1)
        assert first.requests() == ["req-1"]
        assert second.requests() == [probe.request_id]

    @pytest.mark.parametrize("handler", [_HangUp, _Late], ids=["hang-up", "late"])
    def test_a_failed_exchange_is_not_resent_and_its_connection_not_reused(
        self, files, serve, monkeypatch, handler
    ):
        """The first request is handled but not answered in time: it raises
        TransportError, and the next request goes over a new connection
        and gets its own answer."""
        real = socket.create_connection
        monkeypatch.setattr(socket, "create_connection", lambda address, timeout: real(address, timeout=0.2))
        server = serve()
        probe = _probe_request(files["topology"].read_text())
        with UniClient(*server.server_address[:2]) as client:
            server.RequestHandlerClass = handler
            with pytest.raises(TransportError):
                client.request(probe, "d1")
            server.RequestHandlerClass = cli._UniHandler
            response = client.request(uni.CapabilityQuery("req-2"), "d1")
        assert (response.request_id, response.status) == ("req-2", "ok")
        assert len(server.accepted) == 2
        assert server.requests() == [probe.request_id, "req-2"]

    def test_a_connection_in_use_at_close_is_closed_after_its_request(self, serve):
        server = serve()
        server.RequestHandlerClass = _Late
        answers = []
        client = UniClient(*server.server_address[:2])
        asking = threading.Thread(target=lambda: answers.append(client.request(uni.CapabilityQuery("req-1"), "d1")))
        asking.start()
        deadline = time.monotonic() + 10
        while not server.accepted and time.monotonic() < deadline:
            time.sleep(0.01)
        client.close()
        asking.join(timeout=10)
        assert not asking.is_alive()
        assert [answer.request_id for answer in answers] == ["req-1"]
        assert client._idle == []

    def test_threads_sharing_a_client_each_get_a_connection(self, serve):
        """Four threads share one client, switching as often as the
        interpreter allows: each request gets its own answer, and the
        client never holds more connections than requests in flight."""
        server = serve()
        answers = {}

        def play(client: UniClient, t: int) -> None:
            for n in range(25):
                rid = f"req-{t}-{n}"
                answers[rid] = client.request(uni.CapabilityQuery(rid), "d1").request_id

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with UniClient(*server.server_address[:2]) as client:
                threads = [threading.Thread(target=play, args=(client, t)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 100
        assert all(rid == answer for rid, answer in answers.items())
        assert 1 <= len(server.accepted) <= 4


class TestServeLines:
    """`_UniServer.handle_line` is where a line becomes a request and a
    response becomes a line; driven here without a socket loop."""

    @pytest.fixture()
    def server(self, files):
        ws = Workspace(load_topology(files["topology"].read_text()))
        server = cli._UniServer(("127.0.0.1", 0), ws, None)
        yield server
        server.server_close()

    def _answer(self, server, line: bytes):
        return decode_message(server.handle_line(line))

    def test_garbage_line_answers_malformed(self, server):
        response = self._answer(server, b"not json at all\n")
        assert (response.status, response.cause) == ("failed", "malformed")
        assert response.request_id == "unknown"

    def test_unknown_key_answers_malformed(self, server):
        line = (
            b'{"color":"blue","domain_id":"d1","kind":"remove_stream",'
            b'"request_id":"req-0007","stream_id":"s"}\n'
        )
        response = self._answer(server, line)
        assert (response.status, response.cause) == ("failed", "malformed")
        assert response.request_id == "req-0007"
        assert "unknown keys ['color']" in response.detail

    def test_response_as_request_is_malformed(self, server):
        line = b'{"domain_id":"d1","kind":"response","request_id":"req-0009","status":"ok"}\n'
        response = self._answer(server, line)
        assert (response.status, response.cause) == ("failed", "malformed")
        assert response.request_id == "req-0009"

    def test_mutations_build_no_gate_list(self, files, monkeypatch):
        """A mutation line is dispatched and saved without building a gate
        list; the saved state is the one an in-process admission leaves."""
        ws = Workspace(load_topology(files["topology"].read_text()))
        server = cli._UniServer(("127.0.0.1", 0), ws, str(files["state"]))
        try:
            monkeypatch.setattr(cnc, "_build_entries", lambda *args: pytest.fail("a list was built"))
            request = _probe_request(files["topology"].read_text())
            assert self._answer(server, encode_routed(request, "d1")).status == "ok"
            remove = uni.RemoveStream("req-9002", request.requirement.stream_id)
            assert self._answer(server, encode_routed(remove, "d1")).status == "ok"
        finally:
            server.server_close()
        local = Workspace(load_topology(files["topology"].read_text()))
        local.dispatcher.dispatch(request, "d1")
        local.dispatcher.dispatch(remove, "d1")
        assert Workspace.load(files["state"]).to_doc() == local.to_doc()

    @pytest.mark.parametrize("client_first", [False, True], ids=["instance-first", "client-first"])
    def test_a_stream_id_is_held_in_one_place(self, tmp_path, client_first):
        """On a topology with a domain the instance's route leaves out, a
        UNI client admitting the instance's stream id there is refused, and
        so is the instance once the client holds it: either way the saved
        state loads, and each record is released by its own holder."""
        topology = sc.cross_pop_topology()
        topology["nodes"].append(sc.host("HC", "d1"))
        topology["links"].append(sc.link("l6", "B1", "p2", "HC", "p0"))
        ws = sc.build_workspace(topology)
        req = descriptors.derive_streams(
            sc.parse_nsd_doc(sc.demo_nsd()), sc.parse_placement_doc(sc.placement({"vnfA": "HA", "vnfC": "HB"}))
        )[0]
        (d2,) = [s for s in split_by_domain(shortest_path(ws.topology, "HA", "HB"), ws.topology) if s.domain_id == "d2"]
        request = StreamRequest("req-client", req, tuple(d2.hops), req.traffic.max_latency_ns)
        state = tmp_path / "state.json"
        server = cli._UniServer(("127.0.0.1", 0), ws, str(state))
        local = sc.placement({"vnfA": "HA", "vnfC": "HC"})
        try:
            if client_first:
                assert self._answer(server, encode_routed(request, "d2")).status == "ok"
                with pytest.raises(ValidationError, match="^stream vl1~fwd is already admitted in domain d2$"):
                    sc.instantiate(ws, sc.demo_nsd(), local)
            else:
                sc.instantiate(ws, sc.demo_nsd(), local)
                response = self._answer(server, encode_routed(request, "d2"))
                assert (response.status, response.detail) == (
                    "failed", "stream vl1~fwd is held by active instance ns-0001",
                )
        finally:
            server.server_close()
        ws.save(state)
        restored = Workspace.load(state)
        holds = {d: sorted(s.admitted) for d, s in restored.states.items() if s.admitted}
        assert holds == ({"d2": ["vl1~fwd"]} if client_first else {"d1": ["vl1~fwd", "vl1~rev"]})
        if not client_first:
            restored.terminate("ns-0001")
            assert all(not s.admitted for s in restored.states.values())

    def test_codec_runs_only_at_the_tcp_edge(self, files, server, monkeypatch):
        line = encode_routed(_probe_request(files["topology"].read_text()), "d1")
        calls = {}
        for module, name in [
            (uni, "encode_message"),
            (uni, "decode_message"),
            (uni, "encode_routed"),
            (uni, "decode_routed"),
            (cli, "encode_message"),
            (cli, "decode_routed"),
        ]:
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)

        ws = Workspace(load_topology(files["topology"].read_text()))
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        ws.terminate(instance.instance_id)
        assert calls == {}

        server.handle_line(line)
        assert calls == {"decode_routed": 1, "encode_message": 1}

    def test_a_mutation_appends_the_lines_since_the_last_append(self, tmp_path, monkeypatch):
        """A query appends nothing. A mutation appends its line and the
        lines of the queries answered since the last append, after a header
        bound to the state file's bytes, and encodes no state."""
        pairs = 4
        ws = sc.build_workspace(sc.fill_topology(pairs))
        for k in range(8):
            sc.instantiate(ws, *sc.fill_service(1, k, pairs))
        state = tmp_path / "state.json"
        ws.save(state)
        saved = state.read_bytes()
        server = cli._UniServer(("127.0.0.1", 0), ws, str(state))
        monkeypatch.setattr(Workspace, "to_doc", lambda self: pytest.fail("the state was encoded"))
        request = encode_routed(_serve_request(ws.topology, "T00", "L00"), "d1")
        remove = encode_routed(uni.RemoveStream("req-remove", "cli~serve"), "d1")
        query = encode_routed(uni.CapabilityQuery("req-query"), "d1")
        journal = journal_path(state)
        header = json.dumps({"state_sha256": hashlib.sha256(saved).hexdigest()}).replace(" ", "") + "\n"
        appended = [header.encode()]
        try:
            for queries, mutation in ((2, request), (3, remove), (30, request)):
                for _ in range(queries):
                    assert self._answer(server, query).status == "ok"
                assert journal.exists() == (len(appended) > 1)
                assert not journal.exists() or journal.read_bytes() == b"".join(appended)
                assert self._answer(server, mutation).status == "ok"
                appended += [query] * queries + [mutation]
                assert journal.read_bytes() == b"".join(appended)
        finally:
            server.server_close()
        assert state.read_bytes() == saved

    def test_closing_the_server_closes_the_journal(self, files):
        topology = files["topology"].read_text()
        server = cli._UniServer(("127.0.0.1", 0), Workspace(load_topology(topology)), str(files["state"]))
        try:
            assert self._answer(server, encode_routed(_probe_request(topology), "d1")).status == "ok"
            journal = server.journal.file
            assert not journal.closed
        finally:
            server.server_close()
        assert journal.closed


class TestJournal:
    """A served state is its file and the file's journal: `Workspace.load`
    replays the journal's request lines when it extends the file's bytes."""

    STEPS = ["admit", "refused", "remove", "query", "garbage", "unknown_domain", "checkpoint"]

    def _line(self, probe: StreamRequest, n: int, kind: str, k: int):
        """A request line of the kind, and the request it routes to d1."""
        stream = replace(probe.requirement, stream_id=f"s{k}")
        if kind in ("admit", "refused"):
            budget = probe.latency_budget_ns if kind == "admit" else 1_000
            msg = replace(probe, request_id=f"req-{n}", requirement=stream, latency_budget_ns=budget)
        elif kind == "remove":
            msg = uni.RemoveStream(f"req-{n}", stream.stream_id)
        elif kind == "query":
            msg = uni.CapabilityQuery(f"req-{n}")
        elif kind == "unknown_domain":
            return encode_routed(uni.CapabilityQuery(f"req-{n}"), "d9"), None
        else:
            return b"not json\n", None
        return encode_routed(msg, "d1"), msg

    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(STEPS), st.integers(0, 2)), min_size=1, max_size=16))
    def test_a_loaded_state_is_the_served_one(self, steps):
        """After each line, loading the state gives the server's workspace
        without the audit records of the queries since the last mutation,
        and a checkpoint writes the bytes of the same requests made in
        process."""
        topology = json.dumps(sc.intra_pop_topology())
        probe = _probe_request(topology)
        with tempfile.TemporaryDirectory() as tmp:
            state, local_state = Path(tmp) / "state.json", Path(tmp) / "local.json"
            ws = Workspace(load_topology(topology))
            local = Workspace(load_topology(topology))
            server = cli._UniServer(("127.0.0.1", 0), ws, str(state))
            persisted = 0  # audit records the state holds
            try:
                for n, (kind, k) in enumerate(steps):
                    if kind == "checkpoint":
                        server.journal.checkpoint()
                        local.save(local_state)
                        assert not journal_path(state).exists()
                        assert state.read_bytes() == local_state.read_bytes()
                        persisted = len(ws.dispatcher.audit_log)
                    else:
                        line, msg = self._line(probe, n, kind, k)
                        response = decode_message(server.handle_line(line))
                        if msg is not None:
                            assert response == local.dispatcher.dispatch(msg, "d1")
                            if kind != "query":
                                persisted = len(ws.dispatcher.audit_log)
                    expected = local.to_doc()
                    expected["audit"] = expected["audit"][:persisted]
                    assert Workspace.load(state).to_doc() == expected, kind
                    journal = journal_path(state)
                    assert not journal.exists() or journal.stat().st_size <= state.stat().st_size
            finally:
                server.server_close()

    def test_a_journal_larger_than_its_state_file_is_checkpointed(self, files):
        """Admitting and removing one stream over and over, the journal
        is folded into the state file each time it outgrows the file."""
        topology = files["topology"].read_text()
        probe = _probe_request(topology)
        server = cli._UniServer(("127.0.0.1", 0), Workspace(load_topology(topology)), str(files["state"]))
        journal, sizes = journal_path(files["state"]), []
        try:
            for n in range(10):
                remove = uni.RemoveStream(f"remove-{n}", probe.requirement.stream_id)
                for msg in (replace(probe, request_id=f"add-{n}"), remove):
                    server.handle_line(encode_routed(msg, "d1"))
                    sizes.append(journal.stat().st_size if journal.exists() else 0)
                    assert sizes[-1] <= files["state"].stat().st_size
        finally:
            server.server_close()
        assert sizes.count(0) >= 2
        assert len(Workspace.load(files["state"]).dispatcher.audit_log) == 20

    def test_concurrent_clients_journal_every_request(self, files):
        """With four clients at once, on handler threads switching as often
        as the interpreter allows, every answered request is journaled
        whole: the loaded state is the server's workspace."""
        topology = files["topology"].read_text()
        probe = _probe_request(topology)
        ws = Workspace(load_topology(topology))
        server = cli._UniServer(("127.0.0.1", 0), ws, str(files["state"]))
        serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        answered = []

        def play(client: UniClient, t: int) -> None:
            stream = replace(probe.requirement, stream_id=f"t{t}")
            for n in range(10):
                for msg in (replace(probe, request_id=f"add-{t}-{n}", requirement=stream),
                            uni.RemoveStream(f"remove-{t}-{n}", stream.stream_id)):
                    answered.append(client.request(msg, "d1").request_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serving.start()
            with UniClient(*server.server_address[:2]) as client:
                clients = [threading.Thread(target=play, args=(client, t)) for t in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            serving.join(timeout=10)
            server.server_close()
        assert len(answered) == 80
        assert Workspace.load(files["state"]).to_doc() == ws.to_doc()

    @pytest.mark.parametrize("fails", ["raises", "short"])
    def test_a_failed_append_leaves_no_torn_line(self, files, fails):
        """An append that writes only part of its lines, and then raises or
        returns, is cut back; the next append writes those lines again."""
        instantiate_demo(files)
        topology = files["topology"].read_text()
        probe = _probe_request(topology)
        server = cli._UniServer(("127.0.0.1", 0), Workspace.load(files["state"]), str(files["state"]))
        try:
            server.handle_line(encode_routed(probe, "d1"))
            real = server.journal.file

            class Full:
                def write(self, data):
                    written = real.write(data[:10])
                    if fails == "raises":
                        raise OSError(28, "No space left on device")
                    return written

                def truncate(self, size):
                    return real.truncate(size)

            server.journal.file = Full()
            with pytest.raises(OSError):
                server.handle_line(encode_routed(uni.RemoveStream("req-9002", "cli~probe"), "d1"))
            server.journal.file = real
            server.handle_line(encode_routed(uni.CapabilityQuery("req-9003"), "d1"))
            server.handle_line(encode_routed(replace(probe, request_id="req-9004"), "d1"))
        finally:
            server.server_close()
        assert self._requests(files) == ["req-9001", "req-9002", "req-9003", "req-9004"]
        assert Workspace.load(files["state"]).to_doc() == server.workspace.to_doc()

    def _journaled(self, files) -> list[bytes]:
        """Serve an admission and a removal on the demo's state; the
        journal's lines."""
        instantiate_demo(files)
        topology = files["topology"].read_text()
        server = cli._UniServer(("127.0.0.1", 0), Workspace.load(files["state"]), str(files["state"]))
        try:
            server.handle_line(encode_routed(_probe_request(topology), "d1"))
            server.handle_line(encode_routed(uni.RemoveStream("req-9002", "cli~probe"), "d1"))
        finally:
            server.server_close()
        return journal_path(files["state"]).read_bytes().splitlines(keepends=True)

    def _requests(self, files) -> list[str]:
        """The request ids of the loaded audit log after the demo's own."""
        ws = Workspace.load(files["state"])
        return [record.request_id for record in ws.dispatcher.audit_log[2:]]

    def test_a_torn_last_line_is_ignored(self, files):
        header, add, remove = self._journaled(files)
        journal_path(files["state"]).write_bytes(header + add + remove[:-1])
        assert self._requests(files) == ["req-9001"]
        assert "cli~probe" in Workspace.load(files["state"]).states["d1"].admitted

    def test_a_journal_for_other_bytes_is_ignored(self, files):
        self._journaled(files)
        assert self._requests(files) == ["req-9001", "req-9002"]
        files["state"].write_bytes(files["state"].read_bytes() + b"\n")  # the same state in other bytes
        assert self._requests(files) == []

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"not json\n", "not a JSON object: Expecting value: line 1 column 1 (char 0)"),
            (encode_routed(uni.CapabilityQuery("req-9"), "d9"), "no controller registered for domain d9"),
        ],
        ids=["undecodable", "unknown-domain"],
    )
    def test_a_line_that_does_not_replay_is_refused(self, files, capsys, line, message):
        header, add, remove = self._journaled(files)
        capsys.readouterr()
        journal = journal_path(files["state"])
        journal.write_bytes(header + line + remove)
        assert run("show", "audit", "--state", files["state"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {journal}, line 2: {message}"]


class TestDemoFixtures:
    DEMO = Path(__file__).resolve().parent.parent / "demo"

    def test_demo_reproduces_documented_numbers(self, tmp_path, capsys):
        state = tmp_path / "demo-state.json"
        rc = run(
            "instantiate",
            "--topology", self.DEMO / "topology.json",
            "--nsd", self.DEMO / "nsd.json",
            "--placement", self.DEMO / "placement.json",
            "--state", state,
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "vl1~fwd: e2e 10320 ns (bound 2000000 ns) via d1" in out
        assert run("verify", "ns-0001", "--state", state) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verify ns-0001: PASS"


class TestMalformedInput:
    """Malformed files end in exit 1 and one `error:` line naming the key,
    never in a traceback."""

    def _single_error(self, capsys) -> str:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    def _edit_state(self, files, edit) -> None:
        doc = json.loads(files["state"].read_text())
        edit(doc)
        files["state"].write_text(json.dumps(doc))

    def test_state_file_that_is_not_utf8(self, files, capsys):
        files["state"].write_bytes(b"\xff\xfe{}")
        assert run("show", "audit", "--state", files["state"]) == 1
        assert self._single_error(capsys).startswith("error: state file is not UTF-8: ")

    @pytest.mark.parametrize("flag", ["topology", "nsd", "placement"])
    def test_input_file_that_is_not_utf8(self, files, capsys, flag):
        bad = files["state"].parent / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        paths = {key: files[key] for key in ("topology", "nsd", "placement")}
        paths[flag] = bad
        rc = run(
            "instantiate",
            "--topology", paths["topology"],
            "--nsd", paths["nsd"],
            "--placement", paths["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert self._single_error(capsys).startswith(f"error: {flag} file {bad} is not UTF-8: ")

    def test_state_with_empty_instance(self, files, capsys):
        instantiate_demo(files)
        self._edit_state(files, lambda doc: doc["instances"].update(x={}))
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        assert "instances.x: missing keys" in self._single_error(capsys)

    def test_malformed_version_1_state(self, files, capsys):
        doc = json.loads((Path(__file__).resolve().parent / "golden" / "demo_state.json").read_text())
        doc["instances"]["ns-0001"]["status"] = 3
        files["state"].write_text(json.dumps(doc))
        assert run("show", "streams", "--state", files["state"]) == 1
        assert "instances.ns-0001.status: expected a string, got an integer" in self._single_error(capsys)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_state_whose_version_is_not_an_integer(self, files, capsys, version):
        """A version 1 file but for its version, which equals 1 in Python."""
        doc = json.loads((Path(__file__).resolve().parent / "golden" / "demo_state.json").read_text())
        doc["version"] = version
        files["state"].write_text(json.dumps(doc))
        assert run("show", "streams", "--state", files["state"]) == 1
        assert self._single_error(capsys) == (
            f"error: not a version 1, 2, 3 or 4 state file (version {version!r})"
        )

    def test_state_whose_audit_names_an_unknown_domain(self, files, capsys):
        instantiate_demo(files)
        self._edit_state(files, lambda doc: doc["audit"][1].update(domain_id="d9"))
        capsys.readouterr()
        assert run("show", "audit", "--state", files["state"]) == 1
        assert self._single_error(capsys) == "error: audit[1].domain_id: no domain d9 in the topology"

    @pytest.mark.parametrize(
        "edit, got",
        [
            (lambda record: record.update(reference_point="Or-Wi"), "'Or-Wi'"),
            (lambda record: record.pop("reference_point"), "None"),
        ],
    )
    def test_version_3_state_whose_reference_point_disagrees(self, files, capsys, edit, got):
        """A version 3 audit record stored its reference point, which a
        version 4 file derives; a stored one that differs is refused."""
        doc = json.loads((Path(__file__).resolve().parent / "golden" / "demo_state_v3.json").read_text())
        edit(doc["audit"][0])
        files["state"].write_text(json.dumps(doc))
        assert run("show", "audit", "--state", files["state"]) == 1
        assert self._single_error(capsys) == (
            f"error: audit[0].reference_point: expected Or-Vi for domain d1, got {got}"
        )

    @pytest.mark.parametrize(
        "load, message",
        [
            ("1e-320", "bg_load 1e-320 is too small: the gap between background frames on A.p0 overflows"),
            ("nan", "bg_load must be in [0, 1], got nan"),
        ],
    )
    def test_background_load_no_run_can_use(self, files, capsys, load, message):
        instantiate_demo(files)
        capsys.readouterr()
        assert run("verify", "ns-0001", "--state", files["state"], "--bg-load", load) == 1
        assert self._single_error(capsys) == f"error: {message}"

    def test_nsd_with_string_period(self, files, capsys):
        doc = sc.demo_nsd()
        doc["virtual_links"][0]["tsn"]["traffic_fwd"]["period_ns"] = "250000"
        write_nsd(files, doc)
        rc = run(
            "instantiate",
            "--topology", files["topology"],
            "--nsd", files["nsd"],
            "--placement", files["placement"],
            "--state", files["state"],
        )
        assert rc == 1
        assert "nsd.virtual_links[0].tsn.traffic_fwd.period_ns: expected an integer, got a string" in (
            self._single_error(capsys)
        )
        assert not files["state"].exists()

    def test_state_whose_instance_copy_disagrees_with_its_controller(self, files, capsys):
        """A version 2 file stores a copy of each active schedule on its
        instance; the talker config would be emitted from that copy and the
        gate list from the controller's record, so a copy that differs is
        refused on load."""
        doc = json.loads((Path(__file__).resolve().parent / "golden" / "demo_state_v2.json").read_text())
        window = doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"][0]["schedule"]["reservations"][0]
        window["window_start_ns"] += 2000
        window["window_end_ns"] += 2000
        files["state"].write_text(json.dumps(doc))
        assert run("show", "config", "vnfA", "--state", files["state"]) == 1
        assert self._single_error(capsys) == (
            "error: instances.ns-0001.schedules.vl1~fwd: "
            "the schedule in domain d1 is not its controller's record"
        )

    def test_state_with_string_window_end(self, files, capsys):
        instantiate_demo(files)

        def edit(doc):
            doc["cnc"]["d1"]["streams"][0]["schedule"]["reservations"][0]["window_end_ns"] = "4160"

        self._edit_state(files, edit)
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        assert "cnc.d1.streams[0].schedule.reservations[0].window_end_ns" in self._single_error(capsys)

    @pytest.mark.parametrize("cycle", [300_000, 0])
    def test_state_with_a_wrong_hyperperiod(self, files, capsys, cycle):
        """The gate cycle is the LCM of the stream periods (250 us here).
        Any other stored value is refused on load instead of shaping the
        GCLs, the station configs and the verification."""
        instantiate_demo(files)
        self._edit_state(files, lambda doc: doc["cnc"]["d1"].update(hyperperiod_ns=cycle))
        for argv in (("show", "gcl", "B1.p1"), ("show", "config", "vnfA"), ("verify", "ns-0001")):
            capsys.readouterr()
            assert run(*argv, "--state", files["state"]) == 1, argv
            assert f"hyperperiod_ns is {cycle}, but the periods of its streams give 250000" in (
                self._single_error(capsys)
            )

    def test_state_with_overlapping_windows(self, files, capsys):
        """Two services of a two-pair fill, then s000a~rev's window on
        B1.p00 moved from [10012, 12220) onto s000b~rev's [5756, 10012).
        Placement relies on disjoint windows, so the load names the port
        and both streams instead of failing later in GCL synthesis."""
        ws = sc.build_workspace(sc.fill_topology(2))
        for k in (0, 1):
            sc.instantiate(ws, *sc.fill_service(1, k, 2))
        ws.save(files["state"])

        def edit(doc):
            for entry in doc["cnc"]["d1"]["streams"]:
                for res in entry["schedule"]["reservations"]:
                    if (res["port_id"], res["stream_id"]) == ("B1.p00", "s000a~rev"):
                        assert (res["window_start_ns"], res["window_end_ns"]) == (10012, 12220)
                        for key in ("window_start_ns", "window_end_ns", "queue_from_ns"):
                            res[key] -= 10012 - 5756

        self._edit_state(files, edit)
        for argv in (("show", "gcl", "B1.p00"), ("show", "streams"), ("verify", "ns-0001")):
            capsys.readouterr()
            assert run(*argv, "--state", files["state"]) == 1, argv
            assert self._single_error(capsys) == (
                "error: port B1.p00: the window of s000a~rev at [5756, 7964) "
                "overlaps the window of s000b~rev at [5756, 10012)"
            )

    def test_state_whose_bridge_has_too_few_gate_entries(self, files, capsys):
        instantiate_demo(files)

        def edit(doc):
            bridge = next(n for n in doc["topology"]["nodes"] if n["node_id"] == "B1")
            bridge["gcl_max_entries"] = 3

        self._edit_state(files, edit)
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        assert self._single_error(capsys) == "error: port B1.p0 needs 4 GCL entries, bridge supports 3"

    def test_state_with_a_controller_filed_under_another_domain(self, files, capsys):
        Workspace(load_topology(json.dumps(sc.cross_pop_topology()))).save(files["state"])
        self._edit_state(files, lambda doc: doc["cnc"]["d2"].update(domain_id="d1"))
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        assert "the controller state of domain d2 is for d1" in self._single_error(capsys)

    def test_state_with_an_instance_filed_under_another_id(self, files, capsys):
        instantiate_demo(files)
        self._edit_state(files, lambda doc: doc["instances"].update({"ns-9999": doc["instances"]["ns-0001"]}))
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        error = self._single_error(capsys)
        assert "instances.ns-9999.instance_id: the instance filed under ns-9999 is ns-0001" in error

    def test_state_with_an_instance_of_unknown_status(self, files, capsys):
        instantiate_demo(files)
        self._edit_state(files, lambda doc: doc["instances"]["ns-0001"].update(status="bogus"))
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        error = self._single_error(capsys)
        assert "instances.ns-0001.status: expected one of active, terminated, failed, got 'bogus'" in error

    def test_state_with_two_active_instances_holding_one_stream(self, files, capsys):
        instantiate_demo(files)

        def copy_instance(doc):
            twin = dict(doc["instances"]["ns-0001"], instance_id="ns-9999")
            doc["instances"]["ns-9999"] = twin

        self._edit_state(files, copy_instance)
        capsys.readouterr()
        assert run("show", "streams", "--state", files["state"]) == 1
        error = self._single_error(capsys)
        assert "stream vl1~fwd is held by active instances ns-0001 and ns-9999" in error

    def test_verify_reports_string_gcl_interval(self, files, capsys, monkeypatch):
        instantiate_demo(files)
        load_corrupted(monkeypatch, lambda gcl: gcl["entries"][0].update(interval_ns="4160"))
        capsys.readouterr()
        assert run("verify", "ns-0001", "--state", files["state"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out == ["gcl A.p0: bad_entry key=entries[0].interval_ns", "verify ns-0001: FAIL"]
