"""End-to-end checks of the operator CLI: exit codes, rendered output,
and the TCP service mode driven through a real subprocess."""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import scenarios as sc
from tsnfv import cli, cnc, cuc, uni
from tsnfv.model import DataFrameSpec, EndpointRef, StreamRequirement, TrafficSpec
from tsnfv.topology import load_topology, shortest_path
from tsnfv.uni import StreamRequest, UniClient, decode_message, encode_routed
from tsnfv.workspace import Workspace


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
        state = files["state"].parent / state_name
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "tsnfv.cli", "serve",
                "--listen", "127.0.0.1:0",
                "--topology", str(files["topology"]),
                "--state", str(state),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = proc.stdout.readline().strip()
        if not banner.startswith("listening on 127.0.0.1:"):
            self._stop(proc)
            pytest.fail(f"no banner: {banner!r}")
        return proc, int(banner.rsplit(":", 1)[1]), state

    def _stop(self, proc):
        """Stop the server as an operator would, with SIGTERM, and close
        the pipe its banner came through."""
        proc.send_signal(signal.SIGTERM)
        try:
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()  # a no-op once the server has exited
            proc.wait()
            proc.stdout.close()

    def test_wire_admission_and_shutdown(self, files):
        proc, port, state = self._start(files)
        try:
            client = UniClient("127.0.0.1", port)
            response = client.request(_probe_request(files["topology"].read_text()), "d1")
            assert response.status == "ok"
            assert response.domain_id == "d1"
            assert response.schedule.exit_offset_ns == 10_320

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
            UniClient("127.0.0.1", port).request(
                _probe_request(files["topology"].read_text()), "d1"
            )
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
            client = UniClient("127.0.0.1", port)
            assert state.read_bytes() == golden
            assert state.stat().st_mtime_ns == before.st_mtime_ns
            response = client.request(_probe_request(files["topology"].read_text()), "d1")
            assert response.status == "ok"
            assert state.read_bytes() != golden
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
            client = UniClient("127.0.0.1", port)
            for msg in [probe, *queries]:
                assert client.request(msg, "d1").status == "ok"
        finally:
            self._stop(proc)
        after = [r.request_id for r in Workspace.load(state).dispatcher.audit_log]
        assert after == before + [probe.request_id] + [q.request_id for q in queries]

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

    def test_a_save_encodes_only_what_changed(self, tmp_path, monkeypatch):
        """Once the server has saved, a mutation's save encodes the audit
        records appended since the last save and no instance, however long
        the log has grown; the file still holds every record."""
        pairs = 4
        ws = sc.build_workspace(sc.fill_topology(pairs))
        for k in range(8):
            sc.instantiate(ws, *sc.fill_service(1, k, pairs))
        state = tmp_path / "state.json"
        server = cli._UniServer(("127.0.0.1", 0), ws, str(state))
        counts = {"audit": 0, "instance": 0}
        for key, cls in (("audit", uni.AuditRecord), ("instance", cuc.NsInstance)):

            def counted(self, _real=cls.to_doc, _key=key):
                counts[_key] += 1
                return _real(self)

            monkeypatch.setattr(cls, "to_doc", counted)
        request = _serve_request(ws.topology, "T00", "L00")
        remove = uni.RemoveStream("req-remove", request.requirement.stream_id)
        query = encode_routed(uni.CapabilityQuery("req-query"), "d1")
        try:
            server.handle_line(encode_routed(request, "d1"))  # the first save encodes everything
            for queries in (3, 300):
                for _ in range(queries):
                    server.handle_line(query)
                counts.update(audit=0, instance=0)
                assert self._answer(server, encode_routed(remove, "d1")).status == "ok"
                assert counts == {"audit": queries + 1, "instance": 0}
                counts.update(audit=0, instance=0)
                assert self._answer(server, encode_routed(request, "d1")).status == "ok"
                assert counts == {"audit": 1, "instance": 0}
        finally:
            server.server_close()
        monkeypatch.undo()
        assert state.read_text() == json.dumps(ws.to_doc(), sort_keys=True, separators=(",", ":")) + "\n"
        assert len(ws.dispatcher.audit_log) == 32 + 1 + 3 + 1 + 1 + 300 + 1 + 1


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
            f"error: not a version 1 or 2 state file (version {version!r})"
        )

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
        """The talker config is emitted from the instance's copy and the
        gate list from the controller's record, so a copy that differs is
        refused on load."""
        instantiate_demo(files)

        def edit(doc):
            window = doc["instances"]["ns-0001"]["schedules"]["vl1~fwd"][0]["schedule"]["reservations"][0]
            window["window_start_ns"] += 2000
            window["window_end_ns"] += 2000

        self._edit_state(files, edit)
        capsys.readouterr()
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
