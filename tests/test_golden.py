"""Golden bytes of the demo in demo/: the state file `tsnfv instantiate`
writes, the station config `tsnfv show config vnfA` prints, the first
UNI exchange on the wire and the report `tsnfv verify` prints. A codec
or simulator change that alters one byte of any of them fails here, and
so does one that alters a simulator report of the acceptance sweep's
first seeds. The demo's version 1, 2 and 3 state files are kept as
fixtures: each must load, show exactly what a fresh state shows, and save
as the version 4 golden."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import scenarios as sc
from tsnfv import cli
from tsnfv.descriptors import parse_nsd, parse_placement
from tsnfv.errors import AdmissionFailedError
from tsnfv.topology import load_topology
from tsnfv.verifier import SimConfig, verify_ns
from tsnfv.workspace import Workspace

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = Path(__file__).resolve().parent.parent / "demo"
DEMO_STATE_SHA256 = "50fc81991d9ee90d14e75dae07e79c64d6ca66482fdd3dd695b9739a6e0b7d65"
V1_DEMO_STATE_SHA256 = "0351830f890e62aadd52375910657934ea114408068012ac6fdc0dc750f695c4"
V2_DEMO_STATE_SHA256 = "189dd2446c15a8c6dc67e647e3c1fe7665fd91be8899271cc7a40d2d57ba8a29"
V3_DEMO_STATE_SHA256 = "8d62c0cb785a4ab1f071fb7126b999f2ac76f31ff1a25b1ece2f0f4948c4950f"
SWEEP_SEEDS = range(1000, 1040)  # the first 40 seeds of the acceptance sweep


def _instantiate_demo(state: Path) -> None:
    rc = cli.main(
        [
            "instantiate",
            "--topology", str(DEMO / "topology.json"),
            "--nsd", str(DEMO / "nsd.json"),
            "--placement", str(DEMO / "placement.json"),
            "--state", str(state),
        ]
    )
    assert rc == 0


def test_demo_state_file(tmp_path):
    state = tmp_path / "state.json"
    _instantiate_demo(state)
    golden = (GOLDEN / "demo_state_v4.json").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == DEMO_STATE_SHA256
    assert len(golden) == 3_351
    assert state.read_bytes() == golden


def _shows_the_same(tmp_path, capsys, old: Path, sha256: str) -> None:
    """Every show and verify command prints the same on an older fixture
    as on a fresh state, and saving the fixture writes the v4 golden."""
    assert hashlib.sha256(old.read_bytes()).hexdigest() == sha256
    state = tmp_path / "state.json"
    _instantiate_demo(state)
    commands = [
        ["show", "streams"],
        ["show", "gcl", "A.p0"],
        ["show", "gcl", "B1.p1"],
        ["show", "config", "vnfA"],
        ["show", "config", "vnfC"],
        ["show", "audit"],
        ["verify", "ns-0001"],
    ]
    for command in commands:
        capsys.readouterr()
        assert cli.main([*command, "--state", str(state)]) == 0
        fresh = capsys.readouterr().out
        assert cli.main([*command, "--state", str(old)]) == 0
        assert capsys.readouterr().out == fresh, command
    Workspace.load(old).save(state)
    assert state.read_bytes() == (GOLDEN / "demo_state_v4.json").read_bytes()


def test_demo_v1_state_file_shows_the_same(tmp_path, capsys):
    _shows_the_same(tmp_path, capsys, GOLDEN / "demo_state.json", V1_DEMO_STATE_SHA256)


def test_demo_v2_state_file_shows_the_same(tmp_path, capsys):
    _shows_the_same(tmp_path, capsys, GOLDEN / "demo_state_v2.json", V2_DEMO_STATE_SHA256)


def test_demo_v3_state_file_shows_the_same(tmp_path, capsys):
    _shows_the_same(tmp_path, capsys, GOLDEN / "demo_state_v3.json", V3_DEMO_STATE_SHA256)


def test_demo_show_config(tmp_path, capsys):
    state = tmp_path / "state.json"
    _instantiate_demo(state)
    capsys.readouterr()
    assert cli.main(["show", "config", "vnfA", "--state", str(state)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo_show_config_vnfA.txt").read_text()


def test_demo_first_uni_exchange():
    ws = Workspace(load_topology((DEMO / "topology.json").read_text()))
    exchanges = sc.record_uni(ws)
    ws.instantiate(
        parse_nsd((DEMO / "nsd.json").read_text()),
        parse_placement((DEMO / "placement.json").read_text()),
    )
    request, response = exchanges[0]
    assert request.startswith(b'{"entry_offset_ns":0,')
    assert b'"kind":"stream_request"' in request
    assert b'"status":"ok"' in response
    assert request + response == (GOLDEN / "demo_first_uni_exchange.ndjson").read_bytes()


def test_demo_verify_report(tmp_path, capsys):
    state = tmp_path / "state.json"
    _instantiate_demo(state)
    capsys.readouterr()
    assert cli.main(["verify", "ns-0001", "--state", str(state)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "demo_verify_ns-0001.txt").read_text()


def _sweep_verify_digest() -> str:
    """sha256 over one line per seed: the seed and its `VerifyResult`
    document at background loads 0, 1 and 0.5, or the rejection cause."""
    digest = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        topo_doc, nsd_doc, placement_doc = sc.random_scenario(seed)
        ws = sc.build_workspace(topo_doc)
        try:
            instance = sc.instantiate(ws, nsd_doc, placement_doc)
        except AdmissionFailedError as exc:
            doc = {"rejected": exc.cause}
        else:
            result = verify_ns(instance, ws.topology, ws.gcl_docs, SimConfig(bg_load=0.5, seed=seed))
            doc = result.to_doc()
        digest.update(f"{seed} {json.dumps(doc, sort_keys=True)}\n".encode())
    return digest.hexdigest()


def test_sweep_verify_reports():
    golden = (GOLDEN / "sweep_verify_1000_1039.sha256").read_text().strip()
    assert _sweep_verify_digest() == golden
