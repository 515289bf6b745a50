"""Golden bytes of a fill: 160 streams admitted on one bridge, half the
services terminated, eight more admitted into the gaps, then everything
terminated. It pins every UNI line exchanged, the state file after the
fill and the state file after the drain, so a change to how admission or
GCL synthesis is computed that moves one window, one gate entry or one
byte of a station config fails here."""

from __future__ import annotations

import hashlib

import scenarios as sc
from tsnfv.uni import CncEntry, CncRegistry

PAIRS = 6
SERVICES = 40  # 160 streams, about 27 per bridge port
REFILL = 8
SEED = 5

UNI_LINES_SHA256 = "7ccfd825b8dbda34f864865a6d4327a76ac012cc73bb841ef5fa726469975399"
FILLED_STATE_SHA256 = "4739fcbfc81312c2b9561e65621c2abfb3f4ecc9fc87c69457a8413fa52a995c"
DRAINED_STATE_SHA256 = "ee4bfe7ae28b49444e8965e7526f06eb8927f5ad1123c95fdd4d80d625997962"


class _Recorder:
    def __init__(self, service, lines: list):
        self.service = service
        self.lines = lines

    def handle_line(self, line: bytes) -> bytes:
        out = self.service.handle_line(line)
        self.lines += [line, out]
        return out


def _record_uni(ws) -> list[bytes]:
    lines: list[bytes] = []
    registry = CncRegistry()
    for domain_id in ws.registry.domains():
        entry = ws.registry.entry(domain_id)
        registry.register(
            CncEntry(entry.domain_id, entry.controller_id, entry.kind, _Recorder(entry.handle, lines))
        )
    ws.dispatcher.registry = registry
    return lines


def _state_sha256(ws, path) -> str:
    ws.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fill_and_drain_bytes(tmp_path):
    ws = sc.build_workspace(sc.fill_topology(PAIRS))
    lines = _record_uni(ws)
    ids = [
        sc.instantiate(ws, *sc.fill_service(SEED, k, PAIRS)).instance_id
        for k in range(SERVICES)
    ]
    assert sum(len(state.admitted) for state in ws.states.values()) == 4 * SERVICES
    filled = _state_sha256(ws, tmp_path / "filled.json")

    for iid in ids[1::2]:
        ws.terminate(iid)
    ids = ids[::2] + [
        sc.instantiate(ws, *sc.fill_service(SEED, k, PAIRS)).instance_id
        for k in range(SERVICES, SERVICES + REFILL)
    ]
    for iid in ids:
        ws.terminate(iid)
    assert all(not state.admitted for state in ws.states.values())
    assert ws.gcl_docs == {}
    drained = _state_sha256(ws, tmp_path / "drained.json")

    assert (hashlib.sha256(b"".join(lines)).hexdigest(), filled, drained) == (
        UNI_LINES_SHA256,
        FILLED_STATE_SHA256,
        DRAINED_STATE_SHA256,
    )
