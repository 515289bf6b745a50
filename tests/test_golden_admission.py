"""Golden bytes of a fill: 160 streams admitted on one bridge, half the
services terminated, eight more admitted into the gaps, then everything
terminated. It pins every UNI exchange as the lines it would be on the
wire (each checked to decode back to its message), the state file after
the fill and the state file after the drain, so a change to how admission or
GCL synthesis is computed that moves one window or one gate entry fails
here. The state file holds no gate lists, so the lists after the fill
are pinned on their own."""

from __future__ import annotations

import hashlib
import json

import scenarios as sc

PAIRS = 6
SERVICES = 40  # 160 streams, about 27 per bridge port
REFILL = 8
SEED = 5

UNI_LINES_SHA256 = "3b393579075ed7594422d66badaf947446f0f0a6f2dac0947b115bc348760130"
FILLED_STATE_SHA256 = "b7f4f3eb8ba9add3f93ce53ce92ac29838e9c7a87e908bfb414daef6cee1e505"
FILLED_GCLS_SHA256 = "3c188e03dae1170f154914f6ef0c20b11ab8fc0167405f893d4558ed6c6d879c"
DRAINED_STATE_SHA256 = "9c8b413081b5b6824267d0824c5cc2c09cb71cf06c4dbc424fb11243cb5e3878"


def _state_sha256(ws, path) -> str:
    ws.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gcls_sha256(ws) -> str:
    return hashlib.sha256(json.dumps(ws.gcl_docs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_fill_and_drain_bytes(tmp_path):
    ws = sc.build_workspace(sc.fill_topology(PAIRS))
    exchanges = sc.record_uni(ws)
    ids = [
        sc.instantiate(ws, *sc.fill_service(SEED, k, PAIRS)).instance_id
        for k in range(SERVICES)
    ]
    assert sum(len(state.admitted) for state in ws.states.values()) == 4 * SERVICES
    filled = _state_sha256(ws, tmp_path / "filled.json")
    filled_gcls = _gcls_sha256(ws)

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

    uni_lines = b"".join(request + response for request, response in exchanges)
    assert (hashlib.sha256(uni_lines).hexdigest(), filled, filled_gcls, drained) == (
        UNI_LINES_SHA256,
        FILLED_STATE_SHA256,
        FILLED_GCLS_SHA256,
        DRAINED_STATE_SHA256,
    )
