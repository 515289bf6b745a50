from __future__ import annotations

import functools
import heapq
import itertools
import json
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference
import scenarios as sc
from tsnfv import verifier
from tsnfv.cnc import CncState, admit_stream, synthesize_gcls
from tsnfv.errors import AdmissionFailedError, ParseError, SimConfigError, ValidationError
from tsnfv.model import (
    DataFrameSpec,
    EndpointRef,
    GateControlList,
    GclEntry,
    HopReservation,
    StreamRequirement,
    StreamSchedule,
    TrafficSpec,
)
from tsnfv.topology import Topology, load_topology, shortest_path, split_by_domain
from tsnfv.verifier import (
    SimConfig,
    SimReport,
    _Gates,
    check_gcl_wellformed,
    flow_from_schedules,
    simulate,
    verify_ns,
)

GBPS = 1_000_000_000


def _admitted(topology, count=1):
    """count streams A -> C admitted on a fresh controller."""
    state = CncState(domain_id="d1", topology=topology)
    segment = split_by_domain(shortest_path(topology, "A", "C"), topology)[0]
    flows = []
    for n in range(1, count + 1):
        req = StreamRequirement(
            stream_id=f"s{n}",
            talker=EndpointRef("st-A", "eth0", "A"),
            listener=EndpointRef("st-C", "eth0", "C"),
            frame=DataFrameSpec(
                f"02:00:00:00:01:{n:02x}", f"02:00:00:00:02:{n:02x}", 100, 7
            ),
            traffic=TrafficSpec(250_000, 500, 1, 2_000_000),
        )
        schedule = admit_stream(state, req, segment, 2_000_000)
        flows.append(flow_from_schedules(req, [schedule]))
    return state, flows


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert (cfg.duration_cycles, cfg.bg_load, cfg.seed) == (3, 0.0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_cycles": 0},
            {"duration_cycles": 2.5},
            {"bg_load": -0.1},
            {"bg_load": 1.5},
            {"bg_load": float("nan")},
            {"bg_load": "0.5"},
            {"bg_load": None},
            {"seed": "abc"},
            # a bool is no number, as it is none to the codec
            {"duration_cycles": True},
            {"bg_load": True},
            {"seed": False},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(SimConfigError):
            SimConfig(**kwargs)

    def test_load_whose_background_gap_overflows(self, intra_topology):
        """1e-320 is in range, but 12,336 ns / 1e-320 is no float."""
        with pytest.raises(SimConfigError, match="bg_load 1e-320 is too small"):
            simulate(intra_topology, {}, [], SimConfig(bg_load=1e-320))

    def test_tiny_load_sends_no_background(self, intra_topology):
        report = simulate(intra_topology, {}, [], SimConfig(bg_load=1e-300))
        assert (report.be_sent, report.be_dropped) == (0, 0)


class TestSimulation:
    def test_quiet_network_matches_planned_latency(self, intra_topology):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        report = simulate(intra_topology, gcls, flows, SimConfig())
        rec = report.streams["s1"]
        assert rec.observed_worst_latency_ns == 10_320
        assert rec.observed_frame_count == 3  # one frame per cycle, 3 cycles
        assert rec.dropped_frames == 0
        assert report.be_sent == 0
        assert _paths(intra_topology, gcls, flows, SimConfig()) == (True, True)

    def test_saturating_background_changes_nothing(self, intra_topology):
        state, flows = _admitted(intra_topology, count=2)
        gcls = synthesize_gcls(state)
        quiet = simulate(intra_topology, gcls, flows, SimConfig())
        loaded = simulate(intra_topology, gcls, flows, SimConfig(bg_load=1.0))
        assert loaded.be_sent > 0
        for sid in ("s1", "s2"):
            assert (
                loaded.streams[sid].observed_worst_latency_ns
                == quiet.streams[sid].observed_worst_latency_ns
            )
        assert quiet.streams["s1"].observed_worst_latency_ns == 10_320
        assert quiet.streams["s2"].observed_worst_latency_ns == 14_480
        assert loaded.total_dropped == 0
        assert _paths(intra_topology, gcls, flows, SimConfig(bg_load=1.0)) == (True, True)

    def test_a_window_start_one_ns_off_plan_does_not_replay(self, intra_topology):
        """The runs are as before, since only the first window start
        launches a frame, but no port departs where the plan says."""
        state, flows = _admitted(intra_topology, count=2)
        gcls = synthesize_gcls(state)
        starts = flows[1].window_starts_ns
        flows[1] = replace(flows[1], window_starts_ns=(starts[0], starts[1] + 1))
        assert _paths(intra_topology, gcls, flows, SimConfig(bg_load=1.0)) == (False, False)

    def test_deterministic_for_fixed_seed(self, intra_topology):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        cfg = SimConfig(bg_load=0.7, seed=42)
        a = simulate(intra_topology, gcls, flows, cfg)
        b = simulate(intra_topology, gcls, flows, cfg)
        assert a.to_doc() == b.to_doc()

    def test_closed_gate_drops_stream(self, intra_topology):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        # replace the talker port list with one that never opens class 7
        gcls["A.p0"] = GateControlList(
            "A.p0", 250_000, (GclEntry(0x7F, 250_000),)
        )
        report = simulate(intra_topology, gcls, flows, SimConfig())
        assert report.streams["s1"].dropped_frames == 3
        assert report.streams["s1"].observed_frame_count == 0

    def test_blocked_head_does_not_hold_back_a_higher_class(self, intra_topology):
        # On A.p0 class 3 is open over [0, 22000) and class 7 over
        # [15000, 22000). The class-3 frame released at 10000 cannot finish
        # before 22000 and waits; the class-7 frame released at 12000 must
        # go when its gate opens at 15000, not wait for class 3's close.
        _, (flow,) = _admitted(intra_topology)
        req = flow.requirement
        high = replace(flow, window_starts_ns=(12_000, *flow.window_starts_ns[1:]))
        low = replace(
            flow,
            requirement=replace(
                req,
                stream_id="low",
                frame=replace(req.frame, pcp=3),
                traffic=replace(req.traffic, max_frame_bytes=1522),
            ),
            window_starts_ns=(10_000, *flow.window_starts_ns[1:]),
        )
        gcls = {
            "A.p0": GateControlList(
                "A.p0", 250_000, (GclEntry(0x08, 15_000), GclEntry(0x88, 7_000), GclEntry(0x00, 228_000))
            )
        }
        report = simulate(intra_topology, gcls, [high, low], SimConfig(duration_cycles=1))
        assert report.streams["s1"].observed_worst_latency_ns == 15_000 + 10_320
        assert report.streams["low"].observed_frame_count == 1

    def test_no_flows_no_background_is_empty(self, intra_topology):
        report = simulate(intra_topology, {}, [], SimConfig())
        assert report.streams == {} and report.duration_ns == 0

    def test_background_only(self, intra_topology):
        report = simulate(intra_topology, {}, [], SimConfig(bg_load=1.0))
        assert report.be_sent > 0

    def test_path_mismatch_detected(self, intra_topology):
        state, flows = _admitted(intra_topology)
        bad = flows[0].__class__(
            requirement=flows[0].requirement,
            ports=("A.p0", "B1.p0"),  # p0 leads back to A, not to C
            window_starts_ns=(0, 5_660),
        )
        with pytest.raises(ValidationError):
            simulate(intra_topology, {}, [bad], SimConfig())


def _brute_span(entries, cls, t):
    """What `_Gates.span` and `max_run` answer for one class at time t,
    found by a scan of every nanosecond over two cycles."""
    cycle = sum(interval for _, interval in entries)
    open_ns = []
    for mask, interval in entries:
        open_ns += [bool(mask >> cls & 1)] * interval
    if all(open_ns):
        return (t, None), None
    if not any(open_ns):
        return (None, None), 0
    longest = run = 0
    for u in range(2 * cycle):
        run = run + 1 if open_ns[u % cycle] else 0
        longest = max(longest, run)
    start = next(u for u in range(t, t + cycle) if open_ns[u % cycle])
    end = next(u for u in range(start + 1, start + cycle + 1) if not open_ns[u % cycle])
    return (start, end), longest


_entries = st.lists(
    st.tuples(st.integers(0, 0xFF), st.integers(1, 12)), min_size=1, max_size=6
)


def _gcl_doc(entries, port="p") -> dict:
    """The gate control list document of `entries`, (mask, interval)
    pairs, with the cycle they sum to."""
    return {
        "port_id": port,
        "cycle_ns": sum(interval for _, interval in entries),
        "entries": [{"gate_states": m, "interval_ns": i} for m, i in entries],
    }


def _gates(entries) -> _Gates:
    return _Gates(_gcl_doc(entries))


class TestGates:
    """The simulator's gate lookup against a scan of every nanosecond of
    two cycles: whether a gate is open at t, when it next closes, and
    otherwise when it next opens and closes again."""

    def _check(self, entries):
        gates = _gates(entries)
        for cls in range(8):
            for t in range(2 * gates.cycle):
                span, longest = _brute_span(entries, cls, t)
                assert gates.span(cls, t) == span, (cls, t)
                assert gates.max_run(cls) == longest, cls

    @given(_entries)
    def test_agrees_with_brute_force(self, entries):
        self._check(entries)

    def test_run_merged_across_cycle_boundary(self):
        # class 7 is open over [7, 10) and [0, 2): one run of 5
        entries = [(0x80, 2), (0x01, 5), (0x80, 3)]
        self._check(entries)
        gates = _gates(entries)
        assert gates.span(7, 8) == (8, 12)
        assert gates.span(7, 3) == (7, 12)
        assert gates.max_run(7) == 5

    def test_always_and_never_open(self):
        entries = [(0x0F, 3), (0x0F, 4)]
        self._check(entries)
        gates = _gates(entries)
        assert gates.max_run(0) is None and gates.span(0, 5) == (5, None)
        assert gates.max_run(7) == 0 and gates.span(7, 5) == (None, None)

    def test_no_gate_control_list(self):
        gates = _Gates(None)
        for cls in range(8):
            assert gates.span(cls, 123) == (123, None)
            assert gates.max_run(cls) is None


@functools.lru_cache(maxsize=None)
def _scenario_instance(seed: int):
    """(topology, gate control list documents, active instance) of
    `random_scenario(seed)`, or None when admission rejects it."""
    topo_doc, nsd_doc, placement_doc = sc.random_scenario(seed)
    ws = sc.build_workspace(topo_doc)
    try:
        instance = sc.instantiate(ws, nsd_doc, placement_doc)
    except AdmissionFailedError:
        return None
    return ws.topology, ws.gcl_docs, instance


def _scenario_run(seed: int):
    """(topology, gate control lists, flows) of `random_scenario(seed)`
    once instantiated, or None when admission rejects it."""
    found = _scenario_instance(seed)
    if found is None:
        return None
    topology, docs, instance = found
    gcls = {port: GateControlList.from_doc(doc) for port, doc in docs.items()}
    flows = [
        flow_from_schedules(req, [sched for _, sched in chain])
        for req, chain in instance.stream_schedules()
    ]
    return topology, gcls, flows


def _same_as_reference(topology, gcls, flows, cfg) -> dict:
    """The report document, after checking that the reference simulator
    gives the same one. Where the reference's gap overflows, the
    simulator must refuse the load instead."""
    try:
        expected = reference.simulate(topology, gcls, flows, cfg).to_doc()
    except OverflowError:
        with pytest.raises(SimConfigError):
            simulate(topology, gcls, flows, cfg)
        return {}
    assert simulate(topology, gcls, flows, cfg).to_doc() == expected
    return expected


_loads = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


class TestAgainstReference:
    """The simulator against the straightforward one in `reference.py`:
    the same report, byte for byte, on random services at random loads,
    and on each branch that drops a frame."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(1000, 1039).filter(lambda seed: _scenario_run(seed) is not None),
        load=_loads,
        sim_seed=st.integers(0, 2**31),
        cycles=st.integers(1, 3),
    )
    def test_random_services(self, seed, load, sim_seed, cycles):
        config = SimConfig(duration_cycles=cycles, bg_load=load, seed=sim_seed)
        _same_as_reference(*_scenario_run(seed), config)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lists=st.lists(
            st.lists(st.tuples(st.integers(0, 0xFF), st.integers(1, 40)), min_size=1, max_size=6),
            min_size=2,
            max_size=2,
        ),
        streams=st.lists(
            st.tuples(st.integers(0, 7), st.integers(64, 1522), st.integers(1, 3), st.integers(0, 249_999)),
            min_size=1,
            max_size=4,
        ),
        load=_loads,
        sim_seed=st.integers(0, 2**31),
    )
    def test_random_gate_lists(self, intra_topology, lists, streams, load, sim_seed):
        """Hand-made gate lists that open several classes at once, or
        never open one, with streams of any class, best effort's too."""
        _, (flow,) = _admitted(intra_topology)
        req = flow.requirement
        flows = [
            replace(
                flow,
                requirement=replace(
                    req,
                    stream_id=f"s{n}",
                    frame=replace(req.frame, pcp=pcp),
                    traffic=replace(req.traffic, max_frame_bytes=size, frames_per_period=frames),
                ),
                window_starts_ns=(offset, *flow.window_starts_ns[1:]),
            )
            for n, (pcp, size, frames, offset) in enumerate(streams)
        ]
        gcls = {
            port: GateControlList(
                port,
                1000 * sum(interval for _, interval in entries),
                tuple(GclEntry(mask, 1000 * interval) for mask, interval in entries),
            )
            for port, entries in zip(("A.p0", "B1.p1"), lists)
        }
        _same_as_reference(intra_topology, gcls, flows, SimConfig(duration_cycles=2, bg_load=load, seed=sim_seed))

    @pytest.mark.parametrize(
        "entries, cycles",
        [
            # class 0 opens for 10,000 ns, shorter than one 12,336 ns frame
            (((0x01, 10_000), (0xFE, 240_000)), 3),
            # one best-effort frame per cycle leaves, 20 arrive: the queue fills
            (((0x01, 12_336), (0xFE, 237_664)), 6),
        ],
        ids=["class-0 run too short", "background queue full"],
    )
    def test_background_drops(self, intra_topology, entries, cycles):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        cfg = SimConfig(duration_cycles=cycles, bg_load=1.0)
        open_port = _same_as_reference(intra_topology, gcls, flows, cfg)
        gcls["C.p0"] = GateControlList("C.p0", 250_000, tuple(GclEntry(*e) for e in entries))
        closed_port = _same_as_reference(intra_topology, gcls, flows, cfg)
        assert closed_port["be_dropped"] > open_port["be_dropped"]

    def test_closed_scheduled_class(self, intra_topology):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        gcls["A.p0"] = GateControlList("A.p0", 250_000, (GclEntry(0x7F, 250_000),))
        doc = _same_as_reference(intra_topology, gcls, flows, SimConfig(bg_load=1.0))
        assert doc["streams"]["s1"]["dropped_frames"] == 3

    @pytest.mark.parametrize(
        "ports, message",
        [
            (("A.p0", "C.p0"), "flow s1: hop 1 egresses C.p0, frame arrived at B1"),
            (("A.p0", "B1.p0"), "flow s1: path ends at A, listener is at C"),
        ],
    )
    def test_path_mismatch(self, intra_topology, ports, message):
        """The same error from `verify_ns` as from the event loop without
        a plan: no run replays such a flow, though its planned departures
        would hold at load 0. `verify_ns` gets an apart list on each port
        of the path, since it refuses a flow-carrying port without one."""
        state, (flow,) = _admitted(intra_topology)
        bad = replace(flow, ports=ports)
        for run in (reference.simulate, simulate):
            with pytest.raises(ValidationError) as caught:
                run(intra_topology, {}, [bad], SimConfig(bg_load=1.0))
            assert str(caught.value) == message
        assert not verifier._Plan(intra_topology, {}, [bad], 3).replay(SimReport(), SimConfig())
        hops = zip(ports, bad.window_starts_ns)
        schedule = StreamSchedule("s1", tuple(HopReservation(p, t, t + 4160, 7, "s1", t) for p, t in hops), 10_320)
        instance = SimpleNamespace(status="active", stream_schedules=lambda: [(bad.requirement, [("d1", schedule)])])
        apart = synthesize_gcls(state)["A.p0"].to_doc()
        docs = {port: dict(apart, port_id=port) for port in ports}
        with pytest.raises(ValidationError) as caught:
            verify_ns(instance, intra_topology, docs, SimConfig(bg_load=1.0))
        assert str(caught.value) == message


class TestGapDraw:
    """A port's background gaps are the numbers the per-arrival
    `randrange` drew, and leave the generator in the same state."""

    @staticmethod
    def _check(base: int, seed: int, draws: int = 40) -> None:
        rng, twin = random.Random(seed), random.Random(seed)
        gaps = verifier._gaps(rng, base)
        for _ in range(draws):
            jitter = twin.randrange(-(base // 8), base // 8 + 1) if base >= 8 else 0
            assert next(gaps) == max(1, base + jitter), base
        assert rng.getstate() == twin.getstate(), base

    def test_small_bases(self):
        # below 8 nothing is drawn; above, every width up to 65
        for base in range(1, 264):
            self._check(base, seed=base)

    @given(base=st.integers(1, 10**6), seed=st.integers(0, 2**32))
    @example(base=10**6, seed=0)
    @example(base=12_336, seed=1)
    def test_any_base(self, base, seed):
        self._check(base, seed)


class _CountingHeapq:
    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


def test_heap_pushes_per_frame_stay_bounded(intra_topology, monkeypatch):
    """Each port keeps at most one pending transmit event, so the event
    count grows with the frames sent, not with how long queues stay full."""
    state, flows = _admitted(intra_topology, count=2)
    counter = _CountingHeapq()
    monkeypatch.setattr(verifier, "heapq", counter)
    report = simulate(intra_topology, synthesize_gcls(state), flows, SimConfig(bg_load=1.0))
    frames = report.be_sent + sum(s.observed_frame_count for s in report.streams.values())
    assert report.be_sent > 0
    assert counter.pushes <= 4 * frames


# A well-formed list at 1 Gb/s: a guard split by the cycle boundary, one
# class-7 window and the others' time.
_GOOD_ENTRIES = [(0x00, 6000), (0x80, 4160), (0x7F, 233_504), (0x00, 6336)]


def _with_entry(doc: dict, index: int, **changes) -> dict:
    doc["entries"][index].update(changes)
    return doc


# Documents the typed model refuses and the check once passed, or raised
# on: each edit of a good list, with the violations it now gets.
_REFUSED = {
    "zero cycle, no entries": (
        lambda doc: {**doc, "cycle_ns": 0, "entries": []},
        [{"kind": "bad_cycle", "cycle_ns": 0}, {"kind": "no_entries"}],
    ),
    "9-bit mask": (
        lambda doc: _with_entry(doc, 1, gate_states=256),
        [{"kind": "bad_gate_states", "entry": 1, "gate_states": 256}],
    ),
    "negative mask": (
        lambda doc: _with_entry(doc, 0, gate_states=-1),
        [{"kind": "bad_gate_states", "entry": 0, "gate_states": -1}],
    ),
    "no port_id": (
        lambda doc: {key: value for key, value in doc.items() if key != "port_id"},
        [{"kind": "bad_entry", "key": "port_id"}],
    ),
    "unknown key": (lambda doc: {**doc, "base_time": 0}, [{"kind": "bad_entry", "key": "base_time"}]),
    "unknown entry key": (
        lambda doc: _with_entry(doc, 2, gate=0x7F),
        [{"kind": "bad_entry", "key": "entries[2].gate"}],
    ),
    "string base time": (lambda doc: {**doc, "base_time_ns": "0"}, [{"kind": "bad_entry", "key": "base_time_ns"}]),
    "not an object": (
        lambda doc: list(doc.items()),
        [{"kind": "bad_entry", "key": key} for key in ("port_id", "cycle_ns", "entries")],
    ),
}


@st.composite
def _gate_list_docs(draw) -> dict:
    """Gate control list documents at 4 Tb/s, where a guard needs 4 ns:
    mostly well formed (one-gate windows, the others' time, best effort
    alone, guards), the rest with one flaw: an interval of 0, a cycle
    that misses the sum, no entry, a mask no typed list holds, or a key
    the typed model refuses; or with a `base_time_ns` it allows."""
    kinds = draw(st.lists(st.sampled_from([0x02, 0x40, 0x80, "others", 0x01, 0x00]), min_size=1, max_size=6))
    owned = sum({kind for kind in kinds if kind not in ("others", 0x01, 0x00)})
    masks = [0xFF & ~owned if kind == "others" else kind for kind in kinds]
    doc = _gcl_doc([(mask, draw(st.integers(4 if mask == 0 else 1, 12))) for mask in masks])
    flaw = draw(st.sampled_from([None] * 8 + ["interval", "cycle", "empty", 0x100, -1, 0xFE, "keys"]))
    entry = doc["entries"][draw(st.integers(0, len(kinds) - 1))]
    if flaw == "interval":
        doc["cycle_ns"] -= entry["interval_ns"]
        entry["interval_ns"] = 0
    elif flaw == "cycle":
        doc["cycle_ns"] += draw(st.sampled_from([1, -1]))
    elif flaw == "empty":
        doc.update(cycle_ns=0, entries=[])
    elif flaw == "keys":
        doc.update(draw(st.sampled_from([{"base_time_ns": True}, {"port_id": 1}, {"x": 0}, {"base_time_ns": 5}])))
    elif flaw is not None:
        entry["gate_states"] = flaw
    return doc


class TestWellformedness:
    def _good(self, intra_topology):
        state, _ = _admitted(intra_topology)
        return synthesize_gcls(state)

    def test_synthesized_lists_are_clean(self, intra_topology):
        for gcl in self._good(intra_topology).values():
            assert check_gcl_wellformed(gcl, GBPS) == []

    def test_zero_length_entry(self):
        doc = {
            "port_id": "X.p0",
            "cycle_ns": 1000,
            "entries": [
                {"gate_states": 0x80, "interval_ns": 0},
                {"gate_states": 0x7F, "interval_ns": 1000},
            ],
        }
        kinds = [v["kind"] for v in check_gcl_wellformed(doc, GBPS)]
        assert "zero_length" in kinds

    def test_sum_mismatch(self):
        doc = {
            "port_id": "X.p0",
            "cycle_ns": 250_000,
            "entries": [{"gate_states": 0xFF, "interval_ns": 200_000}],
        }
        found = check_gcl_wellformed(doc, GBPS)
        assert found == [{"kind": "sum_mismatch", "sum_ns": 200_000, "cycle_ns": 250_000}]

    def test_window_must_open_exactly_one_gate(self):
        doc = {
            "port_id": "X.p0",
            "cycle_ns": 250_000,
            "entries": [
                {"gate_states": 0x80, "interval_ns": 4160},
                {"gate_states": 0xC0, "interval_ns": 233_504},  # should be 0x7F
                {"gate_states": 0x00, "interval_ns": 12_336},
            ],
        }
        found = check_gcl_wellformed(doc, GBPS)
        assert found == [{"kind": "bad_window_gates", "entry": 1, "gate_states": 0xC0}]

    def test_missing_or_non_integer_values(self):
        doc = {
            "port_id": "X.p0",
            "cycle_ns": "250000",
            "entries": [
                {"interval_ns": 4160},
                {"gate_states": True, "interval_ns": 233_504},
                {"gate_states": 0x00, "interval_ns": 12_336.0},
                [0x7F, 4160],
            ],
        }
        found = check_gcl_wellformed(doc, GBPS)
        assert [v["key"] for v in found] == [
            "cycle_ns",
            "entries[0].gate_states",
            "entries[1].gate_states",
            "entries[2].interval_ns",
            "entries[3].gate_states",
            "entries[3].interval_ns",
        ]
        assert {v["kind"] for v in found} == {"bad_entry"}
        assert check_gcl_wellformed({"cycle_ns": 10}, GBPS) == [
            {"kind": "bad_entry", "key": "port_id"},
            {"kind": "bad_entry", "key": "entries"},
        ]

    def test_short_guard(self, intra_topology):
        gcl = self._good(intra_topology)["B1.p1"].to_doc()
        # steal time from the guard, give it to the others window
        for entry in gcl["entries"]:
            if entry["gate_states"] == 0:
                entry["interval_ns"] -= 3000
                break
        for entry in gcl["entries"]:
            if entry["gate_states"] == 0x7F:
                entry["interval_ns"] += 3000
                break
        found = check_gcl_wellformed(gcl, GBPS)
        assert [v["kind"] for v in found] == ["guard_too_short"]
        assert found[0]["need_ns"] == 12_336

    def test_short_closed_run_after_a_window(self):
        """A closed run shorter than a guard is fine right after a window,
        where best effort is already off the wire, and not after the
        best-effort time."""
        entries = [(0x00, 12_336), (0x80, 4160), (0x00, 1000), (0x80, 4160), (0x7F, 228_344)]
        doc = {
            "port_id": "X.p0",
            "cycle_ns": 250_000,
            "entries": [{"gate_states": g, "interval_ns": i} for g, i in entries],
        }
        assert check_gcl_wellformed(doc, GBPS) == []
        entries[2:2] = [(0x7F, 1000)]
        entries[-1] = (0x7F, 227_344)
        doc["entries"] = [{"gate_states": g, "interval_ns": i} for g, i in entries]
        assert [v["kind"] for v in check_gcl_wellformed(doc, GBPS)] == ["guard_too_short"]

    def test_guard_split_by_cycle_boundary_counts_once(self):
        doc = {
            "port_id": "X.p0",
            "cycle_ns": 250_000,
            "entries": [
                {"gate_states": 0x00, "interval_ns": 6000},
                {"gate_states": 0x80, "interval_ns": 4160},
                {"gate_states": 0x7F, "interval_ns": 233_504},
                {"gate_states": 0x00, "interval_ns": 6336},
            ],
        }
        assert check_gcl_wellformed(doc, GBPS) == []

    @pytest.mark.parametrize("edit, violations", _REFUSED.values(), ids=_REFUSED.keys())
    def test_refuses_what_the_typed_model_refuses(self, edit, violations):
        """Each document is refused by `GateControlList.from_doc` too, so
        a document the check passes can lay a port's gates."""
        doc = edit(_gcl_doc(_GOOD_ENTRIES, "A.p0"))
        assert check_gcl_wellformed(doc, GBPS) == violations
        with pytest.raises((ParseError, ValidationError)):
            GateControlList.from_doc(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=_gate_list_docs())
    def test_a_passed_document_lays_the_gates(self, doc):
        """Every document the check passes at 4 Tb/s (a guard of 4 ns)
        decodes to a typed list, and the gates laid from it answer as a
        scan of every nanosecond does."""
        assume(check_gcl_wellformed(doc, 4_000_000_000_000) == [])
        GateControlList.from_doc(doc)
        entries = [(e["gate_states"], e["interval_ns"]) for e in doc["entries"]]
        gates = _Gates(doc)
        for cls in range(8):
            for t in range(2 * gates.cycle):
                span, longest = _brute_span(entries, cls, t)
                assert gates.span(cls, t) == span, (cls, t)
                assert gates.max_run(cls) == longest, cls


class TestVerifyNs:
    def test_passes_on_clean_instance(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        result = verify_ns(instance, ws.topology, ws.gcl_docs, SimConfig(bg_load=1.0))
        assert result.passed
        assert set(result.reports) == {"bg0", "bg1"}
        worst = result.reports["bg1"].streams["vl1~fwd"].observed_worst_latency_ns
        assert worst == 10_320

    def test_intermediate_load_adds_a_run(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        result = verify_ns(instance, ws.topology, ws.gcl_docs, SimConfig(bg_load=0.5))
        assert set(result.reports) == {"bg0", "bg0.5", "bg1"}
        assert result.passed

    def test_corrupted_gcl_fails_before_simulation(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        docs = {p: dict(d, entries=[dict(e) for e in d["entries"]]) for p, d in ws.gcl_docs.items()}
        docs["B1.p1"]["entries"][0]["interval_ns"] -= 2000  # breaks the sum
        result = verify_ns(instance, ws.topology, docs, SimConfig())
        assert not result.passed
        assert "B1.p1" in result.gcl_violations
        assert result.reports == {}

    def test_lays_the_gates_from_the_documents(self, monkeypatch):
        """No typed gate control list is decoded on the way."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        docs = ws.gcl_docs
        decoded = classmethod(lambda *args: pytest.fail("a list was decoded"))
        monkeypatch.setattr(GateControlList, "from_doc", decoded)
        result = verify_ns(instance, ws.topology, docs, SimConfig(bg_load=0.5))
        assert result.passed and set(result.reports) == {"bg0", "bg0.5", "bg1"}

    @pytest.mark.parametrize("edit", [edit for edit, _ in _REFUSED.values()], ids=_REFUSED.keys())
    def test_a_list_the_typed_model_refuses_is_reported(self, edit):
        """`verify_ns` lays the gates from the documents the check
        passes, so it must report, not raise on, every document the
        typed model refuses."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        docs = ws.gcl_docs
        docs["A.p0"] = edit(docs["A.p0"])
        result = verify_ns(instance, ws.topology, docs, SimConfig(bg_load=1.0))
        assert not result.passed and result.reports == {}
        assert result.gcl_violations == {"A.p0": check_gcl_wellformed(docs["A.p0"], GBPS)}
        assert result.gcl_violations["A.p0"]

    @pytest.mark.parametrize(
        "masks, violations",
        [
            ({0x80: 0x40, 0x7F: 0xBF}, [{"kind": "coupled_port", "entry": 1, "classes": [7]}]),
            (None, [{"kind": "coupled_port", "classes": [7]}]),
        ],
        ids=["window handed to class 6", "no gate list"],
    )
    def test_coupled_port_fails_before_simulation(self, masks, violations):
        """vl1~fwd (class 7) leaves on A.p0. With its window handed to
        class 6, the still well-formed list opens class 7 only in the
        others-open entry, together with best effort; with no list, every
        gate is always open."""
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        docs = {p: dict(d, entries=[dict(e) for e in d["entries"]]) for p, d in ws.gcl_docs.items()}
        if masks is None:
            del docs["A.p0"]
        else:
            for entry in docs["A.p0"]["entries"]:
                entry["gate_states"] = masks.get(entry["gate_states"], entry["gate_states"])
            assert check_gcl_wellformed(docs["A.p0"], GBPS) == []
        result = verify_ns(instance, ws.topology, docs, SimConfig(bg_load=1.0))
        assert not result.passed
        assert result.gcl_violations == {"A.p0": violations}
        assert result.reports == {}

    def test_rejects_inactive_instance(self):
        ws = sc.build_workspace(sc.intra_pop_topology())
        instance = sc.instantiate(ws, sc.demo_nsd(), sc.demo_placement())
        ws.terminate(instance.instance_id)
        with pytest.raises(ValidationError):
            verify_ns(
                ws.cuc.instance(instance.instance_id),
                ws.topology,
                ws.gcl_docs,
                SimConfig(),
            )


def _two_talkers(speed: int = GBPS) -> Topology:
    """Hosts A1 and A2 on bridge B1, which forwards both to host C; every
    link at one speed, with no propagation or processing delay."""
    return load_topology(
        json.dumps(
            {
                "nodes": [
                    sc.host("A1", "d1"),
                    sc.host("A2", "d1"),
                    sc.bridge("B1", "d1", proc_ns=0),
                    sc.host("C", "d1"),
                ],
                "links": [
                    sc.link("l1", "A1", "p0", "B1", "p0", speed=speed, prop=0),
                    sc.link("l2", "A2", "p0", "B1", "p1", speed=speed, prop=0),
                    sc.link("l3", "B1", "p2", "C", "p0", speed=speed, prop=0),
                ],
                "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
            }
        )
    )


@functools.lru_cache(maxsize=None)
def _direct(speed: int = 4_000_000_000_000) -> Topology:
    """Host A1 linked straight to host C, at 4 Tb/s unless `speed` says
    otherwise, with no propagation delay."""
    return load_topology(
        json.dumps(
            {
                "nodes": [sc.host("A1", "d1"), sc.host("C", "d1")],
                "links": [sc.link("l1", "A1", "p0", "C", "p0", speed=speed, prop=0)],
                "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
            }
        )
    )


def _flow(sid: str, talker: str, ports, pcp: int, starts, size: int = 500, period: int = 250_000, frames: int = 1):
    req = StreamRequirement(
        stream_id=sid,
        talker=EndpointRef(f"st-{talker}", "eth0", talker),
        listener=EndpointRef("st-C", "eth0", "C"),
        frame=DataFrameSpec("02:00:00:00:01:01", "02:00:00:00:02:01", 100, pcp),
        traffic=TrafficSpec(period, size, frames, 2_000_000),
    )
    return verifier.ScheduledFlow(req, tuple(ports), tuple(starts))


_fast_entries = st.lists(
    st.tuples(st.sampled_from([0x7F, 0x00, 0x80, 0x20, 0xFF, 0x01]), st.integers(1, 40)), min_size=1, max_size=6
)
_fast_streams = st.lists(
    st.tuples(st.sampled_from(["A1", "A2"]), st.sampled_from([5, 7]), st.integers(0, 99)), min_size=1, max_size=4
)


def _fast_network(entries, streams) -> tuple:
    """(topology, gate lists, flows) on `_two_talkers` at 4 Tb/s, with the
    list `entries` on every port that a flow crosses. Each stream, (talker,
    class, offset), sends twice in a run of 200 ns, as two flows of one
    full-size frame each, so that the window starts its frames take in the
    quiet run are a plan."""
    topology = _two_talkers(speed=4_000_000_000_000)
    gcl = GateControlList("x", sum(i for _, i in entries), tuple(GclEntry(m, i) for m, i in entries))
    gcls = {port: replace(gcl, port_id=port) for port in ("A1.p0", "A2.p0", "B1.p2")}
    flows = [
        _flow(f"s{n}-{k}", talker, (f"{talker}.p0", "B1.p2"), pcp, (offset + 100 * k, 0), size=1522, period=200)
        for n, (talker, pcp, offset) in enumerate(streams)
        for k in range(2)
    ]
    sent = []
    reference.simulate(topology, gcls, flows, SimConfig(duration_cycles=1), sent)
    starts = {(i, hop): t for i, _, hop, t in sent}
    flows = [
        replace(flow, window_starts_ns=(starts[i, 0], starts[i, 1]))
        for i, flow in enumerate(flows)
        if (i, 1) in starts  # else no open run of its class carries it
    ]
    return topology, gcls, flows


def _docs(gcls: dict) -> dict[str, dict]:
    """The documents of typed gate control lists, the form `verify_ns`
    gets them in and builds its plan from."""
    return {port: gcl.to_doc() for port, gcl in gcls.items()}


def _paths(topology, gcls, flows, cfg) -> tuple[bool, bool]:
    """Whether the quiet run and `cfg`'s run replay on one plan of
    `flows`, as `verify_ns` builds it. Checks each run's report, through
    `simulate` with the plan and through the replay where there is one,
    against the reference simulator's."""
    plan = verifier._Plan(topology, _docs(gcls), flows, cfg.duration_cycles)
    paths = []
    for run_cfg in (replace(cfg, bg_load=0.0), cfg):
        expected = reference.simulate(topology, gcls, flows, run_cfg).to_doc()
        assert simulate(topology, gcls, flows, run_cfg, plan).to_doc() == expected
        report = SimReport(duration_ns=expected["duration_ns"])
        paths.append(plan.replay(report, run_cfg))
        if paths[-1]:
            assert report.to_doc() == expected
    return paths[0], paths[1]


def _loaded_paths(monkeypatch, topology, gcls, flows, cfg) -> dict[str, tuple]:
    """How a replay of `cfg`'s run took each port that background load
    reaches, with what the port counted: "counted" by the best-effort
    recurrence, or "fell back" from it to the event loop. A run that
    takes the event loop before any count (a coupled port) has none."""
    taken = {}
    best_effort = verifier._best_effort

    def counted(port, bg_times):
        counts = best_effort(port, bg_times)
        taken[port.key] = ("fell back" if counts is None else "counted", counts)
        return counts

    monkeypatch.setattr(verifier, "_best_effort", counted)
    verifier._Plan(topology, _docs(gcls), flows, cfg.duration_cycles).replay(SimReport(), cfg)
    return taken


def _scanned_best_effort(entries, wire: int, bg_times: list[int]) -> tuple[int, int] | None:
    """Best effort alone on a port, nanosecond by nanosecond: (frames
    sent, dropped), or None where a background arrival lands on a
    best-effort start while `BG_QUEUE_CAP` frames wait, the starting one
    included, since there the order of the two decides a drop. Each
    accepted frame starts at the first nanosecond, at or after its
    arrival and the last frame's end, from which class 0 stays open for
    its whole wire time, and is sent."""
    open_ns = [bool(mask & 1) for mask, interval in entries for _ in range(interval)] if entries else [True]
    cycle = len(open_ns)
    holds = [all(open_ns[(u + k) % cycle] for k in range(wire)) for u in range(cycle)]
    starts: list[int] = []
    for t in bg_times if any(holds) else ():
        waiting = [s for s in starts if s >= t]
        if len(waiting) == verifier.BG_QUEUE_CAP:
            if waiting[0] == t:
                return None
            continue
        s = max(t, starts[-1] + wire) if starts else t
        while not holds[s % cycle]:
            s += 1
        starts.append(s)
    return len(starts), len(bg_times) - len(starts)


class TestBestEffortRecurrence:
    """On an apart port, best effort is a FIFO queue with one service
    time, and `_best_effort` counts it by recurrence. It must count what
    a scan of every nanosecond counts, and give up exactly where the
    scan finds an arrival that ties a start with the queue at the cap."""

    @settings(max_examples=120, deadline=None)
    @given(
        speed=st.sampled_from([4_000_000_000_000, 1_000_000_000_000, 400_000_000_000]),
        entries=st.none()
        | st.lists(
            st.tuples(st.sampled_from([0x00, 0x01, 0x80, 0x81, 0xFE, 0xFF]), st.integers(1, 120)),
            min_size=1,
            max_size=6,
        ),
        load=st.sampled_from([1.0, 0.5]) | st.floats(0.2, 1.0),
        seed=st.integers(0, 2**31),
        arrivals=st.integers(1, 400),
    )
    # the queue fills while class 0 is shut, and the first start at its
    # opening, 500, ties an arrival that goes second: 4 ns frames every
    # 4 ns from 4, and the run ends before later drops even the count
    @example(
        speed=4_000_000_000_000, entries=[(0x80, 100), (0x00, 400), (0x01, 500)], load=1.0, seed=5, arrivals=130
    )
    def test_recurrence_is_the_replay(self, speed, entries, load, seed, arrivals):
        """Wire times of 4, 13 and 31 ns, open runs of class 0 shorter
        than a frame or none, and gaps under 8 ns (no jitter, so arrivals
        tie starts) at high loads."""
        gcl = None if entries is None else _gcl_doc(entries, "A1.p0")
        port = verifier._Port("A1.p0", _direct(speed), _Gates(gcl))
        base = max(1, round(port.be_wire / load))
        rng = random.Random(seed)
        first = rng.randrange(0, base + 1)
        times = list(itertools.accumulate(itertools.islice(verifier._gaps(rng, base), arrivals - 1), initial=first))
        assert verifier._best_effort(port, times) == _scanned_best_effort(entries, port.be_wire, times)

    @pytest.mark.parametrize(
        "entries, seed, paths, path",
        [
            (((0x81, 100), (0x00, 400), (0x01, 500)), 0, (True, False), None),
            (None, 0, (True, False), None),
            (((0x80, 100), (0x00, 898), (0x01, 2)), 0, (True, True), "counted"),
            (((0x80, 100), (0x00, 400), (0x01, 500)), 1, (True, False), "fell back"),
        ],
        ids=["class 0 opens with class 7", "no gate list", "class 0 never fits a frame", "a tie at the cap"],
    )
    def test_how_a_loaded_run_takes_a_port(self, monkeypatch, entries, seed, paths, path):
        """A1.p0 carries a class-7 frame in [10, 14) and sends best effort
        in 4 ns frames, whose background arrives every 4 ns. Where class 0
        can be open with class 7, the port is coupled and the loaded run
        takes the event loop before any port is counted; else the
        recurrence counts it, drops every arrival when no class-0 run
        holds a frame, and falls back to the event loop where an arrival
        ties the first start at 500, with the queue full since about 256.
        C.p0 carries no flow, so it is always apart."""
        topology = _direct()
        gcls = {} if entries is None else {"A1.p0": GateControlList("A1.p0", 1000, tuple(GclEntry(*e) for e in entries))}
        flows = [_flow("s1", "A1", ("A1.p0",), 7, (10,), size=1522, period=1000)]
        cfg = SimConfig(duration_cycles=1, bg_load=1.0, seed=seed)
        assert _paths(topology, gcls, flows, cfg) == paths
        taken = _loaded_paths(monkeypatch, topology, gcls, flows, cfg)
        if path is None:
            assert taken == {}
            return
        assert taken["A1.p0"][0] == path
        if path == "counted":
            assert taken["A1.p0"][1] == (0, 250)
        if paths[1]:
            assert taken["C.p0"] == ("counted", (250, 0))


class TestPerPortReplay:
    """`verify_ns` replays each run port by port against the plan that the
    window starts fix, and runs the full event loop only where the two
    could differ. Either way its reports are the reference simulator's;
    `_Plan.replay` tells which path a run took."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 59).filter(lambda seed: _scenario_instance(seed) is not None),
        load=_loads,
        sim_seed=st.integers(0, 2**31),
        cycles=st.integers(1, 3),
    )
    # on a full queue, a background arrival as a best-effort frame ends
    @example(seed=1024, load=1.0, sim_seed=7, cycles=3)
    def test_verify_reports_are_the_references(self, seed, load, sim_seed, cycles):
        _, docs, instance = _scenario_instance(seed)
        topology, gcls, flows = _scenario_run(seed)
        cfg = SimConfig(duration_cycles=cycles, bg_load=load, seed=sim_seed)
        try:
            reference.simulate(topology, gcls, flows, cfg)
        except OverflowError:
            with pytest.raises(SimConfigError):
                verify_ns(instance, topology, docs, cfg)
            return
        result = verify_ns(instance, topology, docs, cfg)
        assert set(result.reports) == {f"bg{run:g}" for run in (0.0, 1.0, load)}
        for name, report in result.reports.items():
            run_cfg = replace(cfg, bg_load=float(name[2:]))
            assert report.to_doc() == reference.simulate(topology, gcls, flows, run_cfg).to_doc()

    @settings(max_examples=60, deadline=None)
    @given(entries=_fast_entries, streams=_fast_streams, load=st.sampled_from([1.0, 0.5]), sim_seed=st.integers(0, 2**31))
    def test_exact_ties_on_fast_links(self, entries, streams, load, sim_seed):
        """At 4 Tb/s a full-size frame takes 4 ns and background gaps have
        no jitter, and every port has the same gate list, so events of a
        port tie on time, and on pusher time, all the time (see
        `_fast_network`)."""
        _paths(*_fast_network(entries, streams), SimConfig(duration_cycles=1, bg_load=load, seed=sim_seed))

    @settings(max_examples=60, deadline=None)
    @given(entries=_fast_entries, streams=_fast_streams, sim_seed=st.integers(0, 2**31))
    def test_apart_ports_depart_alike_at_every_load(self, entries, streams, sim_seed):
        """Where every port is apart, best effort never delays a
        scheduled frame, whatever the order of ties: the reference
        simulator's scheduled departures and stream records at loads 0.5
        and 1 are those at load 0. So `verify_ns` judges every load by
        the quiet run's latencies. Left out are networks whose plan is
        not fixed: there two same-class frames reach a port at one time,
        pushed at one time, and their FIFO order is the order in which
        their ports' transmits ran, which background events can change."""
        topology, gcls, flows = _fast_network(entries, streams)
        plan = verifier._Plan(topology, _docs(gcls), flows, 1)
        assume(not plan.coupled and plan.arrivals is not None)
        runs = []
        for load in (0.0, 0.5, 1.0):
            sent = []
            report = reference.simulate(topology, gcls, flows, SimConfig(1, load, sim_seed), sent)
            runs.append((sorted(sent), report.to_doc()["streams"]))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize(
        "entries, frames, load, offset, seed",
        [
            (None, 2, 0.6, 102, 0),
            (((0x80, 100), (0x81, 100)), 1, 0.6, 120, 0),
            (None, 64, 1.0, 100, 1),
        ],
        ids=["queued scheduled frame", "arrival as the wire frees up", "background arrival as the wire frees up"],
    )
    def test_best_effort_sharing_the_wire(self, entries, frames, load, offset, seed):
        """At 4 Tb/s a full-size frame takes 4 ns on A1.p0, where class 7
        and best effort are open together (always, without a gate list),
        so the port is coupled and the loaded run takes the event loop,
        whose report is the reference simulator's. In each case
        the next transmit is not the next best-effort frame: (1) two
        class-7 frames arrive at an idle wire and a background frame
        while the first is sent, and the second goes next; (2) best
        effort, held back over [0, 100), goes back to back from 100, and
        a class-7 frame arriving as one ends goes next; (3) a burst of 64
        class-7 frames keeps the wire while a background frame arrives
        per frame sent, so best effort's queue is full after it, and the
        background arrival that ties the burst's end goes first and is
        dropped."""
        topology = _direct()
        gcls = {} if entries is None else {"A1.p0": GateControlList("A1.p0", 200, tuple(GclEntry(*e) for e in entries))}
        flows = [_flow("s1", "A1", ("A1.p0",), 7, (offset,), size=1522, period=1000, frames=frames)]
        assert _paths(topology, gcls, flows, SimConfig(duration_cycles=1, bg_load=load, seed=seed)) == (True, False)

    def test_background_that_delays_a_scheduled_frame_falls_back(self, intra_topology):
        """With class 0 open through the guard and the window, a
        best-effort frame still on the wire when the scheduled frame
        arrives delays it off plan."""
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        doc = gcls["B1.p1"].to_doc()
        for entry in doc["entries"]:
            if entry["gate_states"] in (0x00, 0x80):
                entry["gate_states"] |= 0x01
        gcls["B1.p1"] = GateControlList.from_doc(doc)
        assert _paths(intra_topology, gcls, flows, SimConfig(bg_load=1.0)) == (True, False)
        quiet = simulate(intra_topology, gcls, flows, SimConfig()).streams["s1"]
        loaded = simulate(intra_topology, gcls, flows, SimConfig(bg_load=1.0)).streams["s1"]
        assert loaded.observed_worst_latency_ns > quiet.observed_worst_latency_ns

    @pytest.mark.parametrize("shift, paths", [(0, (False, False)), (1, (True, False))], ids=["tied", "1 ns later"])
    def test_an_arrival_that_ties_a_transmit(self, shift, paths):
        """Every link sends a 500-byte frame in 4160 ns, with no
        propagation or forwarding delay. B1.p2 starts s1's frame at 4160,
        so it wakes at 8320, pushed at 4160; s2's frame leaves A2 at 4160
        and reaches B1.p2 at 8320, pushed at 4160 too. Which of the two
        goes first is the order in which the two ports' transmits at 4160
        ran, which no port sees, so no run replays. A frame 1 ns later
        ties nothing, and only the loaded run, on ports without gate
        lists, takes the event loop."""
        flows = [
            _flow("s1", "A1", ("A1.p0", "B1.p2"), 7, (0, 4160)),
            _flow("s2", "A2", ("A2.p0", "B1.p2"), 5, (4160 + shift, 8320 + shift)),
        ]
        assert _paths(_two_talkers(), {}, flows, SimConfig(bg_load=1.0)) == paths

    @pytest.mark.parametrize(
        "classes, paths", [((7, 7), (False, False)), ((7, 5), (True, True))], ids=["same class", "different classes"]
    )
    def test_arrivals_that_tie_on_time_and_pusher_time(self, classes, paths):
        """Two talkers send at the same time, so both frames reach B1.p2
        at one time, each pushed by a transmit at one time on another
        port. Their FIFO order is the order the two talkers' transmits
        ran in, which no port sees, so no run replays; frames of two
        classes go to two queues, so their order does not matter. Guards
        and windows for classes 7 and 5 keep best effort out of the way."""
        topology = _two_talkers()
        flows = [
            _flow("s1", "A1", ("A1.p0", "B1.p2"), classes[0], (20_000, 24_160)),
            _flow("s2", "A2", ("A2.p0", "B1.p2"), classes[1], (20_000, 28_320)),
        ]

        def windowed(port, start, length):
            entries = ((0x5F, start - 12_336), (0x00, 12_336), (0xA0, length), (0x5F, 250_000 - start - length))
            return GateControlList(port, 250_000, tuple(GclEntry(*e) for e in entries))

        gcls = {
            "A1.p0": windowed("A1.p0", 20_000, 4160),
            "A2.p0": windowed("A2.p0", 20_000, 4160),
            "B1.p2": windowed("B1.p2", 24_160, 2 * 4160),
        }
        assert _paths(topology, gcls, flows, SimConfig(bg_load=1.0)) == paths

    @pytest.mark.parametrize("load, delays", [(1.0, 1), (0.02, 0)])
    def test_ports_without_gate_lists(self, intra_topology, load, delays):
        """Nothing holds best effort back, so under full load it delays
        the scheduled frames; under light load none is in the way. Either
        way the ports are coupled, so the loaded run takes the event loop."""
        _, flows = _admitted(intra_topology, count=2)
        cfg = SimConfig(bg_load=load, seed=3)
        assert _paths(intra_topology, {}, flows, cfg) == (True, False)
        quiet = simulate(intra_topology, {}, flows, replace(cfg, bg_load=0.0)).streams
        loaded = simulate(intra_topology, {}, flows, cfg).streams
        late = [sid for sid in quiet if loaded[sid].observed_worst_latency_ns > quiet[sid].observed_worst_latency_ns]
        assert late == (["s1", "s2"] if delays else [])

    def test_full_background_queue_drops(self, intra_topology):
        """C.p0 carries no stream; its class-0 gate lets one best-effort
        frame out per cycle while about twenty arrive."""
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        gcls["C.p0"] = GateControlList("C.p0", 250_000, (GclEntry(0x01, 12_336), GclEntry(0xFE, 237_664)))
        cfg = SimConfig(duration_cycles=6, bg_load=1.0)
        assert _paths(intra_topology, gcls, flows, cfg) == (True, True)
        plan = verifier._Plan(intra_topology, _docs(gcls), flows, cfg.duration_cycles)
        assert simulate(intra_topology, gcls, flows, cfg, plan).be_dropped > 0

    @pytest.mark.parametrize(
        "pcp, size",
        [(0, 500), (7, 1522)],
        ids=["class 0 shares best effort's queue", "frame longer than its window"],
    )
    def test_flows_the_plan_cannot_fix(self, intra_topology, pcp, size):
        state, (flow,) = _admitted(intra_topology)
        req = flow.requirement
        req = replace(req, frame=replace(req.frame, pcp=pcp), traffic=replace(req.traffic, max_frame_bytes=size))
        flows = [replace(flow, requirement=req)]
        assert _paths(intra_topology, synthesize_gcls(state), flows, SimConfig(bg_load=1.0)) == (False, False)

    def test_overflowing_load_is_refused_as_before(self, intra_topology):
        state, flows = _admitted(intra_topology)
        gcls = synthesize_gcls(state)
        cfg = SimConfig(bg_load=1e-320)
        with pytest.raises(SimConfigError) as direct:
            simulate(intra_topology, gcls, flows, cfg)
        plan = verifier._Plan(intra_topology, _docs(gcls), flows, cfg.duration_cycles)
        with pytest.raises(SimConfigError) as replayed:
            simulate(intra_topology, gcls, flows, cfg, plan)
        assert str(replayed.value) == str(direct.value)
        assert str(direct.value).startswith("bg_load 1e-320 is too small: the gap between background frames on ")
