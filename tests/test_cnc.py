from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference
import scenarios as sc
from tsnfv import cnc
from tsnfv.cnc import (
    CncState,
    admit_stream,
    remove_stream,
    synthesize_gcls,
)
from tsnfv.errors import (
    CapabilityError,
    GclOverflowError,
    InfeasibleError,
    TsnNfvError,
    UnknownStreamError,
    ValidationError,
)
from tsnfv.model import (
    MAX_FRAME_BYTES,
    DataFrameSpec,
    EndpointRef,
    StreamRequirement,
    TrafficSpec,
    wire_occupancy,
)
from tsnfv.topology import Hop, PathSegment, load_topology, shortest_path, split_by_domain
from tsnfv.verifier import check_gcl_wellformed

BUDGET = 2_000_000


def _req(sid, talker, listener, *, pcp=7, period=250_000, frame=500, frames=1, mac_seed=1):
    return StreamRequirement(
        stream_id=sid,
        talker=EndpointRef(f"st-{talker}", "eth0", talker),
        listener=EndpointRef(f"st-{listener}", "eth0", listener),
        frame=DataFrameSpec(
            f"02:00:00:00:01:{mac_seed:02x}",
            f"02:00:00:00:02:{mac_seed:02x}",
            100,
            pcp,
        ),
        traffic=TrafficSpec(period, frame, frames, BUDGET),
    )


def _segment(topology, src, dst):
    return split_by_domain(shortest_path(topology, src, dst), topology)[0]


def _state(topology, domain="d1"):
    return CncState(domain_id=domain, topology=topology)


# one-hop segment on B1's C-facing port, used to pin entry offsets directly
B1_EGRESS = PathSegment("d1", (Hop("B1", "p1", "l2", "C"),))


class TestAdmission:
    def test_first_stream_reference_numbers(self, intra_topology):
        state = _state(intra_topology)
        schedule = admit_stream(state, _req("s1", "A", "C"), _segment(intra_topology, "A", "C"), BUDGET)
        assert [
            (r.port_id, r.window_start_ns, r.window_end_ns, r.queue_from_ns)
            for r in schedule.reservations
        ] == [("A.p0", 0, 4160, 0), ("B1.p1", 5660, 9820, 5660)]
        assert schedule.e2e_latency_ns == 10_320
        assert schedule.exit_offset_ns == 10_320
        assert state.hyperperiod_ns == 250_000

    def test_second_stream_packs_behind_first(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        schedule = admit_stream(state, _req("s2", "A", "C", mac_seed=2), seg, BUDGET)
        assert [
            (r.window_start_ns, r.window_end_ns) for r in schedule.reservations
        ] == [(4160, 8320), (9820, 13_980)]
        assert schedule.e2e_latency_ns == 14_480

    def test_budget_exhaustion(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        admit_stream(state, _req("s2", "A", "C", mac_seed=2), seg, BUDGET)
        with pytest.raises(InfeasibleError) as info:
            admit_stream(state, _req("s3", "A", "C", mac_seed=3), seg, 10_000)
        assert info.value.cause == "exceeds_budget"
        assert "18640" in info.value.detail

    def test_failed_admission_leaves_state_untouched(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        before = state.snapshot()
        with pytest.raises(InfeasibleError):
            admit_stream(state, _req("s2", "A", "C", mac_seed=2), seg, 1)
        assert state.snapshot() == before

    def test_failed_capacity_check_leaves_state_untouched(self, intra_topology, monkeypatch):
        # a gate entry check that fails for a reason other than an overflow
        # must not leave the admission behind, even one that re-lays every
        # port
        state = _state(intra_topology)
        seg = _segment(intra_topology, "C", "A")
        for n in range(3):
            admit_stream(state, _req(f"s{n}", "C", "A", pcp=1, period=100_000, frame=64), seg, BUDGET)
        remove_stream(state, "s1")
        before = state.snapshot()

        def broken(state, ports=None):
            raise ValidationError("entry count went negative")

        monkeypatch.setattr(cnc, "check_gcl_capacity", broken)
        with pytest.raises(ValidationError, match="entry count went negative"):
            admit_stream(state, _req("s3", "A", "C", period=125_000), _segment(intra_topology, "A", "C"), BUDGET)
        assert state.snapshot() == before

    def test_mixed_periods_expand_to_hyperperiod(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        slow = admit_stream(
            state, _req("s2", "A", "C", period=500_000, mac_seed=2), seg, BUDGET
        )
        # the 500 us stream fits right behind instance 0 of the 250 us one
        assert slow.reservations[0].window_start_ns == 4160
        assert state.hyperperiod_ns == 500_000

    def test_duplicate_stream_rejected(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        with pytest.raises(ValidationError):
            admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)

    def test_class_zero_rejected(self, intra_topology):
        state = _state(intra_topology)
        req = StreamRequirement(
            stream_id="s0",
            talker=EndpointRef("st-A", "eth0", "A"),
            listener=EndpointRef("st-C", "eth0", "C"),
            frame=DataFrameSpec("02:00:00:00:01:01", "02:00:00:00:02:01", 100, 0),
            traffic=TrafficSpec(250_000, 500, 1, BUDGET),
        )
        with pytest.raises(ValidationError):
            admit_stream(state, req, _segment(intra_topology, "A", "C"), BUDGET)

    def test_segment_leaving_a_port_twice_rejected(self, intra_topology):
        state = _state(intra_topology)
        segment = PathSegment("d1", B1_EGRESS.hops * 2)
        with pytest.raises(ValidationError):
            admit_stream(state, _req("s1", "A", "C"), segment, BUDGET)
        assert state.snapshot() == _state(intra_topology).snapshot()

    def test_bridge_without_gate_support(self):
        topo = load_topology(json.dumps(sc.cross_pop_topology(b3_qbv=False)))
        state = _state(topo, "d2")
        segment = split_by_domain(shortest_path(topo, "HA", "HB"), topo)[2]
        with pytest.raises(CapabilityError) as info:
            admit_stream(state, _req("s1", "HA", "HB"), segment, BUDGET)
        assert info.value.subject == "bridge B3"
        assert info.value.missing == "qbv_shaping"


class TestSpacingLimits:
    def test_burst_exceeds_period(self, intra_topology):
        state = _state(intra_topology)
        with pytest.raises(InfeasibleError) as info:
            admit_stream(
                state,
                _req("s1", "A", "C", frames=61),  # 61 * 4160 > 250000
                _segment(intra_topology, "A", "C"),
                BUDGET,
            )
        assert info.value.cause == "no_free_window"
        assert "exceeds period" in info.value.detail

    def test_self_gap_smaller_than_guard(self, intra_topology):
        state = _state(intra_topology)
        with pytest.raises(InfeasibleError) as info:
            admit_stream(
                state,
                # 20 * 12336 = 246720 leaves a 3280 ns gap to the stream's
                # own next instance, less than one guard
                _req("s1", "A", "C", frame=1522, frames=20),
                _segment(intra_topology, "A", "C"),
                BUDGET,
            )
        assert info.value.cause == "no_free_window"
        assert "guard" in info.value.detail

    def test_exact_period_fill_is_allowed(self, intra_topology):
        state = _state(intra_topology)
        schedule = admit_stream(
            state,
            _req("s1", "A", "C", period=208_000, frames=50),  # 50 * 4160 == period
            _segment(intra_topology, "A", "C"),
            BUDGET,
        )
        first = schedule.reservations[0]
        assert first.length_ns == 208_000


class TestQueueOrder:
    def test_simultaneous_enqueue_rejected(self, intra_topology):
        # both streams' first frames hit B1's egress FIFO at the same
        # instant, so no window order can be proven consistent
        state = _state(intra_topology)
        admit_stream(state, _req("x", "A", "C"), B1_EGRESS, BUDGET)
        with pytest.raises(InfeasibleError) as info:
            admit_stream(
                state,
                _req("y", "A", "C", frames=3, mac_seed=2),
                B1_EGRESS,
                BUDGET,
                entry_offset_ns=5000,
                entry_stride_ns=4160,  # first frame leads by 2 strides: queues at 1000 like x
            )
        assert info.value.cause == "no_free_window"
        assert "queue order" in info.value.detail

    def test_earlier_enqueue_cannot_jump_later_window(self):
        # zero processing delay so entry offsets map straight onto queue
        # times: y enqueues before x but its window would have to follow
        # x's, which a FIFO cannot deliver
        doc = sc.intra_pop_topology()
        doc["nodes"][1]["processing_delay_ns"] = 0
        topo = load_topology(json.dumps(doc))
        state = _state(topo)
        admit_stream(state, _req("x", "A", "C"), B1_EGRESS, BUDGET, entry_offset_ns=500)
        with pytest.raises(InfeasibleError) as info:
            admit_stream(state, _req("y", "A", "C", mac_seed=2), B1_EGRESS, BUDGET)
        assert "queue order" in info.value.detail

    def test_distinct_classes_share_port_freely(self, intra_topology):
        state = _state(intra_topology)
        admit_stream(state, _req("x", "A", "C"), B1_EGRESS, BUDGET)
        schedule = admit_stream(
            state,
            _req("y", "A", "C", pcp=5, frames=3, mac_seed=2),
            B1_EGRESS,
            BUDGET,
            entry_offset_ns=5000,
            entry_stride_ns=4160,
        )
        # same instant in the class-5 queue is fine; class-7 FIFO unaffected
        assert schedule.reservations[0].traffic_class == 5


class TestRemoval:
    def test_remove_and_readmit_is_deterministic(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        admit_stream(state, _req("s2", "A", "C", mac_seed=2), seg, BUDGET)
        remove_stream(state, "s2")
        assert "s2" not in state.admitted
        again = admit_stream(state, _req("s3", "A", "C", mac_seed=3), seg, BUDGET)
        assert again.reservations[0].window_start_ns == 4160

    def test_hyperperiod_shrinks(self, intra_topology):
        state = _state(intra_topology)
        seg = _segment(intra_topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        admit_stream(state, _req("s2", "A", "C", period=500_000, mac_seed=2), seg, BUDGET)
        assert state.hyperperiod_ns == 500_000
        remove_stream(state, "s2")
        assert state.hyperperiod_ns == 250_000
        remove_stream(state, "s1")
        assert state.hyperperiod_ns == 0

    def test_unknown_stream(self, intra_topology):
        with pytest.raises(UnknownStreamError):
            remove_stream(_state(intra_topology), "ghost")

    def test_gap_below_a_guard_stays_closed(self, intra_topology):
        """Removing the middle of three packed windows leaves a 672 ns gap,
        shorter than a guard: it stays closed whole, and the list is
        well-formed."""
        state = _state(intra_topology)
        seg = _segment(intra_topology, "C", "A")
        for n in range(3):
            admit_stream(state, _req(f"s{n}", "C", "A", pcp=1, period=100_000, frame=64), seg, BUDGET)
        remove_stream(state, "s1")
        gcl = synthesize_gcls(state)["C.p0"]
        assert [(e.gate_states, e.interval_ns) for e in gcl.entries] == [
            (2, 672), (0, 672), (2, 672), (253, 85_648), (0, 12_336)
        ]
        assert check_gcl_wellformed(gcl, sc.GBPS) == []

    @pytest.mark.xfail(
        strict=True,
        raises=GclOverflowError,
        reason="ROADMAP item 3: a removal can open a gap that needs more "
        "gate entries than the bridge has",
    )
    def test_removal_keeps_the_gate_list_within_the_bridge(self):
        """Three touching windows of classes 7, 6 and 5 fill B1.p1's six
        entries. Removing the middle one frees a gap longer than a guard,
        which becomes an others-open run plus a guard: seven entries."""
        doc = sc.intra_pop_topology()
        doc["nodes"][1]["gcl_max_entries"] = 6
        topo = load_topology(json.dumps(doc))
        state = _state(topo)
        windows = [
            admit_stream(
                state,
                _req(sid, "A", "C", pcp=pcp, frame=frame, frames=frames, mac_seed=pcp),
                B1_EGRESS,
                BUDGET,
            ).reservations[0]
            for sid, pcp, frame, frames in [
                ("s1", 7, 500, 1), ("s2", 6, 1522, 3), ("s3", 5, 500, 1)
            ]
        ]
        assert [(r.window_start_ns, r.window_end_ns) for r in windows] == [
            (1000, 5160), (5160, 42_168), (42_168, 46_328)
        ]
        assert len(synthesize_gcls(state)["B1.p1"].entries) == 6
        remove_stream(state, "s2")
        for gcl in synthesize_gcls(state).values():
            assert len(gcl.entries) <= 6
            assert check_gcl_wellformed(gcl, sc.GBPS) == []


@st.composite
def _cycle_layouts(draw):
    """A guard and a wire-disjoint window layout on a cycle of at most
    400 ns: the cycle is cut into runs, each free or one class's window,
    then turned by an offset. Touching windows, gaps shorter than a guard,
    a window across the cycle start and fully tiled cycles all occur."""
    cycle = draw(st.integers(min_value=2, max_value=400))
    guard = draw(st.integers(min_value=1, max_value=60))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=cycle - 1), max_size=12)))
    bounds = [0, *cuts, cycle]
    classes = st.integers(min_value=0, max_value=7)
    owners = [draw(classes)] + draw(
        st.lists(
            classes if draw(st.booleans()) else st.one_of(st.none(), classes),
            min_size=len(cuts),
            max_size=len(cuts),
        )
    )
    offset = draw(st.integers(min_value=0, max_value=cycle - 1))
    windows = [
        cnc._Window(
            start=(offset + s) % cycle,
            length=e - s,
            traffic_class=c,
            stream_id=f"s{i}",
            queue_at=0,
            queue_len=0,
        )
        for i, (s, e, c) in enumerate(zip(bounds, bounds[1:], owners))
        if c is not None
    ]
    windows.sort(key=lambda w: (w.start, w.stream_id))
    return windows, guard, cycle


def _laid(windows, cycle, guard) -> cnc._Layout:
    """A layout of exactly the given windows, in (start, stream id) order,
    on the cycle."""
    layout = cnc._Layout(guard)
    layout._lay(list(windows), cycle)
    return layout


def _gate_masks_by_rule(windows, guard, cycle):
    """The gate mask of every ns of the cycle, read from the rules: a
    window's own class inside it; all closed within min(guard, gap) before
    the next window; elsewhere every class owning no window on the port."""
    owner = [None] * cycle
    others = 0xFF
    for w in windows:
        others &= ~(1 << w.traffic_class)
        for t in range(w.start, w.end):
            owner[t % cycle] = w.traffic_class
    masks = []
    for t in range(cycle):
        if owner[t] is not None:
            masks.append(1 << owner[t])
            continue
        ahead = next(k for k in range(1, cycle + 1) if owner[(t + k) % cycle] is not None)
        behind = next(k for k in range(1, cycle + 1) if owner[(t - k) % cycle] is not None)
        gap = ahead + behind - 1
        masks.append(0 if ahead <= min(guard, gap) else others)
    return masks


def _layout(cycle, guard, *runs):
    """A guard and a layout of (start, length, class) windows on the cycle,
    in the form _cycle_layouts draws."""
    windows = [cnc._Window(s, n, c, f"s{i}", queue_at=0, queue_len=0) for i, (s, n, c) in enumerate(runs)]
    return sorted(windows, key=lambda w: (w.start, w.stream_id)), guard, cycle


# The places where the walk is cut at the cycle start: inside a window
# that wraps past the cycle end into a touching window 0 of its class;
# inside one window filling the cycle from 30; inside the guard before a
# first window at 4 < guard; and exactly where that guard begins, before
# a first window at guard. Both guards follow a gap longer than a guard.
_WRAPS_INTO_WINDOW_0 = _layout(100, 10, (20, 30, 3), (80, 40, 3))
_FILLS_THE_CYCLE = _layout(100, 10, (30, 100, 5))
_GUARD_ACROSS_THE_START = _layout(100, 10, (4, 20, 2), (40, 30, 6))
_GUARD_FROM_THE_START = _layout(100, 10, (10, 20, 2), (40, 30, 6))


class _Draws:
    """Stands in for st.data() in an explicit example: the k-th draw of a
    run returns the k-th given value, and a run that has drawn them all
    starts again from the first."""

    def __init__(self, *values):
        self.values = values
        self.drawn = 0

    def draw(self, strategy):
        value = self.values[self.drawn % len(self.values)]
        self.drawn += 1
        return value


def _reinserted(layout, gone):
    """Draws for the kept-count test: the windows inserted last to first,
    then the stream ids to remove."""
    return _Draws(layout[0][::-1], gone)


class TestGclSynthesis:
    @settings(max_examples=300, deadline=None)
    @given(layout=_cycle_layouts())
    @example(layout=_WRAPS_INTO_WINDOW_0)
    @example(layout=_FILLS_THE_CYCLE)
    @example(layout=_GUARD_ACROSS_THE_START)
    @example(layout=_GUARD_FROM_THE_START)
    def test_entries_follow_the_rules_ns_by_ns(self, layout):
        windows, guard, cycle = layout
        entries = cnc._build_entries(windows, guard, cycle)
        assert all(e.interval_ns > 0 for e in entries)
        assert sum(e.interval_ns for e in entries) == cycle
        laid = [e.gate_states for e in entries for _ in range(e.interval_ns)]
        assert laid == _gate_masks_by_rule(windows, guard, cycle)

    @settings(max_examples=300, deadline=None)
    @given(layout=_cycle_layouts(), data=st.data())
    @example(layout=_WRAPS_INTO_WINDOW_0, data=_reinserted(_WRAPS_INTO_WINDOW_0, {"s0"}))
    @example(layout=_FILLS_THE_CYCLE, data=_reinserted(_FILLS_THE_CYCLE, {"s0"}))
    @example(layout=_GUARD_ACROSS_THE_START, data=_reinserted(_GUARD_ACROSS_THE_START, {"s1"}))
    @example(layout=_GUARD_FROM_THE_START, data=_reinserted(_GUARD_FROM_THE_START, {"s1"}))
    def test_kept_count_is_the_built_lists_length(self, layout, data):
        """A layout's entry count is the length of the list _build_entries
        lays from its windows: laid whole, taking its windows one insert
        at a time in any order, and laid again after removals."""
        windows, guard, cycle = layout

        def built(laid):
            return len(cnc._build_entries(laid, guard, cycle)) if laid else 0

        assert _laid(windows, cycle, guard).entries == built(windows)
        kept = _laid([], cycle, guard)
        for w in data.draw(st.permutations(windows)):
            kept.insert([w])
            assert kept.entries == built(kept.windows)
        gone = data.draw(st.sets(st.sampled_from([w.stream_id for w in windows])))
        left = [w for w in kept.windows if w.stream_id not in gone]
        assert _laid(left, cycle, guard).entries == built([w for w in windows if w.stream_id not in gone])

    def _two_streams(self, topology):
        state = _state(topology)
        seg = _segment(topology, "A", "C")
        admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
        admit_stream(state, _req("s2", "A", "C", mac_seed=2), seg, BUDGET)
        return state

    def test_talker_port_layout(self, intra_topology):
        gcls = synthesize_gcls(self._two_streams(intra_topology))
        a = gcls["A.p0"]
        assert a.cycle_ns == 250_000 and a.base_time_ns == 0
        # abutting windows merge; one guard precedes the span, wrapping
        assert [(e.gate_states, e.interval_ns) for e in a.entries] == [
            (0x80, 8320),
            (0x7F, 229_344),
            (0x00, 12_336),
        ]

    def test_bridge_port_layout(self, intra_topology):
        gcls = synthesize_gcls(self._two_streams(intra_topology))
        b = gcls["B1.p1"]
        assert [(e.gate_states, e.interval_ns) for e in b.entries] == [
            (0x00, 5660),
            (0x80, 8320),
            (0x7F, 229_344),
            (0x00, 6676),
        ]
        assert sum(e.interval_ns for e in b.entries) == 250_000

    def test_interior_window_guard(self, intra_topology):
        # a window in the middle of the cycle gets its guard carved out of
        # the preceding others-open time
        state = _state(intra_topology)
        admit_stream(state, _req("s1", "A", "C"), B1_EGRESS, BUDGET, entry_offset_ns=19_000)
        gcl = synthesize_gcls(state)["B1.p1"]
        assert [(e.gate_states, e.interval_ns) for e in gcl.entries] == [
            (0x7F, 7664),
            (0x00, 12_336),
            (0x80, 4160),
            (0x7F, 225_840),
        ]

    def test_degenerate_full_port(self, intra_topology):
        state = _state(intra_topology)
        admit_stream(
            state,
            _req("s1", "A", "C", period=208_000, frames=50),
            _segment(intra_topology, "A", "C"),
            BUDGET,
        )
        gcl = synthesize_gcls(state)["A.p0"]
        assert [(e.gate_states, e.interval_ns) for e in gcl.entries] == [(0x80, 208_000)]

    def test_entry_capacity_overflow(self, intra_topology):
        doc = sc.intra_pop_topology()
        doc["nodes"][1]["gcl_max_entries"] = 2
        topo = load_topology(json.dumps(doc))
        # admission refuses a stream whose bridge port would overflow
        state = _state(topo)
        with pytest.raises(InfeasibleError) as refused:
            admit_stream(state, _req("s1", "A", "C"), _segment(topo, "A", "C"), BUDGET)
        assert refused.value.cause == "no_free_window"
        assert refused.value.detail == "port B1.p1 needs 4 GCL entries, bridge supports 2"
        assert state.snapshot() == _state(topo).snapshot()
        assert synthesize_gcls(state) == {}
        # a loaded state that overflows cannot be synthesized
        roomy = _state(intra_topology)
        admit_stream(roomy, _req("s1", "A", "C"), _segment(intra_topology, "A", "C"), BUDGET)
        state = CncState.from_doc(roomy.snapshot(), topo)
        with pytest.raises(GclOverflowError) as info:
            synthesize_gcls(state)
        assert info.value.port_id == "B1.p1"
        assert (info.value.needed, info.value.limit) == (4, 2)

    def test_empty_state_has_no_gcls(self, intra_topology):
        assert synthesize_gcls(_state(intra_topology)) == {}


def test_state_snapshot_round_trip(intra_topology):
    state = CncState(domain_id="d1", topology=intra_topology)
    seg = _segment(intra_topology, "A", "C")
    admit_stream(state, _req("s1", "A", "C"), seg, BUDGET)
    admit_stream(state, _req("s2", "A", "C", period=500_000, mac_seed=2), seg, BUDGET)
    doc = state.snapshot()
    restored = CncState.from_doc(doc, intra_topology)
    assert restored.snapshot() == doc
    assert restored.hyperperiod_ns == 500_000


# one admit or remove step: ("admit", route, period, frame, frames, pcp,
# entry offset) or ("remove", which of the admitted streams)
_STEPS = st.one_of(
    st.tuples(
        st.just("admit"),
        st.sampled_from(["A>C", "C>A", "B1>C"]),
        st.sampled_from([100_000, 125_000, 250_000, 400_000]),
        st.integers(min_value=64, max_value=1522),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=60_000),
    ),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=15)),
)


def _outcome(synthesis):
    try:
        return synthesis()
    except TsnNfvError as exc:
        return type(exc), str(exc)


def _admission(topology, n, step):
    """The request, segment and entry offset of admit step n."""
    _, route, period, frame, frames, pcp, offset = step
    if route == "B1>C":
        talker, listener, segment = "A", "C", B1_EGRESS
    else:
        talker, listener = route.split(">")
        segment, offset = _segment(topology, talker, listener), 0
    req = _req(f"s{n}", talker, listener, pcp=pcp, period=period, frame=frame, frames=frames)
    return req, segment, offset


def _remove(state, step) -> None:
    if state.admitted:
        remove_stream(state, list(state.admitted)[step[1] % len(state.admitted)])


def _apply(state, topology, n, step) -> None:
    """Run one step; a refused admission must leave the state as it was."""
    if step[0] == "remove":
        _remove(state, step)
        return
    req, segment, offset = _admission(topology, n, step)
    before = state.snapshot()
    try:
        admit_stream(state, req, segment, BUDGET, entry_offset_ns=offset)
    except InfeasibleError:
        assert state.snapshot() == before


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_STEPS, min_size=1, max_size=14))
def test_incremental_gcls_match_a_cold_synthesis(intra_topology, steps):
    """After every admission (granted or refused) and every removal, the
    gate control lists the state builds from its kept layouts are the
    ones a state rebuilt from its snapshot synthesizes, whole or one port
    at a time.
    Where the cold synthesis fails, the warm one fails the same way."""
    state = _state(intra_topology)
    for n, step in enumerate(steps):
        _apply(state, intra_topology, n, step)
        cold = CncState.from_doc(state.snapshot(), intra_topology)
        ports = sorted({res.port_id for entry in state.admitted.values() for res in entry.schedule.reservations})
        partial = {p: _outcome(lambda p=p: synthesize_gcls(state, [p])) for p in reversed(ports)}
        assert partial == {p: _outcome(lambda p=p: synthesize_gcls(cold, [p])) for p in ports}
        full = _outcome(lambda: synthesize_gcls(state))
        assert full == _outcome(lambda: synthesize_gcls(cold))
        if isinstance(full, dict):
            assert list(full) == ports
            assert all(partial[p] == {p: full[p]} for p in ports)


def _built_length(state, port) -> int:
    """The length of the port's gate control list, built from a plain
    expansion of its reservations."""
    cycle = state.hyperperiod_ns
    guard = wire_occupancy(MAX_FRAME_BYTES, state.topology.link_at(port).speed_bps)
    return len(cnc._build_entries(reference.port_windows(state, port, cycle), guard, cycle))


def _limited_topology(limit):
    doc = sc.intra_pop_topology()
    doc["nodes"][1]["gcl_max_entries"] = limit
    return load_topology(json.dumps(doc))


@settings(deadline=None)
@given(steps=st.lists(_STEPS, min_size=1, max_size=14), limit=st.integers(min_value=2, max_value=8))
def test_entry_limit_is_checked_on_the_kept_counts(steps, limit):
    """Admissions and removals on B1 with a small gcl_max_entries, through
    stale layouts and changes of the hyperperiod, against a twin bridge
    without the limit. A stream is refused exactly when, admitted on the
    twin, it leaves a B1 port that admission checks (its own ports, or
    every port on a new cycle) needing more entries than the limit, by a
    built list; the refusal names the first such port. Every count that
    admission reads, and at the end every kept count, is the length of
    the list built from the port's reservations."""
    small, roomy = _limited_topology(limit), _limited_topology(1024)
    state, twin = _state(small), _state(roomy)
    for n, step in enumerate(steps):
        if step[0] == "remove":
            _remove(state, step)
            _remove(twin, step)
            continue
        req, segment, offset = _admission(small, n, step)
        settled = twin.hyperperiod_ns == cnc.hyperperiod([*twin.period_counts, req.traffic.period_ns])
        expected = _outcome(lambda: admit_stream(twin, req, segment, BUDGET, entry_offset_ns=offset))
        got = _outcome(lambda: admit_stream(state, req, segment, BUDGET, entry_offset_ns=offset))
        if isinstance(expected, tuple):
            assert got == expected
            continue
        checked = [res.port_id for res in expected.reservations] if settled else sorted(twin.ports)
        checked = [port for port in checked if port.startswith("B1.")]
        over = [(port, _built_length(twin, port)) for port in checked if _built_length(twin, port) > limit]
        if over:
            port, needed = over[0]
            detail = f"port {port} needs {needed} GCL entries, bridge supports {limit}"
            assert got == (InfeasibleError, str(InfeasibleError("no_free_window", detail)))
            remove_stream(twin, req.stream_id)
        else:
            assert got == expected
            for port in checked:
                assert state.layout(port).entries == _built_length(state, port), port
        assert state.snapshot() == twin.snapshot()
    for port in state.ports:
        assert state.layout(port).entries == _built_length(state, port), port


def _mixes_periods(steps) -> bool:
    return len({step[2] for step in steps if step[0] == "admit"}) > 1


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_STEPS, min_size=2, max_size=14).filter(_mixes_periods))
# a 400 us stream finds no window on B1.p1 on the new 2 ms cycle, after
# its layout was laid there; the next stream there reads the kept cycle
@example(steps=[
    ("admit", "B1>C", 250_000, 962, 3, 1, 2019),
    ("admit", "B1>C", 250_000, 1304, 1, 7, 17_065),
    ("admit", "A>C", 400_000, 418, 2, 2, 0),
    ("admit", "A>C", 250_000, 474, 2, 3, 0),
])
# a removal marks A.p0 and B1.p1 stale; the next admission there re-lays them
@example(steps=[
    ("admit", "A>C", 100_000, 500, 1, 7, 0),
    ("admit", "A>C", 400_000, 500, 1, 6, 0),
    ("admit", "A>C", 400_000, 800, 2, 5, 0),
    ("remove", 1),
    ("admit", "A>C", 400_000, 300, 1, 6, 0),
])
def test_kept_layouts_match_a_cold_build(intra_topology, steps):
    """The layouts a state keeps through admissions (granted, or refused
    on a new cycle) and removals, across changes of the hyperperiod, read
    after every step as the ones a state rebuilt from its snapshot lays;
    a port with no reservation keeps none."""
    state = _state(intra_topology)
    for n, step in enumerate(steps):
        _apply(state, intra_topology, n, step)
        cold = CncState.from_doc(state.snapshot(), intra_topology)
        assert cold.hyperperiod_ns == state.hyperperiod_ns
        assert set(cold.ports) == set(state.ports)
        for port in state.ports:
            layout = state.layout(port)
            assert _fields(layout) == _fields(cold.layout(port)), port
            assert layout.windows == reference.port_windows(state, port, state.hyperperiod_ns)


def _fields(layout: cnc._Layout) -> tuple:
    return (
        layout.cycle, layout.guard, layout.reservations, layout.windows, layout.starts,
        layout.by_class, layout.entries,
    )


@st.composite
def _port_and_candidate(draw):
    """A disjoint window layout with queue residencies on a cycle of at
    most 360 ns, and a candidate window against it. The cycle is cut into
    runs, each free or a class 5-7 window, then turned by an offset, so
    windows wrap across the cycle start, touch, leave gaps shorter than a
    guard and tile the whole cycle. Residencies start up to a cycle
    before their windows. Candidates start anywhere on two cycles, so
    their instances cross the cycle start too."""
    period = draw(st.integers(min_value=2, max_value=120))
    instances = draw(st.integers(min_value=1, max_value=3))
    cycle = period * instances
    guard = draw(st.integers(min_value=1, max_value=40))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=cycle - 1), max_size=10)))
    bounds = [0, *cuts, cycle]
    classes = st.integers(min_value=5, max_value=7)
    owners = draw(
        st.lists(
            classes if draw(st.booleans()) else st.one_of(st.none(), classes),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    offset = draw(st.integers(min_value=0, max_value=cycle - 1))
    windows = []
    for i, (s, e, c) in enumerate(zip(bounds, bounds[1:], owners)):
        if c is None:
            continue
        lead = draw(st.integers(min_value=0, max_value=cycle))
        start = (offset + s) % cycle
        windows.append(
            cnc._Window(
                start=start,
                length=e - s,
                traffic_class=c,
                stream_id=f"w{i}",
                queue_at=(start - lead) % cycle,
                queue_len=e - s + lead,
            )
        )
    windows.sort(key=lambda w: (w.start, w.stream_id))
    start = draw(st.integers(min_value=0, max_value=2 * cycle))
    queue_from = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=start)))
    candidate = dict(
        burst=draw(st.integers(min_value=1, max_value=period)),
        guard=guard,
        period=period,
        cycle=cycle,
        traffic_class=draw(classes),
        queue_from=queue_from,
    )
    return windows, start, candidate


class TestBisectingCheck:
    """The layout check against the full scan it replaced: the same
    advance, or the same error with the same message, on every input."""

    @settings(max_examples=300, deadline=None)
    @given(case=_port_and_candidate())
    def test_check_matches_the_full_scan(self, case):
        windows, start, c = case
        args = (
            start, c["burst"], c["guard"], c["period"], c["cycle"] // c["period"], c["cycle"],
            c["traffic_class"], c["queue_from"], "P",
        )
        layout = _laid(windows, c["cycle"], c["guard"])
        assert _outcome(lambda: cnc._check_candidate(layout, *args)) == _outcome(
            lambda: reference.check_candidate(windows, *args)
        )

    @settings(max_examples=200, deadline=None)
    @given(case=_port_and_candidate())
    def test_placement_matches_the_full_scan(self, case):
        windows, earliest, c = case
        layout = _laid(windows, c["cycle"], c["guard"])
        assert _outcome(lambda: cnc._place_window("P", layout, earliest, **c)) == _outcome(
            lambda: reference.place_window("P", windows, earliest, **c)
        )
