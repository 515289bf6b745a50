from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsnfv.errors import HyperperiodOverflowError, ValidationError
from tsnfv.model import (
    CapabilitySet,
    DataFrameSpec,
    GateControlList,
    GclEntry,
    HopReservation,
    StreamSchedule,
    TrafficSpec,
    burst_occupancy,
    check_identifier,
    check_mac,
    check_stream_id,
    hyperperiod,
    port_key,
    wire_occupancy,
)

GBPS = 1_000_000_000
MBPS100 = 100_000_000


class TestWireTimes:
    def test_known_values(self):
        # (500 + 20) * 8 = 4160 bits -> 4160 ns at 1 Gb/s
        assert wire_occupancy(500, GBPS) == 4160
        # full frame: (1522 + 20) * 8 = 12336
        assert wire_occupancy(1522, GBPS) == 12336
        # min frame at 100 Mb/s: 672 bits * 10 ns/bit
        assert wire_occupancy(64, MBPS100) == 6720

    def test_rounds_up(self):
        # 672 bits / 2.5 Gb/s = 268.8 ns
        assert wire_occupancy(64, 2_500_000_000) == 269

    def test_rejects_runt_and_bad_speed(self):
        with pytest.raises(ValidationError):
            wire_occupancy(63, GBPS)
        with pytest.raises(ValidationError):
            wire_occupancy(64, 0)

    def test_burst(self):
        one = TrafficSpec(250_000, 500, 1, 2_000_000)
        three = TrafficSpec(250_000, 500, 3, 2_000_000)
        full = TrafficSpec(250_000, 1522, 2, 2_000_000)
        assert burst_occupancy(one, GBPS) == 4160
        assert burst_occupancy(three, GBPS) == 12480
        assert burst_occupancy(full, GBPS) == 24672

    @given(
        frame=st.integers(min_value=64, max_value=1522),
        speed=st.integers(min_value=1_000_000, max_value=10 * GBPS),
    )
    def test_ceiling_property(self, frame, speed):
        # smallest integer n with n * speed >= bits * 1e9
        n = wire_occupancy(frame, speed)
        bits = (frame + 20) * 8
        assert n * speed >= bits * GBPS
        assert (n - 1) * speed < bits * GBPS


class TestHyperperiod:
    def test_lcm(self):
        assert hyperperiod([250_000, 500_000]) == 500_000
        assert hyperperiod([400_000, 600_000]) == 1_200_000
        assert hyperperiod([250_000]) == 250_000

    def test_overflow(self):
        with pytest.raises(HyperperiodOverflowError):
            hyperperiod([333_333, 1_000_000])

    def test_empty_and_nonpositive(self):
        with pytest.raises(ValidationError):
            hyperperiod([])
        with pytest.raises(ValidationError):
            hyperperiod([250_000, 0])


class TestIdentifiers:
    def test_port_key(self):
        assert port_key("B1", "p1") == "B1.p1"

    def test_identifier_charset(self):
        assert check_identifier("B1-rear_2", "x") == "B1-rear_2"
        for bad in ("", "a.b", "a b", "a~b", 7):
            with pytest.raises(ValidationError):
                check_identifier(bad, "x")

    def test_stream_id_allows_direction_suffix(self):
        assert check_stream_id("vl1~fwd") == "vl1~fwd"
        with pytest.raises(ValidationError):
            check_stream_id("vl1 fwd")

    def test_mac_normalized(self):
        assert check_mac("02:00:00:00:00:AB", "m") == "02:00:00:00:00:ab"
        with pytest.raises(ValidationError):
            check_mac("02:00:00:00:00", "m")


class TestSpecs:
    def test_traffic_validation(self):
        with pytest.raises(ValidationError):
            TrafficSpec(0, 500, 1, 1000)
        with pytest.raises(ValidationError):
            TrafficSpec(250_000, 1523, 1, 1000)
        with pytest.raises(ValidationError):
            TrafficSpec(250_000, 500, 0, 1000)
        with pytest.raises(ValidationError):
            TrafficSpec(250_000, 500, 1, 0)

    def test_frame_spec_validation(self):
        ok = DataFrameSpec("02:00:00:00:00:01", "02:00:00:00:00:02", 100, 7)
        assert ok.pcp == 7
        with pytest.raises(ValidationError):
            DataFrameSpec("02:00:00:00:00:01", "02:00:00:00:00:01", 100, 7)
        with pytest.raises(ValidationError):
            DataFrameSpec("02:00:00:00:00:01", "02:00:00:00:00:02", 0, 7)
        with pytest.raises(ValidationError):
            DataFrameSpec("02:00:00:00:00:01", "02:00:00:00:00:02", 100, 8)

    def test_frame_spec_macs_lower_cased(self):
        frame = DataFrameSpec("02:00:00:00:00:AB", "02:00:00:00:00:Cd", 100, 7)
        assert (frame.src_mac, frame.dst_mac) == ("02:00:00:00:00:ab", "02:00:00:00:00:cd")
        with pytest.raises(ValidationError, match="src_mac and dst_mac must differ"):
            DataFrameSpec("02:00:00:00:00:AA", "02:00:00:00:00:aa", 100, 7)

    def test_round_trips(self):
        spec = TrafficSpec(250_000, 500, 2, 2_000_000)
        assert TrafficSpec.from_doc(spec.to_doc()) == spec
        frame = DataFrameSpec(
            "02:00:00:00:00:01", "02:00:00:00:00:02", 100, 7, src_ip="10.0.0.1"
        )
        assert DataFrameSpec.from_doc(frame.to_doc()) == frame


class TestGcl:
    def test_sum_must_match_cycle(self):
        entries = (GclEntry(0x80, 100_000), GclEntry(0x7F, 100_000))
        GateControlList("B1.p1", 200_000, entries)
        with pytest.raises(ValidationError):
            GateControlList("B1.p1", 250_000, entries)

    def test_needs_entries(self):
        with pytest.raises(ValidationError):
            GateControlList("B1.p1", 200_000, ())

    def test_entry_validation(self):
        with pytest.raises(ValidationError):
            GclEntry(0x100, 1000)
        with pytest.raises(ValidationError):
            GclEntry(0x80, 0)

    def test_round_trip(self):
        gcl = GateControlList("B1.p1", 200_000, (GclEntry(0xFF, 200_000),))
        assert GateControlList.from_doc(gcl.to_doc()) == gcl


class TestReservations:
    def test_window_ordering(self):
        with pytest.raises(ValidationError):
            HopReservation("B1.p1", 5000, 5000, 7, "s1", 0)
        # frames must be queued no later than the gate opens
        with pytest.raises(ValidationError):
            HopReservation("B1.p1", 5000, 9000, 7, "s1", 6000)

    def test_length(self):
        r = HopReservation("B1.p1", 5660, 9820, 7, "s1", 5660)
        assert r.length_ns == 4160

    def test_schedule_round_trip(self):
        r = HopReservation("A.p0", 0, 4160, 7, "s1", 0)
        sched = StreamSchedule("s1", (r,), 10_320, entry_offset_ns=0)
        assert sched.exit_offset_ns == 10_320
        assert StreamSchedule.from_doc(sched.to_doc()) == sched

    def test_schedule_needs_reservations(self):
        with pytest.raises(ValidationError):
            StreamSchedule("s1", (), 10_320)


def test_capability_set_rejects_unknown_flags():
    CapabilitySet.from_doc({"time_sync": True})
    with pytest.raises(ValidationError):
        CapabilitySet.from_doc({"time_sync": True, "warp_drive": True})
