from __future__ import annotations

import json

import pytest

import scenarios as sc
from tsnfv.descriptors import (
    derive_streams,
    parse_nsd,
    parse_placement,
    validate_capabilities,
)
from tsnfv.errors import (
    CapabilityError,
    ParseError,
    UnplacedMemberError,
    ValidationError,
)
from tsnfv.model import CapabilitySet


def _nsd(doc):
    return parse_nsd(json.dumps(doc))


def _placement(doc):
    return parse_placement(json.dumps(doc))


class TestNsdParsing:
    def test_demo_parses(self):
        nsd = _nsd(sc.demo_nsd())
        assert nsd.ns_id == "demo"
        assert nsd.member_ids == ["vnfA", "vnfC"]
        assert [vl.vl_id for vl in nsd.virtual_links if vl.tsn is not None] == ["vl1"]

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_nsd("{broken")

    def test_rejects_unknown_keys(self):
        doc = sc.demo_nsd()
        doc["vendor"] = "acme"
        with pytest.raises(ParseError):
            _nsd(doc)

    def test_rejects_dangling_vl_endpoint(self):
        doc = sc.demo_nsd()
        doc["virtual_links"][0]["endpoints"][1]["member_id"] = "ghost"
        with pytest.raises(ValidationError):
            _nsd(doc)

    def test_rejects_unknown_cp(self):
        doc = sc.demo_nsd()
        doc["virtual_links"][0]["endpoints"][0]["cp_id"] = "cp9"
        with pytest.raises(ValidationError):
            _nsd(doc)

    def test_rejects_duplicate_members(self):
        doc = sc.nsd(
            "x",
            [sc.vnf("m1"), sc.vnf("m1")],
            [],
        )
        with pytest.raises(ValidationError):
            _nsd(doc)

    def test_rejects_best_effort_pcp(self):
        doc = sc.demo_nsd()
        doc["virtual_links"][0]["tsn"]["pcp"] = 0
        with pytest.raises(ValidationError):
            _nsd(doc)

    def test_pnf_members(self):
        doc = sc.nsd(
            "mixed",
            [sc.vnf("m1")],
            [sc.vl("vl1", "m1", "cam1", 100, 5, sc.traffic())],
            pnfs=[sc.pnf("cam1")],
        )
        nsd = _nsd(doc)
        assert [p.pnf_id for p in nsd.pnfs] == ["cam1"]
        assert nsd.member_capabilities("cam1").qbv_shaping

    def test_round_trip(self):
        nsd = _nsd(sc.demo_nsd())
        assert _nsd(nsd.to_doc()).to_doc() == nsd.to_doc()


class TestPlacementParsing:
    def test_demo(self):
        placement = _placement(sc.demo_placement())
        entry = placement["vnfA"]
        assert entry.node_id == "A"
        assert entry.mac == "02:00:00:00:00:01"

    def test_mac_lower_cased(self):
        doc = sc.demo_placement()
        doc["vnfA"]["mac"] = "02:00:00:00:00:AA"
        assert _placement(doc)["vnfA"].mac == "02:00:00:00:00:aa"

    def test_rejects_bad_mac(self):
        doc = sc.demo_placement()
        doc["vnfA"]["mac"] = "not-a-mac"
        with pytest.raises(ValidationError):
            _placement(doc)

    def test_rejects_extra_keys(self):
        doc = sc.demo_placement()
        doc["vnfA"]["rack"] = 7
        with pytest.raises(ParseError):
            _placement(doc)


class TestStreamDerivation:
    def test_two_streams_per_vl_with_swapped_endpoints(self):
        nsd = _nsd(sc.demo_nsd())
        placement = _placement(sc.demo_placement())
        streams = derive_streams(nsd, placement)
        assert [s.stream_id for s in streams] == ["vl1~fwd", "vl1~rev"]
        fwd, rev = streams
        assert fwd.talker.node_id == "A" and fwd.listener.node_id == "C"
        assert rev.talker.node_id == "C" and rev.listener.node_id == "A"
        # MACs swap with direction
        assert fwd.frame.src_mac == rev.frame.dst_mac
        assert fwd.frame.dst_mac == rev.frame.src_mac
        assert fwd.frame.vlan_id == rev.frame.vlan_id == 100
        assert fwd.frame.pcp == rev.frame.pcp == 7

    def test_macs_differing_only_in_case_clash(self):
        doc = sc.demo_placement()
        doc["vnfA"]["mac"] = "02:00:00:00:00:AA"
        doc["vnfC"]["mac"] = "02:00:00:00:00:aa"
        with pytest.raises(ValidationError, match="src_mac and dst_mac must differ"):
            derive_streams(_nsd(sc.demo_nsd()), _placement(doc))

    def test_directions_carry_their_own_traffic(self):
        doc = sc.nsd(
            "asym",
            [sc.vnf("m1"), sc.vnf("m2")],
            [
                sc.vl(
                    "vl1",
                    "m1",
                    "m2",
                    100,
                    6,
                    fwd=sc.traffic(frames=3),
                    rev=sc.traffic(frames=1),
                )
            ],
        )
        placement = _placement(sc.placement({"m1": "A", "m2": "C"}))
        fwd, rev = derive_streams(_nsd(doc), placement)
        assert fwd.traffic.frames_per_period == 3
        assert rev.traffic.frames_per_period == 1

    def test_non_tsn_vls_are_skipped(self):
        doc = sc.nsd(
            "plain",
            [sc.vnf("m1"), sc.vnf("m2")],
            [
                {
                    "vl_id": "mgmt",
                    "endpoints": [
                        {"member_id": "m1", "cp_id": "cp0"},
                        {"member_id": "m2", "cp_id": "cp0"},
                    ],
                    "tsn": None,
                }
            ],
        )
        placement = _placement(sc.placement({"m1": "A", "m2": "C"}))
        assert derive_streams(_nsd(doc), placement) == []

    def test_unplaced_member(self):
        nsd = _nsd(sc.demo_nsd())
        placement = _placement(sc.placement({"vnfA": "A"}))
        with pytest.raises(UnplacedMemberError):
            derive_streams(nsd, placement)


class TestCapabilityValidation:
    def test_requires_sync_and_shaping(self):
        nsd = _nsd(sc.demo_nsd())
        placement = _placement(sc.demo_placement())
        stream = derive_streams(nsd, placement)[0]
        full = CapabilitySet(time_sync=True, qbv_shaping=True)
        validate_capabilities(stream, full, full)
        with pytest.raises(CapabilityError) as info:
            validate_capabilities(stream, full, CapabilitySet(time_sync=True))
        assert info.value.missing == "qbv_shaping"
        assert "listener" in info.value.subject
