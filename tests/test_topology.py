from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import scenarios as sc
from tsnfv.errors import NoPathError, ParseError, TsnNfvError, ValidationError
from tsnfv.topology import load_topology, parse_topology, shortest_path, split_by_domain


class TestParsing:
    def test_round_trip(self, cross_topology):
        again = parse_topology(cross_topology.to_doc())
        assert again.to_doc() == cross_topology.to_doc()

    def test_rejects_non_json(self):
        with pytest.raises(ParseError):
            load_topology("{nope")

    def test_rejects_unknown_keys(self):
        doc = sc.intra_pop_topology()
        doc["color"] = "blue"
        with pytest.raises(ParseError):
            parse_topology(doc)

    def test_rejects_unknown_node_kind(self):
        doc = sc.intra_pop_topology()
        doc["nodes"][0]["kind"] = "router"
        with pytest.raises(ParseError):
            parse_topology(doc)

    def test_bridge_fields_required(self):
        doc = sc.intra_pop_topology()
        del doc["nodes"][1]["gcl_max_entries"]
        with pytest.raises(ParseError):
            parse_topology(doc)

    def test_host_must_not_carry_bridge_fields(self):
        doc = sc.intra_pop_topology()
        doc["nodes"][0]["gcl_max_entries"] = 8
        with pytest.raises(ParseError):
            parse_topology(doc)

    def test_gcl_capacity_floor(self):
        doc = sc.intra_pop_topology()
        doc["nodes"][1]["gcl_max_entries"] = 1
        with pytest.raises(ValidationError):
            parse_topology(doc)

    def test_duplicate_port_use(self):
        doc = sc.intra_pop_topology()
        doc["links"].append(sc.link("l3", "A", "p0", "C", "p1"))
        with pytest.raises(ValidationError):
            parse_topology(doc)

    def test_duplicate_controller(self):
        doc = sc.cross_pop_topology()
        doc["domains"]["d2"]["controller_id"] = "cnc-1"
        with pytest.raises(ValidationError):
            parse_topology(doc)

    def test_rejects_unknown_domain_kind(self):
        doc = sc.intra_pop_topology()
        doc["domains"]["d1"]["kind"] = "metro_ring"
        with pytest.raises(ValidationError, match="unknown kind 'metro_ring'"):
            parse_topology(doc)

    def test_node_in_unknown_domain(self):
        doc = sc.intra_pop_topology()
        doc["nodes"][0]["domain_id"] = "dX"
        with pytest.raises(ValidationError):
            parse_topology(doc)


class TestAccessors:
    def test_link_lookup(self, intra_topology):
        link = intra_topology.link("l2")
        assert link.peer_of("B1") == ("C", "p0")
        assert link.port_of("C") == "p0"
        with pytest.raises(ValidationError):
            link.peer_of("A")

    def test_port_map(self, intra_topology):
        assert intra_topology.link_at("B1.p1").link_id == "l2"
        assert intra_topology.link_at("B1.p9") is None
        b1 = [key for key in intra_topology.all_port_keys() if key.startswith("B1.")]
        assert b1 == ["B1.p0", "B1.p1"]

    def test_all_port_keys(self, intra_topology):
        assert intra_topology.all_port_keys() == ["A.p0", "B1.p0", "B1.p1", "C.p0"]

    def test_forwarding_delay(self, intra_topology):
        assert intra_topology.node("B1").forwarding_delay_ns == 1000
        assert intra_topology.node("A").forwarding_delay_ns == 0


class TestPaths:
    def test_linear_path(self, cross_topology):
        path = shortest_path(cross_topology, "HA", "HB")
        assert [h.port_key for h in path.hops] == [
            "HA.p0",
            "B1.p1",
            "W1.p1",
            "B2.p1",
            "B3.p1",
        ]
        assert path.hops[-1].ingress_node == "HB"

    def test_deterministic_tie_break(self):
        # two equal-length routes A-B1-C vs A-B2-C; the tie-break must pick
        # the lexicographically smaller egress sequence every time
        doc = {
            "nodes": [
                sc.host("A", "d1"),
                sc.bridge("B1", "d1"),
                sc.bridge("B2", "d1"),
                sc.host("C", "d1"),
            ],
            "links": [
                sc.link("l1", "A", "p1", "B1", "p0"),
                sc.link("l2", "A", "p2", "B2", "p0"),
                sc.link("l3", "B1", "p1", "C", "p1"),
                sc.link("l4", "B2", "p1", "C", "p2"),
            ],
            "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
        }
        topo = parse_topology(doc)
        for _ in range(5):
            path = shortest_path(topo, "A", "C")
            assert [h.port_key for h in path.hops] == ["A.p1", "B1.p1"]

    def test_no_route(self):
        doc = sc.intra_pop_topology()
        doc["nodes"].append(sc.host("D", "d1"))  # island
        topo = parse_topology(doc)
        with pytest.raises(NoPathError):
            shortest_path(topo, "A", "D")

    def test_zero_hop_rejected(self, intra_topology):
        with pytest.raises(NoPathError):
            shortest_path(intra_topology, "A", "A")

    def test_unknown_endpoint(self, intra_topology):
        with pytest.raises(ValidationError):
            shortest_path(intra_topology, "A", "Z")


@st.composite
def _random_topologies(draw):
    """Up to 7 nodes and 12 links, parallel links included. Each node
    numbers its ports in a drawn order, named so that string order
    differs from numeric order (p10 < p2), so equal-length routes are
    decided by port names; few links leave nodes unreachable."""
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"N{i}" for i in range(n)]
    ends = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(ends, max_size=12))
    numbering = {name: draw(st.permutations(range(12))) for name in names}
    used = {name: 0 for name in names}
    links = []
    for k, (a, b) in enumerate(pairs):
        ports = []
        for node in (a, b):
            ports.append(f"p{numbering[node][used[node]]}")
            used[node] += 1
        links.append(sc.link(f"l{k}", a, ports[0], b, ports[1]))
    nodes = [
        sc.bridge(name, "d1") if draw(st.booleans()) else sc.host(name, "d1") for name in names
    ]
    return parse_topology(
        {
            "nodes": nodes,
            "links": links,
            "domains": {"d1": {"kind": "nfvi_pop", "controller_id": "cnc-1"}},
        }
    )


def _route(search, topology, src, dst):
    try:
        return search(topology, src, dst).hops
    except TsnNfvError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(topology=_random_topologies())
def test_route_table_matches_the_heap_search(topology):
    """Every pair's route, or its NoPathError, is the one the best-first
    search over (hop count, hop sequence) finds."""
    for src in topology.nodes:
        for dst in topology.nodes:
            assert _route(shortest_path, topology, src, dst) == _route(
                reference.shortest_path, topology, src, dst
            )


class TestDomainSplit:
    def test_three_segments(self, cross_topology):
        path = shortest_path(cross_topology, "HA", "HB")
        segments = split_by_domain(path, cross_topology)
        assert [(s.domain_id, len(s.hops)) for s in segments] == [
            ("d1", 2),
            ("wan", 1),
            ("d2", 2),
        ]
        # concatenation reproduces the path
        joined = tuple(h for s in segments for h in s.hops)
        assert joined == path.hops

    def test_single_domain_single_segment(self, intra_topology):
        path = shortest_path(intra_topology, "A", "C")
        segments = split_by_domain(path, intra_topology)
        assert len(segments) == 1
        assert segments[0].domain_id == "d1"
        assert [h.port_key for h in segments[0].hops] == ["A.p0", "B1.p1"]


def test_wan_slow_fixture_parses():
    topo = load_topology(json.dumps(sc.wan_slow_topology()))
    assert topo.link("l3").speed_bps == 100_000_000
    assert topo.node("W1").forwarding_delay_ns == 2000
