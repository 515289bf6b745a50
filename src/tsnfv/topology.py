"""Physical substrate model: bridges, hosts, links, TSN domains.

The topology is loaded once from a JSON document and is immutable
afterwards, so concurrent readers need no locking. Paths are minimum-hop
with a lexicographic tie-break so that schedules are reproducible; each
source's paths come from one breadth-first search, kept for the
topology's lifetime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codec import Codec, load_json
from .errors import NoPathError, ParseError, ValidationError
from .model import check_identifier, port_key

NODE_KINDS = ("bridge", "compute_host", "external_station")
DOMAIN_KINDS = ("nfvi_pop", "wan_segment")

@dataclass(frozen=True)
class Node(Codec):
    node_id: str
    kind: str
    domain_id: str
    # bridge-only fields
    processing_delay_ns: int | None = None
    gcl_max_entries: int | None = None
    supports_qbv: bool | None = None
    # external_station-only: may MANO orchestrate it (PNF) or not
    managed: bool | None = None

    def __post_init__(self):
        check_identifier(self.node_id, "node_id")
        check_identifier(self.domain_id, "domain_id")
        # The kind decides which keys a node document has, so breaking
        # these rules is a parse error rather than a validation error.
        if self.kind not in NODE_KINDS:
            raise ParseError(f"node {self.node_id}: unknown kind {self.kind!r}")
        bridge_fields = (self.processing_delay_ns, self.gcl_max_entries, self.supports_qbv)
        if self.kind == "bridge":
            if any(v is None for v in bridge_fields):
                raise ParseError(f"bridge {self.node_id} is missing bridge fields")
            if self.processing_delay_ns < 0:
                raise ValidationError(f"bridge {self.node_id}: processing_delay_ns must be >= 0")
            if self.gcl_max_entries < 2:
                raise ValidationError(f"bridge {self.node_id}: gcl_max_entries must be >= 2")
        else:
            if any(v is not None for v in bridge_fields):
                raise ParseError(f"non-bridge {self.node_id} carries bridge fields")
        if self.kind == "external_station":
            if self.managed is None:
                raise ParseError(f"external station {self.node_id} must declare managed")
        elif self.managed is not None:
            raise ParseError(f"node {self.node_id}: managed is only valid on external stations")

    @property
    def forwarding_delay_ns(self) -> int:
        """Store-and-forward processing delay applied before this node can
        egress a received frame. Zero for end stations."""
        return self.processing_delay_ns if self.kind == "bridge" else 0

    @property
    def is_managed_station(self) -> bool:
        """Whether MANO may push configuration to this node. Hosts always;
        external stations only when flagged as orchestratable PNFs."""
        if self.kind == "compute_host":
            return True
        if self.kind == "external_station":
            return bool(self.managed)
        return False


@dataclass(frozen=True)
class LinkEnd(Codec):
    node_id: str
    port_id: str

    def __post_init__(self):
        check_identifier(self.node_id, "link endpoint")
        check_identifier(self.port_id, "link endpoint")


@dataclass(frozen=True)
class Link(Codec):
    """Full-duplex link between two (node, port) endpoints."""

    link_id: str
    endpoints: tuple[LinkEnd, LinkEnd]
    speed_bps: int
    propagation_ns: int

    def __post_init__(self):
        check_identifier(self.link_id, "link_id")
        a, b = self.endpoints
        if a.node_id == b.node_id:
            raise ValidationError(f"link {self.link_id}: endpoints on the same node")
        if self.speed_bps <= 0:
            raise ValidationError(f"link {self.link_id}: speed_bps must be positive")
        if self.propagation_ns < 0:
            raise ValidationError(f"link {self.link_id}: propagation_ns must be >= 0")

    def peer_of(self, node_id: str) -> tuple[str, str]:
        """(node, port) on the far side of the link from node_id."""
        a, b = self.endpoints
        if node_id == a.node_id:
            return b.node_id, b.port_id
        if node_id == b.node_id:
            return a.node_id, a.port_id
        raise ValidationError(f"node {node_id} is not on link {self.link_id}")

    def port_of(self, node_id: str) -> str:
        for end in self.endpoints:
            if end.node_id == node_id:
                return end.port_id
        raise ValidationError(f"node {node_id} is not on link {self.link_id}")


@dataclass(frozen=True)
class Domain:
    domain_id: str
    kind: str
    controller_id: str

    def __post_init__(self):
        check_identifier(self.domain_id, "domain_id")
        check_identifier(self.controller_id, "controller_id")
        if self.kind not in DOMAIN_KINDS:
            raise ValidationError(f"domain {self.domain_id}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Hop(Codec):
    """One store-and-forward step: egress from a node's port over a link
    into the next node."""

    egress_node: str
    egress_port: str
    link_id: str
    ingress_node: str

    @property
    def port_key(self) -> str:
        return port_key(self.egress_node, self.egress_port)


@dataclass(frozen=True)
class Path:
    hops: tuple[Hop, ...]


@dataclass(frozen=True)
class PathSegment:
    """Maximal run of consecutive hops whose egress nodes share one TSN
    domain; the unit of work handed to that domain's controller."""

    domain_id: str
    hops: tuple[Hop, ...]


class Topology:
    """Validated immutable substrate: nodes, links, domains, port map."""

    def __init__(self, nodes: dict[str, Node], links: dict[str, Link], domains: dict[str, Domain]):
        self.nodes = dict(sorted(nodes.items()))
        self.links = dict(sorted(links.items()))
        self.domains = dict(sorted(domains.items()))
        self._port_link: dict[str, Link] = {}
        self._adjacency: dict[str, list[Link]] = {n: [] for n in self.nodes}
        self._validate()
        # source node -> its routes, filled on first use. A table is stored
        # only once complete, so readers on other threads need no lock.
        self._routes: dict[str, dict[str, Path]] = {}

    def _validate(self):
        controllers_seen: dict[str, str] = {}
        for domain in self.domains.values():
            # one CNC per domain: controllers may not be shared
            prev = controllers_seen.get(domain.controller_id)
            if prev is not None:
                raise ValidationError(
                    f"controller {domain.controller_id} assigned to domains {prev} and {domain.domain_id}"
                )
            controllers_seen[domain.controller_id] = domain.domain_id
        for node in self.nodes.values():
            if node.domain_id not in self.domains:
                raise ValidationError(f"node {node.node_id}: domain {node.domain_id} not in domain map")
        for link in self.links.values():
            for end in link.endpoints:
                if end.node_id not in self.nodes:
                    raise ValidationError(f"link {link.link_id}: unknown node {end.node_id}")
                key = port_key(end.node_id, end.port_id)
                if key in self._port_link:
                    raise ValidationError(f"port {key} is used by more than one link")
                self._port_link[key] = link
                self._adjacency[end.node_id].append(link)
        for links in self._adjacency.values():
            links.sort(key=lambda l: l.link_id)

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id}") from None

    def link(self, link_id: str) -> Link:
        try:
            return self.links[link_id]
        except KeyError:
            raise ValidationError(f"unknown link {link_id}") from None

    def link_at(self, key: str) -> Link | None:
        return self._port_link.get(key)

    def bridges_in_domain(self, domain_id: str) -> list[Node]:
        return [
            n for n in self.nodes.values() if n.kind == "bridge" and n.domain_id == domain_id
        ]

    def routes_from(self, src_node: str) -> dict[str, Path]:
        """The lexicographically smallest minimum-hop path from src_node to
        every node it reaches, src_node itself with no hops.

        One breadth-first search: each layer is visited in rank order, a
        node's egress ports in sorted order, and the first parent found
        wins. The smallest path to a node extends the smallest path to its
        parent, so visiting parents in rank order and ports in order
        assigns each node its smallest path and ranks the next layer."""
        table = self._routes.get(src_node)
        if table is None:
            table = {src_node: Path(())}
            layer = [src_node]
            while layer:
                following = []
                for node_id in layer:
                    hops = table[node_id].hops
                    egress = sorted(
                        ((link.port_of(node_id), link) for link in self._adjacency[node_id]),
                        key=lambda pair: pair[0],
                    )
                    for port, link in egress:
                        peer, _ = link.peer_of(node_id)
                        if peer not in table:
                            table[peer] = Path(hops + (Hop(node_id, port, link.link_id, peer),))
                            following.append(peer)
                layer = following
            self._routes[src_node] = table
        return table

    def all_port_keys(self) -> list[str]:
        """Every directed egress port, sorted."""
        return sorted(self._port_link)

    def to_doc(self) -> dict:
        # the domain map is keyed by domain id
        domains = {d.domain_id: _DomainDoc(d.kind, d.controller_id) for d in self.domains.values()}
        return _TopologyDoc(tuple(self.nodes.values()), tuple(self.links.values()), domains).to_doc()


@dataclass(frozen=True)
class _DomainDoc(Codec):
    kind: str
    controller_id: str


@dataclass(frozen=True)
class _TopologyDoc(Codec):
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    domains: dict[str, _DomainDoc]


def parse_topology(doc: dict) -> Topology:
    """Build a validated Topology from a parsed document."""
    parsed = _TopologyDoc.from_doc(doc, "topology")

    nodes: dict[str, Node] = {}
    for node in parsed.nodes:
        if node.node_id in nodes:
            raise ValidationError(f"duplicate node id {node.node_id}")
        nodes[node.node_id] = node

    links: dict[str, Link] = {}
    for link in parsed.links:
        if link.link_id in links:
            raise ValidationError(f"duplicate link id {link.link_id}")
        links[link.link_id] = link

    domains = {
        domain_id: Domain(domain_id, entry.kind, entry.controller_id)
        for domain_id, entry in parsed.domains.items()
    }
    return Topology(nodes, links, domains)


def load_topology(text: str) -> Topology:
    """Parse and validate a topology JSON document."""
    return parse_topology(load_json(text, "topology"))


def shortest_path(topology: Topology, src_node: str, dst_node: str) -> Path:
    """Minimum-hop path from src to dst.

    Ties are broken by the lexicographically smallest sequence of
    (egress node, egress port) pairs, so the result is deterministic for a
    given topology. Zero-hop requests (src == dst) are rejected: intra-host
    traffic never traverses a TSN bridge. The answer is read from the
    source's route table, which one breadth-first search fills the first
    time the source is asked for (Topology.routes_from).
    """
    topology.node(src_node)
    topology.node(dst_node)
    if src_node == dst_node:
        raise NoPathError(f"no path: {src_node} to itself (zero-hop streams are rejected)")
    path = topology.routes_from(src_node).get(dst_node)
    if path is None:
        raise NoPathError(f"no path from {src_node} to {dst_node}")
    return path


def split_by_domain(path: Path, topology: Topology) -> list[PathSegment]:
    """Cut a path into maximal runs of hops whose egress nodes share a
    domain. Segment concatenation reproduces the path."""
    runs = itertools.groupby(path.hops, key=lambda hop: topology.node(hop.egress_node).domain_id)
    return [PathSegment(domain_id, tuple(hops)) for domain_id, hops in runs]
