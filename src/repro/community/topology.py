"""Synthetic community-network topologies.

A community network is a wireless mesh built bottom-up by its members; a small subset
of nodes own gateways with direct Internet access and act as bandwidth providers for
everyone else (Section 5.1).  The generator below produces such a topology as a random
geometric graph (nodes scattered in the unit square, links between nearby nodes, extra
links added to guarantee connectivity), designates the ``num_gateways`` best-connected
nodes as gateways, and groups nodes into "sites" (super-nodes) that the two-tier
LAN/WAN latency model uses — mirroring the paper's deployment where several containers
share a physical host.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.net.latency import LanWanLatencyModel

# networkx is imported where a topology is built or walked: every run imports
# this package for its workloads, and most never generate a mesh.
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CommunityNetwork", "generate_community_network"]


@dataclass
class CommunityNetwork:
    """A generated community-network topology.

    Attributes:
        graph: the mesh graph; node attributes include ``pos`` (unit-square
            coordinates), ``site`` (site label) and ``is_gateway``.
        gateways: ids of the gateway (provider) nodes.
        members: ids of the non-gateway (user) nodes.
        sites: mapping node id -> site label.
    """

    graph: nx.Graph
    gateways: List[str]
    members: List[str]
    sites: Dict[str, str] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def latency_model(self, **kwargs) -> LanWanLatencyModel:
        """A LAN/WAN latency model keyed on this topology's site assignment."""
        return LanWanLatencyModel(site_of=dict(self.sites), **kwargs)

    def hop_distance(self, a: str, b: str) -> int:
        """Number of mesh hops between two nodes (∞-safe: raises if disconnected)."""
        import networkx as nx

        return nx.shortest_path_length(self.graph, a, b)

    def gateway_degrees(self) -> Dict[str, int]:
        return {g: self.graph.degree[g] for g in self.gateways}


def generate_community_network(
    num_nodes: int = 40,
    num_gateways: int = 8,
    num_sites: int = 4,
    radius: float = 0.25,
    seed: int = 0,
) -> CommunityNetwork:
    """Generate a connected mesh with gateway and site assignments.

    Args:
        num_nodes: total number of nodes (gateways + members).
        num_gateways: how many of them own an Internet gateway (the providers).
        num_sites: number of physical sites for the LAN/WAN latency model.
        radius: connection radius of the random geometric graph.
        seed: generation seed.
    """
    import networkx as nx

    if num_gateways >= num_nodes:
        raise ValueError("need more nodes than gateways")
    if num_sites < 1:
        raise ValueError("need at least one site")
    rng = random.Random(seed)
    positions = {
        f"n{i:03d}": (rng.random(), rng.random()) for i in range(num_nodes)
    }
    graph = nx.Graph()
    for node, pos in positions.items():
        graph.add_node(node, pos=pos)
    nodes = list(positions)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            ax, ay = positions[a]
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= radius:
                graph.add_edge(a, b)
    # Guarantee connectivity by chaining components through their closest pairs.
    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        first, second = components[0], components[1]
        best: Tuple[float, str, str] = (float("inf"), first[0], second[0])
        for a in first:
            for b in second:
                ax, ay = positions[a]
                bx, by = positions[b]
                distance = math.hypot(ax - bx, ay - by)
                if distance < best[0]:
                    best = (distance, a, b)
        graph.add_edge(best[1], best[2])
        components = [list(c) for c in nx.connected_components(graph)]

    # The best-connected nodes host the gateways (they see the most traffic).
    by_degree = sorted(graph.degree, key=lambda item: (-item[1], item[0]))
    gateways = sorted(node for node, _ in by_degree[:num_gateways])
    members = sorted(set(nodes) - set(gateways))

    # Sites: spatial clustering into vertical strips, which is what the paper's
    # deployment looks like (machines at UPC Campus, Hangar, Taradell).
    sites: Dict[str, str] = {}
    for node, (x, _) in positions.items():
        site_index = min(int(x * num_sites), num_sites - 1)
        sites[node] = f"site{site_index}"
        graph.nodes[node]["site"] = sites[node]
        graph.nodes[node]["is_gateway"] = node in gateways

    return CommunityNetwork(graph=graph, gateways=gateways, members=members, sites=sites)
