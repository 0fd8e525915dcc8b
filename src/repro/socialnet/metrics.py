"""Connectivity metrics of Table 1, implemented from scratch.

Average degree, diameter, average path length (both over shortest paths of
the largest component), and the average local clustering coefficient, plus
a :class:`ConnectivityReport` bundling them with modularity and community
count for the Table 1 bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.ids import NodeId
from repro.socialnet.graph import SocialGraph


def average_degree(graph: SocialGraph) -> float:
    """Mean node degree (2E / N)."""
    if graph.node_count == 0:
        return 0.0
    return 2.0 * graph.edge_count / graph.node_count


def _new_pairs_per_round(graph: SocialGraph) -> List[int]:
    """All-sources BFS over the largest component, on int bitsets.

    Nodes get an int index once; ``reach[v]`` is a bitset over those
    indices.  After round k, ``reach[v]`` holds every node within k hops
    of v, grown from its neighbors' balls of round k - 1.  Returns, for
    each round that still grew some ball, the number of ordered pairs
    first reached in it: entry k - 1 counts the pairs at distance k.
    """
    component = graph if graph.is_connected() else graph.largest_component()
    nodes = component.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    adjacency = [
        [index[neighbor] for neighbor in component.neighbors(node)]
        for node in nodes
    ]
    reach = [1 << i for i in range(len(nodes))]
    reached = len(nodes)
    new_pairs: List[int] = []
    while True:
        grown = []
        for v, ball in enumerate(reach):
            for u in adjacency[v]:
                ball |= reach[u]
            grown.append(ball)
        reach = grown
        total = sum(ball.bit_count() for ball in reach)
        if total == reached:
            return new_pairs
        new_pairs.append(total - reached)
        reached = total


def diameter(graph: SocialGraph) -> int:
    """Largest shortest-path distance within the largest component.

    The paper's sub-networks are connected; for robustness we measure the
    largest component when they are not.  It is the number of BFS rounds
    that still reach a new pair.
    """
    return len(_new_pairs_per_round(graph))


def average_path_length(graph: SocialGraph) -> float:
    """Mean shortest-path length over node pairs of the largest component."""
    new_pairs = _new_pairs_per_round(graph)
    pairs = sum(new_pairs)
    if pairs == 0:
        return 0.0
    total = sum(k * count for k, count in enumerate(new_pairs, start=1))
    return total / pairs


def local_clustering_coefficient(graph: SocialGraph, node: NodeId) -> float:
    """Ratio of realized to possible edges among a node's neighbors."""
    neighbors = graph.neighbors(node)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    neighbor_list = list(neighbors)
    for i, u in enumerate(neighbor_list):
        u_neighbors = graph.neighbors(u)
        for v in neighbor_list[i + 1:]:
            if v in u_neighbors:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering_coefficient(graph: SocialGraph) -> float:
    """Mean local clustering coefficient over all nodes."""
    if graph.node_count == 0:
        return 0.0
    total = sum(
        local_clustering_coefficient(graph, node) for node in graph.nodes()
    )
    return total / graph.node_count


@dataclass(frozen=True)
class ConnectivityReport:
    """The Table 1 row for one network."""

    name: str
    nodes: int
    edges: int
    average_degree: float
    diameter: int
    average_path_length: float
    average_clustering: float
    modularity: Optional[float] = None
    communities: Optional[int] = None

    def as_row(self) -> Dict[str, object]:
        """Dictionary row for table rendering."""
        return {
            "Network": self.name,
            "Nodes": self.nodes,
            "Edges": self.edges,
            "Avg Degree": round(self.average_degree, 2),
            "Diameter": self.diameter,
            "Avg Path Length": round(self.average_path_length, 2),
            "Avg Clustering": round(self.average_clustering, 2),
            "Modularity": (
                round(self.modularity, 2) if self.modularity is not None else "-"
            ),
            "Communities": (
                self.communities if self.communities is not None else "-"
            ),
        }


def connectivity_report(
    graph: SocialGraph, with_communities: bool = True
) -> ConnectivityReport:
    """Compute the full Table 1 row for ``graph``.

    Community detection (Louvain) and modularity are optional because they
    dominate runtime for large graphs.
    """
    modularity_value = None
    community_count = None
    if with_communities:
        # Imported here to avoid a circular import at module load.
        from repro.socialnet.communities import louvain_communities
        from repro.socialnet.modularity import modularity as modularity_of

        partition = louvain_communities(graph, seed=7)
        modularity_value = modularity_of(graph, partition)
        community_count = len(set(partition.values()))
    return ConnectivityReport(
        name=graph.name,
        nodes=graph.node_count,
        edges=graph.edge_count,
        average_degree=average_degree(graph),
        diameter=diameter(graph),
        average_path_length=average_path_length(graph),
        average_clustering=average_clustering_coefficient(graph),
        modularity=modularity_value,
        communities=community_count,
    )
