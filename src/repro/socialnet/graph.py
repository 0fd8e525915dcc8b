"""A minimal undirected social graph.

Simulations only need adjacency queries, degree, and edge/node iteration,
so the container is a thin adjacency-set structure.  It is intentionally
independent of networkx: the substrate is part of the reproduction and the
metrics in :mod:`repro.socialnet.metrics` are implemented against this
interface from scratch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.core.ids import NodeId


class SocialGraph:
    """Undirected simple graph with hashable node identifiers."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (idempotent)."""
        if node is None:
            raise ValueError("node id must not be None")
        self._adjacency.setdefault(node, set())

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add an undirected edge; self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], name: str = "graph"
    ) -> "SocialGraph":
        """Build a graph from an edge iterable."""
        graph = cls(name=name)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> List[NodeId]:
        """All nodes (stable insertion order)."""
        return list(self._adjacency)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each undirected edge exactly once."""
        seen: Set[FrozenSet] = set()
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Neighbor set of ``node`` (a copy; mutating it is safe)."""
        try:
            return set(self._adjacency[node])
        except KeyError:
            raise KeyError(f"node {node!r} not in graph {self.name!r}") from None

    def has_node(self, node: NodeId) -> bool:
        return node in self._adjacency

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def degree(self, node: NodeId) -> int:
        """Number of edges incident to ``node``."""
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise KeyError(f"node {node!r} not in graph {self.name!r}") from None

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"SocialGraph({self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "SocialGraph":
        """Induced subgraph on ``nodes``, in this graph's node order."""
        keep = set(nodes)
        sub = SocialGraph(name=f"{self.name}-sub")
        for node in self._adjacency:
            if node in keep:
                sub.add_node(node)
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    def largest_component(self) -> "SocialGraph":
        """Induced subgraph on the largest connected component.

        Components are found in node insertion order, so of several
        equally large ones the first wins, whatever the hash seed.
        """
        best: Set[NodeId] = set()
        visited: Set[NodeId] = set()
        for start in self._adjacency:
            if start in visited:
                continue
            component = self._bfs_component(start)
            visited |= component
            if len(component) > len(best):
                best = component
        return self.subgraph(best)

    def _bfs_component(self, start: NodeId) -> Set[NodeId]:
        """Connected component containing ``start``."""
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier: List[NodeId] = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return seen

    def is_connected(self) -> bool:
        """Whether the graph has one connected component (empty = True)."""
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        return len(self._bfs_component(start)) == len(self._adjacency)
