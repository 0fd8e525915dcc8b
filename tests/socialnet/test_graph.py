"""Tests for the SocialGraph container."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.socialnet.graph import SocialGraph

# A 4-node path and a 4-node star: two equally large components with
# different diameters (3 and 2), the path inserted first.
_TIE_SCRIPT = """
from repro.socialnet.graph import SocialGraph
from repro.socialnet.metrics import average_path_length, diameter
g = SocialGraph.from_edges([
    ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
    ("b0", "b1"), ("b0", "b2"), ("b0", "b3"),
])
print(diameter(g), repr(average_path_length(g)), g.largest_component().nodes())
"""


class TestConstruction:
    def test_add_node_idempotent(self):
        g = SocialGraph()
        g.add_node(1)
        g.add_node(1)
        assert g.node_count == 1

    def test_add_edge_creates_nodes(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)
        assert g.edge_count == 1

    def test_add_edge_idempotent(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        g = SocialGraph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_none_node_rejected(self):
        g = SocialGraph()
        with pytest.raises(ValueError):
            g.add_node(None)

    def test_from_edges(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3


class TestQueries:
    def test_neighbors(self, triangle):
        assert triangle.neighbors(0) == {1, 2}

    def test_neighbors_returns_copy(self, triangle):
        triangle.neighbors(0).clear()
        assert triangle.neighbors(0) == {1, 2}

    def test_neighbors_unknown_node(self, triangle):
        with pytest.raises(KeyError):
            triangle.neighbors(99)

    def test_degree(self, star_graph):
        assert star_graph.degree(0) == 5
        assert star_graph.degree(1) == 1

    def test_degree_unknown_node(self, star_graph):
        with pytest.raises(KeyError):
            star_graph.degree(99)

    def test_edges_listed_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 3

    def test_contains_and_len(self, path_graph):
        assert 3 in path_graph
        assert 99 not in path_graph
        assert len(path_graph) == 5

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)


class TestComponents:
    def test_connected_graph(self, path_graph):
        assert path_graph.is_connected()

    def test_disconnected_graph(self):
        g = SocialGraph.from_edges([(0, 1), (2, 3)])
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert SocialGraph().is_connected()

    def test_largest_component(self):
        g = SocialGraph.from_edges([(0, 1), (1, 2), (5, 6)])
        component = g.largest_component()
        assert set(component.nodes()) == {0, 1, 2}

    def test_largest_component_tie_goes_to_first_inserted(self):
        g = SocialGraph.from_edges([(5, 6), (0, 1), (2, 3)])
        assert g.largest_component().nodes() == [5, 6]

    def test_largest_component_tie_is_independent_of_hash_seed(self):
        # String hashes vary with PYTHONHASHSEED; under seed 3 a walk
        # over the nodes in set order meets the star first.
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            done = subprocess.run(
                [sys.executable, "-c", _TIE_SCRIPT],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == (
            "3 1.6666666666666667 ['a1', 'a2', 'a3', 'a4']\n"
        )

    def test_subgraph_keeps_parent_node_order(self):
        g = SocialGraph.from_edges([(5, 1), (1, 3), (3, 9)])
        assert g.subgraph([3, 9, 5, 1]).nodes() == [5, 1, 3, 9]

    def test_subgraph_induces_edges(self, triangle):
        sub = triangle.subgraph([0, 1])
        assert sub.edge_count == 1
        assert sub.has_edge(0, 1)

    def test_subgraph_ignores_unknown_nodes(self, triangle):
        sub = triangle.subgraph([0, 1, 99])
        assert not sub.has_node(99)
