"""The bitset all-pairs BFS against a plain per-source BFS.

``diameter`` and ``average_path_length`` must equal, with ``==``, what a
BFS from every node of the same component gives: both are exact
integer sums until the one final division.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.socialnet.graph import SocialGraph
from repro.socialnet.metrics import average_path_length, diameter


def _reference_distances(graph, source):
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def _reference_component(graph):
    return graph if graph.is_connected() else graph.largest_component()


def reference_diameter(graph):
    component = _reference_component(graph)
    if component.node_count <= 1:
        return 0
    return max(
        max(_reference_distances(component, node).values())
        for node in component.nodes()
    )


def reference_average_path_length(graph):
    component = _reference_component(graph)
    if component.node_count <= 1:
        return 0.0
    total = 0
    pairs = 0
    for node in component.nodes():
        distances = _reference_distances(component, node)
        total += sum(distances.values())
        pairs += len(distances) - 1
    return total / pairs if pairs else 0.0


@st.composite
def graphs(draw, max_nodes=40):
    """Random simple graphs, often disconnected, with isolated nodes and
    nodes inserted in a shuffled order."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    order = draw(st.permutations(range(n)))
    graph = SocialGraph()
    for node in order:
        graph.add_node(node)
    if n >= 2:
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda pair: pair[0] != pair[1])
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            graph.add_edge(u, v)
    return graph


def _path(n):
    return SocialGraph.from_edges([(i, i + 1) for i in range(n - 1)])


class TestBitsetBfsMatchesReference:
    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, graph):
        assert diameter(graph) == reference_diameter(graph)
        assert average_path_length(graph) == \
            reference_average_path_length(graph)

    @given(st.integers(min_value=2, max_value=130))
    @settings(max_examples=30, deadline=None)
    def test_long_paths_span_many_bitset_words(self, n):
        graph = _path(n)
        assert diameter(graph) == reference_diameter(graph) == n - 1
        assert average_path_length(graph) == \
            reference_average_path_length(graph)

    def test_empty_graph(self):
        graph = SocialGraph()
        assert diameter(graph) == reference_diameter(graph) == 0
        assert average_path_length(graph) == 0.0

    def test_single_node(self):
        graph = SocialGraph()
        graph.add_node("only")
        assert diameter(graph) == reference_diameter(graph) == 0
        assert average_path_length(graph) == 0.0

    def test_only_isolated_nodes(self):
        graph = SocialGraph()
        for node in range(5):
            graph.add_node(node)
        assert diameter(graph) == reference_diameter(graph) == 0
        assert average_path_length(graph) == 0.0

    def test_largest_component_beside_isolated_nodes(self):
        graph = _path(6)
        for node in (10, 11, 12):
            graph.add_node(node)
        graph.add_edge(20, 21)
        assert diameter(graph) == reference_diameter(graph) == 5
        assert average_path_length(graph) == \
            reference_average_path_length(graph)
