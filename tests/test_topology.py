"""Unit tests for topologies and the augmentation construction."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import (
    ClusterGraph,
    adjacency_from_edges,
    hop_diameter,
    normalize_edges,
)


class TestGenerators:
    def test_line(self):
        graph = ClusterGraph.line(5)
        assert graph.num_clusters == 5
        assert graph.num_edges == 4
        assert graph.diameter() == 4
        assert graph.neighbors(2) == (1, 3)

    def test_ring(self):
        graph = ClusterGraph.ring(6)
        assert graph.num_edges == 6
        assert graph.diameter() == 3
        assert graph.neighbors(0) == (1, 5)

    def test_complete(self):
        graph = ClusterGraph.complete(5)
        assert graph.num_edges == 10
        assert graph.diameter() == 1
        assert graph.max_degree() == 4

    def test_star(self):
        graph = ClusterGraph.star(5)
        assert graph.diameter() == 2
        assert graph.degree(0) == 4

    def test_grid(self):
        graph = ClusterGraph.grid(3, 3)
        assert graph.num_clusters == 9
        assert graph.num_edges == 12
        assert graph.diameter() == 4

    def test_torus(self):
        graph = ClusterGraph.torus(4, 4)
        assert graph.num_clusters == 16
        assert graph.num_edges == 32
        assert graph.diameter() == 4

    def test_balanced_tree(self):
        graph = ClusterGraph.balanced_tree(2, 3)
        assert graph.num_clusters == 15
        assert graph.num_edges == 14
        assert graph.diameter() == 6

    def test_hypercube(self):
        graph = ClusterGraph.hypercube(3)
        assert graph.num_clusters == 8
        assert graph.num_edges == 12
        assert graph.diameter() == 3

    def test_random_connected_seed_deterministic(self):
        import random

        from repro.topology.graphs import random_connected_edges

        first = random_connected_edges(15, 0.2, random.Random(42))
        second = random_connected_edges(15, 0.2, random.Random(42))
        assert first == second
        moved = random_connected_edges(15, 0.2, random.Random(43))
        assert first != moved
        # Canonical form: sorted (min, max) pairs, spanning, no dups.
        assert first == sorted(first)
        assert all(a < b for a, b in first)
        assert len(set(first)) == len(first)
        assert len(first) >= 14

    def test_random_connected(self):
        rng = random.Random(0)
        graph = ClusterGraph.random_connected(20, 0.1, rng)
        assert graph.is_connected()
        assert graph.num_edges >= 19

    def test_single_cluster(self):
        graph = ClusterGraph.line(1)
        assert graph.num_clusters == 1
        assert graph.num_edges == 0
        assert graph.diameter() == 0


class TestValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0, 5)])

    def test_disconnected_diameter_raises(self):
        graph = ClusterGraph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()
        with pytest.raises(TopologyError):
            graph.diameter()

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ClusterGraph.ring(2)


class TestAugmentation:
    def test_member_blocks(self):
        aug = ClusterGraph.line(3).augment(4)
        assert aug.num_nodes == 12
        assert aug.members(0) == (0, 1, 2, 3)
        assert aug.members(2) == (8, 9, 10, 11)
        assert aug.cluster_of(5) == 1
        assert aug.cluster_of(0) == 0

    def test_cluster_neighbors_form_clique(self):
        aug = ClusterGraph.line(2).augment(4)
        assert aug.cluster_neighbors(0) == (1, 2, 3)
        assert aug.cluster_neighbors(5) == (4, 6, 7)

    def test_inter_neighbors_grouped_by_cluster(self):
        aug = ClusterGraph.line(3).augment(3)
        groups = aug.inter_neighbors(4)  # node in middle cluster 1
        assert set(groups) == {0, 2}
        assert groups[0] == (0, 1, 2)
        assert groups[2] == (6, 7, 8)

    def test_full_neighbor_list(self):
        aug = ClusterGraph.line(2).augment(3)
        # Node 0: peers 1,2 plus all of cluster 1 (3,4,5).
        assert set(aug.neighbors(0)) == {1, 2, 3, 4, 5}

    def test_edge_counts_match_formulas(self):
        graph = ClusterGraph.ring(5)
        for k in (1, 4, 7):
            aug = graph.augment(k)
            assert aug.num_cluster_edges == 5 * k * (k - 1) // 2
            assert aug.num_intercluster_edges == 5 * k * k
            assert aug.num_edges == len(aug.node_edges())

    def test_node_edges_unique(self):
        aug = ClusterGraph.grid(2, 2).augment(3)
        edges = aug.node_edges()
        assert len(edges) == len(set(edges))

    def test_k1_augmentation_is_original_graph(self):
        graph = ClusterGraph.ring(5)
        aug = graph.augment(1)
        assert aug.num_nodes == 5
        assert aug.num_cluster_edges == 0
        assert aug.num_intercluster_edges == 5
        assert aug.cluster_neighbors(0) == ()

    def test_invalid_cluster_size(self):
        with pytest.raises(TopologyError):
            ClusterGraph.line(2).augment(0)

    def test_unknown_ids_raise(self):
        aug = ClusterGraph.line(2).augment(2)
        with pytest.raises(TopologyError):
            aug.members(5)
        with pytest.raises(TopologyError):
            aug.cluster_of(99)

    def test_overhead_scaling_in_f(self):
        """Nodes scale as O(f) and edges as O(f^2) (Theorem 1.1)."""
        graph = ClusterGraph.grid(3, 3)
        base_nodes = graph.num_clusters
        base_edges = graph.num_edges
        for f in (1, 2, 3):
            k = 3 * f + 1
            aug = graph.augment(k)
            assert aug.num_nodes == base_nodes * k
            expected_edges = (base_nodes * k * (k - 1) // 2
                              + base_edges * k * k)
            assert aug.num_edges == expected_edges


class TestDiameterHelper:
    def test_hop_diameter_direct(self):
        adjacency = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert hop_diameter(adjacency) == 3


# ----------------------------------------------------------------------
# Reference implementations: the one-edge-at-a-time loops the numpy
# generators and validator replaced.  The array path must reproduce
# their edge order and their first error exactly.
# ----------------------------------------------------------------------

def ref_normalize_edges(n, edges):
    seen = set()
    result = []
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise TopologyError(
                f"edge ({a!r}, {b!r}) references a vertex outside "
                f"0..{n - 1}")
        if a == b:
            raise TopologyError(f"self-loop at vertex {a!r}")
        edge = (a, b) if a < b else (b, a)
        if edge in seen:
            raise TopologyError(f"duplicate edge {edge!r}")
        seen.add(edge)
        result.append(edge)
    return result


def ref_line_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def ref_ring_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def ref_star_edges(n):
    return [(0, i) for i in range(1, n)]


def ref_grid_edges(width, height):
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            if y + 1 < height:
                edges.append((v, v + width))
    return edges


def ref_torus_edges(width, height):
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            right = y * width + (x + 1) % width
            down = ((y + 1) % height) * width + x
            edges.append((min(v, right), max(v, right)))
            edges.append((min(v, down), max(v, down)))
    return edges


def ref_caterpillar_edges(length, width):
    edges = []
    for i in range(length):
        hub = i * width
        if i + 1 < length:
            edges.append((hub, hub + width))
        for leaf in range(hub + 1, hub + width):
            edges.append((hub, leaf))
    return edges


CONSTRUCTOR_CASES = [
    ("line", (1,), 1, ref_line_edges),
    ("line", (2,), 2, ref_line_edges),
    ("line", (9,), 9, ref_line_edges),
    ("ring", (3,), 3, ref_ring_edges),
    ("ring", (8,), 8, ref_ring_edges),
    ("star", (2,), 2, ref_star_edges),
    ("star", (7,), 7, ref_star_edges),
    ("grid", (1, 1), 1, ref_grid_edges),
    ("grid", (1, 5), 5, ref_grid_edges),
    ("grid", (6, 1), 6, ref_grid_edges),
    ("grid", (4, 3), 12, ref_grid_edges),
    ("torus", (3, 3), 9, ref_torus_edges),
    ("torus", (5, 4), 20, ref_torus_edges),
    ("caterpillar", (1, 1), 1, ref_caterpillar_edges),
    ("caterpillar", (1, 6), 6, ref_caterpillar_edges),
    ("caterpillar", (7, 1), 7, ref_caterpillar_edges),
    ("caterpillar", (5, 4), 20, ref_caterpillar_edges),
]


class TestEdgeArrayParity:
    @pytest.mark.parametrize("ctor, args, n, ref", CONSTRUCTOR_CASES,
                             ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_edges_match_reference_loop(self, ctor, args, n, ref):
        graph = getattr(ClusterGraph, ctor)(*args)
        expected = ref_normalize_edges(n, ref(*args))
        assert graph.num_clusters == n
        assert graph.num_edges == len(expected)
        assert graph.edges == expected
        assert graph.edge_array.dtype == np.int64
        assert graph.edge_array.shape == (len(expected), 2)
        # Python ints, never np.int64: edges feed content hashes and JSON.
        assert all(type(v) is int for edge in graph.edges for v in edge)
        assert all(type(edge) is tuple for edge in graph.edges)

    def test_adjacency_views_match_reference(self):
        graph = ClusterGraph.caterpillar(4, 3)
        adjacency = adjacency_from_edges(12, ref_caterpillar_edges(4, 3))
        for v in range(12):
            assert graph.neighbors(v) == tuple(adjacency[v])
            assert all(type(w) is int for w in graph.neighbors(v))
        assert graph.max_degree() == max(len(a) for a in adjacency)
        assert graph.diameter() == 5
        assert graph.is_connected()

    def test_empty_edge_list(self):
        graph = ClusterGraph(3, [])
        assert graph.edges == []
        assert graph.num_edges == 0
        assert graph.edge_array.shape == (0, 2)
        assert graph.neighbors(1) == ()
        assert not graph.is_connected()

    def test_ndarray_input(self):
        raw = np.array([[2, 0], [1, 2], [3, 1]], dtype=np.int32)
        graph = ClusterGraph(4, raw)
        assert graph.edges == [(0, 2), (1, 2), (1, 3)]
        assert all(type(v) is int for edge in graph.edges for v in edge)
        assert raw[0, 0] == 2  # the caller's array is left alone
        with pytest.raises(TopologyError, match=r"duplicate edge \(0, 2\)"):
            ClusterGraph(4, np.array([[0, 2], [2, 0]]))

    def test_edge_array_is_read_only_and_views_are_copies(self):
        graph = ClusterGraph.line(4)
        with pytest.raises(ValueError):
            graph.edge_array[0, 0] = 3
        graph.edges.append((0, 3))
        assert graph.edges == [(0, 1), (1, 2), (2, 3)]

    def test_non_integer_edges_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0.0, 1.0)])
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0, 1, 2)])


@st.composite
def edge_lists(draw):
    """``(n, edges)`` whose endpoints run a little past both ends of
    ``0..n-1``, with copies of drawn edges (exact or reversed)
    inserted at random positions, so out-of-range edges, self-loops
    and both kinds of duplicate all turn up often."""
    n = draw(st.integers(min_value=1, max_value=6))
    endpoint = st.integers(min_value=-2, max_value=n + 1)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        a, b = draw(st.sampled_from(edges))
        copy = (b, a) if draw(st.booleans()) else (a, b)
        edges.insert(draw(st.integers(0, len(edges))), copy)
    return n, edges


def _outcome(validate, n, edges):
    try:
        return "ok", [tuple(int(v) for v in e) for e in validate(n, edges)]
    except TopologyError as exc:
        return "error", str(exc)


class TestFirstErrorParity:
    @settings(max_examples=500, deadline=None)
    @given(edge_lists())
    def test_vectorized_matches_sequential(self, case):
        n, edges = case
        assert (_outcome(normalize_edges, n, edges)
                == _outcome(ref_normalize_edges, n, edges))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
        ([(2, 1), (0, -1), (1, 2)],
         "edge (0, -1) references a vertex outside 0..3"),
        ([(1, 2), (3, 3), (2, 1)], "self-loop at vertex 3"),
    ])
    def test_first_error_named(self, edges, message):
        with pytest.raises(TopologyError) as info:
            ClusterGraph(4, edges)
        assert str(info.value) == message
