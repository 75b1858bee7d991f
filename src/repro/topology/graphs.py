"""Generators and utilities for the cluster-level graph ``G = (C, E)``.

Graphs are over cluster ids ``0..n-1``.  Edge generators return
``(a, b)`` pairs — an ``(m, 2)`` int64 array for the shapes that scale
to 1e6 vertices, a list for the rest — which :func:`normalize_edges`
validates into the canonical array a ``ClusterGraph`` stores.  The
BFS utilities work on adjacency lists.  The paper's construction
(Section 2) then replaces each cluster by a ``k``-clique — see
:mod:`repro.topology.cluster_graph`.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from repro.errors import TopologyError


def normalize_edges(num_vertices: int,
                    edges: list[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Validate and canonicalize an undirected edge list.

    ``edges`` is any sequence of ``(a, b)`` pairs or an ``(m, 2)``
    integer array.  The result is a fresh ``(m, 2)`` int64 array of
    ``(min, max)`` rows in input order.  Out-of-range endpoints,
    self-loops and duplicates (in either orientation) raise
    :class:`TopologyError`; when several edges are bad, the error
    names the first one, checked in that order, exactly as a
    one-edge-at-a-time scan would.
    """
    pairs = np.asarray(edges)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise TopologyError("edges must be (a, b) pairs of integer ids")
    pairs = pairs.astype(np.int64)
    a, b = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out_of_range = (lo < 0) | (hi >= num_vertices)
    # Every occurrence of a (min, max) key after its first (np.unique's
    # return_index) is a duplicate.  Keys are injective (and fit int64,
    # for n below 3e9) only on in-range edges, but every edge before
    # the first bad one is in range, so a spurious collision can never
    # be the first error.
    _, first = np.unique(lo * num_vertices + hi, return_index=True)
    bad = out_of_range | (a == b)
    if first.size < len(pairs):
        repeated = np.ones(len(pairs), dtype=bool)
        repeated[first] = False
        bad |= repeated
    if bad.any():
        i = int(np.argmax(bad))
        ai, bi = int(a[i]), int(b[i])
        if out_of_range[i]:
            raise TopologyError(
                f"edge ({ai!r}, {bi!r}) references a vertex outside "
                f"0..{num_vertices - 1}")
        if ai == bi:
            raise TopologyError(f"self-loop at vertex {ai!r}")
        raise TopologyError(f"duplicate edge {(int(lo[i]), int(hi[i]))!r}")
    return np.stack([lo, hi], axis=1)


def adjacency_from_edges(num_vertices: int,
                         edges: list[tuple[int, int]]
                         ) -> list[list[int]]:
    """Build sorted adjacency lists from a canonical edge list."""
    adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for neighbors in adjacency:
        neighbors.sort()
    return adjacency


def bfs_distances(adjacency: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get -1."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def hop_diameter(adjacency: list[list[int]]) -> int:
    """Exact hop diameter (max over all-pairs shortest paths).

    Raises :class:`TopologyError` if the graph is disconnected, since a
    diameter is then undefined.
    """
    best = 0
    for source in range(len(adjacency)):
        dist = bfs_distances(adjacency, source)
        worst = max(dist)
        if min(dist) < 0:
            raise TopologyError("graph is disconnected")
        best = max(best, worst)
    return best


def is_connected(adjacency: list[list[int]]) -> bool:
    if not adjacency:
        return True
    return min(bfs_distances(adjacency, 0)) >= 0


# ----------------------------------------------------------------------
# Standard topologies (edge lists over 0..n-1)
# ----------------------------------------------------------------------

def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a, b], axis=-1).reshape(-1, 2)


def line_edges(n: int) -> np.ndarray:
    """Path on ``n`` vertices; diameter ``n - 1``.  Edge ``i`` is
    ``(i, i + 1)``."""
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    lo = np.arange(n - 1, dtype=np.int64)
    return _pairs(lo, lo + 1)


def ring_edges(n: int) -> np.ndarray:
    """Cycle on ``n >= 3`` vertices; diameter ``n // 2``.  Edge ``i``
    is ``(i, (i + 1) % n)``."""
    if n < 3:
        raise TopologyError(f"need n >= 3 for a ring: {n!r}")
    lo = np.arange(n, dtype=np.int64)
    return _pairs(lo, (lo + 1) % n)


def complete_edges(n: int) -> list[tuple[int, int]]:
    """Clique on ``n`` vertices; diameter 1 (or 0 for n=1)."""
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(n: int) -> np.ndarray:
    """Star with center 0 and ``n - 1`` leaves; diameter 2."""
    if n < 2:
        raise TopologyError(f"need n >= 2 for a star: {n!r}")
    leaves = np.arange(1, n, dtype=np.int64)
    return _pairs(np.zeros_like(leaves), leaves)


def _mesh_edges(width: int, height: int, wrap: bool) -> np.ndarray:
    """Per vertex ``v = y*width + x`` in id order: its right edge,
    then its down edge — wrapping around on a torus, dropped at the
    border on a grid."""
    v = np.arange(width * height, dtype=np.int64)
    y, x = np.divmod(v, width)
    right = y * width + (x + 1) % width
    down = ((y + 1) % height) * width + x
    pairs = _pairs(np.stack([v, v], axis=1), np.stack([right, down], axis=1))
    if wrap:
        return pairs
    keep = np.stack([x + 1 < width, y + 1 < height], axis=1).reshape(-1)
    return pairs[keep]


def grid_edges(width: int, height: int) -> np.ndarray:
    """``width x height`` mesh; vertex ``(x, y)`` has id ``y*width + x``."""
    if width < 1 or height < 1:
        raise TopologyError("grid dimensions must be positive")
    return _mesh_edges(width, height, wrap=False)


def torus_edges(width: int, height: int) -> np.ndarray:
    """``width x height`` torus (wrap-around mesh)."""
    if width < 3 or height < 3:
        raise TopologyError("torus dimensions must be >= 3 to avoid "
                            "duplicate wrap edges")
    return _mesh_edges(width, height, wrap=True)


def balanced_tree_edges(branching: int, height: int) -> list[tuple[int, int]]:
    """Rooted balanced tree; node 0 is the root."""
    if branching < 1 or height < 0:
        raise TopologyError("need branching >= 1 and height >= 0")
    edges: list[tuple[int, int]] = []
    next_id = 1
    frontier = [0]
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return edges


def caterpillar_edges(length: int, width: int) -> np.ndarray:
    """Caterpillar: a spine path of ``length`` hubs, each carrying
    ``width - 1`` leaves; ``length * width`` vertices total.

    Hub ``i`` has id ``i * width``; its leaves occupy the rest of the
    block ``[i * width, (i + 1) * width)``.  The hop diameter is
    ``length + 1`` for ``width >= 2`` (leaf -> spine -> ... -> leaf)
    and ``length - 1`` for ``width == 1`` (a plain path) — the shape
    that decouples vertex count from diameter, so scale sweeps can fix
    ``D`` while pushing ``n`` to 1e5-1e6.

    Edges come hub by hub: the spine edge ``(hub, hub + width)``
    (absent after the last hub), then ``(hub, leaf)`` for each leaf.
    """
    if length < 1 or width < 1:
        raise TopologyError("caterpillar dimensions must be positive")
    offsets = np.arange(width, dtype=np.int64)
    offsets[0] = width  # slot 0 of each block is the spine edge
    hubs = np.arange(length, dtype=np.int64)[:, None] * width
    pairs = _pairs(np.broadcast_to(hubs, (length, width)), hubs + offsets)
    return np.delete(pairs, (length - 1) * width, axis=0)


def hypercube_edges(dim: int) -> list[tuple[int, int]]:
    """``dim``-dimensional hypercube on ``2**dim`` vertices."""
    if dim < 1:
        raise TopologyError(f"need dim >= 1: {dim!r}")
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return edges


def random_connected_edges(n: int, extra_edge_prob: float,
                           rng: random.Random) -> list[tuple[int, int]]:
    """A random connected graph: random spanning tree plus G(n, p) extras.

    The spanning tree is built by attaching each vertex ``i >= 1`` to a
    uniformly random earlier vertex, which samples trees with good
    degree spread; extra edges are then added independently.
    """
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    if not 0 <= extra_edge_prob <= 1:
        raise TopologyError(
            f"probability out of range: {extra_edge_prob!r}")
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return sorted(edges)
