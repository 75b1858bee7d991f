"""CSR adjacency with empty-segment-safe neighbor reductions.

The vectorized engine's topology primitive: an undirected
:class:`~repro.topology.cluster_graph.ClusterGraph` flattened into the
standard compressed-sparse-row form (``indptr``/``indices`` over
*directed* slots, both directions of every edge).  Per-neighbor values
— clock estimates, delay draws — live in arrays aligned to the slot
order, and per-node aggregates come from ``ufunc.reduceat`` segment
reductions.

``reduceat`` needs care at degree-0 vertices: an empty segment makes
it return (or index past) a neighboring slot's value, so
:meth:`CSRAdjacency.segment_max`/``segment_min`` clip the offsets and
overwrite empty rows with the caller's identity fill.  Isolated
vertices therefore aggregate to ``fill`` (``-inf``/``+inf``), which
the vectorized trigger evaluation maps to "no neighbors: no trigger" —
the same answer :func:`repro.core.triggers.evaluate` gives.
"""

from __future__ import annotations

import numpy as np

from repro.topology.cluster_graph import ClusterGraph


class CSRAdjacency:
    """Directed-slot CSR view of an undirected cluster graph.

    Attributes
    ----------
    num_nodes, num_edges:
        Vertex and *undirected* edge counts.
    edge_a, edge_b:
        Endpoint arrays of the undirected edges (length ``num_edges``)
        — the per-edge view skew measurements use.
    row, indices, indptr:
        The CSR triplet over ``2 * num_edges`` directed slots: slot
        ``k`` means "node ``row[k]`` sees neighbor ``indices[k]``";
        node ``i`` owns slots ``indptr[i]:indptr[i+1]``.
    """

    def __init__(self, graph: ClusterGraph) -> None:
        n = graph.num_clusters
        pairs = graph.edge_array
        self.num_nodes = n
        self.num_edges = len(pairs)
        ea, eb = pairs[:, 0], pairs[:, 1]
        self.edge_a = ea
        self.edge_b = eb
        src = np.concatenate([ea, eb])
        dst = np.concatenate([eb, ea])
        order = np.argsort(src, kind="stable")
        self.row = src[order]
        self.indices = dst[order]
        self.indptr = np.searchsorted(self.row, np.arange(n + 1))

    @property
    def num_slots(self) -> int:
        """Directed slot count (``2 * num_edges``)."""
        return int(self.indices.size)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-slot view of per-node ``values`` (``values[indices]``)."""
        return values[self.indices]

    def _segment_reduce(self, slot_values: np.ndarray, ufunc,
                        fill: float) -> np.ndarray:
        out = np.full(self.num_nodes, fill, dtype=np.float64)
        if slot_values.size == 0:
            return out
        starts = self.indptr[:-1]
        nonempty = self.indptr[1:] > starts
        # Clipped starts keep reduceat in-bounds for trailing empty
        # segments; their bogus outputs are masked out below.
        reduced = ufunc.reduceat(
            slot_values, np.minimum(starts, slot_values.size - 1))
        out[nonempty] = reduced[nonempty]
        return out

    def segment_max(self, slot_values: np.ndarray,
                    fill: float = -np.inf) -> np.ndarray:
        """Per-node max over its slots (``fill`` for degree-0 nodes)."""
        return self._segment_reduce(slot_values, np.maximum, fill)

    def segment_min(self, slot_values: np.ndarray,
                    fill: float = np.inf) -> np.ndarray:
        """Per-node min over its slots (``fill`` for degree-0 nodes)."""
        return self._segment_reduce(slot_values, np.minimum, fill)

    def edge_skew(self, values: np.ndarray) -> float:
        """Max ``|values[a] - values[b]|`` over undirected edges
        (0.0 on edge-free graphs — the local skew convention)."""
        if self.num_edges == 0:
            return 0.0
        return float(np.abs(values[self.edge_a]
                            - values[self.edge_b]).max())


__all__ = ["CSRAdjacency"]
