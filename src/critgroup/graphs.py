"""Simple undirected graphs with a fixed vertex order; Kneser graph builders.

Vertices of KG(n, k) are the k-subsets of {1, ..., n} in lexicographic order,
adjacent exactly when disjoint.  The fixed order makes every derived matrix
and report deterministic.
"""

from __future__ import annotations

from itertools import combinations

from .intmat import BigIntMatrix


class Graph:
    """Simple undirected graph over an ordered vertex set."""

    __slots__ = ("vertex_labels", "edges")

    def __init__(self, vertex_labels, edges) -> None:
        labels = tuple(vertex_labels)
        v = len(labels)
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a}, {b}) out of range for {v} vertices")
            norm.add((a, b) if a < b else (b, a))
        self.vertex_labels = labels
        self.edges = frozenset(norm)

    @classmethod
    def from_edge_list(cls, num_vertices: int, edges) -> "Graph":
        return cls(range(num_vertices), edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"


def kneser_graph(n: int, k: int = 2) -> Graph:
    """Kneser graph on k-subsets of {1, ..., n}, edges joining disjoint pairs."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    labels = list(combinations(range(1, n + 1), k))
    sets = [frozenset(lbl) for lbl in labels]
    edges = [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i].isdisjoint(sets[j])
    ]
    return Graph(labels, edges)


def laplacian_matrix(g: Graph) -> BigIntMatrix:
    """Degree matrix minus adjacency matrix; rows sum to zero."""
    v = g.num_vertices
    ent = [0] * (v * v)
    for a, b in g.edges:
        ent[a * v + b] = -1
        ent[b * v + a] = -1
        ent[a * v + a] += 1
        ent[b * v + b] += 1
    return BigIntMatrix(v, v, ent)
