"""Kneser graph construction, matrices, and strongly regular structure."""

from __future__ import annotations

import random
from dataclasses import replace
from math import comb

import pytest
from paper_checks import srg_parameters, verify_srg_identity

from critgroup.graphs import Graph, kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix


def degrees(g: Graph) -> list[int]:
    """Vertex degrees counted from the edge set."""
    deg = [0] * g.num_vertices
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


class TestKneserGraph:
    def test_three_vertices_no_edges(self):
        g = kneser_graph(3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_three_disjoint_edges(self):
        g = kneser_graph(4)
        assert g.num_vertices == 6
        assert g.num_edges == 3
        assert all(d == 1 for d in degrees(g))
        assert sorted(g.edges) == [(0, 5), (1, 4), (2, 3)]

    def test_petersen(self):
        g = kneser_graph(5)
        assert g.num_vertices == 10
        assert g.num_edges == 15
        assert all(d == 3 for d in degrees(g))

    def test_vertex_order_lexicographic(self):
        g = kneser_graph(4)
        assert g.vertex_labels == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_sizes(self):
        for n in range(2, 12):
            g = kneser_graph(n)
            assert g.num_vertices == comb(n, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kneser_graph(1)
        with pytest.raises(ValueError):
            kneser_graph(3, 4)
        with pytest.raises(ValueError):
            kneser_graph(5, 0)

    def test_general_k(self):
        g = kneser_graph(6, 3)
        assert g.num_vertices == comb(6, 3)
        assert all(d == 1 for d in degrees(g))

    def test_relabeling_is_automorphism(self):
        # The natural symmetric group action on the ground set permutes
        # vertices without changing adjacency.
        rng = random.Random(77)
        for n in (5, 6, 7, 9):
            g = kneser_graph(n)
            index = {lbl: i for i, lbl in enumerate(g.vertex_labels)}
            for _ in range(5):
                sigma = list(range(1, n + 1))
                rng.shuffle(sigma)
                pi = [
                    index[tuple(sorted((sigma[a - 1], sigma[b - 1])))]
                    for a, b in g.vertex_labels
                ]
                mapped = {(min(pi[a], pi[b]), max(pi[a], pi[b])) for a, b in g.edges}
                assert mapped == set(g.edges)


class TestMatrices:
    def test_laplacian_single_edge(self):
        g = Graph.from_edge_list(2, [(0, 1)])
        assert laplacian_matrix(g) == BigIntMatrix.from_rows([[1, -1], [-1, 1]])

    def test_laplacian_structure(self):
        for n in (3, 5, 7):
            g = kneser_graph(n)
            lap = laplacian_matrix(g)
            assert lap == lap.transpose()
            assert all(sum(lap.row(i)) == 0 for i in range(g.num_vertices))
            degs = degrees(g)
            assert all(lap[i, i] == degs[i] for i in range(g.num_vertices))

    def test_laplacian_edgeless(self):
        assert laplacian_matrix(kneser_graph(3)) == BigIntMatrix(3, 3, [0] * 9)


class TestStronglyRegular:
    @pytest.mark.parametrize(
        "n,expected",
        [(5, (10, 3, 0, 1)), (6, (15, 6, 1, 3)), (7, (21, 10, 3, 6))],
    )
    def test_parameters(self, n, expected):
        prm = srg_parameters(n)
        assert (prm.v, prm.k, prm.lam, prm.mu) == expected

    def test_parameters_reject_small_n(self):
        with pytest.raises(ValueError):
            srg_parameters(4)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_identity_holds(self, n):
        assert verify_srg_identity(kneser_graph(n), srg_parameters(n))

    @pytest.mark.parametrize("field", ["k", "lam", "mu"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_identity_fails_with_wrong_parameter(self, field, delta):
        # KG(6, 2) has lambda = 1, so each of the three arms has pairs to check.
        prm = srg_parameters(6)
        wrong = replace(prm, **{field: getattr(prm, field) + delta})
        assert not verify_srg_identity(kneser_graph(6), wrong)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_srg_identity(kneser_graph(6), srg_parameters(5))


class TestGraph:
    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edge_list(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edge_list(2, [(0, 5)])
