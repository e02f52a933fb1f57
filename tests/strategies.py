"""Hypothesis strategies for integer matrices, shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from critgroup.intmat import BigIntMatrix

SMALL = st.integers(-12, 12)


def matrices(rows, cols, entries=SMALL):
    """Matrices whose row and column counts are drawn from ``rows`` and ``cols``."""

    def fill(shape):
        m, n = shape
        return st.lists(entries, min_size=m * n, max_size=m * n).map(
            lambda ent: BigIntMatrix(m, n, ent)
        )

    return st.tuples(rows, cols).flatmap(fill)


def square_matrices(max_dim, entries=SMALL):
    return st.integers(0, max_dim).flatmap(lambda n: matrices(st.just(n), st.just(n), entries))


@st.composite
def rank_deficient_matrices(draw, max_dim):
    """Products of an m x k and a k x n matrix with k < min(m, n)."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, min(m, n) - 1))
    left = draw(matrices(st.just(m), st.just(k), st.integers(-5, 5)))
    right = draw(matrices(st.just(k), st.just(n), st.integers(-5, 5)))
    return left @ right
