"""Howell-form kernel dimensions against exhaustive enumeration."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import matrices

from critgroup.intmat import BigIntMatrix
from critgroup.modring import howell_form, kernel_dimension_mod, kernel_generators_mod


def enumerate_kernel_dim(matrix: BigIntMatrix, p: int, e: int) -> int:
    """Oracle: enumerate all x in (Z/p^e)^n with M x = 0, reduce mod p, rank."""
    modulus = p**e
    m, n = matrix.rows, matrix.cols
    images = set()
    for x in product(range(modulus), repeat=n):
        if all(sum(matrix[i, j] * x[j] for j in range(n)) % modulus == 0 for i in range(m)):
            images.add(tuple(v % p for v in x))
    return _gauss_rank(sorted(images), p)


def _gauss_rank(rows, p):
    work = [list(r) for r in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for j in range(width):
        piv = next((i for i in range(rank, len(work)) if work[i][j] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][j], -1, p)
        work[rank] = [(inv * x) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j] % p:
                f = work[i][j]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


class TestKernelDimensionMod:
    def test_identity(self):
        assert kernel_dimension_mod(BigIntMatrix.identity(3), 2, 1) == 0

    def test_single_even_pivot(self):
        assert kernel_dimension_mod(BigIntMatrix.diagonal([2, 1]), 2, 1) == 1

    def test_mixed_diagonal(self):
        # Oracle: solutions of diag(4,2,1) x = 0 mod 4 are (a, 2b, 0); their
        # mod-2 images span only (1, 0, 0), so the dimension is 1.
        m = BigIntMatrix.diagonal([4, 2, 1])
        assert enumerate_kernel_dim(m, 2, 2) == 1
        assert kernel_dimension_mod(m, 2, 2) == 1

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            kernel_dimension_mod(BigIntMatrix.identity(2), 4, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            kernel_dimension_mod(BigIntMatrix.identity(2), 2, 0)

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
    def test_agrees_with_enumeration(self, p, e):
        rng = random.Random(1000 * p + e)
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            mat = BigIntMatrix(m, n, [rng.randint(-10, 10) for _ in range(m * n)])
            assert kernel_dimension_mod(mat, p, e) == enumerate_kernel_dim(mat, p, e)

    @given(
        matrices(st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]),
    )
    def test_property_against_enumeration(self, mat, prime_power):
        p, e = prime_power
        assert kernel_dimension_mod(mat, p, e) == enumerate_kernel_dim(mat, p, e)


class TestHowellForm:
    def test_canonical_under_regeneration(self):
        # Unimodular row mixes of a generating set must not change the form.
        rng = random.Random(42)
        for modulus in (4, 8, 9, 27, 5):
            for _ in range(25):
                m = rng.randint(1, 4)
                n = rng.randint(1, 4)
                rows = [[rng.randrange(modulus) for _ in range(n)] for _ in range(m)]
                base = howell_form(rows, modulus)
                mixed = [row[:] for row in rows]
                for _ in range(6):
                    i, j = rng.randrange(m), rng.randrange(m)
                    if i != j:
                        f = rng.randrange(modulus)
                        mixed[i] = [(a + f * b) % modulus for a, b in zip(mixed[i], mixed[j])]
                rng.shuffle(mixed)
                assert howell_form(mixed, modulus) == base

    def test_spans_closed_under_annihilators(self):
        # Over Z/4 the row (2, 1) generates (0, 2) = 2*(2, 1) mod 4 as well;
        # the form must expose a row with leading zero column.
        form = howell_form([[2, 1]], 4)
        assert [0, 2] in form

    def test_kernel_generators_solve(self):
        rng = random.Random(9)
        for modulus in (4, 9, 8, 25):
            for _ in range(20):
                m = rng.randint(1, 3)
                n = rng.randint(1, 4)
                mat = BigIntMatrix(m, n, [rng.randint(-6, 6) for _ in range(m * n)])
                for gen in kernel_generators_mod(mat, modulus):
                    for i in range(m):
                        assert sum(mat[i, j] * gen[j] for j in range(n)) % modulus == 0

    def test_trailing_segment_property(self):
        # The property kernel extraction needs: span elements whose leading
        # entry sits at column >= c are generated by form rows with pivot >= c.
        def span(rows, modulus, width):
            out = {tuple([0] * width)}
            for coeffs in product(range(modulus), repeat=len(rows)):
                v = [0] * width
                for c, r in zip(coeffs, rows):
                    for j in range(width):
                        v[j] = (v[j] + c * r[j]) % modulus
                out.add(tuple(v))
            return out

        def leading(v):
            return next((j for j, x in enumerate(v) if x), None)

        rng = random.Random(99)
        for modulus in (4, 8, 9):
            for _ in range(12):
                m = rng.randint(1, 3)
                w = rng.randint(1, 3)
                rows = [[rng.randrange(modulus) for _ in range(w)] for _ in range(m)]
                form = howell_form(rows, modulus)
                full = span(rows, modulus, w)
                assert span(form, modulus, w) == full
                for c in range(w + 1):
                    sub = [r for r in form if leading(r) is not None and leading(r) >= c]
                    members = {v for v in full if leading(v) is None or leading(v) >= c}
                    assert span(sub, modulus, w) == members
