"""Howell-form kernel dimensions: the packed-row routine against the list oracle and enumeration."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from strategies import matrices, rank_deficient_matrices

from critgroup import modring
from critgroup.arith import is_prime, valuation, xgcd
from critgroup.intmat import BigIntMatrix, smith_normal_form
from critgroup.modring import kernel_dimensions_mod

# ---------------------------------------------------------------- list oracle
#
# The entrywise reduction, one list entry per column.  ``modring`` computes the
# same rows on packed ints; these routines are the reference it is held to.


def _leading(row: list[int], start: int = 0) -> int | None:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def _annihilator_row(row: list[int], col: int, modulus: int) -> list[int] | None:
    """Multiple of ``row`` by the annihilator of its pivot, or None if trivial."""
    d = gcd(row[col], modulus)
    if d == 1:
        return None
    c = modulus // d
    out = [0] * (col + 1) + [(c * x) % modulus for x in row[col + 1 :]]
    return out if any(out) else None


def weak_howell_form(rows, modulus: int) -> list[list[int]]:
    """Echelon rows of the span of ``rows`` over Z/modulus, closed under annihilators.

    Returns one nonzero row per pivot column, sorted by pivot column; pivots
    are not normalized and entries above them are not reduced.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    pivots: dict[int, list[int]] = {}
    queue = [[x % modulus for x in r] for r in rows]
    while queue:
        vec = queue.pop()
        j = _leading(vec)
        while j is not None:
            if j not in pivots:
                pivots[j] = vec
                ann = _annihilator_row(vec, j, modulus)
                if ann is not None:
                    queue.append(ann)
                break
            cur = pivots[j]
            a, b = cur[j], vec[j]
            if b % a == 0:
                f = b // a
                vec[j:] = [(w - f * s) % modulus for s, w in zip(cur[j:], vec[j:])]
            else:
                g, x, y = xgcd(a, b)
                af, bf = a // g, b // g
                pairs = list(zip(cur[j:], vec[j:]))
                merged = [0] * j + [(x * s + y * w) % modulus for s, w in pairs]
                vec[j:] = [(af * w - bf * s) % modulus for s, w in pairs]
                pivots[j] = merged
                ann = _annihilator_row(merged, j, modulus)
                if ann is not None:
                    queue.append(ann)
            j = _leading(vec, j + 1)
    return [pivots[j] for j in sorted(pivots)]


def howell_form(rows, modulus: int) -> list[list[int]]:
    """Canonical Howell form of the span of ``rows`` over Z/modulus.

    The modulus must be a prime power so that every entry factors as a unit
    times a power of the prime (unit parts are then invertible, which the
    pivot normalization relies on).  Returns the nonzero rows, sorted by
    pivot column, with pivots dividing the modulus and entries above each
    pivot reduced modulo it.
    """
    ordered = weak_howell_form(rows, modulus)
    # Pivot normalization: scale by the inverse of the unit part so the pivot
    # becomes gcd(pivot, modulus), a divisor of the modulus.
    for row in ordered:
        j = _leading(row)
        d = gcd(row[j], modulus)
        if row[j] != d:
            inv = pow(row[j] // d, -1, modulus)
            row[:] = [(inv * x) % modulus for x in row]
    # Reduce entries above each pivot modulo the pivot.
    cols = [_leading(r) for r in ordered]
    for r, (row, j) in enumerate(zip(ordered, cols)):
        d = row[j]
        for s in range(r):
            up = ordered[s]
            f = up[j] // d
            if f:
                up[:] = [(a - f * b) % modulus for a, b in zip(up, row)]
    return ordered


def _augmented_transpose(matrix: BigIntMatrix) -> list[list[int]]:
    """Rows of [M^T | I]: the combination with coefficients x is (M x, x)."""
    n = matrix.cols
    return [row + [int(i == c) for c in range(n)] for i, row in enumerate(matrix.transpose().to_rows())]


def kernel_generators_mod(matrix: BigIntMatrix, modulus: int) -> list[list[int]]:
    """Generators of {x in (Z/modulus)^n : M x = 0 over Z/modulus}.

    The rows of the weak Howell form of [M^T | I] whose matrix block vanishes
    carry them.  They are not canonical: compare two generating sets through
    ``howell_form``.
    """
    m = matrix.rows
    return [row[m:] for row in weak_howell_form(_augmented_transpose(matrix), modulus) if not any(row[:m])]


def kernel_dimension_mod(matrix: BigIntMatrix, p: int, e: int) -> int:
    """Dimension over Z/p of the mod-p image of {x : M x = 0 mod p^e}, one fresh reduction."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("exponent must be at least 1")
    # Over the field Z/p every nonzero pivot is a unit, so no annihilator rows
    # arise: the weak Howell form of the generators is an echelon basis of
    # their mod-p span and its length is the dimension.
    return len(weak_howell_form(kernel_generators_mod(matrix, p**e), p))


# ---------------------------------------------------------------- packed rows


def pack(row, width: int) -> int:
    return sum(x << j * width for j, x in enumerate(row))


def unpack(x: int, width: int, cols: int) -> list[int]:
    return [(x >> j * width) & ((1 << width) - 1) for j in range(cols)]


def packed_weak_form(rows, modulus: int) -> list[list[int]]:
    """``modring._weak_howell_form`` on list rows: pack, reduce, unpack."""
    cols = len(rows[0]) if rows else 0
    width = modring._slot_width(modulus)
    packed = [pack([x % modulus for x in r], width) for r in rows]
    return [unpack(x, width, cols) for x in modring._weak_howell_form(packed, modulus, width, cols)]


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
        assert kernel_dimension_mod(BigIntMatrix.diagonal([1] * 3), 2, 1) == 0

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
            kernel_dimension_mod(BigIntMatrix.diagonal([1] * 2), 4, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            kernel_dimension_mod(BigIntMatrix.diagonal([1] * 2), 2, 0)

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


# Small multiples of prime powers, so that pivots vanish on the way down, and of
# their products, so that a pivot mod (prod p)^e can carry p^e or more.
PRIME_POWER_MULTIPLES = st.builds(
    lambda u, q: u * q,
    st.integers(-3, 3),
    st.sampled_from([1, 2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49, 6, 10, 15, 30, 12, 36, 100, 105, 121]),
)


class TestDescendingPass:
    """Every level of the one-pass descent against a fresh reduction at that level."""

    @given(
        st.one_of(
            matrices(st.integers(1, 6), st.integers(1, 6), PRIME_POWER_MULTIPLES),
            rank_deficient_matrices(6),
            matrices(st.integers(0, 6), st.just(0)),
            matrices(st.just(0), st.integers(0, 6)),
        ),
        st.sampled_from([(2, 5), (3, 3), (5, 2), (7, 2)]),
    )
    def test_levels_match_fresh_reductions(self, mat, prime_depth):
        p, e_max = prime_depth
        expected = tuple(kernel_dimension_mod(mat, p, e) for e in range(1, e_max + 1))
        assert kernel_dimensions_mod(mat, [p], e_max) == {p: expected}

    @given(
        matrices(st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from([(2, 3), (3, 2), (5, 1), (7, 1)]),
    )
    def test_levels_against_enumeration(self, mat, prime_depth):
        # p^e <= 9 at every level, so the oracle enumerates at most 9^3 vectors.
        p, e_max = prime_depth
        expected = tuple(enumerate_kernel_dim(mat, p, e) for e in range(1, e_max + 1))
        assert kernel_dimensions_mod(mat, [p], e_max) == {p: expected}

    # M^T = [[2, 1]] mod 4: the row times 2 adds (0, 2), so the span has
    # length 2; without the annihilator rows the pivots would count only 1.
    @example(BigIntMatrix.from_rows([[2], [1]]), (2, 2))
    @given(
        st.one_of(
            matrices(st.integers(1, 5), st.integers(1, 5), PRIME_POWER_MULTIPLES),
            rank_deficient_matrices(5),
        ),
        st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 4), (5, 3), (7, 2)]),
    )
    def test_pivot_length_equals_smith_length(self, mat, prime_power):
        # The identity the routine rests on: over the weak Howell form of M^T's
        # rows, sum (e - v_p(pivot)) is the length sum_i (e - min(v_p(d_i), e))
        # of the image of M mod p^e, d_i the Smith diagonal (oracle only).
        p, e = prime_power
        form = packed_weak_form(mat.transpose().to_rows(), p**e)
        length = sum(e - valuation(row[leading(row)], p) for row in form)
        diagonal = smith_normal_form(mat).diagonal
        assert length == sum(e - min(valuation(d, p), e) for d in diagonal if d)

    def test_diagonal_prime_powers(self):
        # diag(1, 2, 4, 8, 0): x_j may be nonzero mod 2 once 2^e divides d_j.
        mat = BigIntMatrix.diagonal([1, 2, 4, 8, 0])
        assert kernel_dimensions_mod(mat, [2], 4) == {2: (4, 3, 2, 1)}

    def test_rejects_bad_args(self):
        # p is trusted prime here: critical.mbar_filtrations rejects a composite p.
        with pytest.raises(ValueError):
            kernel_dimensions_mod(BigIntMatrix.diagonal([1] * 2), [2], 0)


class TestGroupedDescent:
    """One descent mod (prod p)^e against each prime's own descent and a fresh reduction per level."""

    # r = 6, e = 1: the pivot 4 carries 2^2 past 2^1, so without min(v_p, e)
    # the length at 2 would be negative.
    @example(BigIntMatrix.from_rows([[4]]), (2, 3), 1)
    @example(BigIntMatrix.from_rows([[36, 0], [6, 30]]), (3, 2, 5), 2)
    @given(
        st.one_of(
            matrices(st.integers(1, 6), st.integers(1, 6), PRIME_POWER_MULTIPLES),
            rank_deficient_matrices(6),
            matrices(st.integers(0, 6), st.just(0)),
            matrices(st.just(0), st.integers(0, 6)),
        ),
        st.sampled_from([(2, 3), (2, 5, 7), (3, 5, 7, 11)]).flatmap(st.permutations),
        st.integers(1, 3),
    )
    def test_group_equals_each_prime_alone(self, mat, primes, e_max):
        grouped = kernel_dimensions_mod(mat, list(primes), e_max)
        assert list(grouped) == list(primes)
        for p in primes:
            fresh = tuple(kernel_dimension_mod(mat, p, e) for e in range(1, e_max + 1))
            assert grouped[p] == kernel_dimensions_mod(mat, [p], e_max)[p] == fresh

    def test_diagonal_of_mixed_prime_powers(self):
        # diag(6, 4, 9, 8, 0) over r = 6: x_j may be nonzero mod p once p^e divides d_j.
        mat = BigIntMatrix.diagonal([6, 4, 9, 8, 0])
        assert kernel_dimensions_mod(mat, [2, 3], 3) == {2: (4, 3, 2), 3: (3, 2, 1)}

    @pytest.mark.parametrize("primes,e_max", [([], 1), ([2, 2], 1), ([3, 5, 3], 2), ([2, 3], 0), ([5, 7], -1)])
    def test_rejects_bad_args(self, primes, e_max):
        # An empty group, a repeated prime (its square would enter the modulus) or e_max < 1.
        with pytest.raises(ValueError):
            kernel_dimensions_mod(BigIntMatrix.diagonal([1] * 2), primes, e_max)


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
        assert_trailing_segment_property(howell_form)

    def test_trailing_segment_property_weak_form(self):
        # The kernel routine stops at the weak form, so it must have the
        # property on its own, before any canonicalization: the packed
        # routine the program runs, and the oracle.
        assert_trailing_segment_property(packed_weak_form)
        assert_trailing_segment_property(weak_howell_form)

    def test_trailing_segment_property_composite_modulus(self):
        # Z/6 = Z/2 x Z/3: a grouped descent needs the property over such rings too.
        assert_trailing_segment_property(packed_weak_form, moduli=(6,))

    @given(
        matrices(st.integers(1, 4), st.integers(1, 4), st.integers(-30, 30)),
        st.sampled_from([4, 8, 9, 25, 27]),
    )
    def test_weak_form_kernel_spans_canonical_kernel(self, mat, modulus):
        m, n = mat.rows, mat.cols
        rows = [[mat[r, i] % modulus for r in range(m)] + [int(i == c) for c in range(n)]
                for i in range(n)]
        weak, canonical = packed_weak_form(rows, modulus), howell_form(rows, modulus)
        assert [leading(r) for r in weak] == [leading(r) for r in canonical]
        expected = howell_form([row[m:] for row in canonical if not any(row[:m])], modulus)
        assert howell_form([row[m:] for row in weak if not any(row[:m])], modulus) == expected
        assert howell_form(kernel_generators_mod(mat, modulus), modulus) == expected


# Prime powers and primes whose merge step reaches 2(q - 1)^2; the widest
# slots come from 8191 and 2^31 - 1.  Powers of squarefree products (6, 36, 30,
# 900, 210, 216 = 6^3, 30030) are the moduli a grouped descent reduces by: the
# slot bound and the merge step never use that q is a prime power.
MODULI = [2, 4, 8, 9, 25, 27, 31, 32, 127, 169, 243, 8191, 2**31 - 1, 6, 36, 30, 900, 210, 216, 30030]


@st.composite
def residue_rows(draw):
    """(q, rows): up to 7 x 7 entries in (-q, q), some rows and columns forced to zero."""
    q = draw(st.sampled_from(MODULI))
    m, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-q + 1, q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=3))
    return q, [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
               for i, r in enumerate(rows)]


@st.composite
def merge_rows(draw):
    """(q, rows) whose merge step puts a slot value near 2(q - 1)^2 into the reduction.

    The last row, popped first, leads with f and the other with 1; f does not
    divide 1, so they merge into f vec + (q - 1) cur.  Its slot 1 is
    s = f v + (q - 1) c, with v chosen so that s = q - 1 mod q and s at least
    (q - 1)^2: the residue q - 1 of a large slot is where k = 2 bits(q)
    reduces wrongly (from 1115 at q = 31).
    """
    q = draw(st.sampled_from([31, 243, 30, 210, 900]))
    f = draw(st.integers(2, q - 1).filter(lambda f: gcd(f, q) == 1))
    c = draw(st.integers(q - 8, q - 1))
    v = (c - 1) * pow(f, -1, q) % q
    assume(f * v + (q - 1) * c >= (q - 1) ** 2)
    k = draw(st.integers(0, 3))
    tail = st.lists(st.integers(q - 8, q - 1), min_size=k, max_size=k)
    return q, [[1, v] + draw(tail), [f, c] + draw(tail)]


class TestPackedRows:
    """The packed routine against the list oracle, at the slot-width bound."""

    # The example runs first: its merge slot 29 * 17 + 30 * 29 = 1363 is
    # reduced wrongly by k = 2 bits(q), while such slots at q = 243 make that
    # routine loop forever instead of failing.
    @example((31, [[1, 17], [29, 29]]))
    @given(st.one_of(residue_rows(), merge_rows()))
    def test_weak_form_equals_oracle_row_for_row(self, case):
        q, rows = case
        assert packed_weak_form(rows, q) == weak_howell_form(rows, q)

    @pytest.mark.parametrize("p,e", [(2, 5), (3, 5), (13, 2)])
    def test_shifted_rows_equal_oracle_row_for_row(self, p, e):
        # Rows of [M^T | I] whose column 0 is zero, so every pivot sits at a
        # column >= 1 and so do the annihilator rows its zero-divisor pivots
        # queue; M has fewer rows than columns, so kernel rows lead inside the
        # identity block.  Entries q - p and q - 1 push merge slots to the bound.
        q, m, n = p**e, 4, 5
        rng = random.Random(q)
        mt = [[0] + [rng.choice((0, p * rng.randrange(q // p), q - p, q - 1)) for _ in range(m - 1)]
              for _ in range(n)]
        rows = [r + [int(i == c) for c in range(n)] for i, r in enumerate(mt)]
        expected = weak_howell_form(rows, q)
        leads = [leading(r) for r in expected]
        assert min(leads) >= 1 and max(leads) >= m
        assert any(j < m and _annihilator_row(r, j, q) for r, j in zip(expected, leads))
        assert packed_weak_form(rows, q) == expected

    @pytest.mark.parametrize("q", MODULI)
    def test_reduction_at_the_bound(self, q):
        # Slot values reached by the row updates, up to the merge step's
        # 2(q - 1)^2; 1115 (q = 31) and 72170 (q = 243) are where k = 2 bits(q)
        # gives a wrong residue.  Neighbouring slots catch carries and borrows.
        top = 2 * (q - 1) ** 2
        values = [v for v in (0, 1, q - 1, q, top - 1, top, 1115, 72170) if v <= top]
        width, cols = modring._slot_width(q), 4
        reduce = modring._reducer(q, width, cols)
        words = list(product(values, repeat=cols))
        rng = random.Random(q)
        words += [[rng.randint(0, top) for _ in range(cols)] for _ in range(200)]
        for word in words:
            assert unpack(reduce(pack(word, width)), width, cols) == [v % q for v in word]

    @pytest.mark.parametrize("p,e", [(31, 1), (127, 1), (3, 5), (2, 7), (7, 3), (31, 2), (8191, 1), (2**31 - 1, 1)])
    def test_levels_match_oracle_with_entries_up_to_q(self, p, e):
        q, rng = p**e, random.Random(p * e)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mat = BigIntMatrix(m, n, [rng.choice((0, rng.randint(-q, q))) for _ in range(m * n)])
            expected = tuple(kernel_dimension_mod(mat, p, k) for k in range(1, e + 1))
            assert kernel_dimensions_mod(mat, [p], e) == {p: expected}

    @pytest.mark.parametrize("shape", [(2000, 3), (3, 2000)])
    @pytest.mark.parametrize("p,e", [(2, 6), (7, 3)])
    def test_long_packed_rows(self, shape, p, e):
        # M has the vectors a, p b and a + p^3 c, entries in [-10^6, 10^6], as its
        # columns (tall) or rows (wide), so the dims move with e.  Tall, each packed
        # row is 2000 slots: 14,000 or 20,000 hex digits, past int()'s 4300-digit
        # limit for a decimal string.  Wide, 2000 packed rows of 3 slots each.
        m, n = shape
        length, rng = max(m, n), random.Random(p * e)
        bound = [10**6 // 2, 10**6 // p, 10**6 // (2 * p**3)]
        a, b, c = ([rng.randint(-r, r) for _ in range(length)] for r in bound)
        b, c = [p * y for y in b], [x + p**3 * z for x, z in zip(a, c)]
        mat = BigIntMatrix.from_rows(list(zip(a, b, c)) if m > n else [a, b, c])
        assert mat.shape == shape and max(map(abs, a + b + c)) <= 10**6
        if m > n:
            assert m * modring._slot_width(p**e) // 4 > 4300
            expected = tuple(kernel_dimension_mod(mat, p, k) for k in range(1, e + 1))
        else:
            # The kernel route reduces 2000 rows of 2003 entries per level, which
            # takes seconds; the unpacked length route reads the same dims.
            rows = mat.transpose().to_rows()
            lengths = [0] + [sum(k - valuation(r[leading(r)], p) for r in weak_howell_form(rows, p**k))
                             for k in range(1, e + 1)]
            expected = tuple(n - (lengths[k] - lengths[k - 1]) for k in range(1, e + 1))
        assert expected[0] > expected[-1]
        assert kernel_dimensions_mod(mat, [p], e) == {p: expected}


def leading(v):
    return next((j for j, x in enumerate(v) if x), None)


def span(rows, modulus, width):
    out = {tuple([0] * width)}
    for coeffs in product(range(modulus), repeat=len(rows)):
        v = [0] * width
        for c, r in zip(coeffs, rows):
            for j in range(width):
                v[j] = (v[j] + c * r[j]) % modulus
        out.add(tuple(v))
    return out


def assert_trailing_segment_property(reduce, moduli=(4, 8, 9)):
    # The property kernel extraction needs: span elements whose leading
    # entry sits at column >= c are generated by form rows with pivot >= c.
    rng = random.Random(99)
    for modulus in moduli:
        for _ in range(12):
            m = rng.randint(1, 3)
            w = rng.randint(1, 3)
            rows = [[rng.randrange(modulus) for _ in range(w)] for _ in range(m)]
            form = reduce(rows, modulus)
            full = span(rows, modulus, w)
            assert span(form, modulus, w) == full
            for c in range(w + 1):
                sub = [r for r in form if leading(r) is not None and leading(r) >= c]
                members = {v for v in full if leading(v) is None or leading(v) >= c}
                assert span(sub, modulus, w) == members
