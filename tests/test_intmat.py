"""Smith normal form, its cokernel views, and determinant against independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from math import comb, gcd, isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import matrices, rank_deficient_matrices, square_matrices

from critgroup import critical, intmat, reports
from critgroup.arith import CertificationError
from critgroup.cli import main
from critgroup.intmat import BigIntMatrix, SmithDecomposition, determinant, matrix_rank, smith_normal_form
from critgroup.mmio import write_matrix_market


def minor_gcd(matrix: BigIntMatrix, k: int) -> int:
    """gcd of all k x k minors, by brute-force enumeration."""
    g = 0
    rows = matrix.to_rows()
    for ri in combinations(range(matrix.rows), k):
        for ci in combinations(range(matrix.cols), k):
            sub = BigIntMatrix(k, k, [rows[i][j] for i in ri for j in ci])
            g = gcd(g, determinant(sub))
    return g


def fraction_elimination(matrix: BigIntMatrix) -> tuple[int, int | None]:
    """Oracle: (rank, determinant) by Gauss-Jordan over the rationals.

    The determinant is None for a non-square matrix.
    """
    rows = [[Fraction(x) for x in r] for r in matrix.to_rows()]
    rank = 0
    det = Fraction(1)
    for j in range(matrix.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        pivot = rows[rank][j]
        det *= pivot
        rows[rank] = [x / pivot for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    if not matrix.is_square:
        return rank, None
    return rank, int(det) if rank == matrix.rows else 0


def random_matrix(rng, max_dim=5, bound=100) -> BigIntMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return BigIntMatrix(m, n, [rng.randint(-bound, bound) for _ in range(m * n)])


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(BigIntMatrix.diagonal([1] * 3))
        assert snf.diagonal == (1, 1, 1)
        assert snf.rank == 3

    def test_two_by_two(self):
        # Minor oracle: s1 = gcd of entries = 2, s1*s2 = |det| = 8.
        snf = smith_normal_form(BigIntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.diagonal == (2, 4)

    def test_zero_matrix(self):
        snf = smith_normal_form(BigIntMatrix(2, 3, [0] * 6))
        assert snf.diagonal == (0, 0)
        assert snf.rank == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(BigIntMatrix(0, 3, []))

    def test_transforms_certify(self):
        m = BigIntMatrix.from_rows([[2, 4], [6, 8]])
        snf = smith_normal_form(m, want_transforms=True)
        u, v = snf.transforms
        assert u @ m @ v == snf.diagonal_matrix()
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1

    def test_random_transforms_certify(self):
        rng = random.Random(20240501)
        for _ in range(120):
            m = random_matrix(rng, max_dim=6, bound=50)
            snf = smith_normal_form(m, want_transforms=True)
            u, v = snf.transforms
            assert u @ m @ v == snf.diagonal_matrix()
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            for a, b in zip(snf.diagonal, snf.diagonal[1:]):
                if b:
                    assert b % a == 0

    def test_random_minor_gcd_oracle(self):
        rng = random.Random(987)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=30)
            snf = smith_normal_form(m)
            for k in range(1, snf.rank + 1):
                assert prod(snf.diagonal[:k]) == minor_gcd(m, k)

    def test_invariant_under_permutation_and_negation(self):
        rng = random.Random(5)
        for _ in range(40):
            m = random_matrix(rng, max_dim=5, bound=40)
            rows = m.to_rows()
            rng.shuffle(rows)
            perm_cols = list(range(m.cols))
            rng.shuffle(perm_cols)
            shuffled = [[row[j] for j in perm_cols] for row in rows]
            i = rng.randrange(m.rows)
            shuffled[i] = [-x for x in shuffled[i]]
            m2 = BigIntMatrix.from_rows(shuffled)
            assert smith_normal_form(m).diagonal == smith_normal_form(m2).diagonal


class TestSmithProperties:
    """Smith diagonal against the minor-gcd oracle on non-square and rank-deficient shapes."""

    @staticmethod
    def check_against_minors(m):
        snf = smith_normal_form(m)
        diag = snf.diagonal
        witnessed = smith_normal_form(m, want_transforms=True)
        assert witnessed.diagonal == diag
        u, v = witnessed.transforms
        assert u @ m @ v == snf.diagonal_matrix()
        assert abs(determinant(u)) == abs(determinant(v)) == 1
        assert snf.rank == sum(1 for d in diag if d)
        for a, b in zip(diag[: snf.rank], diag[1 : snf.rank]):
            assert b % a == 0
        for k in range(1, min(m.rows, m.cols) + 1):
            assert prod(diag[:k]) == minor_gcd(m, k)

    @given(matrices(st.integers(1, 4), st.integers(1, 4)))
    def test_any_shape(self, m):
        self.check_against_minors(m)

    @given(rank_deficient_matrices(4))
    def test_rank_deficient(self, m):
        self.check_against_minors(m)


def scan_pivot(a, t, m, n):
    """Oracle: the first entry of minimal |value| in a full row-major scan of a[t:, t:]."""
    best = None
    best_abs = 0
    for i in range(t, m):
        for j in range(t, n):
            x = abs(a[i][j])
            if x == 1:
                return (i, j)
            if x and (best is None or x < best_abs):
                best, best_abs = (i, j), x
    return best


@st.composite
def rising_floor_matrices(draw):
    """A (+) p B, block-diagonal, or g A: the trailing block's gcd rises partway through the elimination."""
    small = st.sampled_from((0, 1, -1, 2, -2, 3, -3))
    a = draw(matrices(st.integers(1, 5), st.integers(1, 5), small))
    scale = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return BigIntMatrix(a.rows, a.cols, [scale * x for i in range(a.rows) for x in a.row(i)])
    b = draw(matrices(st.integers(1, 5), st.integers(1, 5), small))
    rows = [list(a.row(i)) + [0] * b.cols for i in range(a.rows)]
    rows += [[0] * a.cols + [scale * x for x in b.row(i)] for i in range(b.rows)]
    return BigIntMatrix.from_rows(rows)


class TestPivotCache:
    """The pivot search with cached row minima picks the entry a full scan of the block picks."""

    SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3))

    @staticmethod
    def check_every_pivot(matrix):
        """Check every search, plain and with transforms; return the floors passed to it."""
        find_pivot = intmat._find_pivot
        calls = []

        def checked(a, t, m, n, mins, floor):
            # gcd(f, x) == f says that f divides x, for f = 0 too.
            assert all(gcd(floor, x) == floor for row in a[t:m] for x in row[t:n])
            pos = find_pivot(a, t, m, n, mins, floor)
            assert pos == scan_pivot(a, t, m, n)
            if pos is not None:
                assert floor <= abs(a[pos[0]][pos[1]])
            calls.append(floor)
            return pos

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intmat, "_find_pivot", checked)
            mp.setattr(intmat, "_dense_diagonal", lambda matrix: None)
            plain = smith_normal_form(matrix)
            witnessed = smith_normal_form(matrix, want_transforms=True)
        assert calls and witnessed.diagonal == plain.diagonal
        return calls

    @given(matrices(st.integers(1, 9), st.integers(1, 9), SPARSE))
    def test_sparse(self, m):
        self.check_every_pivot(m)

    @given(rank_deficient_matrices(8))
    def test_rank_deficient(self, m):
        self.check_every_pivot(m)

    @given(rising_floor_matrices())
    def test_rising_floor(self, m):
        self.check_every_pivot(m)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_kneser_laplacians(self, laplacian_of, n):
        assert max(self.check_every_pivot(laplacian_of(n))) > 1

    @staticmethod
    def count_rescans(matrix, want_transforms):
        """(rows rescanned over the whole elimination, shapes of the blocks it starts on)."""
        rescanned = 0
        with pytest.MonkeyPatch.context() as mp:
            blocks = spy_blocks(mp)
            find_pivot = intmat._find_pivot

            def counted(a, t, m, n, mins, floor):
                nonlocal rescanned
                unknown = [i for i in range(t, m) if mins[i] is None]
                pos = find_pivot(a, t, m, n, mins, floor)
                rescanned += sum(mins[i] is not None for i in unknown)
                return pos

            mp.setattr(intmat, "_find_pivot", counted)
            smith_normal_form(matrix, want_transforms)
        return rescanned, blocks

    def test_kneser_rescans_few_rows(self, laplacian_of):
        """KG(16, 2) has no unit pivot after its first 15; the floor still ends row rescans early.

        The engine runs on L itself only with transforms.  Ending rescans only at a unit
        rescanned 1,301 rows here, the floor 274; the count is machine-independent.
        """
        rescanned, blocks = self.count_rescans(laplacian_of(16), want_transforms=True)
        assert blocks == [(120, 120)] and rescanned <= 400

    def test_kneser_border_rescans_few_rows(self, laplacian_of):
        """A plain call runs the engine on L(KG(16, 2))'s rank-one border P, which rescanned 269 rows."""
        rescanned, blocks = self.count_rescans(laplacian_of(16), want_transforms=False)
        assert blocks == [(121, 121)] and rescanned <= 300


@st.composite
def dominant_matrices(draw):
    """Matrices of 1..7 x 1..7 in which one c != 0 fills more than half the entries.

    Every row of a rank-deficient one is more than half c and repeats one of r < min(m, n) rows.
    """
    c = draw(st.sampled_from((-3, -1, 2, 7)))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def mostly_c(size):
        entries = draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size))
        for i in draw(st.permutations(range(size)))[: draw(st.integers(size // 2 + 1, size))]:
            entries[i] = c
        return entries

    if min(m, n) > 1 and draw(st.booleans()):
        base = [mostly_c(n) for _ in range(draw(st.integers(1, min(m, n) - 1)))]
        return BigIntMatrix.from_rows(draw(st.lists(st.sampled_from(base), min_size=m, max_size=m)))
    return BigIntMatrix(m, n, mostly_c(m * n))


def spy_blocks(mp) -> list[tuple[int, int]]:
    """Patch ``intmat._find_pivot`` to record the shape of the block each elimination starts on."""
    find_pivot = intmat._find_pivot
    blocks = []

    def spy(a, t, m, n, mins, floor):
        if t == 0:
            blocks.append((m, n))
        return find_pivot(a, t, m, n, mins, floor)

    mp.setattr(intmat, "_find_pivot", spy)
    return blocks


def engine_blocks(matrix, want_transforms=False):
    """Smith form of ``matrix`` and the shapes of the blocks the engine starts on, with the Bareiss pass off."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = spy_blocks(mp)
        mp.setattr(intmat, "_dense_diagonal", lambda matrix: None)
        return smith_normal_form(matrix, want_transforms), blocks


class TestRankOneBorder:
    """A plain call runs the engine on P = [[M - cJ, 1], [-c 1^T, 1]] when one c != 0 fills more than half of M.

    coker P = coker M, so P's diagonal is (1, diagonal of M); with transforms the engine keeps M.
    """

    @staticmethod
    def check_border(m):
        plain, blocks = engine_blocks(m)
        assert blocks == [(m.rows + 1, m.cols + 1)]
        witnessed, blocks = engine_blocks(m, want_transforms=True)
        assert blocks == [m.shape]
        assert plain == SmithDecomposition(m.rows, m.cols, witnessed.diagonal, witnessed.rank)

    @given(dominant_matrices())
    def test_matches_engine_on_m(self, m):
        self.check_border(m)

    @pytest.mark.parametrize(
        "rows",
        [
            [[-1]],  # P = [[0, 1], [1, 1]] is mostly 1 itself, but is never bordered again
            [[7]],
            [[2, 2], [2, 2]],
            [[-3, -3, -3], [-3, 1, -3]],
            [[7 if i == j else -1 for j in range(8)] for i in range(8)],  # K8's Laplacian
        ],
    )
    def test_small_cases(self, rows):
        self.check_border(BigIntMatrix.from_rows(rows))

    @pytest.mark.parametrize(
        "rows",
        [[[-1, 0]], [[-1, 0], [0, -1]], [[7, 7, 7], [1, 2, 3]], [[2, 5], [2, 3], [2, 2], [4, 6]]],
    )
    def test_exactly_half_is_refused(self, rows):
        m = BigIntMatrix.from_rows(rows)
        plain, blocks = engine_blocks(m)
        assert blocks == [m.shape]
        assert plain.diagonal == smith_normal_form(m, want_transforms=True).diagonal

    def test_leading_entry_checked(self, monkeypatch):
        """An engine that leaves 3, not 1, at the head of P's diagonal must not go unnoticed."""
        clear_cross = intmat._clear_cross

        def tripled(a, t, m, n, mins):
            clear_cross(a, t, m, n, mins)
            if t == 0:
                a[0] = [3 * x for x in a[0]]

        monkeypatch.setattr(intmat, "_clear_cross", tripled)
        with pytest.raises(CertificationError):
            smith_normal_form(BigIntMatrix.from_rows([[-1, -1, 5]]))

    @pytest.mark.parametrize("n", [6, 8, 12, 13])
    def test_only_smith_sees_the_border(self, monkeypatch, laplacian_of, n):
        """build_report hands the engine P and the echelon and every Howell kernel L itself.

        -1 fills more than half of L(KG(n, 2)) from n = 8 on, where C(n - 2, 2) > C(n, 2) / 2; below it 0 does.
        """
        lap = laplacian_of(n)
        v = lap.rows
        trees, kernel = reports.laplacian_rank_and_trees, critical.kernel_dimensions_mod
        echelon_inputs, howell_inputs = [], []
        blocks = spy_blocks(monkeypatch)
        monkeypatch.setattr(reports, "laplacian_rank_and_trees", lambda m: echelon_inputs.append(m) or trees(m))
        monkeypatch.setattr(critical, "kernel_dimensions_mod", lambda m, *a: howell_inputs.append(m) or kernel(m, *a))
        assert reports.build_report(n).status == "pass"
        assert blocks == [(v + 1, v + 1) if n >= 8 else (v, v)]
        assert echelon_inputs == [lap]
        assert howell_inputs and all(m == lap for m in howell_inputs)

    def test_transforms_keep_m(self, monkeypatch, laplacian_of, tmp_path, capsys):
        """snf --transforms runs the engine on L(KG(16, 2)) itself, and its U and V stay pinned."""
        path = tmp_path / "kneser16.mtx"
        write_matrix_market(laplacian_of(16), path)
        blocks = spy_blocks(monkeypatch)
        assert main(["snf", str(path), "--transforms"]) == 0
        out = capsys.readouterr().out
        assert blocks == [(120, 120)]
        assert sha256(out.encode()).hexdigest() == "964f7325203564b0839d8d6a225067dc1f3d98983ca902a4717017aca9421d14"


def two_pass_clear_cross(a, t: int, m: int, n: int, mins: list) -> None:
    """Oracle: the cross clearing that swept column t once and then searched it for the least remainder."""
    while True:
        rt = a[t]
        p = rt[t]
        nz = [(j, y) for j in range(t, len(rt)) if (y := rt[j])]
        for i in range(t + 1, m):
            ri = a[i]
            f = (2 * ri[t] + p) // (2 * p)
            if f:
                mins[i] = None
                for j, y in nz:
                    ri[j] -= f * y
        rest = [i for i in range(t + 1, m) if a[i][t]]
        if rest:
            best = min(rest, key=lambda i: abs(a[i][t]))
            a[t], a[best] = a[best], a[t]
            mins[best] = None
            continue
        factors = [(j, f) for j in range(t + 1, n) if (f := (2 * rt[j] + p) // (2 * p))]
        for r in range(t, len(a)):
            row = a[r]
            x = row[t]
            if x:
                for j, f in factors:
                    row[j] -= f * x
        rest = [j for j in range(t + 1, n) if rt[j]]
        if not rest:
            return
        intmat._swap_cols(a, t, min(rest, key=lambda j: abs(rt[j])))


class TestOnePassSweep:
    """The one-pass column sweep leaves the diagonal, U and V of the two-pass sweep it replaced."""

    @given(
        st.one_of(
            matrices(st.integers(1, 8), st.integers(1, 8)),
            matrices(st.integers(1, 8), st.integers(1, 8), st.integers(-(10**6), 10**6)),
            rank_deficient_matrices(8),
        ),
        st.booleans(),
    )
    def test_matches_two_pass_sweep(self, m, want_transforms):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intmat, "_dense_diagonal", lambda matrix: None)
            one_pass = smith_normal_form(m, want_transforms)
            mp.setattr(intmat, "_clear_cross", two_pass_clear_cross)
            two_pass = smith_normal_form(m, want_transforms)
        assert one_pass == two_pass


def hadamard_bits(matrix: BigIntMatrix) -> int:
    """Bit length of the product of the rows' Euclidean norms, which bounds every minor."""
    bound = 1
    for row in matrix.to_rows():
        s = sum(x * x for x in row)
        if s:
            bound *= isqrt(s - 1) + 1
    return bound.bit_length()


@st.composite
def square_smith_inputs(draw):
    """Square matrices of size 1 to 8: dense, singular, scaled by g, or block-diagonal."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("dense", "singular", "scaled", "blocks")))
    if kind == "singular":
        k = draw(st.integers(0, n - 1))
        return draw(matrices(st.just(n), st.just(k))) @ draw(matrices(st.just(k), st.just(n)))
    a = draw(matrices(st.just(n), st.just(n)))
    if kind == "scaled":
        g = draw(st.integers(2, 12))
        return BigIntMatrix(n, n, [g * x for i in range(n) for x in a.row(i)])
    if kind == "blocks" and n > 1:
        k = draw(st.integers(1, n - 1))
        g = draw(st.integers(1, 6))
        rows = a.to_rows()
        return BigIntMatrix.from_rows(
            [[x if j < k else 0 for j, x in enumerate(r)] for r in rows[:k]]
            + [[g * x if j >= k else 0 for j, x in enumerate(r)] for r in rows[k:]]
        )
    return a


def count_bareiss(monkeypatch, run) -> int:
    """Calls of ``intmat._bareiss`` while ``run()`` executes."""
    bareiss = intmat._bareiss
    calls = []
    monkeypatch.setattr(intmat, "_bareiss", lambda a: calls.append(a) or bareiss(a))
    run()
    return len(calls)


def engine_inputs(matrix):
    """``intmat._dense_diagonal(matrix)`` and the matrices it hands to the Smith engine."""
    engine = intmat.smith_normal_form
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intmat, "smith_normal_form", lambda m, want_transforms=False: seen.append(m) or engine(m, want_transforms))
        return intmat._dense_diagonal(matrix), seen


def snf_dense_inputs() -> list[BigIntMatrix]:
    """The 500 seeded dense 20 x 20 inputs of perfbench's snf-dense workload at seed 1."""
    rng = random.Random(1)
    return [BigIntMatrix(20, 20, [rng.randint(-100, 100) for _ in range(400)]) for _ in range(500)]


def uncertified_inputs() -> list[tuple[BigIntMatrix, BigIntMatrix]]:
    """(M, engine input) for each seed-1 input whose pass leaves g > 1; the engine sees nothing else."""
    out = []
    for m in snf_dense_inputs():
        diag, seen = engine_inputs(m)
        assert diag is not None and len(seen) <= 1
        out.extend((m, x) for x in seen)
    return out


def unimodular(rng, n: int) -> BigIntMatrix:
    """A unit lower triangular times a unit upper triangular matrix with entries in [-3, 3]."""
    lower = [[1 if i == j else rng.randint(-3, 3) * (j < i) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-3, 3) * (j > i) for j in range(n)] for i in range(n)]
    return BigIntMatrix.from_rows(lower) @ BigIntMatrix.from_rows(upper)


class TestCyclicCertificate:
    """A plain call finishes a dense nonsingular diagonal from one Bareiss pass; every answer is the engine's."""

    @given(square_smith_inputs())
    def test_matches_engine_and_minors(self, m):
        plain = smith_normal_form(m)
        assert plain.diagonal == smith_normal_form(m, want_transforms=True).diagonal
        n = m.rows
        for k in range(max(n - 1, 1), n + 1):
            assert prod(plain.diagonal[:k]) == minor_gcd(m, k)

    @pytest.mark.parametrize(
        "rows, diagonal, finished",
        [
            ([[0]], (0,), None),
            ([[-7]], (7,), (7,)),
            ([[6]], (6,), (6,)),
            ([[2, 0], [0, 2]], (2, 2), (2, 2)),
            ([[1, 2], [3, 4]], (1, 2), (1, 2)),
            ([[6 * (i == j) for j in range(5)] for i in range(5)], (6,) * 5, None),  # gated off as sparse
        ],
    )
    def test_small_cases(self, rows, diagonal, finished):
        m = BigIntMatrix.from_rows(rows)
        assert smith_normal_form(m).diagonal == smith_normal_form(m, want_transforms=True).diagonal == diagonal
        assert intmat._dense_diagonal(m) == finished

    def test_inexact_division_raises(self, monkeypatch):
        """2 I + J has diagonal (1, 2, 10), so every solve runs; a corrupted pass must not go unnoticed."""
        bareiss = intmat._bareiss

        def corrupted(a):
            out = bareiss(a)
            a[0][len(a)] += 1
            return out

        monkeypatch.setattr(intmat, "_bareiss", corrupted)
        with pytest.raises(CertificationError):
            intmat._dense_diagonal(BigIntMatrix.from_rows([[3, 1, 1], [1, 3, 1], [1, 1, 3]]))

    def test_wrong_diagonal_mod_g_raises(self, monkeypatch):
        """2 I + J leaves g even; an engine that loses the last entry of M mod g's diagonal must not go unnoticed."""
        engine = intmat.smith_normal_form

        def wrong(m, want_transforms=False):
            return SimpleNamespace(diagonal=(*engine(m, want_transforms).diagonal[:-1], 1))

        m = BigIntMatrix.from_rows([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
        assert intmat._dense_diagonal(m) == (1, 2, 10)
        monkeypatch.setattr(intmat, "smith_normal_form", wrong)
        with pytest.raises(CertificationError):
            intmat._dense_diagonal(m)

    def test_seeded_24(self):
        """Its two minors and the all-ones probe leave a gcd of 4 with det M; the probe C(i, 1) = i ends at 1."""
        rng = random.Random(1)
        m = BigIntMatrix(24, 24, [rng.randint(-100, 100) for _ in range(576)])
        assert intmat._dense_diagonal(m) == smith_normal_form(m, want_transforms=True).diagonal

    def test_hit_rate(self):
        """All 500 of snf-dense's seed-1 inputs are nonsingular, and every one takes the pass."""
        assert all(intmat._dense_diagonal(m) for m in snf_dense_inputs())

    def test_uncertified_match_engine(self):
        """84 seed-1 inputs leave g > 1: 75 non-cyclic and 9 cyclic ones the probes miss; each finish is the engine's."""
        pairs = uncertified_inputs()
        assert len(pairs) == 84
        for m, _ in pairs:
            assert intmat._dense_diagonal(m) == smith_normal_form(m, want_transforms=True).diagonal

    def test_engine_sees_only_m_mod_g(self):
        """Work bound: the finish runs the engine on M mod g, bordered by a zero column, never on M.

        Its entries lie in [-g / 2, g / 2] for a g that d_(n-1)(M) divides and that divides det M.
        """
        for m, x in uncertified_inputs():
            n = m.rows
            assert x.shape == (n, n + 1) and not any(x.column(n))
            g = gcd(*(a - b for i in range(n) for a, b in zip(m.row(i), x.row(i))))
            assert g > 1 and all(2 * abs(v) <= g for row in x.to_rows() for v in row)
            diag = smith_normal_form(m, want_transforms=True).diagonal
            assert g % prod(diag[:-1]) == 0 and prod(diag) % g == 0

    @pytest.mark.parametrize("tail", [(4, 8), (6, 6), (9, 18), (12, 12), (2, 6, 12)])
    def test_composite_g(self, tail):
        """U diag(1, ..., 1, *tail) V: d_(n-1) is 4, 6, 9, 12 or 12, so g, its multiple, is composite."""
        rng = random.Random(sum(tail))
        n = 8
        for _ in range(5):
            d = BigIntMatrix.diagonal([1] * (n - len(tail)) + list(tail))
            m = unimodular(rng, n) @ d @ unimodular(rng, n)
            diag, seen = engine_inputs(m)
            assert len(seen) == 1
            assert diag == smith_normal_form(m, want_transforms=True).diagonal == (1,) * (n - len(tail)) + tail

    @pytest.mark.parametrize("n", range(5, 13))
    def test_skips_kneser_laplacians(self, monkeypatch, laplacian_of, n):
        assert count_bareiss(monkeypatch, lambda: smith_normal_form(laplacian_of(n))) == 0

    @pytest.mark.parametrize("n", range(5, 11))
    def test_skips_build_report(self, monkeypatch, n):
        from critgroup.reports import build_report

        assert count_bareiss(monkeypatch, lambda: build_report(n)) == 0

    def test_skips_zero_row_sums(self, monkeypatch):
        """The complete graph's Laplacian is dense, but M 1 = 0 proves it singular."""
        m = BigIntMatrix(8, 8, [7 if i == j else -1 for i in range(8) for j in range(8)])
        assert count_bareiss(monkeypatch, lambda: smith_normal_form(m)) == 0

    def test_skips_sparse(self, monkeypatch):
        """Three nonzeros per row, diagonally dominant so nonsingular: the density gate keeps it off the pass."""
        n = 300
        m = BigIntMatrix.from_rows(
            [[3 if j == i else (1 if j in ((i + 1) % n, (i + 7) % n) else 0) for j in range(n)] for i in range(n)]
        )
        assert count_bareiss(monkeypatch, lambda: smith_normal_form(m)) == 0


class TestSmithGrowth:
    """Entries of the transforms stay within a small multiple of the Hadamard bound's bits.

    Measured on six seeded dense 20 x 20 inputs with entries in [-100, 100],
    whose Hadamard bound has about 160 bits: the largest entry of V has 5.3
    to 5.6 times those bits, the largest of U 0.9 to 1.8 times.  On 6,000
    random draws of the stress test's shapes the ratio stayed under 4.3.
    The multiple grows with the size: about 16 for V at 60 x 60.
    """

    MULTIPLE = 6

    def check_growth(self, m):
        snf = smith_normal_form(m, want_transforms=True)
        u, v = snf.transforms
        assert u @ m @ v == snf.diagonal_matrix()
        assert abs(determinant(u)) == abs(determinant(v)) == 1
        bits = max(abs(x).bit_length() for t in (u, v) for row in t.to_rows() for x in row)
        assert bits <= self.MULTIPLE * max(hadamard_bits(m), 1)

    def test_dense_20(self):
        rng = random.Random(1)
        self.check_growth(BigIntMatrix(20, 20, [rng.randint(-100, 100) for _ in range(400)]))

    @given(
        st.one_of(
            matrices(st.integers(1, 8), st.integers(1, 8)),
            matrices(st.integers(1, 8), st.integers(1, 8), st.integers(-(10**6), 10**6)),
            rank_deficient_matrices(8),
        )
    )
    def test_stress(self, m):
        self.check_growth(m)


class TestCokernel:
    """The views that read the cokernel Z^rows / M Z^cols off a Smith decomposition."""

    def test_already_diagonal(self):
        ck = smith_normal_form(BigIntMatrix.diagonal([1, 2, 6]))
        assert ck.invariant_factors == (2, 6)
        assert ck.free_rank == 0

    def test_zero_matrix(self):
        ck = smith_normal_form(BigIntMatrix(2, 2, [0] * 4))
        assert ck.invariant_factors == ()
        assert ck.free_rank == 2

    def test_two_by_two(self):
        ck = smith_normal_form(BigIntMatrix.from_rows([[2, 4], [6, 8]]))
        assert ck.invariant_factors == (2, 4)
        assert ck.free_rank == 0

    def test_order_matches_diagonal_product(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng, max_dim=5, bound=20)
            ck = smith_normal_form(m)
            assert ck.order == prod(d for d in ck.diagonal if d)

    @pytest.mark.parametrize(
        "shape, diagonal, rank, message",
        [
            ((2, 3), (1,), 1, "diagonal length must equal min(rows, cols)"),
            ((2, 2), (-1, 2), 2, "diagonal entries must be nonnegative"),
            ((2, 2), (1, 2), 1, "rank must count the nonzero diagonal entries"),
            ((2, 2), (0, 2), 1, "zero diagonal entries must trail the nonzero ones"),
            ((2, 2), (4, 6), 2, "diagonal entries must form a divisibility chain"),
        ],
        ids=["length", "negative", "rank", "zero-first", "chain"],
    )
    def test_validation(self, shape, diagonal, rank, message):
        with pytest.raises(ValueError) as info:
            SmithDecomposition(*shape, diagonal, rank)
        assert str(info.value) == message

    def test_str(self):
        assert str(SmithDecomposition(3, 3, (2, 10, 0), 2)) == "Z_2 + Z_10 + Z"
        assert str(SmithDecomposition(4, 3, (1, 3, 0), 2)) == "Z_3 + Z + Z"
        assert str(smith_normal_form(BigIntMatrix.diagonal([1, 1]))) == "0"

    @given(st.one_of(matrices(st.integers(1, 8), st.integers(1, 8)), rank_deficient_matrices(8)))
    def test_views_read_the_diagonal(self, m):
        ck = smith_normal_form(m)
        k = min(m.rows, m.cols)
        ones = ck.diagonal.count(1)
        assert ck.diagonal == (1,) * ones + ck.invariant_factors + (0,) * (k - ck.rank)
        assert all(f > 1 for f in ck.invariant_factors)
        assert ck.free_rank == m.rows - ck.rank >= m.rows - k
        assert ck.order == prod(d for d in ck.diagonal if d)
        summands = [f"Z_{d}" for d in ck.diagonal if d > 1] + ["Z"] * (m.rows - ck.rank)
        assert str(ck) == (" + ".join(summands) or "0")


class TestDeterminant:
    def test_identity(self):
        assert determinant(BigIntMatrix.diagonal([1] * 4)) == 1

    def test_two_by_two(self):
        assert determinant(BigIntMatrix.from_rows([[2, 4], [6, 8]])) == -8

    def test_diagonal(self):
        assert determinant(BigIntMatrix.diagonal([3, 5])) == 15

    def test_empty(self):
        assert determinant(BigIntMatrix(0, 0, [])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(BigIntMatrix(2, 3, [0] * 6))

    def test_random_against_cofactor_expansion(self):
        def cofactor_det(rows):
            n = len(rows)
            if n == 0:
                return 1
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor_det(minor)
            return total

        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = BigIntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            assert determinant(m) == cofactor_det(m.to_rows())


class TestMatrixRank:
    def test_against_fraction_elimination(self):
        rng = random.Random(17)
        for _ in range(60):
            m = random_matrix(rng, max_dim=6, bound=12)
            assert matrix_rank(m) == fraction_elimination(m)[0]


class TestBareissProperties:
    """determinant and matrix_rank share one elimination; each against the oracle."""

    @given(matrices(st.integers(0, 6), st.integers(0, 6)))
    def test_rank_any_shape(self, m):
        assert matrix_rank(m) == fraction_elimination(m)[0]

    @given(square_matrices(6))
    def test_determinant_square(self, m):
        assert determinant(m) == fraction_elimination(m)[1]

    @given(square_matrices(5, st.integers(-(10**30), 10**30)))
    def test_determinant_big_entries(self, m):
        assert determinant(m) == fraction_elimination(m)[1]

    @given(rank_deficient_matrices(6))
    def test_rank_deficient(self, m):
        rank, det = fraction_elimination(m)
        assert rank < min(m.rows, m.cols)
        assert matrix_rank(m) == rank
        if m.is_square:
            assert determinant(m) == det == 0


def one_step_bareiss(a: list[list[int]]) -> tuple[int, int, int]:
    """Oracle: the one-pivot-per-sweep Bareiss elimination that ``intmat._bareiss`` replaced, verbatim."""
    m = len(a)
    n = len(a[0]) if a else 0
    r, sign, prev = 0, 1, 1
    for j in range(n):
        if r == m:
            break
        piv_row = next((i for i in range(r, m) if a[i][j] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            a[r], a[piv_row] = a[piv_row], a[r]
            sign = -sign
        piv = a[r][j]
        rr = a[r]
        for i in range(r + 1, m):
            ri = a[i]
            f = ri[j]
            for jj in range(j + 1, n):
                ri[jj] = (ri[jj] * piv - f * rr[jj]) // prev
            ri[j] = 0
        prev = piv
        r += 1
    return r, sign, prev


@st.composite
def zero_column_matrices(draw):
    """Matrices up to 8 x 8 with some columns zeroed, so the pass skips columns and falls back to one step."""
    m = draw(matrices(st.integers(1, 8), st.integers(1, 8)))
    zero = draw(st.sets(st.integers(0, m.cols - 1)))
    return BigIntMatrix(m.rows, m.cols, [0 if j in zero else m[i, j] for i in range(m.rows) for j in range(m.cols)])


class TestTwoStepBareiss:
    """``_bareiss`` eliminates two pivot rows per sweep; rank, sign, last pivot and every row match one step."""

    @staticmethod
    def assert_matches_one_step(rows: list[list[int]]) -> None:
        ours, theirs = [list(r) for r in rows], [list(r) for r in rows]
        assert intmat._bareiss(ours) == one_step_bareiss(theirs)
        assert ours == theirs

    @given(matrices(st.integers(1, 8), st.integers(1, 8)))
    def test_any_shape(self, m):
        self.assert_matches_one_step(m.to_rows())

    @given(rank_deficient_matrices(8))
    def test_rank_deficient(self, m):
        self.assert_matches_one_step(m.to_rows())

    @given(zero_column_matrices())
    def test_zero_columns(self, m):
        self.assert_matches_one_step(m.to_rows())

    @given(matrices(st.integers(1, 8), st.integers(1, 8), st.integers(2**200, 2**220) | st.integers(-(2**220), -(2**200))))
    def test_big_entries(self, m):
        self.assert_matches_one_step(m.to_rows())

    @given(matrices(st.integers(1, 8), st.integers(1, 8), st.sampled_from((0, 0, 1, -1, 2))))
    def test_sparse_small_entries(self, m):
        """Zeros in column j + 1 make rows with e_i = 0 come first, so a later row is swapped up."""
        self.assert_matches_one_step(m.to_rows())

    def test_snf_dense_augmented_inputs(self):
        """The pass ``_dense_diagonal`` runs: [M | B] for each of snf-dense's 500 seed-1 inputs."""
        for m in snf_dense_inputs():
            self.assert_matches_one_step([row + [comb(i, c) for c in range(4)] for i, row in enumerate(m.to_rows())])


class TestBigIntMatrix:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            BigIntMatrix(1, 2, [1.0, 2])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            BigIntMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            BigIntMatrix.from_rows([[1, 2], [3]])

    def test_arithmetic(self):
        a = BigIntMatrix.from_rows([[1, 2], [3, 4]])
        b = BigIntMatrix.diagonal([1] * 2)
        assert a @ b == a
        assert (a @ a) == BigIntMatrix.from_rows([[7, 10], [15, 22]])
        assert a.transpose() == BigIntMatrix.from_rows([[1, 3], [2, 4]])

    def test_big_entries_exact(self):
        big = 10**60
        m = BigIntMatrix.diagonal([big, big + 1])
        assert determinant(m) == big * (big + 1)
        assert smith_normal_form(m).diagonal == (1, big * (big + 1))
