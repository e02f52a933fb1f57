"""Critical groups, tree counts, profiles, filtrations, and their identities."""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from strategies import matrices, rank_deficient_matrices
from test_intmat import fraction_elimination

from critgroup.arith import is_prime, valuation
from critgroup.closedform import predicted_elementary_divisors, primes_dividing_order, spectral_data
from critgroup.critical import (
    ElementaryDivisorProfile,
    _echelon_rank_and_det,
    critical_group,
    laplacian_rank_and_trees,
    mbar_filtration,
    mbar_filtrations,
    p_elementary_divisors,
    profile_from_smith,
    spanning_tree_count,
    verify_eigenspace_bound,
    verify_mdim_identity,
)
from critgroup.graphs import Graph, kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix, _bareiss, smith_normal_form
from critgroup.reports import build_report, prime_reports


class TestCriticalGroup:
    def test_disconnected_union_of_paths(self, laplacian_of):
        group = critical_group(laplacian_of(4))
        assert group.invariant_factors == ()
        assert group.free_rank == 3

    def test_petersen(self, laplacian_of):
        group = critical_group(laplacian_of(5))
        assert group.invariant_factors == (2, 10, 10, 10)
        assert group.free_rank == 1

    def test_fifteen_vertices(self, laplacian_of):
        group = critical_group(laplacian_of(6))
        assert group.invariant_factors == (5, 5, 5, 15, 45, 45, 45, 45)
        assert group.free_rank == 1

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_is_the_smith_decomposition(self, n, laplacian_of):
        lap = laplacian_of(n)
        group = critical_group(lap)
        assert group == smith_normal_form(lap)
        assert group.free_rank == 1

    def test_invariant_under_vertex_relabeling(self, laplacian_of):
        rng = random.Random(13)
        for n in (5, 6, 7):
            lap = laplacian_of(n)
            v = lap.rows
            base = critical_group(lap)
            for _ in range(3):
                perm = list(range(v))
                rng.shuffle(perm)
                rows = lap.to_rows()
                conj = [[rows[perm[i]][perm[j]] for j in range(v)] for i in range(v)]
                group = critical_group(BigIntMatrix.from_rows(conj))
                assert group.invariant_factors == base.invariant_factors
                assert group.free_rank == base.free_rank


class TestSpanningTrees:
    def test_disconnected(self):
        assert spanning_tree_count(kneser_graph(4)) == 0

    def test_petersen(self):
        assert spanning_tree_count(kneser_graph(5)) == 2000

    def test_single_edge(self):
        assert spanning_tree_count(Graph.from_edge_list(2, [(0, 1)])) == 1

    def test_single_vertex(self):
        assert spanning_tree_count(Graph.from_edge_list(1, [])) == 1

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="no vertices"):
            spanning_tree_count(Graph.from_edge_list(0, []))

    def test_cofactor_choice_irrelevant(self):
        # Deleting any row/column pair gives the same count.
        from critgroup.intmat import determinant

        g = kneser_graph(5)
        lap = laplacian_matrix(g)
        v = g.num_vertices
        rows = lap.to_rows()
        counts = set()
        for drop in range(v):
            minor = [
                [rows[i][j] for j in range(v) if j != drop]
                for i in range(v)
                if i != drop
            ]
            counts.add(determinant(BigIntMatrix.from_rows(minor)))
        assert counts == {2000}

    @pytest.mark.parametrize("n", range(5, 10))
    def test_matches_group_order(self, n, laplacian_of):
        assert spanning_tree_count(kneser_graph(n)) == critical_group(laplacian_of(n)).order


def invariant_factors_from_profiles(profiles) -> tuple[int, ...]:
    """Regroup per-prime elementary divisors into an invariant factor chain.

    The k-th largest invariant factor is the product over primes of the k-th
    largest prime power present for that prime.
    """
    exponent_lists = []
    for prof in profiles:
        exps = []
        for i, e in sorted(prof.multiplicities.items(), reverse=True):
            if i > 0:
                exps.extend([i] * e)
        exponent_lists.append((prof.prime, exps))
    width = max((len(exps) for _, exps in exponent_lists), default=0)
    factors = []
    for idx in range(width):
        f = 1
        for p, exps in exponent_lists:
            if idx < len(exps):
                f *= p ** exps[idx]
        factors.append(f)
    return tuple(reversed(factors))


@st.composite
def small_graphs(draw):
    """Single-vertex, connected (a random tree plus extra edges), disconnected or any graph."""
    kind = draw(st.sampled_from(["single", "connected", "disconnected", "any"]))
    if kind == "single":
        return Graph.from_edge_list(1, [])
    v = draw(st.integers(2, 7))
    pairs = list(combinations(range(v), 2))
    if kind == "disconnected":
        # No edge crosses the cut between vertices below and above ``cut``.
        cut = draw(st.integers(1, v - 1))
        pairs = [(a, b) for a, b in pairs if (a < cut) == (b < cut)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    if kind == "connected":
        edges |= {(draw(st.integers(0, b - 1)), b) for b in range(1, v)}
    return Graph.from_edge_list(v, edges)


def component_count(g: Graph) -> int:
    parent = list(range(g.num_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in g.edges:
        parent[find(a)] = find(b)
    return sum(1 for a in range(g.num_vertices) if find(a) == a)


def _psd_bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and last nonzero pivot of a symmetric PSD matrix, by symmetric Bareiss."""
    a = [row[i:] for i, row in enumerate(rows)]
    rank, prev = 0, 1
    for k, rk in enumerate(a):
        piv = rk[0]
        if piv == 0:
            if any(rk):
                raise ValueError(f"zero pivot on a nonzero row {k}: the matrix is not PSD")
            continue
        for i, f in enumerate(rk[1:], k + 1):
            a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], rk[i - k :])]
        prev = piv
        rank += 1
    return rank, prev


def _column_copy_echelon(a: list[list[int]]) -> tuple[int, int]:
    """The remainder echelon with the same pivots, copying the trailing block after each column.

    Each finished column is cut off every row (``r[1:]``) and the pivot row is
    popped, so every row update rebuilds the whole row.  The in-place
    ``_echelon_rank_and_det`` must return the same rank and the same signed
    product of pivots.
    """
    rank, det = 0, 1
    while a and a[0]:
        live = [i for i, r in enumerate(a) if r[0]]
        while live:
            t = min(live, key=lambda i: abs(a[i][0]))
            pr = a[t]
            p = pr[0]
            nxt = []
            for i in live:
                if i == t:
                    continue
                f = (2 * a[i][0] + p) // (2 * p)
                r = a[i] = [x - f * y for x, y in zip(a[i], pr)]
                if r[0]:
                    nxt.append(i)
            if not nxt:
                det *= a.pop(t)[0]
                rank += 1
                break
            live = nxt + [t]
        a = [r[1:] for r in a]
    return rank, det


@st.composite
def echelon_inputs(draw):
    """Square matrices up to 8 x 8: any, with some columns zeroed, or a product of rank below n.

    Entries reach 2^70, so rows start far past machine words.
    """
    n = draw(st.integers(0, 8))
    entries = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))
    kind = draw(st.sampled_from(["any", "zero columns", "product"]))
    if kind == "product" and n:
        k = draw(st.integers(0, n - 1))
        left = draw(matrices(st.just(n), st.just(k), entries))
        return (left @ draw(matrices(st.just(k), st.just(n), entries))).to_rows()
    rows = draw(matrices(st.just(n), st.just(n), entries)).to_rows()
    if kind == "zero columns":
        for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
            for r in rows:
                r[j] = 0
    return rows


class WidthRecordingRow(list):
    """A row that keeps, in ``widest[0]``, the largest bit length of any value written into it."""

    def __init__(self, values, widest: list[int]):
        super().__init__(values)
        self.widest = widest

    def __setitem__(self, j, x):
        self.widest[0] = max(self.widest[0], x.bit_length())
        super().__setitem__(j, x)


def weighted_laplacian(v: int, weight) -> BigIntMatrix:
    """Laplacian of the complete graph on v vertices, edge (a, b) weighted ``weight()`` (0: no edge)."""
    rows = [[0] * v for _ in range(v)]
    for a, b in combinations(range(v), 2):
        w = weight()
        rows[a][b] = rows[b][a] = -w
        rows[a][a] += w
        rows[b][b] += w
    return BigIntMatrix.from_rows(rows)


@st.composite
def weighted_laplacians(draw):
    """Laplacians of graphs on 1..7 vertices with edge weights up to 2^70.

    Weights near 2^70 start the echelon on entries far past machine words.
    """
    weight = st.one_of(st.integers(0, 3), st.integers(0, 1 << 40), st.integers(0, 1 << 70))
    return weighted_laplacian(draw(st.integers(1, 7)), lambda: draw(weight))


def kneser_tree_count(n: int) -> int:
    """Matrix-Tree theorem on the KG(n, 2) spectrum: the product of the nonzero eigenvalues over v.

    The adjacency eigenvalues are k = C(n-2, 2) once, -(n-3) with multiplicity
    n-1 and 1 with multiplicity n(n-3)/2, so the Laplacian's are 0, k+n-3
    and k-1.
    """
    k = comb(n - 2, 2)
    return (k + n - 3) ** (n - 1) * (k - 1) ** (n * (n - 3) // 2) // comb(n, 2)


class TestLaplacianRankAndTrees:
    """The remainder echelon on L0 against component counting, the first cofactor and Bareiss."""

    @staticmethod
    def check_against_oracles(lap: BigIntMatrix) -> tuple[int, int]:
        v = lap.rows
        rows = lap.to_rows()
        cofactor = BigIntMatrix(v - 1, v - 1, [x for r in rows[1:] for x in r[1:]])
        rank, trees = laplacian_rank_and_trees(lap)
        psd_rank, last = _psd_bareiss(rows)
        assert rank == psd_rank
        assert trees == (abs(last) if psd_rank == v - 1 else 0)
        assert trees == fraction_elimination(cofactor)[1]
        return rank, trees

    @given(small_graphs())
    def test_against_components_and_cofactor(self, g):
        rank, trees = self.check_against_oracles(laplacian_matrix(g))
        assert rank == g.num_vertices - component_count(g)
        assert spanning_tree_count(g) == trees

    @given(weighted_laplacians())
    def test_weighted_laplacians(self, lap):
        self.check_against_oracles(lap)

    def test_kneser_against_spectrum(self, laplacian_of):
        for n in range(5, 29):
            assert laplacian_rank_and_trees(laplacian_of(n)) == (comb(n, 2) - 1, kneser_tree_count(n))

    @given(echelon_inputs())
    def test_in_place_echelon_equals_column_copies(self, rows):
        expected = _column_copy_echelon([r[:] for r in rows])
        assert _echelon_rank_and_det(rows) == expected

    @pytest.mark.parametrize("n", range(5, 13))
    def test_in_place_echelon_equals_column_copies_on_kneser(self, n, laplacian_of):
        l0 = [r[:-1] for r in laplacian_of(n).to_rows()[:-1]]
        expected = _column_copy_echelon([r[:] for r in l0])
        assert _echelon_rank_and_det(l0) == expected

    def test_kneser_entries_stay_small(self, laplacian_of):
        # Remainder steps keep every KG(n, 2) entry to the measured widths
        # below, while tau reaches 769 bits at n = 16; a pivot rule that let
        # entries grow towards the determinant would cost time, not exactness.
        # Each n is bounded at 4 bits above its own width, so a rule that
        # degrades entries gently fails at small n too, not only at n = 16.
        measured = (7, 10, 12, 14, 15, 16, 18, 18, 19, 20, 21, 21)
        for n, bits in zip(range(5, 17), measured):
            widest = [0]
            l0 = [WidthRecordingRow(r[:-1], widest) for r in laplacian_of(n).to_rows()[:-1]]
            rank, det = _echelon_rank_and_det(l0)
            assert (rank, abs(det)) == (comb(n, 2) - 1, kneser_tree_count(n))
            assert 0 < widest[0] <= bits + 4, (n, widest[0])

    def test_disconnected_kneser(self, laplacian_of):
        assert laplacian_rank_and_trees(laplacian_of(4)) == (3, 0)

    def test_petersen(self, laplacian_of):
        assert laplacian_rank_and_trees(laplacian_of(5)) == (9, 2000)

    def test_indefinite_zero_pivot_rejected(self):
        for rows in (
            [[0, 1], [1, 0]],
            [[-1, 1], [1, -1]],
            [[2, -1], [-1, 2]],
            [[1, -1, 0], [-1, 1, 0], [0, 1, -1]],
        ):
            with pytest.raises(ValueError, match="not PSD"):
                laplacian_rank_and_trees(BigIntMatrix.from_rows(rows))

    @given(
        st.one_of(
            matrices(st.integers(1, 6), st.integers(1, 6)),
            rank_deficient_matrices(6),
        )
    )
    def test_symmetric_pass_on_gram_matrices(self, b):
        # B^T B is PSD with the rank of B; the general pass with row swaps
        # picks the same pivot indices, so its last pivot agrees up to sign.
        gram = b.transpose() @ b
        rank, _, last = _bareiss(gram.to_rows())
        assert _psd_bareiss(gram.to_rows()) == (rank, abs(last))


class TestElementaryDivisors:
    def test_diagonal_example_p2(self):
        prof = p_elementary_divisors(BigIntMatrix.diagonal([1, 2, 12]), 2)
        assert prof.multiplicities == {0: 1, 1: 1, 2: 1}
        assert prof.kernel_rank == 0

    def test_diagonal_example_p3(self):
        prof = p_elementary_divisors(BigIntMatrix.diagonal([1, 2, 12]), 3)
        assert prof.multiplicities == {0: 2, 1: 1}

    def test_petersen_p5(self, laplacian_of):
        prof = p_elementary_divisors(laplacian_of(5), 5)
        assert prof.multiplicities == {0: 6, 1: 3}
        assert prof.kernel_rank == 1

    def test_rejects_composite(self, laplacian_of):
        with pytest.raises(ValueError):
            p_elementary_divisors(laplacian_of(5), 6)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_profile_completeness(self, n, smith_of, laplacian_of):
        v = laplacian_of(n).cols
        for p in primes_dividing_order(n):
            prof = profile_from_smith(smith_of(n), p)
            assert sum(prof.multiplicities.values()) + prof.kernel_rank == v

    @pytest.mark.parametrize("n", range(5, 9))
    def test_reconstruction_from_profiles(self, n, smith_of, laplacian_of):
        profiles = [profile_from_smith(smith_of(n), p) for p in primes_dividing_order(n)]
        rebuilt = invariant_factors_from_profiles(profiles)
        assert rebuilt == critical_group(laplacian_of(n)).invariant_factors


class TestMbarFiltration:
    def test_identity_matrix(self):
        filt = mbar_filtration(BigIntMatrix.diagonal([1] * 3), 2, 2)
        assert filt.dims == (3, 0, 0)
        assert filt.kernel_dim == 0

    def test_diagonal(self):
        filt = mbar_filtration(BigIntMatrix.diagonal([2, 4, 1]), 2, 3)
        assert filt.dims == (3, 2, 1, 0)

    def test_petersen_p5(self, laplacian_of):
        filt = mbar_filtration(laplacian_of(5), 5, 2)
        assert filt.dims == (10, 4, 1)
        assert filt.kernel_dim == 1

    @pytest.mark.parametrize("n", [8, 12])
    def test_independent_of_smith(self, n, laplacian_of, smith_of, monkeypatch):
        # The filtration witnesses the Smith route only if it never calls it.
        lap = laplacian_of(n)
        rank = laplacian_rank_and_trees(lap)[0]
        depths = {p: profile_from_smith(smith_of(n), p).max_exponent + 1 for p in primes_dividing_order(n)}
        expected = {p: mbar_filtration(lap, p, e, rank).dims for p, e in depths.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("the filtration called the Smith engine")

        monkeypatch.setattr("critgroup.intmat.smith_normal_form", refuse)
        monkeypatch.setattr("critgroup.critical.smith_normal_form", refuse)
        assert {p: mbar_filtration(lap, p, e, rank).dims for p, e in depths.items()} == expected

    def test_rejects_bad_args(self, laplacian_of):
        with pytest.raises(ValueError):
            mbar_filtration(laplacian_of(5), 4, 2)
        with pytest.raises(ValueError):
            mbar_filtration(laplacian_of(5), 5, 0)


class TestMdimIdentity:
    def test_petersen(self, laplacian_of):
        lap = laplacian_of(5)
        prof = p_elementary_divisors(lap, 5)
        filt = mbar_filtration(lap, 5, 2)
        assert verify_mdim_identity(prof, filt)

    def test_prime_mismatch_rejected(self, laplacian_of):
        lap = laplacian_of(5)
        prof = p_elementary_divisors(lap, 2)
        filt = mbar_filtration(lap, 5, 2)
        with pytest.raises(ValueError):
            verify_mdim_identity(prof, filt)

    def test_perturbed_profile_fails(self, laplacian_of):
        lap = laplacian_of(5)
        filt = mbar_filtration(lap, 5, 2)
        wrong = ElementaryDivisorProfile(prime=5, multiplicities={0: 7, 1: 2}, kernel_rank=1)
        assert not verify_mdim_identity(wrong, filt)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_all_primes(self, n, laplacian_of, smith_of):
        lap = laplacian_of(n)
        for p in primes_dividing_order(n):
            prof = profile_from_smith(smith_of(n), p)
            filt = mbar_filtration(lap, p, prof.max_exponent + 1)
            assert verify_mdim_identity(prof, filt)


def understated(mult: dict[int, int]) -> dict[int, int]:
    """``mult`` with its largest exponent m lowered to m - 1, the total multiplicity kept."""
    mult = dict(mult)
    top = max(mult)
    mult[top - 1] = mult.get(top - 1, 0) + mult.pop(top)
    return mult


class TestTreeCertificate:
    """sum_{i=1..D} (dims[i] - 1) = v_p(tau) certifies the filtration's tail in place of level D + 1."""

    @given(small_graphs().filter(lambda g: component_count(g) == 1), st.sampled_from([2, 3, 5]))
    @example(kneser_graph(5), 5)  # Z_2 + Z_10^3
    @example(Graph.from_edge_list(5, combinations(range(5), 2)), 5)  # K_5: Z_5^3
    @example(Graph.from_edge_list(25, [(i, (i + 1) % 25) for i in range(25)]), 5)  # C_25: Z_25
    def test_certificate_holds_exactly_past_the_largest_exponent(self, g, p):
        lap = laplacian_matrix(g)
        rank, trees = laplacian_rank_and_trees(lap)
        m = p_elementary_divisors(lap, p).max_exponent  # Smith is only the oracle here
        for depth in range(1, m + 3):
            dims = mbar_filtration(lap, p, depth, rank).dims
            assert (sum(d - 1 for d in dims[1:]) == valuation(trees, p)) == (depth >= m)

    @pytest.mark.parametrize("n,p", [(8, 2), (12, 11), (16, 13)])
    @pytest.mark.parametrize("factor", ["times p", "over p"])
    def test_tree_count_off_by_p_fails(self, n, p, factor, laplacian_of, smith_of):
        lap, snf = laplacian_of(n), smith_of(n)
        rank, trees = laplacian_rank_and_trees(lap)
        [honest] = prime_reports(n, [p], lap, snf, rank, trees)
        assert honest.mdim_ok and honest.matches
        wrong = trees * p if factor == "times p" else trees // p
        [pr] = prime_reports(n, [p], lap, snf, rank, wrong)
        assert not pr.mdim_ok and not pr.matches
        # The uncertified tail level is computed, and it is the level the certificate stood for.
        assert pr.dims == honest.dims

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_understated_largest_exponent_fails(self, n, laplacian_of, smith_of, monkeypatch):
        # At p = 2 the depth is set by the largest exponent m, one past the eigenvalue
        # valuations, so understating m in both profiles leaves the filtration one level short.
        lap, snf = laplacian_of(n), smith_of(n)
        rank, trees = laplacian_rank_and_trees(lap)
        comp = profile_from_smith(snf, 2)
        comp = replace(comp, multiplicities=understated(comp.multiplicities))

        def understated_prediction(n, p):
            pred = predicted_elementary_divisors(n, p)
            return replace(pred, table=understated(pred.table))

        monkeypatch.setattr("critgroup.reports.profile_from_smith", lambda snf, p: comp)
        monkeypatch.setattr("critgroup.reports.predicted_elementary_divisors", understated_prediction)
        [pr] = prime_reports(n, [2], lap, snf, rank, trees)
        assert pr.computed == pr.predicted
        assert not pr.mdim_ok and not pr.matches
        # Without the certificate, the short filtration with kernel_dim appended would pass.
        short = mbar_filtration(lap, 2, comp.max_exponent, rank)
        assert verify_mdim_identity(comp, replace(short, dims=(*short.dims, short.kernel_dim)))

    def test_depth_stops_at_the_largest_exponent(self, smith_of, monkeypatch):
        # One Howell descent per distinct depth max(1, v_p(r), v_p(s), m), over every
        # prime of that depth and no deeper: at n = 12, 2 and 3 share depth 3, and at
        # n = 23 all five primes share depth 1.
        import critgroup.critical as critical_mod

        calls = []
        real = critical_mod.kernel_dimensions_mod

        def spy(matrix, primes, e_max):
            calls.append((list(primes), e_max))
            return real(matrix, primes, e_max)

        monkeypatch.setattr(critical_mod, "kernel_dimensions_mod", spy)
        for n in (12, 16, 23):
            calls.clear()
            report = build_report(n)
            assert report.status == "pass"
            sd = spectral_data(n)
            expected, groups = [], {}
            for p in primes_dividing_order(n):
                m = max(
                    profile_from_smith(smith_of(n), p).max_exponent,
                    max(predicted_elementary_divisors(n, p).table),
                )
                expected.append((p, max(1, valuation(sd.r, p), valuation(sd.s, p), m)))
                groups.setdefault(expected[-1][1], []).append(p)
            assert calls == [(primes, e) for e, primes in groups.items()]
            assert len(calls) == len({e for _, e in expected})
            assert {p: e for primes, e in calls for p in primes} == dict(expected)
            # The certified tail is still printed: one level past the depth, at the kernel dimension 1.
            assert [len(pr.dims) for pr in report.per_prime] == [e + 2 for _, e in expected]
            assert all(pr.dims[-1] == 1 for pr in report.per_prime)

    @pytest.mark.parametrize("n", range(5, 25))
    def test_grouped_dims_equal_each_prime_alone(self, n, laplacian_of, smith_of):
        # No output of verify prints dims, so no digest guards them: each prime's dims from
        # its group's descent must be the one-prime descent's, and where the depth D is the
        # largest exponent m, the certified tail must be the level m + 1 that Howell computes.
        lap, sd = laplacian_of(n), spectral_data(n)
        rank = laplacian_rank_and_trees(lap)[0]
        report = build_report(n)
        assert report.status == "pass"
        for pr in report.per_prime:
            p = pr.p
            m = max(profile_from_smith(smith_of(n), p).max_exponent, *predicted_elementary_divisors(n, p).table)
            depth = max(1, valuation(sd.r, p), valuation(sd.s, p), m)
            assert pr.dims == mbar_filtration(lap, p, depth + (depth == m), rank).dims


class TestPrimalityCheckedAtEntry:
    """p is tested where it enters (p_elementary_divisors, mbar_filtration,
    predicted_elementary_divisors, cli profile); the layers below trust it."""

    @pytest.mark.parametrize("n", range(5, 17))
    def test_build_report_tests_each_prime_at_most_twice(self, n, monkeypatch):
        import critgroup.arith as arith_mod

        real, calls = arith_mod.is_prime, []

        def spy(m):
            calls.append(m)
            return real(m)

        for name, mod in list(sys.modules.items()):
            if name.startswith("critgroup") and getattr(mod, "is_prime", None) is real:
                monkeypatch.setattr(mod, "is_prime", spy)
        report = build_report(n)
        assert report.status == "pass"
        assert len(calls) <= 2 * len(report.per_prime), calls
        assert set(calls) == {pr.p for pr in report.per_prime}

    @pytest.mark.parametrize("p", [4, 6, 9, 1])
    def test_non_prime_p_raises_before_smith_or_howell(self, p, laplacian_of, monkeypatch):
        import critgroup.critical as critical_mod

        def refuse(*_, **__):
            raise AssertionError("Smith or Howell work ran on a non-prime p")

        for name in ("smith_normal_form", "kernel_dimensions_mod", "matrix_rank"):
            monkeypatch.setattr(critical_mod, name, refuse)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            p_elementary_divisors(laplacian_of(5), p)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            mbar_filtration(laplacian_of(5), p, 2)

    @pytest.mark.parametrize("primes", [[2, 4], [6, 5], [3, 5, 9, 7], [2, 3, 5, 1]])
    def test_non_prime_in_a_group_raises_before_howell(self, primes, laplacian_of, monkeypatch):
        import critgroup.critical as critical_mod

        def refuse(*_, **__):
            raise AssertionError("Howell work ran on a group with a non-prime p")

        for name in ("kernel_dimensions_mod", "matrix_rank"):
            monkeypatch.setattr(critical_mod, name, refuse)
        bad = next(p for p in primes if not is_prime(p))
        with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
            mbar_filtrations(laplacian_of(5), primes, 2)

    def test_repeated_prime_raises_before_any_descent(self, laplacian_of, monkeypatch):
        import critgroup.modring as modring_mod

        def refuse(*_, **__):
            raise AssertionError("a descent ran on a group with a repeated prime")

        monkeypatch.setattr(modring_mod, "_weak_howell_form", refuse)
        with pytest.raises(ValueError, match="distinct"):
            mbar_filtrations(laplacian_of(5), [2, 5, 2], 2)


def test_build_report_evaluates_the_order_formula_once(monkeypatch):
    # The report's order is the predicted chain's, certified against the formula inside predicted_critical_group.
    import critgroup.closedform as closedform_mod

    real, calls = closedform_mod.critical_group_order, []

    def spy(n):
        calls.append(n)
        return real(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("critgroup") and getattr(mod, "critical_group_order", None) is real:
            monkeypatch.setattr(mod, "critical_group_order", spy)
    report = build_report(16)
    assert report.status == "pass"
    assert report.order == real(16)
    assert calls == [16]


class TestEigenspaceBound:
    def test_petersen_r(self, laplacian_of):
        filt = mbar_filtration(laplacian_of(5), 5, 2)
        assert verify_eigenspace_bound(5, 5, 4, filt)

    def test_n7_p7(self, laplacian_of):
        filt = mbar_filtration(laplacian_of(7), 7, 2)
        sd = spectral_data(7)
        assert sd.r == 14 and sd.f == 6
        assert verify_eigenspace_bound(7, sd.r, sd.f, filt)

    def test_vacuous_when_unit(self, laplacian_of):
        filt = mbar_filtration(laplacian_of(5), 5, 1)
        # v_5(2) = 0: holds trivially regardless of the bound.
        assert verify_eigenspace_bound(5, 2, 10, filt)

    def test_prime_mismatch(self, laplacian_of):
        filt = mbar_filtration(laplacian_of(5), 5, 1)
        with pytest.raises(ValueError):
            verify_eigenspace_bound(2, 2, 5, filt)


class TestRegrouping:
    def test_two_primes(self):
        p2 = ElementaryDivisorProfile(prime=2, multiplicities={0: 1, 1: 2}, kernel_rank=1)
        p3 = ElementaryDivisorProfile(prime=3, multiplicities={0: 2, 2: 1}, kernel_rank=1)
        # prime powers: 2, 2 and 9 -> factors (from largest): 2*9=18, 2
        assert invariant_factors_from_profiles([p2, p3]) == (2, 18)

    def test_empty(self):
        assert invariant_factors_from_profiles([]) == ()
