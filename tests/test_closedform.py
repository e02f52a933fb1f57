"""Closed-form layer: spectrum, order, case dispatch, and predicted chains."""

from __future__ import annotations

import hashlib
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st
from paper_checks import (
    GrassmannHypothesis,
    grassmann_conclusion,
    laplacian_identity_holds,
    srg_parameters,
    verify_laplacian_identity,
)
from test_critical import invariant_factors_from_profiles

from critgroup.arith import is_prime, valuation
from critgroup.closedform import (
    classify_branch,
    critical_group_order,
    order_valuation,
    predicted_critical_group,
    predicted_elementary_divisors,
    primes_dividing_order,
    spectral_data,
)
from critgroup.critical import ElementaryDivisorProfile, profile_from_smith
from critgroup.graphs import kneser_graph, laplacian_matrix


class TestValuation:
    def test_examples(self):
        assert valuation(8, 2) == 3
        assert valuation(10, 3) == 0
        assert valuation(50, 5) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError):
            valuation(5, 1)

    @given(
        st.integers(-10**6, 10**6).filter(bool),
        st.sampled_from([2, 3, 5, 7, 13, 97]),
        st.integers(0, 3000),
    )
    def test_against_naive_loop(self, u, p, k):
        m = u * p**k
        naive, rest = 0, abs(m)
        while rest % p == 0:
            rest //= p
            naive += 1
        assert valuation(m, p) == naive


class TestSpectralData:
    @pytest.mark.parametrize(
        "n,r,s,f,g",
        [(5, 5, 2, 4, 5), (6, 9, 5, 5, 9), (7, 14, 9, 6, 14)],
    )
    def test_values(self, n, r, s, f, g):
        sd = spectral_data(n)
        assert (sd.r, sd.s, sd.f, sd.g) == (r, s, f, g)

    def test_multiplicities_fill_the_graph(self):
        for n in range(5, 30):
            sd = spectral_data(n)
            assert sd.f + sd.g + 1 == comb(n, 2)
            assert sd.r == sd.g  # numerical coincidence for this family

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            spectral_data(4)


class TestOrder:
    def test_petersen(self):
        assert critical_group_order(5) == 2000

    def test_n6(self):
        assert critical_group_order(6) == 7688671875

    def test_matches_computed_group(self, laplacian_of):
        from critgroup.critical import critical_group

        assert critical_group_order(7) == critical_group(laplacian_of(7)).order

    def test_matches_the_papers_form(self):
        # The paper's n^(f-1) (n-1)^(g-1) (n-3)^f (n-4)^g / 2^(f+g-1), as the oracle.
        for n in range(5, 201):
            f, g = n - 1, n * (n - 3) // 2
            num = n ** (f - 1) * (n - 1) ** (g - 1) * (n - 3) ** f * (n - 4) ** g
            assert num % 2 ** (f + g - 1) == 0
            assert critical_group_order(n) == num >> (f + g - 1)

    def test_valuations_factor_the_order(self):
        # From n = 170 on, the power of two dividing the numerator has 4,300+ digits.
        for n in [*range(5, 20), 170]:
            order = critical_group_order(n)
            rebuilt = prod(p ** order_valuation(n, p) for p in primes_dividing_order(n))
            assert rebuilt == order


class TestLaplacianIdentity:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_holds(self, n):
        assert verify_laplacian_identity(n)

    @pytest.mark.parametrize("arg", range(3))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_fails_with_wrong_parameter(self, arg, delta):
        sd = spectral_data(5)
        lap = laplacian_matrix(kneser_graph(5))
        good = [sd.r, sd.s, srg_parameters(5).mu]
        assert laplacian_identity_holds(lap, *good)
        good[arg] += delta
        assert not laplacian_identity_holds(lap, *good)


# Branch coverage matrix: (n, p) -> expected branch label.
BRANCH_CASES = [
    (7, 7, "Case 1a"),
    (11, 5, "Case 1b"),
    (8, 5, "Case 1c"),
    (9, 5, "Case 1d"),
    (10, 3, "Case 2a"),
    (13, 3, "Case 2b"),
    (7, 3, "Case 2c"),
    (9, 3, "Case 2d"),
    (12, 3, "Case 2e"),
    (6, 3, "Case 2f"),
    (7, 2, "Case 3a"),
    (5, 2, "Case 3c"),
    (8, 2, "Case 3 d-i"),
    (12, 2, "Case 3 d-ii"),
]


class TestBranchDispatch:
    @pytest.mark.parametrize("n,p,label", BRANCH_CASES)
    def test_expected_branch(self, n, p, label):
        assert classify_branch(n, p).label == label

    def test_trivial_two_branch(self):
        assert classify_branch(6, 2).label == "Case 3b"
        assert order_valuation(6, 2) == 0

    def test_nondividing_prime_takes_trivial_arm(self, smith_of):
        sd = spectral_data(7)
        branch = classify_branch(7, 11)
        assert (branch.label, branch.table, branch.describe()) == (None, {0: sd.f + sd.g}, None)
        for n, p in [(7, 11), (6, 2)]:
            prof = predicted_elementary_divisors(n, p)
            assert prof.table == classify_branch(n, p).table == {0: comb(n, 2) - 1}
            assert profile_from_smith(smith_of(n), p).kernel_rank == 1

    @pytest.mark.parametrize("p", [6, 15, 1])
    def test_non_prime_p_rejected_before_the_case_analysis(self, p, monkeypatch):
        # The closed form's public entry tests p; classify_branch and order_valuation trust it.
        import critgroup.closedform as closedform_mod

        def refuse(*_):
            raise AssertionError("case analysis ran on a non-prime p")

        monkeypatch.setattr(closedform_mod, "classify_branch", refuse)
        monkeypatch.setattr(closedform_mod, "order_valuation", refuse)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            predicted_elementary_divisors(7, p)

    def test_primes_dividing_order_are_exactly_the_prime_divisors(self):
        # Every caller of order_valuation and classify_branch gets p from here or
        # from an entry point that tested it, so these must all be prime.
        for n in range(5, 61):
            order = critical_group_order(n)
            expected = {p for p in range(2, n + 1) if is_prime(p) and order % p == 0}
            assert set(primes_dividing_order(n)) == expected, n

    def test_trivial_table_exactly_off_the_order(self):
        primes = [p for p in range(2, 60) if is_prime(p)]
        for n in range(5, 61):
            sd = spectral_data(n)
            for p in primes:
                trivial = classify_branch(n, p).table == {0: sd.f + sd.g}
                assert trivial == (order_valuation(n, p) == 0), (n, p)

    def test_exactly_one_case1_divisor(self):
        for n in range(5, 60):
            for p in primes_dividing_order(n):
                if p > 3:
                    assert sum(m % p == 0 for m in (n, n - 1, n - 3, n - 4)) == 1

    def test_unreachable_two_adic_configuration(self):
        # v2(n) = 2 forces v2(n - 4) >= 3, so the dead arm never fires.
        for n in range(5, 201):
            for p in primes_dividing_order(n):
                classify_branch(n, p)


class TestPredictedProfiles:
    @pytest.mark.parametrize(
        "n,p,expected",
        [
            (7, 7, {0: 15, 1: 5}),
            (10, 3, {0: 9, 1: 1, 3: 34}),
            (8, 2, {0: 7, 1: 14, 3: 6}),
        ],
    )
    def test_examples(self, n, p, expected, smith_of):
        prof = predicted_elementary_divisors(n, p)
        assert prof.table == expected
        assert profile_from_smith(smith_of(n), p).kernel_rank == 1

    def test_checksums(self):
        for n in range(5, 40):
            sd = spectral_data(n)
            for p in primes_dividing_order(n):
                prof = predicted_elementary_divisors(n, p)
                assert sum(i * e for i, e in prof.table.items()) == order_valuation(n, p)
                assert sum(prof.table.values()) == sd.f + sd.g

    def test_trivial_profile(self, smith_of):
        prof = predicted_elementary_divisors(7, 11)
        sd = spectral_data(7)
        assert prof.table == {0: sd.f + sd.g}
        assert profile_from_smith(smith_of(7), 11).kernel_rank == 1

    def test_certified_tables_are_positive_and_trivial_exactly_off_the_order(self):
        # A prime report takes the table as its predicted profile, and profile's note fires on set(table) == {0}.
        small = [q for q in range(2, 24) if is_prime(q)]
        for n in range(5, 601):
            for p in sorted({*primes_dividing_order(n), *small}):
                table = predicted_elementary_divisors(n, p).table
                assert min(table.values()) > 0, (n, p, table)
                assert (set(table) == {0}) == (order_valuation(n, p) == 0), (n, p, table)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_trivial_prediction_matches_smith(self, n, smith_of):
        p = next(q for q in range(5, 100) if is_prime(q) and order_valuation(n, q) == 0)
        computed = profile_from_smith(smith_of(n), p)
        assert predicted_elementary_divisors(n, p).table == computed.multiplicities
        assert computed.kernel_rank == 1


class TestClosedFormDigests:
    """SHA-256 of the closed forms over a wide range of n, pinned so a refactor cannot move a value."""

    @staticmethod
    def digest(lines: list[str]) -> str:
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def test_profiles(self):
        lines = []
        for n in range(5, 201):
            for p in primes_dividing_order(n):
                prof = predicted_elementary_divisors(n, p)
                lines.append(
                    f"{n} {p} {classify_branch(n, p).describe()} "
                    f"{sorted(prof.table.items())} 1"
                )
        assert self.digest(lines) == "f02a68ebe0a753cbf11c47da2af6227fb7e5c1cb0e10c47925acbd7ecd9ca616"

    def test_groups(self):
        lines = []
        for n in range(5, 101):
            pg = predicted_critical_group(n)
            lines.append(f"{n} {pg.factors} {pg.parity}")
        assert self.digest(lines) == "8172536a56d13c1c520d5a35aa17dce2b6a70487dbdb3e0c9239831617f532e9"


class TestGrassmannConclusion:
    def test_single_bound(self):
        # One bound at level a with value f pins e_a = f - 1, e_0 = g + 1.
        sd = spectral_data(7)
        hyp = GrassmannHypothesis(
            prime=7,
            indices=(1,),
            bounds=(sd.f,),
            d=1 * (sd.f - 1),
            total_dim=sd.f + sd.g + 1,
        )
        prof = grassmann_conclusion(hyp)
        assert prof.multiplicities == {0: sd.g + 1, 1: sd.f - 1}

    def test_two_bounds(self):
        sd = spectral_data(7)
        hyp = GrassmannHypothesis(
            prime=3,
            indices=(1, 2),
            bounds=(sd.g + 1, sd.g),
            d=2 * sd.g - 1,
            total_dim=sd.f + sd.g + 1,
        )
        prof = grassmann_conclusion(hyp)
        assert prof.multiplicities == {0: sd.f, 1: 1, 2: sd.g - 1}

    def test_no_torsion(self):
        sd = spectral_data(7)
        hyp = GrassmannHypothesis(
            prime=11, indices=(), bounds=(), d=0, total_dim=sd.f + sd.g + 1
        )
        prof = grassmann_conclusion(hyp)
        assert prof.multiplicities == {0: sd.f + sd.g}

    def test_inconsistent_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            grassmann_conclusion(
                GrassmannHypothesis(prime=5, indices=(1,), bounds=(4,), d=99, total_dim=10)
            )

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            grassmann_conclusion(
                GrassmannHypothesis(prime=5, indices=(2, 1), bounds=(4, 3), d=0, total_dim=10)
            )
        with pytest.raises(ValueError):
            grassmann_conclusion(
                GrassmannHypothesis(prime=5, indices=(1,), bounds=(3, 2), d=0, total_dim=10)
            )


class TestPredictedGroup:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (5, (2, 10, 10, 10)),
            (6, (5, 5, 5, 15, 45, 45, 45, 45)),
            (7, (3, 9, 9, 9, 9, 9, 9, 9, 18, 126, 126, 126, 126, 126)),
        ],
    )
    def test_examples(self, n, expected):
        group = predicted_critical_group(n)
        assert group.normalized() == expected

    def test_parity(self):
        assert predicted_critical_group(5).parity == "odd"
        assert predicted_critical_group(6).parity == "even"

    def test_order_consistency(self):
        for n in range(5, 41):
            group = predicted_critical_group(n)
            assert prod(group.normalized()) == critical_group_order(n)

    def test_divisibility_chain(self):
        for n in range(5, 41):
            chain = predicted_critical_group(n).normalized()
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0

    def test_profiles_regroup_to_group(self):
        for n in range(5, 41):
            profiles = [
                ElementaryDivisorProfile(p, predicted_elementary_divisors(n, p).table) for p in primes_dividing_order(n)
            ]
            assert invariant_factors_from_profiles(profiles) == predicted_critical_group(n).normalized()

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            predicted_critical_group(4)
