"""Acceptance suite: every exit criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All comparisons are exact integer equality; the only tolerances
anywhere are the two wall-clock budgets stated inline.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import gcd, prod

import pytest

from critgroup import intmat
from critgroup.arith import valuation
from critgroup.closedform import (
    classify_branch,
    critical_group_order,
    order_valuation,
    predicted_critical_group,
    predicted_elementary_divisors,
    primes_dividing_order,
    spectral_data,
)
from critgroup.critical import (
    mbar_filtration,
    profile_from_smith,
    spanning_tree_count,
    verify_eigenspace_bound,
    verify_mdim_identity,
)
from critgroup.graphs import kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix, determinant, smith_normal_form

from conftest import kneser_laplacian, kneser_smith
from paper_checks import (
    GrassmannHypothesis,
    grassmann_conclusion,
    srg_parameters,
    verify_laplacian_identity,
    verify_srg_identity,
)


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} [{label}]: {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed{suffix}"


def test_criterion_1_invariant_factor_chains():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(5, 15):
        snf = smith_normal_form(laplacian_matrix(kneser_graph(n)))
        computed = tuple(d for d in snf.diagonal if d > 1)
        predicted = predicted_critical_group(n).normalized()
        if computed != predicted:
            mismatches.append(n)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "invariant factors n=5..14 match the closed form",
        not mismatches and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_order_formula():
    ok = True
    for n in range(5, 15):
        trees = spanning_tree_count(kneser_graph(n))
        computed_order = prod(d for d in kneser_smith(n).diagonal if d > 1)
        if not (trees == computed_order == critical_group_order(n)):
            ok = False
        if n == 5 and trees != 2000:
            ok = False
    report(2, "spanning trees = factor product = order formula, n=5..14", ok)


BRANCH_MATRIX = [
    (7, 7),
    (11, 5),
    (8, 5),
    (9, 5),
    (10, 3),
    (13, 3),
    (7, 3),
    (9, 3),
    (12, 3),
    (6, 3),
    (7, 2),
    (5, 2),
    (8, 2),
    (12, 2),
]

EXPECTED_BRANCHES = {
    (7, 7): "Case 1a",
    (11, 5): "Case 1b",
    (8, 5): "Case 1c",
    (9, 5): "Case 1d",
    (10, 3): "Case 2a",
    (13, 3): "Case 2b",
    (7, 3): "Case 2c",
    (9, 3): "Case 2d",
    (12, 3): "Case 2e",
    (6, 3): "Case 2f",
    (7, 2): "Case 3a",
    (5, 2): "Case 3c",
    (8, 2): "Case 3 d-i",
    (12, 2): "Case 3 d-ii",
}


def test_criterion_3_branch_coverage():
    ok = True
    details = []
    for n, p in BRANCH_MATRIX:
        branch = classify_branch(n, p)
        if branch.label != EXPECTED_BRANCHES[(n, p)]:
            ok = False
            details.append(f"{(n, p)} dispatched to {branch.label}")
        computed = profile_from_smith(kneser_smith(n), p)
        predicted = predicted_elementary_divisors(n, p)
        if computed.multiplicities != predicted.table:
            ok = False
            details.append(f"profile mismatch at {(n, p)}")
        if computed.kernel_rank != 1:
            ok = False
            details.append(f"kernel mismatch at {(n, p)}")
    # n = 2 mod 4: the order is odd, so the 2-profile is trivial.
    sd6 = spectral_data(6)
    computed6 = profile_from_smith(kneser_smith(6), 2)
    if order_valuation(6, 2) != 0 or computed6.multiplicities != {0: sd6.f + sd6.g}:
        ok = False
        details.append("n=6 p=2 not trivial")
    if classify_branch(6, 2).label != "Case 3b":
        ok = False
        details.append("n=6 p=2 branch label")
    # The impossible two-adic arm never fires across the sweep.
    try:
        for n in range(5, 201):
            for p in primes_dividing_order(n):
                classify_branch(n, p)
    except AssertionError as exc:
        ok = False
        details.append(f"dead arm fired: {exc}")
    report(3, "every reachable branch matches brute force", ok, "; ".join(details))


def test_criterion_4_tail_sum_identity():
    ok = True
    details = []
    for n in range(5, 13):
        lap = kneser_laplacian(n)
        for p in primes_dividing_order(n):
            profile = profile_from_smith(kneser_smith(n), p)
            filt = mbar_filtration(lap, p, profile.max_exponent + 1)
            if not verify_mdim_identity(profile, filt):
                ok = False
                details.append(f"n={n} p={p}")
    report(4, "filtration dims equal kernel + multiplicity tails, n=5..12", ok, "; ".join(details))


def test_criterion_5_structural_identities():
    ok = True
    for n in range(5, 21):
        if not verify_srg_identity(kneser_graph(n), srg_parameters(n)):
            ok = False
        if not verify_laplacian_identity(n):
            ok = False
    report(5, "adjacency and Laplacian quadratic identities, n=5..20", ok)


def test_criterion_6_eigenspace_bounds():
    ok = True
    details = []
    for n, p in BRANCH_MATRIX:
        sd = spectral_data(n)
        lap = kneser_laplacian(n)
        profile = profile_from_smith(kneser_smith(n), p)
        for u, b in ((sd.r, sd.f), (sd.s, sd.g)):
            a = valuation(u, p)
            if a < 1:
                continue
            filt = mbar_filtration(lap, p, max(a, profile.max_exponent + 1))
            if not verify_eigenspace_bound(p, u, b, filt):
                ok = False
                details.append(f"n={n} p={p} u={u}")
    report(6, "eigenspace dimension lower bounds", ok, "; ".join(details))


def _minor_gcd(matrix: BigIntMatrix, k: int) -> int:
    g = 0
    rows = matrix.to_rows()
    for ri in combinations(range(matrix.rows), k):
        for ci in combinations(range(matrix.cols), k):
            g = gcd(g, determinant(BigIntMatrix(k, k, [rows[i][j] for i in ri for j in ci])))
    return g


def test_criterion_7_snf_engine_properties():
    t0 = time.perf_counter()
    rng = random.Random(20240614)
    ok = True
    details = []
    for trial in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        matrix = BigIntMatrix(m, n, [rng.randint(-100, 100) for _ in range(m * n)])
        snf = smith_normal_form(matrix, want_transforms=True)
        u, v = snf.transforms
        if u @ matrix @ v != snf.diagonal_matrix():
            ok = False
            details.append(f"transform failure at trial {trial}")
            break
        if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
            ok = False
            details.append(f"non-unimodular transform at trial {trial}")
            break
        chain = snf.diagonal[: snf.rank]
        if any(b % a for a, b in zip(chain, chain[1:])):
            ok = False
            details.append(f"broken chain at trial {trial}")
            break
    for trial in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = BigIntMatrix(m, n, [rng.randint(-100, 100) for _ in range(m * n)])
        # The plain call would finish a dense square input from the Bareiss pass, not the engine this checks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intmat, "_dense_diagonal", lambda matrix: None)
            snf = smith_normal_form(matrix)
        for k in range(1, snf.rank + 1):
            if prod(snf.diagonal[:k]) != _minor_gcd(matrix, k):
                ok = False
                details.append(f"minor oracle mismatch at trial {trial}, k={k}")
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        ok = False
        details.append("over time budget")
    report(7, "SNF transforms, chains, and minor-gcd oracle", ok, f"{elapsed:.1f}s; " + "; ".join(details) if details else f"{elapsed:.1f}s")


# Published lower-bound parameters per branch: index list, bound list, and the
# order valuation d, each as a function of (a, f, g).
BRANCH_HYPOTHESES = {
    "Case 1a": lambda a, f, g: ((a,), (f,), a * (f - 1)),
    "Case 1b": lambda a, f, g: ((a,), (g,), a * (g - 1)),
    "Case 1c": lambda a, f, g: ((a,), (f + 1,), a * f),
    "Case 1d": lambda a, f, g: ((a,), (g + 1,), a * g),
    "Case 2a": lambda a, f, g: ((1, a + 1), (g + 1, g), a * (g - 1) + g),
    "Case 2b": lambda a, f, g: ((a, a + 1), (g + 1, g), g - 1 + a * g),
    "Case 2c": lambda a, f, g: ((1, 2), (g + 1, g), 2 * g - 1),
    "Case 2d": lambda a, f, g: ((1, a + 1), (f + 1, f), a * f - a + f),
    "Case 2e": lambda a, f, g: ((a, a + 1), (f + 1, f), f - 1 + a * f),
    "Case 2f": lambda a, f, g: ((1, 2), (f + 1, f), 2 * f - 1),
    "Case 3a": lambda a, f, g: ((a - 1,), (f + 1,), a * f - f),
    "Case 3c": lambda a, f, g: ((a - 1,), (g,), a * g - a - g + 1),
    "Case 3 d-i": lambda a, f, g: ((1, a), (g + 1, f), a * f - a + g - f + 1),
    "Case 3 d-ii": lambda a, f, g: ((a - 1, a), (g + 1, f), f - 1 + a * g - g),
}


def test_criterion_8_lower_bound_oracle():
    ok = True
    details = []
    for n, p in BRANCH_MATRIX:
        branch = classify_branch(n, p)
        sd = spectral_data(n)
        # Cases 2c and 2f have both valuations pinned at 1.
        a = branch.a if branch.a is not None else 1
        indices, bounds, d = BRANCH_HYPOTHESES[branch.label](a, sd.f, sd.g)
        hyp = GrassmannHypothesis(
            prime=p,
            indices=indices,
            bounds=bounds,
            d=d,
            total_dim=sd.f + sd.g + 1,
        )
        derived = grassmann_conclusion(hyp)
        stated = predicted_elementary_divisors(n, p)
        if derived.multiplicities != stated.table:
            ok = False
            details.append(f"{branch.label} at n={n}, p={p}")
        if d != order_valuation(n, p):
            ok = False
            details.append(f"valuation mismatch in {branch.label}")
    report(8, "bound parameters rederive every branch table", ok, "; ".join(details))
