"""Verification reports: building, comparing, and their JSON, CSV and text views.

A report captures, for one n, the brute-force group computation next to every
closed-form prediction, plus the independent identity checks.  The JSON object
and CSV rows are byte-deterministic: field order is fixed and timings are kept
out of the machine-readable views (they land in the text lines only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .arith import valuation
from .closedform import (
    predicted_critical_group,
    predicted_elementary_divisors,
    primes_dividing_order,
    spectral_data,
)
from .critical import (
    laplacian_rank_and_trees,
    mbar_filtration,
    mbar_filtrations,
    profile_from_smith,
    verify_eigenspace_bound,
    verify_mdim_identity,
)
from .graphs import kneser_graph, laplacian_matrix
from .intmat import BigIntMatrix, SmithDecomposition, smith_normal_form


@dataclass
class PrimeReport:
    p: int
    computed: dict[int, int]
    predicted: dict[int, int]
    mdim_ok: bool
    eigenbound_ok: bool
    dims: tuple[int, ...]
    branch: str | None
    kernel_rank: int

    @property
    def matches(self) -> bool:
        return self.computed == self.predicted and self.mdim_ok and self.eigenbound_ok


@dataclass
class VerificationReport:
    n: int
    computed_factors: tuple[int, ...]
    predicted_factors: tuple[int, ...]
    order: int
    spanning_trees: int
    per_prime: list[PrimeReport]
    status: str
    timings: dict[str, float] = field(default_factory=dict)


def prime_reports(
    n: int, primes: list[int], lap: BigIntMatrix, snf: SmithDecomposition, rank: int, trees: int
) -> list[PrimeReport]:
    """Compare the Smith profile of KG(n, 2) at each p with the closed form and the filtration.

    A prime not dividing the group order is predicted to have the trivial
    profile.  ``rank`` and ``trees`` come from the tree-count witness.  Each
    filtration is taken to depth D, deep enough for the eigenvalue
    valuations and the largest exponent m of either profile, and its levels
    certify against ``trees`` that no e_j has j > D (module ``critical``).
    The primes of one depth D share one Howell descent (``mbar_filtrations``).
    Certified with D = m, level m + 1 equals kernel_dim and is appended
    without a Howell pass, so ``dims`` still shows the stabilized tail;
    uncertified, that level is computed and ``mdim_ok`` is false.
    """
    sd, ends, groups = spectral_data(n), [], {}
    for p in primes:
        comp, pred = profile_from_smith(snf, p), predicted_elementary_divisors(n, p)
        m = max(comp.max_exponent, *pred.table)
        depth = max(1, valuation(sd.r, p), valuation(sd.s, p), m)
        ends.append((comp, pred, m, depth))
        groups.setdefault(depth, []).append(p)
    filts = {f.prime: f for depth, group in groups.items() for f in mbar_filtrations(lap, group, depth, rank)}
    reports = []
    for (comp, pred, m, depth), filt in zip(ends, map(filts.get, primes)):
        p, k = filt.prime, filt.kernel_dim
        certified = trees > 0 and k == 1 and sum(d - k for d in filt.dims[1:]) == valuation(trees, p)
        if depth == m:
            filt = replace(filt, dims=(*filt.dims, k)) if certified else mbar_filtration(lap, p, m + 1, rank)
        reports.append(PrimeReport(
            p=p,
            computed=dict(comp.multiplicities),
            predicted=dict(pred.table),
            mdim_ok=certified and verify_mdim_identity(comp, filt),
            eigenbound_ok=all(verify_eigenspace_bound(p, u, b, filt) for u, b in ((sd.r, sd.f), (sd.s, sd.g))),
            dims=filt.dims,
            branch=pred.describe(),
            kernel_rank=comp.kernel_rank,
        ))
    return reports


def build_report(n: int, primes: list[int] | None = None) -> VerificationReport:
    """Run the full cross-validation pipeline for KG(n, 2), at ``primes`` or, if None, every prime dividing the order."""
    graph = kneser_graph(n)
    lap = laplacian_matrix(graph)

    t0 = time.perf_counter()
    snf = smith_normal_form(lap)
    t_snf = time.perf_counter() - t0
    computed = snf.invariant_factors

    # One row echelon of L + J gives both the rank every prime's filtration
    # needs and the tree count; neither is read off the Smith diagonal.
    t0 = time.perf_counter()
    rank, trees = laplacian_rank_and_trees(lap)
    t_trees = time.perf_counter() - t0

    chain = predicted_critical_group(n)  # its order is certified against the order formula
    predicted = chain.normalized()

    t0 = time.perf_counter()
    primes = primes_dividing_order(n) if primes is None else primes
    per_prime = prime_reports(n, primes, lap, snf, rank, trees)
    t_profiles = time.perf_counter() - t0

    ok = (
        computed == predicted
        and snf.order == chain.order == trees
        and snf.free_rank == 1
        and all(pr.matches for pr in per_prime)
    )
    return VerificationReport(
        n=n,
        computed_factors=computed,
        predicted_factors=predicted,
        order=chain.order,
        spanning_trees=trees,
        per_prime=per_prime,
        status="pass" if ok else "fail",
        timings={
            "snf_ms": round(t_snf * 1000, 3),
            "trees_ms": round(t_trees * 1000, 3),
            "profiles_ms": round(t_profiles * 1000, 3),
        },
    )


def profile_str(mult: dict[int, int]) -> str:
    return " ".join(f"{i}:{e}" for i, e in sorted(mult.items()))


def report_json_obj(r: VerificationReport) -> dict:
    return {
        "n": r.n,
        "computed_factors": list(r.computed_factors),
        "predicted_factors": list(r.predicted_factors),
        "order": r.order,
        "spanning_trees": r.spanning_trees,
        "per_prime": [
            {
                "p": pr.p,
                "computed": {str(i): e for i, e in sorted(pr.computed.items())},
                "predicted": {str(i): e for i, e in sorted(pr.predicted.items())},
                "mdim_ok": pr.mdim_ok,
                "eigenbound_ok": pr.eigenbound_ok,
            }
            for pr in r.per_prime
        ],
        "status": r.status,
    }


CSV_HEADER = [
    "n",
    "status",
    "order",
    "spanning_trees",
    "computed_factors",
    "predicted_factors",
    "p",
    "computed_profile",
    "predicted_profile",
    "mdim_ok",
    "eigenbound_ok",
]


def report_csv_rows(r: VerificationReport) -> list[list]:
    """One CSV row per prime, or one row with blank prime fields when there is none."""
    base = [
        r.n,
        r.status,
        r.order,
        r.spanning_trees,
        " ".join(map(str, r.computed_factors)),
        " ".join(map(str, r.predicted_factors)),
    ]
    if not r.per_prime:
        return [base + ["", "", "", "", ""]]
    return [
        base + [pr.p, profile_str(pr.computed), profile_str(pr.predicted), pr.mdim_ok, pr.eigenbound_ok]
        for pr in r.per_prime
    ]


def report_lines(r: VerificationReport) -> list[str]:
    lines = [f"n={r.n}  status={r.status}"]
    lines.append(f"  computed factors : {' '.join(map(str, r.computed_factors)) or '-'}")
    lines.append(f"  predicted factors: {' '.join(map(str, r.predicted_factors)) or '-'}")
    lines.append(f"  order={r.order}  spanning_trees={r.spanning_trees}")
    for pr in r.per_prime:
        match = "match" if pr.computed == pr.predicted else "MISMATCH"
        lines.append(
            f"  p={pr.p}: computed {profile_str(pr.computed)} | "
            f"predicted {profile_str(pr.predicted)} | {match} | "
            f"mdim={'ok' if pr.mdim_ok else 'FAIL'} | "
            f"eigenbound={'ok' if pr.eigenbound_ok else 'FAIL'}"
        )
    if r.timings:
        lines.append(
            "  timings: " + " ".join(f"{k}={v}" for k, v in sorted(r.timings.items()))
        )
    return lines
