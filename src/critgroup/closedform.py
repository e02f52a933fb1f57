"""Closed-form description of the critical group of KG(n, 2) for n >= 5.

Everything here is computed from n alone and imports only ``arith``.  It
provides the Laplacian spectrum, the Matrix-Tree order r^f s^g / (f + g + 1)
with its valuations and primes read off that spectrum, the per-prime
elementary divisor multiplicities, and the predicted invariant factor chain.
The multiplicities come from a case analysis on which of n, n-1, n-3, n-4 the
prime divides, split into Case 1 for p > 3, Case 2 for p = 3 and Case 3 for
p = 2; it is decided once, in ``classify_branch``, which gives every prime an
arm with its label and its multiplicity table; a prime dividing none of the
four takes the trivial arm, with no label and the table {0: f + g}.  The rest
of the package computes the same data by brute force so the two can be
compared exactly.  The paper's proof checks (the strongly regular and
Laplacian identities, the bound argument) live with the tests, in
``tests/paper_checks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

from .arith import CertificationError, is_prime, prime_factors, valuation


def _certify(ok: bool, what: str) -> None:
    if not ok:
        raise CertificationError(what)


@dataclass(frozen=True)
class SpectralData:
    """Nonzero Laplacian eigenvalues r, s of KG(n, 2) and their multiplicities f, g; 0 is simple."""

    r: int
    s: int
    f: int
    g: int


@dataclass(frozen=True)
class CaseBranch:
    """Which arm of the per-prime case analysis applies, e.g. 'Case 2a' with a=2.

    ``table`` is that arm's multiplicities {i: e_i}; the trivial arm's label is None.
    """

    label: str | None
    table: dict[int, int]
    a: int | None = None

    def describe(self) -> str | None:
        return self.label if self.a is None else f"{self.label}, a={self.a}"


@dataclass
class PredictedGroup:
    """Invariant factors of K(KG(n, 2)) as (base, multiplicity) pairs.

    ``parity`` records which of the two closed forms (odd or even n) applies.
    ``normalized()`` expands the pairs and drops trivial factors, giving a
    chain directly comparable with a computed decomposition.
    """

    factors: list[tuple[int, int]]
    parity: str

    def normalized(self) -> tuple[int, ...]:
        out = []
        for base, mult in self.factors:
            if base > 1:
                out.extend([base] * mult)
        return tuple(out)

    @cached_property
    def order(self) -> int:
        return prod(base**mult for base, mult in self.factors)


def _require_n(n: int) -> None:
    if n < 5:
        raise ValueError(f"closed forms assume n >= 5, got {n}")


def spectral_data(n: int) -> SpectralData:
    """Laplacian spectrum of KG(n, 2): r = n(n-3)/2 with multiplicity f = n-1,
    s = (n-4)(n-1)/2 with multiplicity g = n(n-3)/2, and 0 with multiplicity 1."""
    _require_n(n)
    r = n * (n - 3) // 2
    s = (n - 4) * (n - 1) // 2
    f = n - 1
    g = n * (n - 3) // 2
    _certify(f + g + 1 == comb(n, 2), f"multiplicities miss the vertex count at n={n}")
    return SpectralData(r=r, s=s, f=f, g=g)


def critical_group_order(n: int) -> int:
    """Order of K(KG(n, 2)) by the Matrix-Tree theorem, r^f s^g / (f + g + 1): the
    paper's n^(f-1) (n-1)^(g-1) (n-3)^f (n-4)^g / 2^(f+g-1)."""
    sd = spectral_data(n)
    order, rem = divmod(sd.r**sd.f * sd.s**sd.g, sd.f + sd.g + 1)
    _certify(rem == 0, f"r^f s^g of KG({n}, 2) is not divisible by its vertex count")
    return order


def order_valuation(n: int, p: int) -> int:
    """p-adic valuation of the order, f v_p(r) + g v_p(s) - v_p(f + g + 1); p must be prime, callers check."""
    sd = spectral_data(n)
    return sd.f * valuation(sd.r, p) + sd.g * valuation(sd.s, p) - valuation(sd.f + sd.g + 1, p)


def primes_dividing_order(n: int) -> list[int]:
    """Ascending primes dividing the order of K(KG(n, 2)); each divides r s = n(n-1)(n-3)(n-4)/4."""
    sd = spectral_data(n)
    return [p for p in prime_factors(sd.r * sd.s) if order_valuation(n, p) > 0]


def classify_branch(n: int, p: int) -> CaseBranch:
    """Select the case-analysis arm for (n, p) and evaluate its multiplicity table.

    Every prime has exactly one arm, which returns its label, its valuation a
    (if it has one) and its table, computed from the f, g of ``spectral_data(n)``.
    A prime dividing none of n, n-1, n-3, n-4 takes the trivial arm: label None,
    table {0: f + g}.  For p = 2, n = 2 mod 4 is Case 3b, whose order is odd and
    table trivial.  p must be prime; callers check.
    """
    sd = spectral_data(n)
    f, g = sd.f, sd.g

    if p == 2:
        m = n % 4
        if m == 3:
            a = valuation(n - 3, 2)
            return CaseBranch("Case 3a", {a - 1: f, 0: g}, a)
        if m == 2:
            return CaseBranch("Case 3b", {0: f + g})
        if m == 1:
            a = valuation(n - 1, 2)
            return CaseBranch("Case 3c", {a - 1: g - 1, 0: f + 1}, a)
        v0 = valuation(n, 2)
        v4 = valuation(n - 4, 2)
        if v0 > 2:
            _certify(v4 == 2, f"Case 3 d-i at n={n} needs v2(n-4) = 2, got {v4}")
            return CaseBranch("Case 3 d-i", {1: g + 1 - f, v0: f - 1, 0: f}, v0)
        if v4 > 2:
            _certify(v0 == 2, f"Case 3 d-ii at n={n} needs v2(n) = 2, got {v0}")
            return CaseBranch("Case 3 d-ii", {v4 - 1: g + 1 - f, v4: f - 1, 0: f}, v4)
        raise CertificationError(
            "Case 3 d-iii reached (v2(n) = v2(n-4) = 2): this configuration cannot occur"
        )

    divides = [m for m in (n, n - 1, n - 3, n - 4) if m % p == 0]
    if not divides:
        return CaseBranch(None, {0: f + g})
    if p == 3:
        if n % 3 == 1:
            a1 = valuation(n - 1, 3)
            a4 = valuation(n - 4, 3)
            if a1 > 1:
                _certify(a4 == 1, f"Case 2a at n={n} needs v3(n-4) = 1, got {a4}")
                return CaseBranch("Case 2a", {1: 1, a1 + 1: g - 1, 0: f}, a1)
            if a4 > 1:
                _certify(a1 == 1, f"Case 2b at n={n} needs v3(n-1) = 1, got {a1}")
                return CaseBranch("Case 2b", {a4: 1, a4 + 1: g - 1, 0: f}, a4)
            return CaseBranch("Case 2c", {1: 1, 2: g - 1, 0: f})
        a0 = valuation(n, 3)
        a3 = valuation(n - 3, 3)
        if a0 > 1:
            _certify(a3 == 1, f"Case 2d at n={n} needs v3(n-3) = 1, got {a3}")
            return CaseBranch("Case 2d", {1: 1, a0 + 1: f - 1, 0: g}, a0)
        if a3 > 1:
            _certify(a0 == 1, f"Case 2e at n={n} needs v3(n) = 1, got {a0}")
            return CaseBranch("Case 2e", {a3: 1, a3 + 1: f - 1, 0: g}, a3)
        return CaseBranch("Case 2f", {1: 1, 2: f - 1, 0: g})

    _certify(len(divides) == 1, f"p={p} divides more than one of n, n-1, n-3, n-4")
    target = divides[0]
    a = valuation(target, p)
    label, table = {
        n: ("Case 1a", {a: f - 1, 0: g + 1}),
        n - 1: ("Case 1b", {a: g - 1, 0: f + 1}),
        n - 3: ("Case 1c", {a: f, 0: g}),
        n - 4: ("Case 1d", {a: g, 0: f}),
    }[target]
    return CaseBranch(label, table, a)


def predicted_elementary_divisors(n: int, p: int) -> CaseBranch:
    """Closed-form p-elementary divisor multiplicities of the KG(n, 2) Laplacian.

    Returns the arm ``classify_branch`` selects, for every prime p, once its
    table is certified against the p-adic valuation of the order and the
    total multiplicity f + g.  A non-prime p raises ValueError.
    """
    sd = spectral_data(n)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    br = classify_branch(n, p)
    label = br.label or "the trivial"
    _certify(sum(i * e for i, e in br.table.items()) == order_valuation(n, p), f"{label} table misses v_{p}(order)")
    _certify(sum(br.table.values()) == sd.f + sd.g, f"{label} table misses the total {sd.f + sd.g}")
    return br


def predicted_critical_group(n: int) -> PredictedGroup:
    """The closed-form invariant factor chain of K(KG(n, 2)).

    Odd n:  Z_{n-4} + (Z_{(n-4)(n-1)/2})^{n(n-5)/2}
            + Z_{(n-4)(n-1)(n-3)/4} + (Z_{(n-4)(n-1)(n-3)n/4})^{n-2}.
    Even n: the first factor becomes Z_{(n-4)/2} and the third
            Z_{(n-4)(n-1)(n-3)/2}; the rest is unchanged.
    """
    _require_n(n)
    parity = "odd" if n % 2 else "even"
    halve = 1 if n % 2 else 2  # for the first and third factors
    base = (n - 4) * (n - 1) * (n - 3)
    _certify(base * n % 4 == 0, f"(n-4)(n-1)(n-3)n is not divisible by 4 at n={n}")
    _certify((n - 4) % halve == 0, f"n-4 is odd at even n={n}")
    _certify(base * halve % 4 == 0, f"(n-4)(n-1)(n-3)/{4 // halve} is not an integer at {parity} n={n}")
    factors = [
        ((n - 4) // halve, 1),
        ((n - 4) * (n - 1) // 2, n * (n - 5) // 2),
        (base * halve // 4, 1),
        (base * n // 4, n - 2),
    ]
    group = PredictedGroup(factors=factors, parity=parity)
    _certify(group.order == critical_group_order(n), f"predicted chain misses the order at n={n}")
    return group
