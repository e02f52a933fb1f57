"""Small exact integer helpers shared across the package."""

from __future__ import annotations


class CertificationError(AssertionError):
    """A self-check failed: the program, not the input, is wrong.

    Raised explicitly rather than by ``assert``, so it also fires under ``python -O``.
    """


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, h = a, b
    while h:
        q = g // h
        g, h = h, g - q * h
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


# The first 13 primes as Miller-Rabin bases decide primality of every n below
# _MR_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017); _MR_LIMIT itself is the
# least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.

    Raises ValueError for n at or past _MR_LIMIT unless one of the bases divides it.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is beyond the deterministic test (< {_MR_LIMIT})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(m: int, p: int) -> int:
    """Largest i such that p**i divides m, for a prime p.  Undefined at m = 0."""
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"valuation base must be at least 2, got {p}")
    i = 0
    while m % p == 0:
        m //= p
        i += 1
    return i


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in ascending order (n must be nonzero)."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out
