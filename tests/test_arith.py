"""Deterministic Miller-Rabin primality."""

from __future__ import annotations

import pytest

from critgroup.arith import is_prime


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit**0.5) + 1):
        if flags[d]:
            flags[d * d :: d] = [False] * len(flags[d * d :: d])
    return flags


class TestIsPrime:
    def test_agrees_with_sieve_below_100000(self):
        flags = sieve(100_000)
        assert [n for n in range(-5, 100_000) if is_prime(n)] == [
            n for n in range(100_000) if flags[n]
        ]

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael number
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to the bases 2 through 23
            318665857834031151167461,  # strong pseudoprime to the bases 2 through 37
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 10**18 + 9, 2**61 - 1, 2**64 - 59])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_beyond_proven_range_raises(self):
        # The least strong pseudoprime to the 13 bases: no answer is certain here.
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)

    def test_small_factor_decided_at_any_size(self):
        assert not is_prime(3 * 10**40)

