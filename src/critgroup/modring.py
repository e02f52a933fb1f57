"""Row reduction over Z/p^e and solution-set dimensions mod a prime power.

Residue rings Z/p^e are not fields, so an ordinary row echelon form of a
row span can miss span elements: a row with a zero-divisor pivot also
contributes its annihilator multiples.  Closing the echelon rows under those
multiples gives the weak Howell form (Storjohann & Mulders 1998), in which
the span of the rows whose leading entries sit past a given column is
exactly the set of span elements vanishing up to that column.  That trailing
segment property is what makes kernel extraction sound over these rings, so
the kernel routines stop at the weak form.  Both rows of a row operation
vanish before its pivot column j, so it runs from j on.

``kernel_dimensions_mod`` reduces [M^T | I] once mod p^e_max, then feeds the
rows of each level e + 1, taken mod p^e, back in.  That is exact: Z/p^(e+1) ->
Z/p^e maps the row span onto the row span, and any generating set serves.

``howell_form`` goes on to the canonical Howell form (Howell 1986):
each pivot normalized to the divisor of the modulus it generates, and
entries above pivots reduced.  Both steps scale rows by units or subtract
rows with later pivots, so they change neither the pivot columns nor the
span of any trailing segment; the canonical form is only needed where two
spans are compared row for row.

Nothing here touches the Smith normal form code in ``intmat``; the two routes
are kept independent so that one can serve as a witness for the other.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime, xgcd
from .intmat import BigIntMatrix


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


def _weak_howell_form(rows, modulus: int) -> list[list[int]]:
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
    ordered = _weak_howell_form(rows, modulus)
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

    Computed by reducing the transpose augmented with an identity block to
    its weak Howell form; the rows whose matrix block vanishes carry the
    kernel generators.  They are not canonical: compare two generating sets
    through ``howell_form``.
    """
    m = matrix.rows
    return [row[m:] for row in _weak_howell_form(_augmented_transpose(matrix), modulus) if not any(row[:m])]


def kernel_dimension_mod(matrix: BigIntMatrix, p: int, e: int) -> int:
    """Dimension over Z/p of the mod-p image of {x : M x = 0 mod p^e}."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("exponent must be at least 1")
    # Over the field Z/p every nonzero pivot is a unit, so no annihilator rows
    # arise: the weak Howell form of the generators is an echelon basis of
    # their mod-p span and its length is the dimension.
    return len(_weak_howell_form(kernel_generators_mod(matrix, p**e), p))


def kernel_dimensions_mod(matrix: BigIntMatrix, p: int, e_max: int) -> tuple[int, ...]:
    """``kernel_dimension_mod`` at e = 1..e_max, from one descending pass."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e_max < 1:
        raise ValueError("exponent must be at least 1")
    m, reduced, dims = matrix.rows, _augmented_transpose(matrix), []
    for e in range(e_max, 0, -1):
        reduced = _weak_howell_form(reduced, p**e)
        dims.append(len(_weak_howell_form([row[m:] for row in reduced if not any(row[:m])], p)))
    return tuple(reversed(dims))
