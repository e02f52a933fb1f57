"""Row reduction over Z/p^e on packed rows, and solution-set dimensions mod p^e.

Residue rings Z/p^e are not fields, so an ordinary row echelon form of a
row span can miss span elements: a row with a zero-divisor pivot also
contributes its annihilator multiples.  Closing the echelon rows under those
multiples gives the weak Howell form (Storjohann & Mulders 1998), in which
the span of the rows whose leading entries sit past a given column is
exactly the set of span elements vanishing up to that column.  That trailing
segment property is what makes kernel extraction sound over these rings, so
the kernel routine stops at the weak form.

Rows are packed: the residues r_0, r_1, ... of a row are the one int
sum r_j 2^(jW), column j in bits [jW, (j+1)W), column 0 lowest.  The leading
column is the lowest set bit over W, and a row operation is a few big-int
operations on whole rows, reduced slot by slot with one Barrett step: for
s = k + bits(q) and c = ceil(2^s / q), each slot x becomes
x - q floor(x c / 2^s), which is x mod q whenever x < 2^k (x c / 2^s exceeds
x / q by less than 2^(k-s) < 1/q).  The bound: every slot given to the
reduction is below 2^k, and W >= 2k + 2.  Then x c < 2^(2k+1) carries into
no other slot, the shifted quotient fits in the low W - s bits of its slot,
under the low bits shifted down from the slot above, and subtracting q times
it borrows from none.  The largest slot reduced is the merge step's
a' r + (q - b') r', up to 2(q - 1)^2 and not q^2, so k = bits(2q^2 - 1);
k = 2 bits(q) returns wrong residues (from x = 1115 at q = 31).  One W, taken
from q = p^e_max, serves every lower level and the final pass mod p, whose
slots are all below p^e_max.

Unpacked, the rows are those of the entrywise reduction (kept in the tests as
the oracle): the queue order is the same, and every slot holds the same
residue, because w - f s = w + (q - f) s mod q and the xgcd cofactors are
taken mod q before they multiply a row.  Canonical Howell form (Howell 1986)
is not needed here; the tests use it to compare spans row for row.

``kernel_dimensions_mod`` reduces [M^T | I] once mod p^e_max, then feeds the
rows of each level e + 1, taken mod p^e, back in.  That is exact: Z/p^(e+1) ->
Z/p^e maps the row span onto the row span, and any generating set serves.

Nothing here touches the Smith normal form code in ``intmat``; the two routes
are kept independent so that one can serve as a witness for the other.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime, xgcd
from .intmat import BigIntMatrix


def _slot_width(q: int) -> int:
    """W = 2k + 2 for k = bits(2q^2 - 1): room for every slot value below 2q^2."""
    return 2 * (2 * q * q - 1).bit_length() + 2


def _reducer(q: int, width: int, cols: int):
    """x -> each of the ``cols`` slots of x mod q, for slots below 2^k, k = (width - 2) // 2."""
    s = (width - 2) // 2 + q.bit_length()
    mult = -(-(1 << s) // q)
    qmask = ((1 << width - s) - 1) * (((1 << cols * width) - 1) // ((1 << width) - 1))
    return lambda x: x - q * (((x * mult) >> s) & qmask)


def _weak_howell_form(rows: list[int], modulus: int, width: int, cols: int) -> list[int]:
    """Echelon rows of the span of packed ``rows`` over Z/modulus, closed under annihilators.

    Every slot of ``rows`` must be below 2^k (see the module docstring).
    Returns one nonzero row per pivot column, sorted by pivot column; pivots
    are not normalized and entries above them are not reduced.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    reduce, slot = _reducer(modulus, width, cols), (1 << width) - 1
    pivots: dict[int, int] = {}
    queue = [reduce(r) for r in rows]

    def close(row: int, lead: int) -> None:
        # Queue the row times the annihilator of its pivot, unless trivial.
        d = gcd(lead, modulus)
        if d > 1:
            ann = reduce(modulus // d * row)
            if ann:
                queue.append(ann)

    while queue:
        vec = queue.pop()
        while vec:
            j = ((vec & -vec).bit_length() - 1) // width
            b = (vec >> j * width) & slot
            cur = pivots.get(j)
            if cur is None:
                pivots[j] = vec
                close(vec, b)
                break
            a = (cur >> j * width) & slot
            if b % a == 0:
                vec = reduce(vec + (modulus - b // a) * cur)
            else:
                g, x, y = xgcd(a, b)
                pivots[j] = reduce(x % modulus * cur + y % modulus * vec)
                vec = reduce(a // g * vec + (modulus - b // g) * cur)
                close(pivots[j], g)
    return [pivots[j] for j in sorted(pivots)]


def kernel_dimensions_mod(matrix: BigIntMatrix, p: int, e_max: int) -> tuple[int, ...]:
    """Dimension over Z/p of the mod-p image of {x : M x = 0 mod p^e}, for e = 1..e_max.

    Reduces [M^T | I] to its weak Howell form at each level; the rows whose
    matrix block vanishes carry the kernel generators, and over the field Z/p
    their weak form is an echelon basis of their mod-p span.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e_max < 1:
        raise ValueError("exponent must be at least 1")
    m, n, q = matrix.rows, matrix.cols, p**e_max
    width = _slot_width(q)
    # Row i of [M^T | I]: column i of M in the first m slots, then e_i.
    rows = [1 << (m + i) * width for i in range(n)]
    for r, row in enumerate(matrix.to_rows()):
        for i, x in enumerate(row):
            if x:
                rows[i] |= x % q << r * width
    low, dims = (1 << m * width) - 1, []
    for e in range(e_max, 0, -1):
        rows = _weak_howell_form(rows, p**e, width, m + n)
        kernel = [r >> m * width for r in rows if not r & low]
        dims.append(len(_weak_howell_form(kernel, p, width, n)))
    return tuple(reversed(dims))
