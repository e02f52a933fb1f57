"""Row reduction over Z/N on packed rows, and solution-set dimensions mod p^e.

Rings Z/N, N composite, are not fields, so an ordinary row echelon form of a
row span can miss span elements: a row with a zero-divisor pivot also
contributes its annihilator multiples.  Closing the echelon rows under those
multiples gives the weak Howell form (Storjohann & Mulders 1998), in which
the span of the rows whose leading entries sit past a given column is
exactly the set of span elements vanishing up to that column.  That trailing
segment property is what lets the pivots alone measure the span (below), so
the routine stops at the weak form.

Rows are packed: the residues r_0, r_1, ... of a row are the one int
sum r_j 2^(jW), column j in bits [jW, (j+1)W), column 0 lowest.  Inside the
reduction a row is kept shifted down to its leading column j, the lowest set
bit over W, so its pivot is slot 0 and it holds only the columns from j on;
pivot rows are stored that way with their pivot, queued rows carry their j,
and rows are shifted back only on return.  A row operation is a few big-int
operations on such rows, reduced slot by slot with one Barrett step: for
s = k + bits(q) and c = ceil(2^s / q), each slot x becomes
x - q floor(x c / 2^s), which is x mod q whenever x < 2^k (x c / 2^s exceeds
x / q by less than 2^(k-s) < 1/q).  The bound: every slot given to the
reduction is below 2^k, and W >= 2k + 2.  Then x c < 2^(2k+1) carries into
no other slot, the shifted quotient fits in the low W - s bits of its slot,
under the low bits shifted down from the slot above, and subtracting q times
it borrows from none.  The largest slot reduced is the merge step's
a' r + (q - b') r', up to 2(q - 1)^2 and not q^2, so k = bits(2q^2 - 1);
k = 2 bits(q) returns wrong residues (from x = 1115 at q = 31).  W is 2k + 2
rounded up to whole hex digits, so the reducer's k' = (W - 2) // 2 >= k only
widens the margin.  None of this, nor the merge step's xgcd, needs q to be a
prime power.  One W, from q = r^e_max, serves every lower level.  Row i
of M^T is column i of M, top slot first, joined from a table of W/4 hex digits
per distinct entry, read by int(., 16): power-of-two bases skip int()'s digit cap.

Unpacked, the rows are those of the entrywise reduction (kept in the tests as
the oracle): the queue order is the same, and every slot holds the same
residue, because w - f s = w + (q - f) s mod q and the xgcd cofactors are
taken mod q before they multiply a row.  Canonical Howell form (Howell 1986)
is not needed here; the tests use it to compare spans row for row.

``kernel_dimensions_mod`` counts lengths (numbers of composition factors Z/p)
of S, the image of the m x n matrix M mod p^e: the row span of M^T over Z/p^e,
for distinct primes p of one depth e_max at once, over Z/r^e with r = prod p.
(1) The trailing segment property makes S_j / S_(j+1), for S_j the part of S
vanishing before column j, the ideal of the pivot a_j (zero where none sits);
Z/r^e is the product of the Z/p^e (CRT), so at p that ideal is its p-part
Z/p^(e - min(v_p(a_j), e)), where a residue mod r^e can carry p^e or more, and
S has length l_e = sum_j (e - min(v_p(a_j), e)).  (2) Over the
Smith diagonal d_i of M, i < min(m, n), v_i = v_p(d_i) (infinite at 0), S is
the sum of the p^min(v_i, e) Z/p^e: l_e = sum_i (e - min(v_i, e)), so
l_e - l_(e-1) = #{i : v_i < e}.  (3) There the kernel is the sum of the
p^(e - min(v_i, e)) Z/p^e and n - min(m, n) free coordinates; its mod-p image
has dimension n - #{i : v_i < e} = n - (l_e - l_(e-1)), with l_0 = 0.  Each
level's rows, taken mod r^(e-1), feed the next: Z/r^e -> Z/r^(e-1) maps the
row span onto the row span, and any generating set serves.

Smith normal form enters only that argument: nothing here touches its code in
``intmat``, so that each route can serve as a witness for the other.
"""

from __future__ import annotations

from math import gcd, prod

from .arith import valuation, xgcd
from .intmat import BigIntMatrix


def _slot_width(q: int) -> int:
    """W >= 2k + 2 for k = bits(2q^2 - 1), a multiple of 4: room for every slot value below 2q^2."""
    return (2 * q * q - 1).bit_length() // 2 * 4 + 4


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
    reduce, slot = _reducer(modulus, width, cols), (1 << width) - 1
    pivots: dict[int, tuple[int, int]] = {}  # j: (pivot row >> jW, its pivot)
    queue = [(reduce(r), 0) for r in rows]  # (row >> jW, j) for j at or below its lead

    def close(row: int, lead: int, j: int) -> None:
        # Queue the row times the annihilator of its pivot, unless trivial.
        d = gcd(lead, modulus)
        if d > 1:
            ann = reduce(modulus // d * row)
            if ann:
                queue.append((ann, j))

    while queue:
        vec, j = queue.pop()
        while vec:
            z = ((vec & -vec).bit_length() - 1) // width
            vec >>= z * width
            j += z
            b = vec & slot
            piv = pivots.get(j)
            if piv is None:
                pivots[j] = vec, b
                close(vec, b, j)
                break
            cur, a = piv
            if b % a == 0:
                vec = reduce(vec + (modulus - b // a) * cur)
            else:
                g, x, y = xgcd(a, b)
                merged = reduce(x % modulus * cur + y % modulus * vec)  # pivot x a + y b = g
                pivots[j] = merged, g
                vec = reduce(a // g * vec + (modulus - b // g) * cur)
                close(merged, g, j)
    return [pivots[j][0] << j * width for j in sorted(pivots)]


def kernel_dimensions_mod(matrix: BigIntMatrix, primes: list[int], e_max: int) -> dict[int, tuple[int, ...]]:
    """Dimension over Z/p of the mod-p image of {x : M x = 0 mod p^e}, for e = 1..e_max and each p in ``primes``.

    One descent mod r^e, r = prod p: e - min(v_p(pivot), e) summed over the weak
    Howell form of M^T's rows is the length l_e at p of M's image, and dims[e] =
    n - (l_e - l_(e-1)).  The distinct primes are trusted prime; callers check.
    """
    if e_max < 1:
        raise ValueError("exponent must be at least 1")
    if not primes or len(set(primes)) < len(primes):
        raise ValueError(f"primes must be nonempty and distinct, got {primes}")
    m, n, q = matrix.rows, matrix.cols, (r := prod(primes)) ** e_max
    width, cols = _slot_width(q), [matrix.column(i)[::-1] for i in range(n)]  # M^T's rows, slot m - 1 first
    digits = {x: format(x % q, f"0{width // 4}x") for x in set().union(*cols)}.__getitem__
    rows = [int("".join(map(digits, col)) or "0", 16) for col in cols]
    slot, lengths = (1 << width) - 1, {p: [0] * (e_max + 1) for p in primes}  # l_0 = 0
    for e in range(e_max, 0, -1):
        rows = _weak_howell_form(rows, r**e, width, m)
        pivots = [(x >> ((x & -x).bit_length() - 1) // width * width) & slot for x in rows]  # lowest slots
        for p, l in lengths.items():
            l[e] = sum(e - min(valuation(a, p), e) for a in pivots)
    return {p: tuple(n - (l[e] - l[e - 1]) for e in range(1, e_max + 1)) for p, l in lengths.items()}
