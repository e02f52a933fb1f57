"""Exact dense integer matrices and Smith normal form, which is also the cokernel decomposition.

All arithmetic is on Python ints, so every result is exact at arbitrary
precision; nothing in this module ever touches floating point.

The Smith normal form routine picks the remaining entry of smallest absolute
value as the pivot and clears its row and column by symmetric remainders
(Havas & Majewski, "Integer matrix diagonalization", J. Symbolic Comput. 24,
1997): each entry loses the nearest multiple of the pivot, and a nonzero
remainder, at most half the pivot, becomes the next pivot.  No extended-gcd
cofactors enter the matrix, so entries stay near the size of its minors on
dense input too, and Laplacians of a few hundred rows reduce in seconds
without any modular reconstruction machinery.  This is a heuristic, not a
proven bound (Kannan & Bachem, SIAM J. Comput. 8, 1979, give a
polynomial algorithm).  The pivot search caches each row's least nonzero
|value| and rescans only rows a step changed, not the whole trailing block;
a rescan ends at the block's gcd, a floor that only rises, not at 1.

A plain call on a dense nonsingular square matrix finishes from one Bareiss pass (Eberly,
Giesbrecht & Villard, FOCS 2000): d_(n-1)(M) divides det M and each entry of adj(M) b, so
a gcd g of 1 gives (1, ..., 1, |det M|), the diagonal of about 85% of random integer matrices
(Wang & Stanley, SIAM J. Discrete Math. 31, 2017); else the engine reads s_1..s_(n-1) off M
mod g, as Domich, Kannan & Trotter (Math. Oper. Res. 12, 1987) work modulo the determinant.
That pass takes two pivots per sweep by Bareiss's exact two-step method (Math. Comp. 22, 1968).

A plain call the pass does not finish, on an M that one c != 0 fills more than half of, runs the
engine on the rank-one border P = [[M - cJ, 1], [-c 1^T, 1]]: adding c times P's last column to
the others, then subtracting its last row from them, leaves [[M, 0], [0, 1]], so P's diagonal is
(1, diag M).  A Kneser Laplacian, mostly -1, gives P 2n - 2 nonzeros per row.  Transforms stay on M.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import comb, gcd, prod
from operator import mul

from .arith import CertificationError


class BigIntMatrix:
    """Dense integer matrix, row-major, treated as an immutable value."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        for x in data:
            if not isinstance(x, int):
                raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, rows) -> "BigIntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def diagonal(cls, values, rows: int | None = None, cols: int | None = None) -> "BigIntMatrix":
        values = list(values)
        m = len(values) if rows is None else rows
        n = len(values) if cols is None else cols
        if len(values) > min(m, n):
            raise ValueError("too many diagonal values for shape")
        ent = [0] * (m * n)
        for i, v in enumerate(values):
            ent[i * n + i] = v
        return cls(m, n, ent)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self._data[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        n = self.cols
        d = self._data
        return [list(d[i * n : (i + 1) * n]) for i in range(self.rows)]

    def transpose(self) -> "BigIntMatrix":
        m, n, d = self.rows, self.cols, self._data
        return BigIntMatrix(n, m, [d[i * n + j] for j in range(n) for i in range(m)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigIntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __matmul__(self, other: "BigIntMatrix") -> "BigIntMatrix":
        if not isinstance(other, BigIntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        bt = other.transpose()
        n = other.cols
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for j in range(n):
                out.append(sum(a * b for a, b in zip(arow, bt.row(j))))
        return BigIntMatrix(self.rows, n, out)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"BigIntMatrix({self.rows}x{self.cols}: [{body}])"


@dataclass
class SmithDecomposition:
    """Diagonal of a Smith normal form plus the optional witnessing transforms.

    ``diagonal`` holds min(rows, cols) nonnegative entries, each dividing the
    next among the nonzero ones; ``rank`` counts the nonzero entries.  When
    ``transforms`` is present it is a pair (U, V) of unimodular matrices with
    U @ M @ V equal to the diagonal matrix of this decomposition.  The views
    read the cokernel Z^rows / M Z^cols off the diagonal: its invariant
    factors are the entries above 1, its free rank is rows - rank, and
    ``order`` is the order of its torsion part.
    """

    rows: int
    cols: int
    diagonal: tuple[int, ...]
    rank: int
    transforms: tuple[BigIntMatrix, BigIntMatrix] | None = None

    def __post_init__(self) -> None:
        k = min(self.rows, self.cols)
        if len(self.diagonal) != k:
            raise ValueError("diagonal length must equal min(rows, cols)")
        if any(d < 0 for d in self.diagonal):
            raise ValueError("diagonal entries must be nonnegative")
        if self.rank != sum(1 for d in self.diagonal if d != 0):
            raise ValueError("rank must count the nonzero diagonal entries")
        if any(d == 0 for d in self.diagonal[: self.rank]):
            raise ValueError("zero diagonal entries must trail the nonzero ones")
        for i in range(self.rank - 1):
            if self.diagonal[i + 1] % self.diagonal[i] != 0:
                raise ValueError("diagonal entries must form a divisibility chain")

    def diagonal_matrix(self) -> BigIntMatrix:
        return BigIntMatrix.diagonal(list(self.diagonal), self.rows, self.cols)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    @property
    def free_rank(self) -> int:
        return self.rows - self.rank

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = [f"Z_{f}" for f in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def _find_pivot(a: list[list[int]], t: int, m: int, n: int, mins: list, floor: int) -> tuple[int, int] | None:
    """Position of the first entry of least nonzero |value|, in row-major order, of a[t:, t:].

    ``mins[i]`` caches the least nonzero |value| of a[i][t:n], 0 if none, None
    if unknown.  It stays exact: swaps permute a row's block entries, column t
    is zero below the pivot after step t, and block rows other than row t change
    only by row operations, which reset their entries, as does moving row t down.
    ``floor`` divides every entry of B_t = a[t:m][t:n], so a rescan, or the row
    loop, that meets it has found the least value.  It stays valid as t grows:
    B_t ~ (p_t) + B_(t+1), so the gcd d_1(B_t) = gcd(p_t, d_1(B_(t+1))) divides d_1(B_(t+1)).
    """
    best, best_abs = None, 0
    for i in range(t, m):
        v = mins[i]
        if v is None:
            v = 0
            for x in islice(a[i], t, n):
                if x and (abs(x) < v or not v):
                    v = abs(x)
                    if v == floor:
                        break
            mins[i] = v
        if v and (v < best_abs or not best_abs):
            best, best_abs = i, v
            if v == floor:
                break
    if best is None:
        return None
    block = a[best][t:n]
    return best, t + min(block.index(x) for x in (best_abs, -best_abs) if x in block)


def _swap_cols(a: list[list[int]], j1: int, j2: int) -> None:
    for row in a:
        row[j1], row[j2] = row[j2], row[j1]


def _clear_cross(a, t: int, m: int, n: int, mins: list) -> None:
    """Make row t and column t of the m x n block zero except for the pivot at (t, t).

    Each entry q of the cross loses the multiple f = round(q / p) of the
    pivot p, which leaves the symmetric remainder |q - f p| <= |p| / 2; an
    exact quotient leaves 0.  Column t is cleared by row operations first;
    each sweep lists the nonzero entries of row t once, and a row operation
    updates only those columns of the row it changes, and for f = ±1 (most f on
    Laplacians) subtracts or adds row t as is, since f * y allocates an int per entry.
    The same pass finds the first row with the least nonzero remainder; while
    one is left, it is swapped in as the new pivot, at least halving it, and
    column t is cleared again.  Then row t is cleared by column operations on row t
    and V's rows (column t is zero below the pivot); a remainder refills column t.
    """
    while True:
        rt = a[t]
        p = rt[t]
        nz = [(j, y) for j in range(t, len(rt)) if (y := rt[j])]
        best, least = None, 0
        for i in range(t + 1, m):
            ri = a[i]
            if x := ri[t]:
                if f := (2 * x + p) // (2 * p):
                    mins[i] = None
                    if f == 1:
                        for j, y in nz:
                            ri[j] -= y
                    elif f == -1:
                        for j, y in nz:
                            ri[j] += y
                    else:
                        for j, y in nz:
                            ri[j] -= f * y
                    x = ri[t]
                if x and (abs(x) < least or not least):
                    best, least = i, abs(x)
        if best is not None:
            a[t], a[best] = a[best], a[t]
            mins[best] = None
            continue
        factors = [(j, f) for j in range(t + 1, n) if (f := (2 * rt[j] + p) // (2 * p))]
        for r in (t, *range(m, len(a))):
            row = a[r]
            if x := row[t]:
                for j, f in factors:
                    row[j] -= f * x
        rest = [j for j in range(t + 1, n) if rt[j]]
        if not rest:
            return
        _swap_cols(a, t, min(rest, key=lambda j: abs(rt[j])))


def smith_normal_form(matrix: BigIntMatrix, want_transforms: bool = False) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    Returns nonnegative diagonal entries forming a divisibility chain.  With
    ``want_transforms`` the unimodular pair (U, V) satisfying U @ M @ V = S is
    computed alongside and returned in the decomposition.  Without, a c != 0 filling
    more than half of M runs the engine on the module docstring's border P and drops its leading 1.

    The elimination runs on one list of rows.  With transforms, each of the m
    rows of M carries its row of I_m to the right of the m x n block, and the
    n rows of I_n sit below the block.  Row operations then run across the
    whole row and update U; column operations run down the whole column and
    update V.  Pivot search and clearing stay inside the m x n block.
    """
    m, n = matrix.rows, matrix.cols
    if m == 0 or n == 0:
        raise ValueError("smith_normal_form requires a nonempty matrix")
    if not want_transforms and (diag := _dense_diagonal(matrix)):
        return SmithDecomposition(rows=m, cols=n, diagonal=diag, rank=n)
    # The rank-one border of the module docstring: coker P = coker M, and P is sparse where c fills M.
    c, count = (0, 0) if want_transforms else Counter(d := matrix._data).most_common(1)[0]
    if border := c and 2 * count > m * n:
        a = [[x - c for x in d[i * n : (i + 1) * n]] + [1] for i in range(m)] + [[-c] * n + [1]]
        m, n = m + 1, n + 1
    else:
        a = matrix.to_rows()
    if want_transforms:
        for i, row in enumerate(a):
            row.extend(int(i == j) for j in range(m))
        a.extend([int(i == j) for j in range(n)] for i in range(n))
    k = min(m, n)

    rank, mins, floor = 0, [None] * m, 1
    for t in range(k):
        # A pivot above the floor hints that the block's gcd rose; raise the floor to it.
        if t and abs(a[t - 1][t - 1]) > floor:
            g = 0
            for row in islice(a, t, m):
                if (g := gcd(g, *islice(row, t, n))) == floor:
                    break
            floor = g
        pos = _find_pivot(a, t, m, n, mins, floor)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            mins[pi] = mins[t]
        if pj != t:
            _swap_cols(a, t, pj)
        _clear_cross(a, t, m, n, mins)
        rank += 1

    # Where d_i does not divide d_j, adding column j to column i puts d_j
    # below the pivot d_i; clearing the cross again leaves (gcd, lcm) up to sign.
    # A divisibility chain needs no fix-up, so the pair scan runs only when a
    # consecutive pair breaks it.
    if any(a[i + 1][i + 1] % a[i][i] for i in range(rank - 1)):
        for i in range(rank):
            for j in range(i + 1, rank):
                if a[j][j] % a[i][i] != 0:
                    for row in a:
                        row[i] += row[j]
                    _clear_cross(a, i, m, n, mins)
    # Rows below the rank are zero in the block, and row i < rank holds only
    # its pivot there, so negating the row negates the pivot and its U row.
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    transforms = None
    if want_transforms:
        transforms = (BigIntMatrix.from_rows(row[n:] for row in a[:m]), BigIntMatrix.from_rows(a[m:]))
    diag = tuple(a[i][i] for i in range(k))
    if border:
        if diag[0] != 1:
            raise CertificationError("the bordered matrix's Smith form does not begin with 1")
        return SmithDecomposition(rows=m - 1, cols=n - 1, diagonal=diag[1:], rank=rank - 1)
    return SmithDecomposition(rows=m, cols=n, diagonal=diag, rank=rank, transforms=transforms)


def _bareiss(a: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free row echelon reduction of ``a`` in place (Bareiss 1968).

    Returns (rank, sign, last pivot).  Every division by the previous pivot
    is exact; the last pivot is the leading rank x rank minor of the matrix
    after the row swaps, and sign is the parity of those swaps.

    Two pivots per sweep where they can be (the two-step method, Bareiss, Math. Comp. 22, 1968):
    with p = a[r][j] and e_i = (a[i][j+1] p - a[i][j] a[r][j+1]) / prev, row i's one-step value
    in column j + 1, the first row with e_i != 0 takes one step as row r + 1, pivot q = e_(r+1),
    and each later row both: x <- (x p q - a[r][k] a[i][j] q - a[r+1][k] e_i prev) / (prev p).
    That numerator is prev times the second step's, whose division by p is exact (Sylvester's
    identity), so the quotient is exact and equal to two one-step updates, bit for bit.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    r, sign, prev, j = 0, 1, 1, 0
    while j < n and r < m:
        piv_row = next((i for i in range(r, m) if a[i][j] != 0), None)
        if piv_row is None:
            j += 1
            continue
        if piv_row != r:
            a[r], a[piv_row], sign = a[piv_row], a[r], -sign
        rr, piv = a[r], a[r][j]
        e = [(ri[j + 1] * piv - ri[j] * rr[j + 1]) // prev for ri in a[r + 1 :]] if j + 1 < n else []
        s = next((i for i, x in enumerate(e) if x), None)
        if s:
            a[r + 1], a[r + 1 + s], e[0], e[s], sign = a[r + 1 + s], a[r + 1], e[s], e[0], -sign
        # One step for every row below, or for row r + 1 alone when it has a pivot in column j + 1.
        for ri in a[r + 1 : m if s is None else r + 2]:
            f = ri[j]
            for jj in range(j + 1, n):
                ri[jj] = (ri[jj] * piv - f * rr[jj]) // prev
            ri[j] = 0
        if s is not None:
            r1, q, pq, d = a[r + 1], e[0], piv * e[0], prev * piv
            for ri, ei in zip(a[r + 2 :], e[1:]):
                f, g = ri[j] * q, ei * prev
                for jj in range(j + 2, n):
                    ri[jj] = (ri[jj] * pq - rr[jj] * f - r1[jj] * g) // d
                ri[j] = ri[j + 1] = 0
            piv, r, j = q, r + 1, j + 1  # row r + 1's pivot q becomes prev below
        prev, r, j = piv, r + 1, j + 1
    return r, sign, prev


def _dense_diagonal(matrix: BigIntMatrix) -> tuple[int, ...] | None:
    """Smith diagonal of a dense nonsingular square M from one Bareiss pass over [M | B], else None.

    The pass yields det M, two (n-1)-minors and det(M) M^-1 B, multiples of d_(n-1)(M) with gcd g;
    B's columns C(i, c), c < 4, are unit lower triangular, so independent modulo every prime.
    g = 1 gives (1, ..., 1, |det M|).  Else s_i | g for i < n, and [M | g I] and [M mod g | g I] both
    have invariants gcd(s_i, g) = gcd(t_i, g), t the diagonal of M mod g (symmetric residues; a zero
    column keeps the engine off this pass).  So s_i = gcd(t_i, g) for i < n, s_n = |det M| / (s_1 ...
    s_(n-1)), and gcd(s_n, g) = gcd(t_n, g) checks it.  Rows that all sum to 0 prove M singular.
    """
    n = matrix.rows
    if n != matrix.cols or 2 * matrix._data.count(0) > n * n or not any(map(sum, map(matrix.row, range(n)))):
        return None
    a = [row + [comb(i, c) for c in range(4)] for i, row in enumerate(matrix.to_rows())]
    _bareiss(a)
    if not (det := a[-1][n - 1]):
        return None
    g = gcd(det, *a[-2][n - 2 : n]) if n > 1 else det
    for c in range(n, n + 4):
        if g == 1:
            break
        y = [0] * n
        for i in range(n - 1, -1, -1):
            y[i], r = divmod(det * a[i][c] - sum(map(mul, a[i][i + 1 : n], y[i + 1 :])), a[i][i])
            if r:
                raise CertificationError("Cramer's rule broke in back-substitution")
        g = gcd(g, *y)
    if g == 1:
        return (1,) * (n - 1) + (abs(det),)
    h = g // 2
    reduced = [[(x + h) % g - h for x in row] + [0] for row in matrix.to_rows()]
    *head, tail = (gcd(s, g) for s in smith_normal_form(BigIntMatrix.from_rows(reduced)).diagonal)
    last, r = divmod(abs(det), prod(head))
    if r or gcd(last, g) != tail:
        raise CertificationError("the Smith form of M mod g disagrees with det M")
    return (*head, last)


def determinant(matrix: BigIntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not matrix.is_square:
        raise ValueError(f"determinant requires a square matrix, got {matrix.shape}")
    rank, sign, last = _bareiss(matrix.to_rows())
    return sign * last if rank == matrix.rows else 0


def matrix_rank(matrix: BigIntMatrix) -> int:
    """Rank over the rationals, by fraction-free row echelon reduction."""
    return _bareiss(matrix.to_rows())[0]
