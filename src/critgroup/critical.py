"""Critical groups, spanning tree counts, and per-prime elementary divisor data.

The critical group of a graph is the torsion part of the cokernel of its
Laplacian.  Three independent routes into its structure live here: the Smith
normal form route (``p_elementary_divisors``), the mod-p^e row reduction
route (``mbar_filtrations``, one descent mod (prod p)^e for the primes of one
depth, and ``mbar_filtration`` for one), and one row echelon of the reduced
Laplacian that yields both its rational rank and its spanning tree count
(``laplacian_rank_and_trees``).  ``verify_mdim_identity`` checks that the
first two agree through the tail-sum identity dims[i] = kernel_dim + sum of
e_j for j >= i, where kernel_dim comes from the third.  The last two also
check each other: for a connected graph, sum_{i=1..D} (dims[i] - 1) =
sum_j min(j, D) e_j equals v_p(tau) = sum_j j e_j exactly when no e_j has
j > D, so tau certifies that dims[D + 1] = 1 (``reports.prime_reports``).

That echelon is exact for two reasons.  It works on L0, the Laplacian
without its last row and column, by unimodular row operations only (swaps
and adding integer multiples of one row to another), which keep |det L0|;
the echelon's pivots multiply to it.  For a graph Laplacian, and only
such input is accepted, rank(L0) = rank(L) = v - c for c components: L0 is
block diagonal over the components of the graph minus the last vertex,
every block of a component adjacent to that vertex is nonsingular
(grounded), and every other block is a Laplacian of corank 1.  Entries are
unbounded integers, so their growth costs time, never exactness: remainder
steps keep them under 30 bits on Kneser Laplacians, but on dense general
input they can grow towards the size of the determinant.  The echelon
writes its rows in place, at the pivot row's nonzero entries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import is_prime, valuation
from .graphs import Graph, laplacian_matrix
from .intmat import BigIntMatrix, SmithDecomposition, matrix_rank, smith_normal_form
from .modring import kernel_dimensions_mod


@dataclass
class ElementaryDivisorProfile:
    """Multiplicities e_i of p^i among the elementary divisors of a matrix.

    ``multiplicities`` maps exponent i to e_i (zero entries dropped);
    ``kernel_rank`` is the number of zero diagonal entries, i.e. the rank of
    the free part of the cokernel.
    """

    prime: int
    multiplicities: dict[int, int] = field(default_factory=dict)
    kernel_rank: int = 0

    def __post_init__(self) -> None:
        if self.kernel_rank < 0:
            raise ValueError("kernel rank must be nonnegative")
        clean = {}
        for i, e in sorted(self.multiplicities.items()):
            if i < 0 or e < 0:
                raise ValueError("exponents and multiplicities must be nonnegative")
            if e:
                clean[i] = e
        self.multiplicities = clean

    @property
    def max_exponent(self) -> int:
        return max(self.multiplicities, default=0)

    def tail_sum(self, i: int) -> int:
        return sum(e for j, e in self.multiplicities.items() if j >= i)


@dataclass
class MbarFiltration:
    """Dimensions dims[i] of the mod-p reductions of {x : p^i divides M x}."""

    prime: int
    dims: tuple[int, ...]
    kernel_dim: int

    def __post_init__(self) -> None:
        self.dims = tuple(self.dims)
        if not self.dims:
            raise ValueError("dims must start at level 0")
        for a, b in zip(self.dims, self.dims[1:]):
            if b > a:
                raise ValueError("dims must be non-increasing")
        if any(d < self.kernel_dim for d in self.dims):
            raise ValueError("dims may not drop below the kernel dimension")

    @property
    def i_max(self) -> int:
        return len(self.dims) - 1


def critical_group(lap: BigIntMatrix) -> SmithDecomposition:
    """Critical group of a graph from its Laplacian: the Smith decomposition, read as its cokernel.

    ``invariant_factors`` is the critical group, the torsion part of the
    cokernel; ``free_rank`` equals the number of connected components.
    """
    return smith_normal_form(lap)


def _echelon_rank_and_det(a: list[list[int]]) -> tuple[int, int]:
    """Rank of the square matrix ``a`` and, when it is nonsingular, its determinant up to sign.

    Row echelon by unimodular row operations, written into the rows of ``a``.
    For each column c, the live row of least nonzero |entry| p is the pivot,
    and every other live row with an entry q there loses f = round(q / p)
    times it, leaving the symmetric remainder |q - f p| <= |p| / 2 (Havas &
    Majewski, J. Symbolic Comput. 24, 1997); such sweeps repeat until the
    pivot alone is nonzero, and its row is retired.  A zero column is
    skipped.  Live rows are zero left of c, so a sweep updates only the pivot
    row's nonzero entries, which on Kneser input are few.  This remainder
    step is its own: it shares nothing with the Smith engine, so the tree
    count stays an independent witness.
    """
    rank, det = 0, 1
    alive = list(range(len(a)))
    for c in range(len(a)):
        live = [i for i in alive if a[i][c]]
        while live:
            t = min(live, key=lambda i: abs(a[i][c]))
            pr = a[t]
            p = pr[c]
            nz = [(j, y) for j in range(c, len(pr)) if (y := pr[j])]
            nxt = []
            for i in live:
                if i == t:
                    continue
                r = a[i]
                f = (2 * r[c] + p) // (2 * p)
                for j, y in nz:
                    r[j] -= f * y
                if r[c]:
                    nxt.append(i)
            if not nxt:
                det *= p
                rank += 1
                alive.remove(t)
                break
            live = nxt + [t]
    return rank, det


def laplacian_rank_and_trees(lap: BigIntMatrix) -> tuple[int, int]:
    """Rational rank and spanning tree count of a graph, from one row echelon of its reduced Laplacian.

    The rank is v minus the number of connected components, and equals the
    rank of L0, the Laplacian without its last row and column.  By the
    Matrix-Tree theorem |det L0| is tau, the tree count, when the rank is
    v - 1; a lower rank means a disconnected graph and tau = 0.  The
    one-vertex graph has an empty L0, rank 0 and tau = 1.  Raises ValueError
    unless ``lap`` is a graph Laplacian (symmetric, off-diagonal entries
    <= 0, zero row sums), the input for which rank(L0) = rank(L) holds.
    """
    v = lap.rows
    if v == 0:
        raise ValueError("a graph with no vertices has no spanning tree count")
    rows = lap.to_rows()
    if list(map(tuple, rows)) != list(zip(*rows)) or any(
        sum(r) or max(r[:i] + r[i + 1 :], default=0) > 0 for i, r in enumerate(rows)
    ):
        raise ValueError(
            "not a graph Laplacian (symmetric, off-diagonal entries <= 0, zero row sums), "
            "so not PSD by diagonal dominance"
        )
    rank, det = _echelon_rank_and_det([r[:-1] for r in rows[:-1]])
    return rank, abs(det) if rank == v - 1 else 0


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, by the Matrix-Tree theorem on the Laplacian."""
    return laplacian_rank_and_trees(laplacian_matrix(g))[1]


def profile_from_smith(snf: SmithDecomposition, p: int) -> ElementaryDivisorProfile:
    """Read the p-elementary divisor multiplicities off a Smith diagonal; p must be prime, callers check."""
    mult: dict[int, int] = {}
    for d in snf.diagonal:
        if d != 0:
            i = valuation(d, p)
            mult[i] = mult.get(i, 0) + 1
    return ElementaryDivisorProfile(
        prime=p, multiplicities=mult, kernel_rank=snf.cols - snf.rank
    )


def p_elementary_divisors(matrix: BigIntMatrix, p: int) -> ElementaryDivisorProfile:
    """Per-prime elementary divisor profile, via Smith normal form."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return profile_from_smith(smith_normal_form(matrix), p)


def mbar_filtrations(
    matrix: BigIntMatrix, primes: list[int], i_max: int, rank: int | None = None
) -> list[MbarFiltration]:
    """Filtration dimensions dims[0..i_max] at each of ``primes``, by one descending row reduction mod (prod p)^i.

    dims[i] for i >= 1 comes from the lengths of the image read off Howell
    pivots (``kernel_dimensions_mod``, one descent for all the primes, after
    the checks that each p is prime here and that they are distinct and
    i_max >= 1 there), never from Smith normal form: an independent witness.
    dims[0] is the full column count; the kernel dimension is columns minus
    the rank over the rationals.  ``rank`` passes in that rank when the caller
    already has it, as from ``laplacian_rank_and_trees``; when omitted it is
    computed by ``matrix_rank``, a Bareiss elimination that costs far more:
    about 0.5 s on the KG(16, 2) Laplacian and 3.5 s on KG(20, 2), against
    0.01 s and 0.02 s for ``laplacian_rank_and_trees`` (2 vCPUs, Python 3.11).
    Never pass the Smith rank: the kernel dimension would then witness nothing
    the Smith route does not say.
    """
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    dims = kernel_dimensions_mod(matrix, primes, i_max)
    kernel_dim = matrix.cols - (matrix_rank(matrix) if rank is None else rank)
    return [MbarFiltration(prime=p, dims=(matrix.cols, *dims[p]), kernel_dim=kernel_dim) for p in primes]


def mbar_filtration(matrix: BigIntMatrix, p: int, i_max: int, rank: int | None = None) -> MbarFiltration:
    """The filtration at one prime p: ``mbar_filtrations`` with the group [p]."""
    return mbar_filtrations(matrix, [p], i_max, rank)[0]


def verify_mdim_identity(profile: ElementaryDivisorProfile, filt: MbarFiltration) -> bool:
    """Check dims[i] = kernel_dim + sum_{j >= i} e_j for every filtration level."""
    if profile.prime != filt.prime:
        raise ValueError(
            f"prime mismatch: profile at {profile.prime}, filtration at {filt.prime}"
        )
    return all(
        filt.dims[i] == filt.kernel_dim + profile.tail_sum(i) for i in range(len(filt.dims))
    )


def verify_eigenspace_bound(p: int, u: int, b: int, filt: MbarFiltration) -> bool:
    """Check dims[v_p(u)] >= b for an integer Laplacian eigenvalue u of multiplicity b.

    For v_p(u) = 0 the bound dims[0] >= b holds trivially since dims[0] is the
    vertex count.
    """
    if p != filt.prime:
        raise ValueError(f"prime mismatch: {p} vs filtration at {filt.prime}")
    a = valuation(u, p)
    if a == 0:
        return True
    if a > filt.i_max:
        raise ValueError(f"filtration depth {filt.i_max} < valuation {a}")
    return filt.dims[a] >= b

