"""The paper's proof checks that only the acceptance gate and unit tests run.

The strongly regular identity of KG(n, 2), the Laplacian's quadratic identity,
and the Grassmann-style bound argument that forces each branch table.  They
read the library's ``kneser_graph``, ``laplacian_matrix`` and ``spectral_data``
but live outside the package, so the closed-form layer stays a function of n
alone and imports neither ``graphs`` nor ``intmat``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from critgroup.closedform import spectral_data
from critgroup.critical import ElementaryDivisorProfile
from critgroup.graphs import Graph, kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix


@dataclass(frozen=True)
class SrgParameters:
    """Strongly regular graph parameters (v, k, lambda, mu)."""

    v: int
    k: int
    lam: int
    mu: int


def srg_parameters(n: int) -> SrgParameters:
    """Strongly regular parameters of KG(n, 2) for n >= 5."""
    if n < 5:
        raise ValueError(f"strongly regular parameters assume n >= 5, got {n}")
    return SrgParameters(v=comb(n, 2), k=comb(n - 2, 2), lam=comb(n - 4, 2), mu=comb(n - 3, 2))


def verify_srg_identity(g: Graph, prm: SrgParameters) -> bool:
    """Check A^2 = k*I + lambda*A + mu*(J - A - I) exactly, entry by entry: every
    vertex has k neighbours, and distinct x, y share lambda if adjacent, else mu."""
    v = g.num_vertices
    if v != prm.v:
        raise ValueError(f"graph has {v} vertices but parameters say {prm.v}")
    nbrs = [set() for _ in range(v)]
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return all(len(nx) == prm.k for nx in nbrs) and all(
        len(nbrs[x] & nbrs[y]) == (prm.lam if y in nbrs[x] else prm.mu)
        for x in range(v) for y in range(x + 1, v)
    )


def laplacian_identity_holds(lap: BigIntMatrix, r: int, s: int, mu: int) -> bool:
    """Check (L - r*I)(L - s*I) = mu*J exactly, as L^2 = (r + s)*L - rs*I + mu*J entry by entry."""
    sq = lap @ lap
    return all(
        x == (r + s) * y - r * s * (i == j) + mu
        for i in range(lap.rows)
        for j, (x, y) in enumerate(zip(sq.row(i), lap.row(i)))
    )


def verify_laplacian_identity(n: int) -> bool:
    """Check the Laplacian quadratic identity on the actual KG(n, 2) Laplacian."""
    sd = spectral_data(n)
    mu = srg_parameters(n).mu
    return laplacian_identity_holds(laplacian_matrix(kneser_graph(n)), sd.r, sd.s, mu)


@dataclass(frozen=True)
class GrassmannHypothesis:
    """Dimension lower bounds feeding the multiplicity-forcing argument.

    ``indices`` a_1 < ... < a_h and ``bounds`` b_1 > ... > b_h assert that the
    filtration dimension at level a_j is at least b_j; ``d`` is the p-adic
    valuation of the group order.  Consistency requires
    sum_j (b_j - b_{j+1}) * a_j = d with b_{h+1} = kernel_dim.
    """

    prime: int
    indices: tuple[int, ...]
    bounds: tuple[int, ...]
    d: int
    total_dim: int
    kernel_dim: int = 1


def grassmann_conclusion(hyp: GrassmannHypothesis) -> ElementaryDivisorProfile:
    """Multiplicities forced by a consistent set of filtration lower bounds.

    Given bounds dims[a_j] >= b_j whose weighted gaps already exhaust the
    valuation d of the order, the multiplicities are pinned down:
    e_{a_j} = b_j - b_{j+1} (with b_{h+1} = kernel_dim), e_0 = total_dim - b_1,
    and e_i = 0 elsewhere.
    """
    idx, bnd = hyp.indices, hyp.bounds
    if len(idx) != len(bnd):
        raise ValueError("indices and bounds must have equal length")
    if any(a <= 0 for a in idx) or list(idx) != sorted(set(idx)):
        raise ValueError("indices must be strictly increasing positive integers")
    if list(bnd) != sorted(set(bnd), reverse=True):
        raise ValueError("bounds must be strictly decreasing")
    if bnd and bnd[-1] < hyp.kernel_dim:
        raise ValueError("bounds may not drop below the kernel dimension")
    chain = list(bnd) + [hyp.kernel_dim]
    weighted = sum((chain[j] - chain[j + 1]) * idx[j] for j in range(len(idx)))
    if weighted != hyp.d:
        raise ValueError(f"inconsistent hypothesis: weighted gap sum {weighted} != d {hyp.d}")
    table = {0: hyp.total_dim - chain[0]}
    for j, a in enumerate(idx):
        table[a] = chain[j] - chain[j + 1]
    return ElementaryDivisorProfile(
        prime=hyp.prime, multiplicities=table, kernel_rank=hyp.kernel_dim
    )
