"""Exact critical (sandpile) group computation via Smith normal form.

Builds Kneser graphs KG(n, 2), computes their critical groups by exact
integer Smith normal form of the Laplacian, and machine-checks the known
closed forms: the spanning-tree order formula, the per-prime elementary
divisor multiplicities, and the full invariant factor chain.
"""

from .arith import CertificationError
from .closedform import predicted_critical_group
from .critical import (
    critical_group,
    mbar_filtration,
    p_elementary_divisors,
    spanning_tree_count,
    verify_mdim_identity,
)
from .graphs import kneser_graph, laplacian_matrix
from .intmat import BigIntMatrix, smith_normal_form
from .mmio import MatrixMarketError, read_matrix_market, write_matrix_market

__version__ = "0.1.0"

__all__ = [
    "BigIntMatrix",
    "CertificationError",
    "MatrixMarketError",
    "critical_group",
    "kneser_graph",
    "laplacian_matrix",
    "mbar_filtration",
    "p_elementary_divisors",
    "predicted_critical_group",
    "read_matrix_market",
    "smith_normal_form",
    "spanning_tree_count",
    "verify_mdim_identity",
    "write_matrix_market",
]
