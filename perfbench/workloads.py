"""Inputs, expected values and output checks for the benchmark's workloads.

Everything here is the benchmark's own code and imports nothing from
critgroup: the Kneser Laplacians, the Matrix-Tree formula for KG(n, 2) and
the Bareiss determinant that the checks compare against are computed
independently of the program under test.

A workload is a list of ops.  Each op is one ``critgroup.cli.main(argv)``
call plus the expected values its stdout is checked against.  Inputs that
live in files are written by ``build`` into a working directory; the digest
covers file contents, not paths, so it depends only on what the program reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, prod

NAMES = ("verify-ladder", "snf-kneser", "snf-dense")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" keeps
# the self-tests fast while going through exactly the same code.
SIZES = {
    "full": {
        "verify_ns": range(5, 17),
        "kneser_ns": (24, 28, 32),
        # m=20, not 24: at m=24 one matrix in a few hundred takes ~40x the
        # mean, so a 250-matrix batch varies ~18% from seed to seed.  500,
        # not more, so that a 40-s run holds about ten batches (see run.measure).
        "dense_count": 500,
        "dense_m": 20,
        # tracemalloc slows these ops 4-12x, so the memory pass runs only the
        # leading, smallest ops of each workload.
        "memory_ops": {"verify-ladder": 8, "snf-kneser": 1, "snf-dense": 100},
    },
    "tiny": {
        "verify_ns": range(5, 8),
        "kneser_ns": (6, 7),
        "dense_count": 4,
        "dense_m": 6,
        "memory_ops": {"verify-ladder": 3, "snf-kneser": 2, "snf-dense": 4},
    },
}
DENSE_ENTRY_BOUND = 100


@dataclass
class Op:
    argv: list[str]
    kind: str
    expected: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    warmup: Op
    digest: str
    memory_ops: int


# ---------------------------------------------------------------- reference math


def kneser_degree(n: int) -> int:
    return (n - 2) * (n - 3) // 2


def kneser_tree_count(n: int) -> int:
    """Spanning trees of KG(n, 2) by the Matrix-Tree theorem.

    KG(n, 2) is strongly regular with adjacency eigenvalues k, -(n-3) and 1,
    of multiplicities 1, n-1 and n(n-3)/2.  The nonzero Laplacian eigenvalues
    are therefore k+n-3 and k-1, and the tree count is their product over v.
    """
    v = n * (n - 1) // 2
    k = kneser_degree(n)
    num = (k + n - 3) ** (n - 1) * (k - 1) ** (n * (n - 3) // 2)
    q, r = divmod(num, v)
    if r:
        raise ArithmeticError(f"Matrix-Tree quotient not integral at n={n}")
    return q


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        piv, rt = a[t][t], a[t]
        for i in range(t + 1, n):
            ri, f = a[i], a[i][t]
            for j in range(t + 1, n):
                ri[j] = (ri[j] * piv - f * rt[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


# ---------------------------------------------------------------- input writers


def kneser_laplacian_mtx(n: int) -> str:
    """Laplacian of KG(n, 2) in Matrix Market coordinate format, all entries."""
    verts = list(combinations(range(n), 2))
    k = str(kneser_degree(n))
    lines = []
    for i, (a, b) in enumerate(verts, start=1):
        for j, (c, d) in enumerate(verts, start=1):
            if i == j:
                lines.append(f"{i} {j} {k}")
            elif a != c and a != d and b != c and b != d:
                lines.append(f"{i} {j} -1")
    v = len(verts)
    head = f"%%MatrixMarket matrix coordinate integer general\n{v} {v} {len(lines)}\n"
    return head + "\n".join(lines) + "\n"


def dense_matrix(rng: random.Random, m: int) -> list[list[int]]:
    b = DENSE_ENTRY_BOUND
    return [[rng.randint(-b, b) for _ in range(m)] for _ in range(m)]


def dense_mtx(rows: list[list[int]]) -> str:
    m = len(rows)
    values = [str(rows[i][j]) for j in range(m) for i in range(m)]  # column-major
    return f"%%MatrixMarket matrix array integer general\n{m} {m}\n" + "\n".join(values) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------- building


def build(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    """Generate a workload's inputs, writing any input files into ``workdir``.

    ``verify-ladder`` and ``snf-kneser`` have fixed inputs and ignore the
    seed; ``snf-dense`` draws its matrices from it.
    """
    sz = SIZES[size]
    os.makedirs(workdir, exist_ok=True)
    spec = []  # what the digest covers: argv with file paths replaced by content hashes

    def file_op(fname: str, text: str, kind: str, expected: dict) -> Op:
        path = os.path.join(workdir, fname)
        spec.append(["snf", _write(path, text)])
        return Op(["snf", path], kind, expected)

    if name == "verify-ladder":
        ops = [
            Op(["verify", str(n), str(n), "--format", "json"], "verify",
               {"ns": [n], "trees": [kneser_tree_count(n)]})
            for n in sz["verify_ns"]
        ]
        spec = [op.argv for op in ops]
        warmup = Op(["verify", "5", "6", "--format", "json"], "verify",
                    {"ns": [5, 6], "trees": [kneser_tree_count(5), kneser_tree_count(6)]})
    elif name == "snf-kneser":
        ops = [
            file_op(f"kneser-{n}.mtx", kneser_laplacian_mtx(n), "snf-kneser",
                    {"v": n * (n - 1) // 2, "trees": kneser_tree_count(n)})
            for n in sz["kneser_ns"]
        ]
        path = os.path.join(workdir, "warmup.mtx")
        _write(path, kneser_laplacian_mtx(8))
        warmup = Op(["snf", path], "snf-kneser", {"v": 28, "trees": kneser_tree_count(8)})
    elif name == "snf-dense":
        rng = random.Random(seed)
        m = sz["dense_m"]
        ops = []
        for idx in range(sz["dense_count"]):
            rows = dense_matrix(rng, m)
            ops.append(file_op(f"dense-{idx:04d}.mtx", dense_mtx(rows), "snf-dense", _dense_expected(rows)))
        rows = dense_matrix(rng, m)
        path = os.path.join(workdir, "warmup.mtx")
        _write(path, dense_mtx(rows))
        warmup = Op(["snf", path], "snf-dense", _dense_expected(rows))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

    digest = hashlib.sha256(json.dumps([name, spec]).encode()).hexdigest()
    return Workload(name=name, seed=seed, ops=ops, warmup=warmup, digest=digest,
                    memory_ops=sz["memory_ops"][name])


def _dense_expected(rows: list[list[int]]) -> dict:
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    # The determinant is filled in by the first check, outside timed regions.
    return {"m": len(rows), "gcd": g, "rows": rows, "abs_det": None}


# ---------------------------------------------------------------- checks


def check(op: Op, rc, out: str) -> str | None:
    """Return None if the op's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if op.kind == "verify":
            return _check_verify(op.expected, out)
        diag = [int(tok) for tok in out.split()]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    if op.kind == "snf-kneser":
        return _check_kneser(op.expected, diag)
    return _check_dense(op.expected, diag)


def _chain_error(diag: list[int]) -> str | None:
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero:
        return "zero diagonal entries do not trail"
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return "diagonal is not a divisibility chain"
    return None


def _check_verify(exp: dict, out: str) -> str | None:
    reports = json.loads(out)
    if [r["n"] for r in reports] != exp["ns"]:
        return f"reported n {[r['n'] for r in reports]} != {exp['ns']}"
    for r, trees in zip(reports, exp["trees"]):
        if r["status"] != "pass":
            return f"n={r['n']} status {r['status']}"
        if r["order"] != trees or r["spanning_trees"] != trees:
            return f"n={r['n']} order/trees {r['order']}/{r['spanning_trees']} != Matrix-Tree {trees}"
    return None


def _check_kneser(exp: dict, diag: list[int]) -> str | None:
    if len(diag) != exp["v"]:
        return f"diagonal length {len(diag)} != {exp['v']}"
    if diag.count(0) != 1:
        return f"{diag.count(0)} zeros on the diagonal, expected 1"
    err = _chain_error(diag)
    if err:
        return err
    if prod(d for d in diag if d) != exp["trees"]:
        return "product of nonzero diagonal != Matrix-Tree count"
    return None


def _check_dense(exp: dict, diag: list[int]) -> str | None:
    if len(diag) != exp["m"]:
        return f"diagonal length {len(diag)} != {exp['m']}"
    err = _chain_error(diag)
    if err:
        return err
    if diag[0] != exp["gcd"]:
        return f"d1 = {diag[0]} != gcd of entries {exp['gcd']}"
    if exp["abs_det"] is None:
        exp["abs_det"] = abs(bareiss_determinant(exp["rows"]))
    if prod(diag) != exp["abs_det"]:
        return "product of diagonal != |det|"
    return None
