"""Matrix Market reader/writer for exact integer matrices.

Supports the ``array`` and ``coordinate`` formats with the ``integer`` field
and ``general`` or ``symmetric`` symmetry.  Real/complex files are rejected:
this package is float-free by design.
"""

from __future__ import annotations

import io
from os import PathLike

from .intmat import BigIntMatrix


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input."""


_HEADER_PREFIX = "%%matrixmarket"

# Largest rows*cols a file may declare: matrices are dense in memory, and
# 2**24 entries is far above the KG(32, 2) Laplacian's 246,016.
MAX_ENTRIES = 2**24


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MatrixMarketError(f"invalid {what}: {token!r}") from None


def _data_lines(lines: list[str]):
    """(file line number, stripped text) of each non-comment line after the header."""
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped


def read_matrix_market(source) -> BigIntMatrix:
    """Read an integer matrix from a path or a readable file object.

    A ``str`` is opened as a path; pass text through ``io.StringIO``.
    """
    if isinstance(source, (str, PathLike)):
        try:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixMarketError(f"not an ASCII file: {exc}") from None
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        text = source.read()
    else:
        raise TypeError("source must be a path or a readable file object")

    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith(_HEADER_PREFIX):
        raise MatrixMarketError("missing %%MatrixMarket header line")
    header = lines[0].split()
    if len(header) != 5:
        raise MatrixMarketError(f"malformed header: {lines[0]!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}")
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported format {fmt!r}")
    if field != "integer":
        raise MatrixMarketError(f"unsupported field {field!r} (only integer)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

    entries = list(_data_lines(lines))
    if not entries:
        raise MatrixMarketError("missing size line")
    _, size_line = entries[0]
    data = entries[1:]
    size = size_line.split()

    fields = 2 if fmt == "array" else 3
    if len(size) != fields:
        raise MatrixMarketError(f"{fmt} size line must have {fields} fields: {size_line!r}")
    m = _parse_int(size[0], "row count")
    n = _parse_int(size[1], "column count")
    nnz = _parse_int(size[2], "entry count") if fmt == "coordinate" else 0
    if m < 0 or n < 0 or nnz < 0:
        raise MatrixMarketError("negative dimensions")
    # Checked before any dense allocation, so a size line cannot exhaust memory.
    if m * n > MAX_ENTRIES:
        raise MatrixMarketError(f"{m}x{n} matrix exceeds the limit of {MAX_ENTRIES} entries")
    if nnz > m * n:
        raise MatrixMarketError(f"{nnz} coordinate entries declared for a {m}x{n} matrix")
    if symmetry == "symmetric" and m != n:
        raise MatrixMarketError("symmetric matrix must be square")
    if fmt == "array":
        return _read_array(data, m, n, symmetry)
    return _read_coordinate(data, m, n, nnz, symmetry)


def _read_array(data, m: int, n: int, symmetry: str) -> BigIntMatrix:
    values = []
    for lineno, line in data:
        for tok in line.split():
            values.append(_parse_int(tok, f"entry on line {lineno}"))
    expected = m * n if symmetry == "general" else n * (n + 1) // 2
    if len(values) != expected:
        raise MatrixMarketError(f"expected {expected} array entries, got {len(values)}")
    ent = [0] * (m * n)
    idx = 0
    if symmetry == "general":
        # Array data is column-major.
        for j in range(n):
            for i in range(m):
                ent[i * n + j] = values[idx]
                idx += 1
    else:
        for j in range(n):
            for i in range(j, m):
                ent[i * n + j] = values[idx]
                ent[j * n + i] = values[idx]
                idx += 1
    return BigIntMatrix(m, n, ent)


def _read_coordinate(data, m: int, n: int, nnz: int, symmetry: str) -> BigIntMatrix:
    triples = []
    for lineno, line in data:
        toks = line.split()
        if len(toks) != 3:
            raise MatrixMarketError(f"coordinate line {lineno} must have 3 fields: {line!r}")
        try:
            triples.append((int(toks[0]), int(toks[1]), int(toks[2])))
        except ValueError:
            for tok, what in zip(toks, ("row index", "column index", "value")):
                _parse_int(tok, f"{what} on line {lineno}")
    if len(triples) != nnz:
        raise MatrixMarketError(f"expected {nnz} coordinate entries, got {len(triples)}")
    ent = [0] * (m * n)
    seen = bytearray(m * n)
    for i, j, v in triples:
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixMarketError(f"index ({i}, {j}) out of range for {m}x{n}")
        for r, c in ((i, j), (j, i)) if symmetry == "symmetric" and i != j else ((i, j),):
            k = (r - 1) * n + (c - 1)
            if seen[k]:
                raise MatrixMarketError(f"duplicate entry at ({r}, {c})")
            seen[k] = 1
            ent[k] = v
    return BigIntMatrix(m, n, ent)


def write_matrix_market(matrix: BigIntMatrix, target=None, fmt: str = "coordinate") -> str:
    """Serialize a matrix; optionally write it to a path or file object.

    Returns the serialized text either way.
    """
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
    m, n = matrix.rows, matrix.cols
    rows = matrix.to_rows()
    out = [f"%%MatrixMarket matrix {fmt} integer general"]
    if fmt == "array":
        out.append(f"{m} {n}")
        out.extend(str(v) for col in zip(*rows) for v in col)
    else:
        nonzero = [f"{i} {j} {v}" for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1) if v]
        out.append(f"{m} {n} {len(nonzero)}")
        out.extend(nonzero)
    text = "\n".join(out) + "\n"
    if target is not None:
        if isinstance(target, (str, PathLike)):
            with open(target, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            target.write(text)
    return text
