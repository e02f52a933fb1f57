"""Matrix Market reader/writer for exact integer matrices.

Supports the ``array`` and ``coordinate`` formats with the ``integer`` field
and ``general`` or ``symmetric`` symmetry.  Real/complex files are rejected:
this package is float-free by design.

One pass over a file's lines, or a file object's chunks, writes each coordinate entry
into the dense buffer and each array value into one list, so a read holds the dense
matrix plus one line, or a batch of 1,024 array lines: one ``map(int, text.split())`` if
it is ASCII with no ``_`` or ``%``, else (or if int() fails) line by line.  A line ends
at ``\\n``, ``\\r\\n`` or ``\\r``; other whitespace separates tokens: ASCII from a path,
which must be ASCII throughout (else exit 2), any Unicode (U+0085, U+3000) from a file
object.  Two tables of index strings up to 4096 give a line's offset, (i - 1) * cols +
(j - 1), in two lookups, and values -64..64 come from a table too.  A number a table
misses must be an optional sign and ASCII decimal digits, from a path or a file object.
"""

from __future__ import annotations

import io
from itertools import islice
from math import isqrt
from os import PathLike

from .intmat import BigIntMatrix


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input."""


_HEADER_PREFIX = "%%matrixmarket"

# Largest rows*cols a file may declare: matrices are dense in memory, and
# 2**24 entries is far above the KG(32, 2) Laplacian's 246,016.
MAX_ENTRIES = 2**24

_small_value = {str(x): x for x in range(-64, 65)}.get

_CHUNK = 2**13  # characters read from a file object at a time
_BATCH = 2**10  # array data lines parsed at a time


def _int(token: str) -> int:
    """int() of an optional sign and ASCII digits; int() alone also reads ``1_0`` and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


def _parse_int(token: str, what: str) -> int:
    try:
        return _int(token)
    except ValueError:
        raise MatrixMarketError(f"invalid {what}: {token!r}") from None


def read_matrix_market(source) -> BigIntMatrix:
    """Read an integer matrix from a path or a readable text file object.

    A ``str`` is opened as a path; pass text through ``io.StringIO``.
    """
    if isinstance(source, (str, PathLike)):
        with open(source, "r", encoding="ascii") as fh:
            try:
                return _read(fh)
            except UnicodeDecodeError as exc:
                # exc counts from the start of the chunk it decoded; cite the file offset.
                pos = fh.buffer.tell() - len(exc.object) + exc.start
                msg = f"'ascii' codec can't decode byte {exc.object[exc.start]:#04x} in position {pos}"
                raise MatrixMarketError(f"not an ASCII file: {msg}: {exc.reason}") from None
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return _read(_lines(source))
    raise TypeError("source must be a path or a readable file object")


def _lines(source):
    """A text file object's lines, ending at ``\\n``, ``\\r\\n`` or ``\\r``, read in chunks."""
    decoder = io.IncrementalNewlineDecoder(None, translate=True)
    parts = []
    chunk = source.read(_CHUNK)
    if not isinstance(chunk, str):
        raise TypeError(f"source must be a path or a text file object; read() returned {type(chunk).__name__}")
    while chunk:
        lines = decoder.decode(chunk).split("\n")
        parts.append(lines[0])
        if len(lines) > 1:
            lines[0] = "".join(parts)
            parts = [lines.pop()]
            yield from lines
        chunk = source.read(_CHUNK)
    if last := "".join(parts) + decoder.decode("", final=True):
        yield last


def _read(fh) -> BigIntMatrix:
    """Parse one Matrix Market text from an iterator over its lines."""
    first = next(fh, "").rstrip("\n")
    if not first.lower().startswith(_HEADER_PREFIX):
        raise MatrixMarketError("missing %%MatrixMarket header line")
    header = first.split()
    if len(header) != 5:
        raise MatrixMarketError(f"malformed header: {first!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}")
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported format {fmt!r}")
    if field != "integer":
        raise MatrixMarketError(f"unsupported field {field!r} (only integer)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

    # Line numbers count every file line from the header's 1; blank and % lines are skipped.
    for lineno, line in enumerate(fh, 2):
        size = line.split()
        if size and size[0][0] != "%":
            break
    else:
        raise MatrixMarketError("missing size line")
    fields = 2 if fmt == "array" else 3
    if len(size) != fields:
        raise MatrixMarketError(f"{fmt} size line must have {fields} fields: {line.strip()!r}")
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
        return _read_array(fh, lineno + 1, m, n, symmetry)
    return _read_coordinate(fh, lineno + 1, m, n, nnz, symmetry == "symmetric")


def _read_array(lines, start: int, m: int, n: int, symmetry: str) -> BigIntMatrix:
    """Read the array values in ``lines``, the file's lines after the size line, from file line ``start`` on."""
    values, batch, failed = [], [""], None
    while batch and not failed:
        batch = []
        try:
            batch += islice(lines, _BATCH)
        except UnicodeDecodeError as exc:  # raised after the lines before its chunk, as a line-by-line read would
            failed = exc
        text = "\n".join(batch)
        try:
            if not text.isascii() or "_" in text or "%" in text:
                raise ValueError
            values += map(int, text.split())
        except ValueError:  # the line loop skips a % line or raises at the first bad token
            for lineno, line in enumerate(batch, start):
                toks = line.split()
                if toks and toks[0][0] != "%":
                    values.extend(_parse_int(tok, f"entry on line {lineno}") for tok in toks)
        start += len(batch)
    if failed:
        raise failed
    expected = m * n if symmetry == "general" else n * (n + 1) // 2
    if len(values) != expected:
        raise MatrixMarketError(f"expected {expected} array entries, got {len(values)}")
    if symmetry == "general":
        # Array data is column-major.
        return BigIntMatrix(m, n, [v for i in range(m) for v in values[i::m]])
    ent = [0] * (m * n)
    it = iter(values)
    for j in range(n):
        for i in range(j, m):
            ent[i * n + j] = ent[j * n + i] = next(it)
    return BigIntMatrix(m, n, ent)


def _read_coordinate(lines, start: int, m: int, n: int, nnz: int, mirror: bool) -> BigIntMatrix:
    """Read the entries in ``lines``, the file's lines after the size line, from file line ``start`` on."""
    # A range or duplicate fault is kept, not raised, so that parse errors on
    # later lines and the entry count are reported before it.
    ent = [0] * (m * n)
    seen = bytearray(m * n)
    count, skipped, fault = 0, 0, None
    offset = {str(i): (i - 1) * n for i in range(1, min(m, isqrt(MAX_ENTRIES)) + 1)}.get
    column = {str(j): j - 1 for j in range(1, min(n, isqrt(MAX_ENTRIES)) + 1)}.get
    for line in lines:
        try:
            ti, tj, tv = line.split()
            k = offset(ti) + column(tj)
            v = _small_value(tv) or _int(tv)
        except (ValueError, TypeError):
            toks = line.split()
            if not toks or toks[0][0] == "%":
                skipped += 1
                continue
            lineno = start + count + skipped
            if len(toks) != 3:
                raise MatrixMarketError(f"coordinate line {lineno} must have 3 fields: {line.strip()!r}")
            i, j, v = [_parse_int(tok, f"{what} on line {lineno}")
                       for tok, what in zip(toks, ("row index", "column index", "value"))]
            if not (1 <= i <= m and 1 <= j <= n):
                fault = fault or f"index ({i}, {j}) out of range for {m}x{n}"
            # A symmetric file is square within the entry cap, so n <= 4096: its mirror is in the tables.
            ti, tj, k = str(i), str(j), (i - 1) * n + j - 1
        count += 1
        if fault:
            continue
        if seen[k]:
            fault = f"duplicate entry at ({ti}, {tj})"
            continue
        seen[k], ent[k] = 1, v
        if mirror and ti != tj:
            # Both slots are always set together, so the mirror is unseen whenever (i, j) is.
            k = offset(tj) + column(ti)
            seen[k], ent[k] = 1, v
    if count != nnz:
        raise MatrixMarketError(f"expected {nnz} coordinate entries, got {count}")
    if fault:
        raise MatrixMarketError(fault)
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
