"""Matrix Market round trips and error handling."""

from __future__ import annotations

import io
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import matrices

from critgroup import mmio
from critgroup.graphs import kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix
from critgroup.mmio import _BATCH, _CHUNK, MAX_ENTRIES, MatrixMarketError, read_matrix_market, write_matrix_market


def test_coordinate_round_trip(tmp_path):
    m = BigIntMatrix.from_rows([[2, 0, -4], [0, 0, 8]])
    path = tmp_path / "m.mtx"
    write_matrix_market(m, path, fmt="coordinate")
    assert read_matrix_market(path) == m


def test_array_round_trip(tmp_path):
    m = BigIntMatrix.from_rows([[2, 4], [6, 8]])
    path = tmp_path / "m.mtx"
    write_matrix_market(m, path, fmt="array")
    assert read_matrix_market(path) == m


def test_random_round_trips():
    rng = random.Random(23)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = BigIntMatrix(rows, cols, [rng.randint(-50, 50) for _ in range(rows * cols)])
        for fmt in ("array", "coordinate"):
            text = write_matrix_market(m, fmt=fmt)
            assert read_matrix_market(io.StringIO(text)) == m


@given(
    matrices(st.integers(0, 6), st.integers(0, 6), st.integers()),
    st.sampled_from(["array", "coordinate"]),
)
def test_property_round_trip(m, fmt):
    assert read_matrix_market(io.StringIO(write_matrix_market(m, fmt=fmt))) == m


def test_big_integers_survive():
    m = BigIntMatrix.from_rows([[10**80, -(3**100)]])
    for fmt in ("array", "coordinate"):
        assert read_matrix_market(io.StringIO(write_matrix_market(m, fmt=fmt))) == m


def test_laplacian_export_round_trip(tmp_path):
    lap = laplacian_matrix(kneser_graph(6))
    path = tmp_path / "lap.mtx"
    write_matrix_market(lap, path, fmt="coordinate")
    assert read_matrix_market(path) == lap


def test_symmetric_coordinate():
    text = "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n2 1 5\n3 3 7\n"
    m = read_matrix_market(io.StringIO(text))
    assert m == BigIntMatrix.from_rows([[0, 5, 0], [5, 0, 0], [0, 0, 7]])


def test_symmetric_array():
    # Lower triangle, column-major: (1,1) (2,1) (2,2)
    text = "%%MatrixMarket matrix array integer symmetric\n2 2\n1\n2\n3\n"
    m = read_matrix_market(io.StringIO(text))
    assert m == BigIntMatrix.from_rows([[1, 2], [2, 3]])


def test_comments_and_blank_lines():
    text = (
        "%%MatrixMarket matrix coordinate integer general\n"
        "% a comment\n"
        "\n"
        "2 2 1\n"
        "% another\n"
        "1 2 -3\n"
    )
    m = read_matrix_market(io.StringIO(text))
    assert m == BigIntMatrix.from_rows([[0, -3], [0, 0]])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "garbage\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 7\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 7\n1 1 8\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 7\n",
        "%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n",
        "%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 2.5\n",
        "%%MatrixMarket matrix array integer hermitian\n1 1\n1\n",
        "%%MatrixMarket matrix coordinate integer symmetric\n2 3 1\n1 3 5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 5\n",
        # 3 is a valid index for the longer dimension only.
        "%%MatrixMarket matrix coordinate integer general\n2 3 1\n3 1 5\n",
        "%%MatrixMarket matrix coordinate integer general\n3 2 1\n1 3 5\n",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(MatrixMarketError):
        read_matrix_market(io.StringIO(text))


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "%%MatrixMarket matrix array integer general\n% a comment\n2 1\n1\nx\n",
            "invalid entry on line 5: 'x'",
        ),
        (
            "%%MatrixMarket matrix coordinate integer general\n% a comment\n2 2 2\n1 1 3\n2 2 y\n",
            "invalid value on line 5: 'y'",
        ),
    ],
)
def test_errors_cite_the_file_line(tmp_path, text, message):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError) as info:
        read_matrix_market(path)
    assert str(info.value) == message


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate integer general\n% caf\xc3\xa9\n1 1 1\n1 1 2\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_binary_file_object_names_the_contract(tmp_path):
    # A bytes read() is refused at the first chunk, before the header is parsed.
    data = b"%%MatrixMarket matrix array integer general\n1 1\n5\n"
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    long = io.BytesIO(data + b"% padding\n" * _CHUNK)
    with open(path, "rb") as fh:
        for source in (io.BytesIO(data), fh, long):
            with pytest.raises(TypeError) as info:
                read_matrix_market(source)
            assert str(info.value) == "source must be a path or a text file object; read() returned bytes"
    assert long.tell() == _CHUNK
    with open(path) as fh:
        assert read_matrix_market(fh) == read_matrix_market(path) == BigIntMatrix(1, 1, [5])


def test_source_of_another_type_rejected():
    with pytest.raises(TypeError) as info:
        read_matrix_market(42)
    assert str(info.value) == "source must be a path or a readable file object"


def test_declared_size_checked_before_allocation():
    # 10^12 declared entries and no data: rejected by the size cap, never allocated.
    text = "%%MatrixMarket matrix coordinate integer general\n1000000 1000000 0\n"
    with pytest.raises(MatrixMarketError, match="limit"):
        read_matrix_market(io.StringIO(text))


# Values stay small so that no accepted size line asks for a large matrix.
TOKENS = st.one_of(
    st.integers(0, 4).map(str),
    st.integers(0, 4).map(str),
    st.integers(0, 4).map(str),
    st.sampled_from(["%", "%%MatrixMarket", "x", "1.5", "1e3", "-1", "--1", "0x1", "99", ""]),
)


@st.composite
def matrix_market_texts(draw):
    """Valid headers over mostly well-shaped lines of small values.

    Malformed headers are covered by test_malformed_inputs_rejected.
    """
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    sym = draw(st.sampled_from(["general", "symmetric"]))
    header = f"%%MatrixMarket matrix {fmt} integer {sym}"
    fields, width = (2, 1) if fmt == "array" else (3, 3)
    if draw(st.integers(0, 3)) == 0:
        fields, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = draw(st.lists(TOKENS, min_size=fields, max_size=fields))
    data = draw(st.lists(st.lists(TOKENS, min_size=width, max_size=width), max_size=8))
    lines = [header, " ".join(size)] + [" ".join(row) for row in data]
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(matrix_market_texts())
def test_fuzzed_input_raises_only_matrix_market_error(text):
    try:
        m = read_matrix_market(io.StringIO(text))
    except MatrixMarketError:
        return
    assert isinstance(m, BigIntMatrix)


def test_write_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_matrix_market(BigIntMatrix.diagonal([1] * 2), fmt="dense")


# The whole-text reader that the single-pass reader replaced, kept as its
# oracle.  It splits lines with str.splitlines.


def _parse_int(token: str, what: str) -> int:
    # An optional sign and ASCII digits: int() alone also reads 1_0 and non-ASCII digits.
    try:
        if re.fullmatch(r"[+-]?[0-9]+", token):
            return int(token)
    except ValueError:  # past Python's int-str digit limit
        pass
    raise MatrixMarketError(f"invalid {what}: {token!r}")


def _data_lines(lines: list[str]):
    """(file line number, stripped text) of each non-comment line after the header."""
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped


def reference_read(text: str) -> BigIntMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith("%%matrixmarket"):
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
        triples.append(tuple(_parse_int(tok, f"{what} on line {lineno}")
                             for tok, what in zip(toks, ("row index", "column index", "value"))))
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


def outcome(read, source):
    """The matrix read, or the message of the MatrixMarketError raised."""
    try:
        return read(source)
    except MatrixMarketError as exc:
        return str(exc)


BAD_TOKENS = ["x", "1.5", "1e3", "--1", "0x1", "%", "%%MatrixMarket", "-1", "99", "1_0"]
# Indices that are not the canonical strings of their values.
ODD_INDICES = ["01", "+1", "002", "+3"]
# Values that the reader's table of small values misses, so int() reads them.
ODD_VALUES = ["+1", "-01", "065", "-0", "65", "-65"]
FILLER = ["% a comment", "%", "  %% 1 1 1", "", "   ", "\t"]
SIZE_FAULTS = ["-1 2 0", "5000 5000 0", "2 2 9", "2 3 0", "1 x 0", "2", "2 2 0 0", "2 2"]


@st.composite
def faulty_texts(draw):
    """Mostly well-formed Matrix Market texts with up to three data faults.

    One more fault may hit the header or the size line.  Lines end in LF,
    CRLF or CR, chosen per line.  No line holds a character at which
    str.splitlines, but not a file, breaks a line; those have their own
    tests below.
    """
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    sym = draw(st.sampled_from(["general", "symmetric"]))
    m = draw(st.integers(0, 4))
    n = m if sym == "symmetric" else draw(st.integers(1, 4))
    header = draw(st.sampled_from([f"%%MatrixMarket matrix {fmt} integer {sym}",
                                   f"%%matrixmarket MATRIX {fmt.upper()} Integer {sym.title()}"]))
    value = st.integers(-9, 9).map(str)
    if fmt == "array":
        count = m * n if sym == "general" else n * (n + 1) // 2
        values = draw(st.lists(value, min_size=count, max_size=count))
        data, start = [], 0
        while start < len(values):
            width = draw(st.integers(1, 3))
            data.append(values[start : start + width])
            start += width
        nnz = None
    else:
        cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1) if sym == "general" or i >= j]
        picked = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True)) if cells else []
        data = [[str(i), str(j), draw(value)] for i, j in picked]
        nnz = len(data)
    size = None

    faults = ["token", "fields", "count", "range", "range", "duplicate", "duplicate", "mirror", "index", "value"]
    chosen = [draw(st.sampled_from(faults)) for _ in range(draw(st.integers(0, 3)))]
    for fault in chosen + [draw(st.sampled_from(["none"] * 6 + ["size", "header", "nosize"]))]:
        if fault == "token" and data:
            row = draw(st.sampled_from(data))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif fault == "fields" and data:
            row = draw(st.sampled_from(data))
            if draw(st.booleans()):
                row.append(draw(value))
            elif len(row) > 1:
                row.pop()
        elif fault == "count":
            if fmt == "coordinate":
                nnz += draw(st.sampled_from([-1, 1]))
            elif data and draw(st.booleans()):
                data.pop(draw(st.integers(0, len(data) - 1)))
            else:
                data.insert(draw(st.integers(0, len(data))), [draw(value)])
        elif fault == "range" and fmt == "coordinate" and data:
            row = draw(st.sampled_from(data))
            # min(m, n) + 1 is in range for one dimension only, when m != n.
            bad = ["0", str(max(m, n) + 1)] + ([str(min(m, n) + 1)] if m != n else [])
            row[draw(st.integers(0, min(1, len(row) - 1)))] = draw(st.sampled_from(bad))
        elif fault == "index" and fmt == "coordinate" and data:
            row = draw(st.sampled_from(data))
            k = draw(st.integers(0, min(1, len(row) - 1)))
            row[k] = draw(st.sampled_from(ODD_INDICES + ["0" + row[k], "+" + row[k]]))
        elif fault == "value" and data:
            draw(st.sampled_from(data))[-1] = draw(st.sampled_from(ODD_VALUES))
        elif fault in ("duplicate", "mirror") and fmt == "coordinate" and data:
            i, j = draw(st.sampled_from(picked))
            if fault == "mirror":
                i, j = j, i
            data.insert(draw(st.integers(0, len(data))), [str(i), str(j), draw(value)])
            nnz += 1
        elif fault == "size":
            size = draw(st.sampled_from(SIZE_FAULTS))
        elif fault == "header":
            header = draw(st.sampled_from(["", " " + header, "%%MatrixMarket matrix coordinate integer",
                                           "%%MatrixMarket matrix coordinate real general",
                                           "%%MatrixMarket vector array integer general"]))
        elif fault == "nosize":
            size = ""

    if size is None:
        size = f"{m} {n}" if nnz is None else f"{m} {n} {nnz}"
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [size] if size else []
    lines += [draw(sep).join(row) for row in data]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER)))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [header] + [draw(pad) + line + draw(pad) for line in lines]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "m.mtx"


SYMMETRIC_MIRROR_TWICE = "%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n2 1 5\n1 2 5\n"


@settings(max_examples=500)
@given(faulty_texts())
@example(text=SYMMETRIC_MIRROR_TWICE)
def test_single_pass_reader_matches_reference(mtx_path, text):
    expected = outcome(reference_read, text)
    assert outcome(read_matrix_market, io.StringIO(text)) == expected
    mtx_path.write_bytes(text.encode("ascii"))
    assert outcome(read_matrix_market, mtx_path) == expected


def test_entry_after_its_mirror_is_a_duplicate():
    # The mirror write of (2, 1) marks (1, 2), so the direct check names it.
    assert outcome(read_matrix_market, io.StringIO(SYMMETRIC_MIRROR_TWICE)) == "duplicate entry at (1, 2)"


# str.splitlines also breaks lines at these; a file line ends only at LF, CRLF
# or CR, and any of them inside a line separates tokens.
INLINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e"]
COORD = "%%MatrixMarket matrix coordinate integer general\n"


def read_both_ways(text, tmp_path):
    """Outcomes through io.StringIO and, for ASCII text, through a file."""
    got = [outcome(read_matrix_market, io.StringIO(text))]
    if text.isascii():
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        got.append(outcome(read_matrix_market, path))
    return got


@pytest.mark.parametrize("sep", INLINE_BREAKS + ["\x85", "\u2028", "\u2029"])
class TestInlineLineBreaks:
    def test_splits_tokens_in_a_data_line(self, sep, tmp_path):
        text = COORD + f"2 2 2\n1 1 3{sep}2 2 4\n"
        for got in read_both_ways(text, tmp_path):
            assert got == f"coordinate line 3 must have 3 fields: {f'1 1 3{sep}2 2 4'!r}"

    def test_splits_array_values(self, sep, tmp_path):
        text = f"%%MatrixMarket matrix array integer general\n2 1\n5{sep}6\n"
        for got in read_both_ways(text, tmp_path):
            assert got == BigIntMatrix.from_rows([[5], [6]])

    def test_comment_runs_to_the_end_of_the_line(self, sep, tmp_path):
        text = COORD + f"2 2 1\n% note{sep}1 1 9\n1 1 5\n"
        for got in read_both_ways(text, tmp_path):
            assert got == BigIntMatrix.from_rows([[5, 0], [0, 0]])

    def test_line_numbers_count_file_lines(self, sep, tmp_path):
        text = COORD + f"2 2 2\n% a{sep}b\n1 1 5\n2 2 y\n"
        for got in read_both_ways(text, tmp_path):
            assert got == "invalid value on line 5: 'y'"

    def test_header_line_includes_the_rest(self, sep, tmp_path):
        text = COORD.rstrip("\n") + f"{sep}2 2 1\n1 1 5\n"
        for got in read_both_ways(text, tmp_path):
            assert got == f"malformed header: {text.split(chr(10))[0]!r}"


@pytest.mark.parametrize(
    "shape, extra, message",
    [((1, 5000), [], None), ((1, 5000), ["1 5001 1"], "index (1, 5001) out of range for 1x5000"),
     ((1, 5000), ["1 4999 2"], "duplicate entry at (1, 4999)"),
     ((5000, 1), ["4999 1 2"], "duplicate entry at (4999, 1)")],
)
def test_indices_past_the_table_cap(tmp_path, shape, extra, message):
    # Index tokens above 4096 are not in the reader's tables and go to int().
    m, n = shape
    cells = [(1, k) if m == 1 else (k, 1) for k in range(1, 5001, 3)]
    lines = [f"{i} {j} {(i + j) % 7 - 4}" for i, j in cells] + extra
    text = COORD + f"{m} {n} {len(lines)}\n" + "".join(line + "\n" for line in lines)
    expected = outcome(reference_read, text)
    assert read_both_ways(text, tmp_path) == [expected, expected]
    if message:
        assert expected == message
    else:
        assert expected[0, 4998] == 5000 % 7 - 4 and expected[0, 4999] == 0


SYM = "%%MatrixMarket matrix coordinate integer symmetric\n"
ARRAY = "%%MatrixMarket matrix array integer general\n"


# int() reads 7_7 as 77; the reader takes a sign and ASCII digits only.
@pytest.mark.parametrize(
    "text, message",
    [(COORD + "2 2 1\n1 1 7_7\n", "invalid value on line 3: '7_7'"),
     (COORD + "2 2 1\n1 1 1_000\n", "invalid value on line 3: '1_000'"),
     (COORD + "10 10 1\n1_0 1 3\n", "invalid row index on line 3: '1_0'"),
     (COORD + "10 10 1\n1 1_0 3\n", "invalid column index on line 3: '1_0'"),
     (COORD + "1_0 10 0\n", "invalid row count: '1_0'"),
     (SYM + "2 2 1\n2 1 7_7\n", "invalid value on line 3: '7_7'"),
     (ARRAY + "2 1\n1\n1_0\n", "invalid entry on line 4: '1_0'"),
     (ARRAY.replace("general", "symmetric") + "2 2\n1 2\n3_0\n", "invalid entry on line 4: '3_0'")],
    ids=["value", "value-past-table", "row-index", "column-index", "size", "symmetric", "array", "symmetric-array"],
)
def test_underscored_integers_rejected(tmp_path, text, message):
    assert read_both_ways(text, tmp_path) == [message, message]


# Arabic-Indic three, fullwidth three, and a one followed by an Arabic-Indic zero.
@pytest.mark.parametrize("token", ["\u0663", "\uff13", "1\u0660"], ids=["arabic-3", "fullwidth-3", "1-arabic-0"])
@pytest.mark.parametrize(
    "template, what",
    [(COORD + "2 2 1\n1 1 {}\n", "value on line 3"),
     (COORD + "2 2 1\n{} 1 5\n", "row index on line 3"),
     (SYM + "2 2 1\n2 1 {}\n", "value on line 3"),
     (ARRAY + "1 2\n4\n{}\n", "entry on line 4")],
    ids=["value", "row-index", "symmetric", "array"],
)
def test_non_ascii_digits_rejected(tmp_path, template, what, token):
    text = template.format(token)
    assert outcome(read_matrix_market, io.StringIO(text)) == f"invalid {what}: {token!r}"
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_matrix_market, path).startswith("not an ASCII file: ")


def test_signed_ascii_integers_read(tmp_path):
    text = COORD + "2 2 3\n1 1 +700\n+2 02 -0065\n2 1 -0\n"
    expected = BigIntMatrix.from_rows([[700, 0], [0, -65]])
    assert read_both_ways(text, tmp_path) == [expected, expected]


@pytest.mark.parametrize("offset", [60, 20_000])
def test_non_ascii_byte_cited_at_its_file_offset(tmp_path, offset):
    # The decoder reads the file in chunks; 20,000 lies past the first one.
    data = bytearray(write_matrix_market(laplacian_matrix(kneser_graph(12))).encode("ascii"))
    data[offset] = 0xE9
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        bytes(data).decode("ascii")
    with pytest.raises(MatrixMarketError) as info:
        read_matrix_market(path)
    assert str(info.value) == f"not an ASCII file: {whole.value}"


@pytest.mark.parametrize("as_text", [False, True], ids=["path", "file-object"])
def test_read_holds_the_dense_buffer_and_little_else(tmp_path, as_text):
    # Reading a file line by line, or a file object chunk by chunk, keeps about
    # 2 x 8 bytes per entry: the dense list and the matrix's tuple.  A
    # whole-text reader holds about 29 x 8.
    lap = laplacian_matrix(kneser_graph(24))
    path = tmp_path / "kg24.mtx"
    write_matrix_market(lap, path)
    source = io.StringIO(path.read_text()) if as_text else path
    tracemalloc.start()
    try:
        assert read_matrix_market(source) == lap
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * lap.rows * lap.cols


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("chunks", [1, 3])
def test_line_end_across_a_chunk_boundary(end, chunks):
    # A data line padded so that its line end starts on the last character of
    # the first chunk, or of the third, which the line spans.  An end split in
    # two would add a line and shift the line number cited on the next one.
    head = COORD.replace("\n", end) + "2 2 2" + end + "1 1"
    start = head + " " * (chunks * _CHUNK - 2 - len(head)) + "3"
    assert len(start) == chunks * _CHUNK - 1
    for value, expected in [("4", BigIntMatrix.from_rows([[3, 0], [0, 4]])), ("y", "invalid value on line 4: 'y'")]:
        text = start + end + "2 2 " + value + end
        assert outcome(read_matrix_market, io.StringIO(text)) == outcome(reference_read, text) == expected


@settings(max_examples=300)
@given(faulty_texts(), st.integers(1, 3))
def test_batched_array_reader_matches_reference(mtx_path, text, batch):
    # With batches of 1 to 3 lines, a fault or comment lands in a later batch of the small texts above.
    expected = outcome(reference_read, text)
    mtx_path.write_bytes(text.encode("ascii"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mmio, "_BATCH", batch)
        assert outcome(read_matrix_market, io.StringIO(text)) == expected
        assert outcome(read_matrix_market, mtx_path) == expected


def read_route(route, text, tmp_path):
    """The outcome of reading ``text`` by one route; an ASCII text's is the reference reader's too."""
    if route == "path":
        source = tmp_path / "m.mtx"
        source.write_bytes(text.encode("utf-8"))
    else:
        source = io.StringIO(text)
    got = outcome(read_matrix_market, source)
    if text.isascii():
        assert got == outcome(reference_read, text)
    return got


def column(lines, end="\n"):
    """An m x 1 array file, one value or % line per line: line k sits on file line k + 3."""
    return ARRAY + f"{sum(not x.startswith('%') for x in lines)} 1\n" + "\n".join(lines) + end


@pytest.mark.parametrize("route", ["path", "file-object"])
class TestBatchedArrayReader:
    """Array data is parsed _BATCH lines at a time; a batch that fails reruns line by line."""

    LATER = _BATCH + 7  # a value in the second batch, on file line LATER + 3

    def values(self):
        return [str(k % 201 - 100) for k in range(2 * _BATCH + 5)]

    def expected(self, values):
        return BigIntMatrix(len(values), 1, [int(v) for v in values])

    @pytest.mark.parametrize("token", ["x", "1_0", "1.5", "--1"])
    def test_bad_token_in_a_later_batch_cites_its_line(self, route, tmp_path, token):
        values = self.values()
        values[self.LATER] = token
        assert read_route(route, column(values), tmp_path) == f"invalid entry on line {self.LATER + 3}: {token!r}"

    def test_non_ascii_digit_in_a_later_batch(self, route, tmp_path):
        values = self.values()
        values[self.LATER] = "\u0663"
        got = read_route(route, column(values), tmp_path)
        if route == "path":
            assert got.startswith("not an ASCII file: ")
        else:
            assert got == f"invalid entry on line {self.LATER + 3}: '\u0663'"

    def test_signed_value_in_a_later_batch(self, route, tmp_path):
        values = self.values()
        values[self.LATER] = "+5"
        assert read_route(route, column(values), tmp_path) == self.expected(values)

    def test_comment_lines_inside_the_data(self, route, tmp_path):
        # Each % line shifts the file lines after it; a fault after them cites its own.
        values = self.values()
        lines = values[:3] + ["% note", "%"] + values[3 : self.LATER] + ["%% 1 2", "x"] + values[self.LATER :]
        assert read_route(route, column(lines), tmp_path) == f"invalid entry on line {self.LATER + 6}: 'x'"
        lines[self.LATER + 3] = "9"
        assert read_route(route, column(lines), tmp_path) == self.expected(values[: self.LATER] + ["9"] + values[self.LATER :])

    @pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
    @pytest.mark.parametrize("count", [1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH])
    def test_last_line_with_and_without_a_newline(self, route, tmp_path, end, count):
        values = self.values()[:count]
        assert read_route(route, column(values, end), tmp_path) == self.expected(values)

    @pytest.mark.parametrize("token, expected", [("123456789", None), ("12345678x", "invalid entry on line 4: '12345678x'")])
    def test_token_across_a_chunk_boundary(self, route, tmp_path, token, expected):
        head = ARRAY + "2 1\n1"
        text = head + " " * (_CHUNK - 5 - len(head)) + "\n" + token + "\n"
        assert text.index(token) == _CHUNK - 4
        got = read_route(route, text, tmp_path)
        assert got == (expected or BigIntMatrix.from_rows([[1], [int(token)]]))


def test_non_ascii_byte_after_a_bad_token_in_the_same_batch(tmp_path):
    # A line-by-line read meets the bad token before it decodes the chunk that holds byte 12,000;
    # the first batch reaches past that chunk, and must still report the token.
    lines = ["1", "x"] + ["7" * 20] * 1998
    data = bytearray(column(lines).encode("ascii"))
    assert data.count(b"\n", 0, 12_000) < _BATCH
    data[12_000] = 0xE9
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    assert outcome(read_matrix_market, path) == "invalid entry on line 4: 'x'"
    data[data.index(b"\nx\n") + 1] = ord("7")
    path.write_bytes(data)
    assert outcome(read_matrix_market, path).startswith("not an ASCII file: 'ascii' codec can't decode byte 0xe9 in position 12000")
