"""Matrix Market round trips and error handling."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import matrices

from critgroup.intmat import BigIntMatrix
from critgroup.mmio import MatrixMarketError, read_matrix_market, write_matrix_market


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
    from critgroup.graphs import kneser_graph, laplacian_matrix

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
        write_matrix_market(BigIntMatrix.identity(2), fmt="dense")
