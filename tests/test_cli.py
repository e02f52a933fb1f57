"""CLI behavior: exit codes, formats, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import critgroup
from critgroup.cli import main
from critgroup.closedform import critical_group_order, predicted_critical_group, spectral_data
from critgroup.graphs import kneser_graph, laplacian_matrix
from critgroup.intmat import BigIntMatrix, SmithDecomposition, determinant, smith_normal_form
from critgroup.mmio import read_matrix_market, write_matrix_market
from critgroup.reports import PrimeReport, VerificationReport


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_verify_single_n(self, capsys):
        code, out, _ = run_cli(["verify", "5", "5", "--format", "json"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        r = reports[0]
        assert r["n"] == 5
        assert r["computed_factors"] == [2, 10, 10, 10]
        assert r["predicted_factors"] == [2, 10, 10, 10]
        assert r["order"] == 2000
        assert r["spanning_trees"] == 2000
        assert r["status"] == "pass"
        assert "timings" not in r
        primes = [pr["p"] for pr in r["per_prime"]]
        assert primes == [2, 5]
        assert all(pr["mdim_ok"] and pr["eigenbound_ok"] for pr in r["per_prime"])

    def test_verify_below_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "4", "4"], capsys)
        assert code == 2

    def test_verify_bad_range(self, capsys):
        code, _, _ = run_cli(["verify", "6", "5"], capsys)
        assert code == 2

    def test_verify_rejects_zero_jobs(self, capsys):
        code, out, err = run_cli(["verify", "5", "6", "--jobs", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "--jobs must be positive" in err

    def test_verify_range(self, capsys):
        code, out, _ = run_cli(["verify", "5", "10", "--format", "json"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert [r["n"] for r in reports] == list(range(5, 11))
        assert all(r["status"] == "pass" for r in reports)

    def test_json_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(["verify", "5", "6", "--format", "json"], capsys)
        _, out2, _ = run_cli(["verify", "5", "6", "--format", "json"], capsys)
        assert out1 == out2

    def test_csv_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(["verify", "5", "6", "--format", "csv"], capsys)
        _, out2, _ = run_cli(["verify", "5", "6", "--format", "csv"], capsys)
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header.startswith("n,status,order,spanning_trees")

    def test_csv_flattens_per_prime(self, capsys):
        _, out, _ = run_cli(["verify", "5", "5", "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        # header + one row per prime (2 and 5)
        assert len(lines) == 3
        assert lines[1].split(",")[6] == "2"
        assert lines[2].split(",")[6] == "5"

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run_cli(["verify", "5", "7", "--format", "json"], capsys)
        _, parallel, _ = run_cli(["verify", "5", "7", "--format", "json", "--jobs", "2"], capsys)
        assert serial == parallel

    def test_text_format_mentions_status(self, capsys):
        code, out, _ = run_cli(["verify", "5", "5"], capsys)
        assert code == 0
        assert "status=pass" in out

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        import critgroup.cli as cli_mod
        from critgroup.reports import build_report as real_build

        def tampered(n):
            r = real_build(n)
            r.status = "fail"
            return r

        monkeypatch.setattr(cli_mod, "build_report", tampered)
        code, _, _ = run_cli(["verify", "5", "5"], capsys)
        assert code == 1

    def test_jobs_clamped_to_range_and_cpus(self, capsys, monkeypatch):
        requested = []

        class InlineExecutor:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
        code, out, _ = run_cli(["verify", "5", "6", "--jobs", "5000", "--format", "json"], capsys)
        assert code == 0
        assert [r["n"] for r in json.loads(out)] == [5, 6]
        assert all(w <= 2 for w in requested)
        cpus = os.cpu_count() or 1
        assert requested == ([min(2, cpus)] if cpus > 1 else [])

    def test_failed_self_check_exits_three(self, capsys, monkeypatch):
        import critgroup.closedform as closedform

        monkeypatch.setattr(closedform, "critical_group_order", lambda n: 1)
        code, _, err = run_cli(["verify", "5", "5"], capsys)
        assert code == 3
        assert "internal error" in err


class TestGroup:
    def test_group_disconnected(self, capsys):
        code, out, _ = run_cli(["group", "4", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["invariant_factors"] == []
        assert obj["free_rank"] == 3
        assert obj["spanning_trees"] == 0

    def test_group_petersen(self, capsys):
        code, out, _ = run_cli(["group", "5", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["invariant_factors"] == [2, 10, 10, 10]
        assert obj["spanning_trees"] == 2000

    def test_group_n6_text(self, capsys):
        code, out, _ = run_cli(["group", "6"], capsys)
        assert code == 0
        assert "5 5 5 15 45 45 45 45" in out

    def test_group_rejects_n1(self, capsys):
        code, _, _ = run_cli(["group", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_vertex_and_disconnected_graphs_pass_the_tree_check(self, n, capsys):
        # One vertex has one spanning tree; KG(3, 2) and KG(4, 2) are disconnected and have none.
        code, out, _ = run_cli(["group", str(n), "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["spanning_trees"] == (1 if n == 2 else 0)
        assert (obj["free_rank"], obj["order"]) == ((1, 1) if n == 2 else (3, 1))

    def test_tree_count_missing_the_smith_order_exits_three(self, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        real = cli_mod.laplacian_rank_and_trees
        monkeypatch.setattr(cli_mod, "laplacian_rank_and_trees", lambda lap: (real(lap)[0], real(lap)[1] + 1))
        code, out, err = run_cli(["group", "5"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err and "tree count" in err


class TestSnf:
    def test_diagonal_output(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows([[2, 4], [6, 8]]), path)
        code, out, _ = run_cli(["snf", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2 4"

    def test_identity(self, tmp_path, capsys):
        path = tmp_path / "i.mtx"
        write_matrix_market(BigIntMatrix.diagonal([1] * 4), path)
        code, out, _ = run_cli(["snf", str(path)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1 1 1 1"

    def test_transforms_are_certified_and_printed(self, tmp_path, capsys):
        m = BigIntMatrix.from_rows([[2, 4], [6, 8]])
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path)
        code, out, _ = run_cli(["snf", str(path), "--transforms"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2 4"
        u_start = lines.index("U") + 1
        v_start = lines.index("V") + 1
        u = read_matrix_market(io.StringIO("\n".join(lines[u_start : v_start - 1]) + "\n"))
        v = read_matrix_market(io.StringIO("\n".join(lines[v_start:]) + "\n"))
        assert u @ m @ v == BigIntMatrix.diagonal([2, 4])
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        code, _, err = run_cli(["snf", str(path)], capsys)
        assert code == 2
        assert "parse error" in err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.mtx"
        path.write_text("")
        code, _, _ = run_cli(["snf", str(path)], capsys)
        assert code == 2

    def test_zero_by_zero_array_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix array integer general\n0 0\n")
        code, out, err = run_cli(["snf", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "parse error: empty matrix\n"

    def test_declared_size_over_cap(self, tmp_path, capsys):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n1000000 1000000 0\n")
        code, _, err = run_cli(["snf", str(path)], capsys)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "text",
        ["%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 7_7\n",
         "%%MatrixMarket matrix array integer general\n1 1\n\u0663\n"],
    )
    def test_non_decimal_integer_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "odd.mtx"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["snf", str(path)], capsys)
        assert code == 2
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "fmt,text,message",
        [
            ("coordinate", "2 2 1\n% big\n1 1 {}\n", "parse error: invalid value on line 4: '"),
            ("array", "1 1\n{}\n", "parse error: invalid entry on line 3: '"),
        ],
    )
    def test_entry_past_int_str_digit_limit_rejected(self, tmp_path, capsys, fmt, text, message):
        # The reader runs outside cli._digits_unlimited, so Python's limit rejects the token.
        path = tmp_path / "big.mtx"
        path.write_text(f"%%MatrixMarket matrix {fmt} integer general\n" + text.format("7" * 5000))
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli(["snf", str(path)], capsys)
        assert code == 2
        assert err.startswith(message)
        assert sys.get_int_max_str_digits() == limit

    def test_transforms_past_int_str_digit_limit(self, tmp_path, capsys):
        # The sixth seeded dense 20x20 matrix has 5,427-digit transform entries.
        rng = random.Random(7)
        for _ in range(6):
            m = BigIntMatrix(20, 20, [rng.randint(-100, 100) for _ in range(400)])
        path = tmp_path / "dense.mtx"
        write_matrix_market(m, path, "array")
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(["snf", str(path), "--transforms"], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        u_text, v_text = out.split("\nU\n")[1].split("\nV\n")
        sys.set_int_max_str_digits(0)
        try:
            printed = tuple(read_matrix_market(io.StringIO(t)) for t in (u_text + "\n", v_text))
        finally:
            sys.set_int_max_str_digits(limit)
        assert printed == smith_normal_form(m, want_transforms=True).transforms

    def test_failed_transform_certification_exits_three(self, tmp_path, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows([[2, 4], [6, 8]]), path)
        monkeypatch.setattr(cli_mod, "determinant", lambda m: 2)
        code, out, err = run_cli(["snf", str(path), "--transforms"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err

    def test_scaled_transform_fails_certification(self, tmp_path, capsys, monkeypatch):
        # 2U M V = 2S holds, but |det M| = 8 is not prod(2S) = 32, so det(2U) = ±4 is checked and fails.
        import critgroup.cli as cli_mod

        def doubled(m, want_transforms=False):
            snf = smith_normal_form(m, want_transforms)
            u, v = snf.transforms
            u2 = BigIntMatrix(u.rows, u.cols, [2 * x for i in range(u.rows) for x in u.row(i)])
            return SmithDecomposition(m.rows, m.cols, tuple(2 * d for d in snf.diagonal), snf.rank, (u2, v))

        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows([[2, 4], [6, 8]]), path)
        monkeypatch.setattr(cli_mod, "smith_normal_form", doubled)
        code, out, err = run_cli(["snf", str(path), "--transforms"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err

    @pytest.mark.parametrize(
        "rows, calls",
        [([[2, 4], [6, 8]], 1), ([[1, 2], [2, 4]], 3), ([[1, 2, 3], [4, 5, 6]], 2)],
        ids=["nonsingular", "singular", "non-square"],
    )
    def test_transforms_certified_by_det_m_when_nonsingular(self, tmp_path, capsys, monkeypatch, rows, calls):
        # |det M| = prod(S) != 0 proves det U det V = ±1; det U and det V are computed only otherwise.
        import critgroup.cli as cli_mod

        seen = []
        monkeypatch.setattr(cli_mod, "determinant", lambda m: seen.append(m.shape) or determinant(m))
        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows(rows), path)
        code, _, _ = run_cli(["snf", str(path), "--transforms"], capsys)
        assert code == 0
        assert len(seen) == calls

    def test_failed_dense_self_check_exits_three(self, tmp_path, capsys, monkeypatch):
        # 2 I + J is dense with diagonal (1, 2, 10), so the Bareiss pass leaves g = 2 and the
        # engine finishes M mod g; losing that diagonal's last entry fails the check against det M.
        from critgroup import intmat

        engine = intmat.smith_normal_form

        def wrong(m, want_transforms=False):
            return SimpleNamespace(diagonal=(*engine(m, want_transforms).diagonal[:-1], 1))

        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows([[3, 1, 1], [1, 3, 1], [1, 1, 3]]), path, "array")
        monkeypatch.setattr(intmat, "smith_normal_form", wrong)
        code, out, err = run_cli(["snf", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(["snf", "/nonexistent/m.mtx"], capsys)
        assert code == 2


class TestProfile:
    def test_profile_8_2(self, capsys):
        code, out, _ = run_cli(["profile", "8", "2"], capsys)
        assert code == 0
        assert "Case 3 d-i" in out
        assert "0:7 1:14 3:6" in out
        assert "match          : yes" in out

    def test_profile_7_7_json(self, capsys):
        code, out, _ = run_cli(["profile", "7", "7", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["branch"].startswith("Case 1a")
        assert obj["computed"] == {"0": 15, "1": 5}
        assert obj["predicted"] == {"0": 15, "1": 5}
        assert obj["match"] is True
        assert obj["mdim_ok"] is True

    def test_profile_nondividing_prime(self, capsys):
        code, out, _ = run_cli(["profile", "7", "11"], capsys)
        assert code == 0
        assert "does not divide" in out
        assert "match          : yes" in out

    def test_profile_odd_order_two_branch(self, capsys):
        code, out, _ = run_cli(["profile", "6", "2"], capsys)
        assert code == 0
        assert "Case 3b" in out
        assert "does not divide" in out

    def test_profile_csv_quotes_branch_label(self, capsys):
        import csv as csv_mod

        code, out, _ = run_cli(["profile", "10", "3", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert len(rows[1]) == len(rows[0]) == 8
        assert rows[1][2] == "Case 2a, a=2"

    def test_profile_and_verify_share_the_verdict(self, capsys, monkeypatch):
        # A failed eigenspace bound fails the prime in both commands, though the profiles match.
        import critgroup.reports as reports_mod

        monkeypatch.setattr(reports_mod, "verify_eigenspace_bound", lambda *_: False)
        assert run_cli(["verify", "8", "8"], capsys)[0] == 1
        code, out, _ = run_cli(["profile", "8", "2"], capsys)
        assert code == 1
        assert "match          : yes" in out

    def test_profile_builds_each_stage_once(self, capsys, monkeypatch):
        # profile is build_report at one prime: one graph, Smith form, tree count and case analysis.
        names = ["classify_branch", "order_valuation", "kneser_graph", "smith_normal_form", "laplacian_rank_and_trees"]
        calls = []
        for name in names:
            owners = [m for m in sys.modules.values() if m.__name__.startswith("critgroup") and hasattr(m, name)]
            real = getattr(owners[0], name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for mod in owners:
                if getattr(mod, name) is real:
                    monkeypatch.setattr(mod, name, spy)
        code, _, _ = run_cli(["profile", "16", "2", "--format", "json"], capsys)
        assert code == 0
        assert sorted(calls) == sorted(names)

    def test_profile_rejects_composite(self, capsys):
        code, _, _ = run_cli(["profile", "7", "6"], capsys)
        assert code == 2

    def test_profile_large_prime(self, capsys):
        code, out, _ = run_cli(["profile", "8", "1000000000000000009", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert "does not divide" in obj["note"]
        assert obj["computed"] == obj["predicted"] == {"0": 27}
        assert obj["match"] is True

    def test_profile_prime_beyond_test_range(self, capsys):
        code, _, err = run_cli(["profile", "8", "3317044064679887385961981"], capsys)
        assert code == 2
        assert "deterministic" in err

    def test_profile_rejects_small_n(self, capsys):
        code, _, _ = run_cli(["profile", "4", "2"], capsys)
        assert code == 2


@pytest.mark.parametrize("args", [["group", "92"], ["verify", "5", "92"], ["profile", "92", "2"]])
def test_n_past_laplacian_cap_is_usage_error(args, capsys, monkeypatch):
    import critgroup.cli as cli_mod

    def unreachable(*_):
        raise AssertionError("graph built for an n past the cap")

    monkeypatch.setattr(cli_mod, "kneser_graph", unreachable)
    monkeypatch.setattr(cli_mod, "build_report", unreachable)
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "too large" in err


class TestOutputPastDigitLimit:
    """From n = 54 on the group order has more digits than Python's int-to-str limit.

    The Smith and witness steps are patched out; only the output is built.
    """

    N = 54

    @staticmethod
    def text_of(x: int) -> str:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)

    def run_past_limit(self, args, capsys):
        order = critical_group_order(self.N)
        assert len(self.text_of(order)) > sys.get_int_max_str_digits() > 0
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        assert self.text_of(order) in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_verify(self, fmt, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        order = critical_group_order(self.N)
        factors = predicted_critical_group(self.N).normalized()
        prime = PrimeReport(
            p=2, computed={1: 1}, predicted={1: 1}, mdim_ok=True, eigenbound_ok=True, dims=(2, 1),
            branch="Case 3b", kernel_rank=1,
        )
        report = VerificationReport(self.N, factors, factors, order, order, [prime], "pass", {"snf_ms": 1.0})
        monkeypatch.setattr(cli_mod, "build_report", lambda n: report)
        self.run_past_limit(["verify", str(self.N), str(self.N), "--format", fmt], capsys)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_group(self, fmt, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        factors = predicted_critical_group(self.N).normalized()
        group = SmithDecomposition(len(factors) + 1, len(factors) + 1, (*factors, 0), len(factors))
        monkeypatch.setattr(cli_mod, "kneser_graph", lambda n: None)
        monkeypatch.setattr(cli_mod, "laplacian_matrix", lambda g: None)
        monkeypatch.setattr(cli_mod, "critical_group", lambda lap: group)
        monkeypatch.setattr(cli_mod, "laplacian_rank_and_trees", lambda lap: (1, group.order))
        self.run_past_limit(["group", str(self.N), "--format", fmt], capsys)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_profile_note(self, fmt, capsys, monkeypatch):
        # 7 divides none of n, n-1, n-3, n-4, so the note prints the order (CSV has no note).
        import critgroup.cli as cli_mod

        sd = spectral_data(self.N)
        trivial = {0: sd.f + sd.g}
        prime = PrimeReport(
            p=7, computed=trivial, predicted=trivial, mdim_ok=True, eigenbound_ok=True, dims=(1,),
            branch=None, kernel_rank=1,
        )
        order = critical_group_order(self.N)
        report = VerificationReport(self.N, (), (), order, order, [prime], "pass")
        calls = []
        monkeypatch.setattr(cli_mod, "build_report", lambda *a: calls.append(a) or report)
        self.run_past_limit(["profile", str(self.N), "7", "--format", fmt], capsys)
        assert calls == [(self.N, [7])]


class TestOutputDigests:
    """SHA-256 of machine-readable outputs, pinned so speed-ups cannot change a byte."""

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(["verify", "5", "14", "--format", "json"], capsys)
        assert code == 0
        assert self.digest(out) == "1bee279b2a8f1329981a42eea3dd67364072de39fd8237d6b9913890036e932c"

    def test_verify_csv(self, capsys):
        code, out, _ = run_cli(["verify", "5", "14", "--format", "csv"], capsys)
        assert code == 0
        assert self.digest(out) == "8ca7e9dfe4925e7efb817efe59a35d96886bbac74706802531554370ddf8efdb"

    def test_verify_json_top_of_ladder(self, capsys):
        # n = 16 takes the deepest 2-adic descent of the filtration (five levels).
        code, out, _ = run_cli(["verify", "15", "16", "--format", "json"], capsys)
        assert code == 0
        assert self.digest(out) == "6c7d6d78592dd4f5aef46edbca606250fe76b5e85cb48047d1f9cb52ad8b4666"

    def test_profile_json_grid(self, capsys):
        # Includes filtration_dims, read off the Howell pivots' image lengths.
        outs = []
        for n in (5, 8, 11, 14):
            for p in (2, 3, 5, 7, 11, 13):
                _, out, _ = run_cli(["profile", str(n), str(p), "--format", "json"], capsys)
                outs.append(out)
        assert self.digest("".join(outs)) == (
            "24dd5a6539c8765957ff78f8f7b18b333843bcff62077fea1e1a5841ff5e5177"
        )

    @pytest.mark.parametrize(
        "n,p,expected",
        [
            # The five-level 2-adic descent, modulus 32.
            ("16", "2", "8c2826dabed1d29632b62269a6f50ed8db916f6f842014f5dd0b11d15cab243d"),
            ("16", "13", "10be69d97baeff90aea0a4ab1f32601a36c9493c69bb8b23ed25ee29a1819e01"),
            # Wide packed-row slots: 2(q-1)^2 needs 33 and 63 bits.
            ("16", "65537", "4a025ec65508c65190d9fcaf8a84e7ac312bf07a8cd2dbef71e46c31204e5886"),
            ("12", "2147483647", "2c6bdf4a69adefbe3205c8c60ac6de309df9ae441043364974d8ac95bed13c8c"),
        ],
    )
    def test_profile_json_filtration(self, n, p, expected, capsys):
        code, out, _ = run_cli(["profile", n, p, "--format", "json"], capsys)
        assert code == 0
        assert self.digest(out) == expected

    def test_verify_json_builds_no_other_view(self, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        def unreachable(r):
            raise AssertionError("JSON output built a CSV or text view")

        monkeypatch.setattr(cli_mod, "report_csv_rows", unreachable)
        monkeypatch.setattr(cli_mod, "report_lines", unreachable)
        code, out, _ = run_cli(["verify", "5", "5", "--format", "json"], capsys)
        assert code == 0
        assert self.digest(out) == "6b28f3228c0a769515201a57b604e7ae7a7c308fb694d55ede0a5305f27e240e"

    def test_verify_csv_builds_no_json_view(self, capsys, monkeypatch):
        import critgroup.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "report_json_obj", lambda r: calls.append(r.n))
        code, out, _ = run_cli(["verify", "5", "7", "--format", "csv"], capsys)
        assert code == 0 and calls == []
        assert self.digest(out) == "c109c2b38b2a172645d536c0a1480eac35657dda708c62398674190eafd5b4d5"

    def test_verify_text(self, capsys):
        # The timings lines are wall-clock readings; every other line is pinned.
        code, out, _ = run_cli(["verify", "5", "14", "--format", "text"], capsys)
        assert code == 0
        kept = [line for line in out.splitlines(keepends=True) if not line.startswith("  timings:")]
        assert len(kept) < len(out.splitlines())
        assert self.digest("".join(kept)) == (
            "13d590412b7a24ea4002df7b4684ae07e94f87af543b40c6874067b655d6357a"
        )

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("text", "366f4a049b242caab314c36cbb194c689a2fb478ab8c4534861989d62e073d77"),
            ("json", "b999be1e42998e1865d9e50e79952c084225ae492972fc8c040f2ac2d1254ff7"),
            ("csv", "a179a031884c0d1c0a98b8ff5af3d989edb69b080ce0c69f0782219c1adc2d72"),
        ],
    )
    def test_group_range(self, fmt, expected, capsys):
        # n = 2..4 are disconnected (free rank above 1, no torsion).
        outs = []
        for n in range(2, 11):
            code, out, _ = run_cli(["group", str(n), "--format", fmt], capsys)
            assert code == 0
            outs.append(out)
        assert self.digest("".join(outs)) == expected

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("text", "a1006091a8851b595ef7ec708077c1d6c3d7a98c09ef63d68b909cc44a34b110"),
            ("csv", "81e79dedf28f53b649f3b66bd70e606efb83e98078a9681f14e0881cd8155d62"),
        ],
    )
    def test_profile_grid(self, fmt, expected, capsys):
        outs = []
        for n in (5, 8, 11, 14):
            for p in (2, 3, 5, 7, 11, 13):
                code, out, _ = run_cli(["profile", str(n), str(p), "--format", fmt], capsys)
                assert code == 0
                outs.append(out)
        assert self.digest("".join(outs)) == expected

    @staticmethod
    def snf_inputs():
        inputs = [(laplacian_matrix(kneser_graph(n)), "coordinate") for n in (5, 6, 7, 8)]
        for shape in (([2, 3], 2, 2), ([6, 4, 9, 10], 4, 4), ([12, 18, 8], 3, 5)):
            inputs.append((BigIntMatrix.diagonal(*shape), "array"))
        rng = random.Random(4)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            inputs.append((BigIntMatrix(m, n, [rng.randint(-30, 30) for _ in range(m * n)]), "array"))
        return inputs

    def snf_digest(self, inputs, args, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        outs = []
        for matrix, fmt in inputs:
            write_matrix_market(matrix, path, fmt)
            code, out, _ = run_cli(["snf", str(path), *args], capsys)
            assert code == 0
            outs.append(out)
        return self.digest("".join(outs))

    def test_snf_diagonal(self, tmp_path, capsys):
        # Dense 20 x 20 inputs drive coefficient growth in the elimination.
        inputs = self.snf_inputs()
        rng = random.Random(9)
        for _ in range(20):
            inputs.append((BigIntMatrix(20, 20, [rng.randint(-100, 100) for _ in range(400)]), "array"))
        assert self.snf_digest(inputs, [], tmp_path, capsys) == (
            "a6f5c02f6fa0d124afec594a5536d70d305c1fc278c23fb386a275168fdb8623"
        )

    def test_snf_transforms(self, tmp_path, capsys):
        # These inputs take the gcd/lcm step for a non-dividing diagonal pair 10 times.
        # U and V are not unique: this digest pins the symmetric-remainder elimination's pair.
        assert self.snf_digest(self.snf_inputs(), ["--transforms"], tmp_path, capsys) == (
            "bcf06a778ff3cfde0c73611ecee2172d2ecf52bb8b2a65e6bb729964ed9af04e"
        )


class TestImportFootprint:
    """Each command loads the worker pool and the CSV writer only when it uses them."""

    WATCHED = ("concurrent.futures.process", "multiprocessing", "csv")
    PROBE = (
        "import contextlib, io, sys\n"
        "from critgroup.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(code, *[m for m in {WATCHED!r} if m in sys.modules])\n"
    )

    def loaded(self, argv) -> list[str]:
        """Exit code and watched modules of cli.main(argv) in a fresh interpreter."""
        env = {**os.environ, "PYTHONPATH": str(Path(critgroup.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.split()

    @pytest.mark.parametrize(
        "argv, used",
        [
            (["verify", "5", "6", "--format", "json"], []),
            (["group", "8"], []),
            (["profile", "8", "2", "--format", "json"], []),
            (["verify", "5", "5", "--format", "csv"], ["csv"]),
        ],
        ids=["verify-json", "group-text", "profile-json", "verify-csv"],
    )
    def test_command_loads_only_what_it_uses(self, argv, used):
        assert self.loaded(argv) == ["0", *used]

    def test_snf_loads_neither(self, tmp_path):
        path = tmp_path / "m.mtx"
        write_matrix_market(BigIntMatrix.from_rows([[2, 4], [6, 8]]), path)
        assert self.loaded(["snf", str(path)]) == ["0"]

    def test_jobs_load_the_pool(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("--jobs 2 starts no pool on one CPU")
        assert self.loaded(["verify", "5", "7", "--jobs", "2"]) == ["0", "concurrent.futures.process", "multiprocessing"]


def test_no_command_is_usage_error(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2
