"""Command-line interface: verify | group | snf | profile.

Exit codes: 0 all checks passed, 1 verification mismatch, 2 usage or parse
error, 3 internal certification failure (must never occur).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from math import comb, prod

from .arith import CertificationError, is_prime
from .critical import critical_group, laplacian_rank_and_trees
from .graphs import kneser_graph, laplacian_matrix
from .intmat import determinant, smith_normal_form
from .mmio import MAX_ENTRIES, MatrixMarketError, read_matrix_market, write_matrix_market
from .reports import (
    CSV_HEADER,
    build_report,
    profile_str,
    report_csv_rows,
    report_json_obj,
    report_lines,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgroup",
        description="Exact critical group computation and closed-form verification for KG(n, 2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="cross-validate computed vs predicted groups for a range of n")
    p_verify.add_argument("n_min", type=int)
    p_verify.add_argument("n_max", type=int)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--jobs", type=int, default=1, metavar="N")

    p_group = sub.add_parser("group", help="critical group of KG(n, 2)")
    p_group.add_argument("n", type=int)
    p_group.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_snf = sub.add_parser("snf", help="Smith normal form of a Matrix Market file")
    p_snf.add_argument("path")
    p_snf.add_argument("--transforms", action="store_true")

    p_profile = sub.add_parser("profile", help="computed vs predicted p-elementary divisors for KG(n, 2)")
    p_profile.add_argument("n", type=int)
    p_profile.add_argument("p", type=int)
    p_profile.add_argument("--format", choices=("text", "json", "csv"), default="text")

    return parser


@contextmanager
def _digits_unlimited():
    """Lift Python's int-to-str digit limit while a command builds its output.

    Group orders (4,463 digits at n = 54) and Smith transform entries pass
    it.  The limit is restored on exit: main() also runs in-process, and the
    Matrix Market reader relies on it to reject huge tokens.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _render(
    fmt: str, obj: dict | Iterable[dict], header: list[str], rows: Iterable[list], lines: Iterable[str]
) -> str:
    """``obj`` as JSON, ``rows`` as CSV under ``header``, or ``lines`` as text; only that view is read.

    A dict ``obj`` is one JSON object; any other iterable is a JSON list of them.
    """
    if fmt == "json":
        return json.dumps(obj if isinstance(obj, dict) else list(obj), indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    return "".join(line + "\n" for line in lines)


def _check_n(parser, name: str, n: int, least: int) -> None:
    """Exit 2 unless least <= n and KG(n, 2)'s dense Laplacian fits the Matrix Market cap."""
    if n < least:
        parser.error(f"{name} must be at least {least}, got {n}")
    if comb(n, 2) ** 2 > MAX_ENTRIES:
        parser.error(f"{name} = {n} is too large: the KG({n},2) Laplacian exceeds {MAX_ENTRIES} entries")


def cmd_verify(args, parser) -> int:
    _check_n(parser, "n_min", args.n_min, 5)
    if args.n_max < args.n_min:
        parser.error("n_max must be at least n_min")
    _check_n(parser, "n_max", args.n_max, 5)
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    ns = list(range(args.n_min, args.n_max + 1))
    workers = min(args.jobs, len(ns), os.cpu_count() or 1)
    if workers > 1:
        # The fork start method launches every worker when the pool starts.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(build_report, ns))
    else:
        reports = [build_report(n) for n in ns]

    with _digits_unlimited():
        out = _render(
            args.format,
            map(report_json_obj, reports),
            CSV_HEADER,
            (row for r in reports for row in report_csv_rows(r)),
            (line for r in reports for line in report_lines(r)),
        )
    print(out, end="")
    return EXIT_OK if all(r.status == "pass" for r in reports) else EXIT_MISMATCH


def cmd_group(args, parser) -> int:
    _check_n(parser, "n", args.n, 2)
    n = args.n
    lap = laplacian_matrix(kneser_graph(n))
    group = critical_group(lap)
    trees = laplacian_rank_and_trees(lap)[1]
    # Two independent witnesses: a connected graph has tau = |K(G)|, any other none.
    if trees != (group.order if group.free_rank == 1 else 0):
        raise CertificationError(f"KG({n},2): the tree count misses the Smith order")
    with _digits_unlimited():
        factors = " ".join(map(str, group.invariant_factors))
        out = _render(
            args.format,
            {
                "n": n,
                "invariant_factors": list(group.invariant_factors),
                "free_rank": group.free_rank,
                "order": group.order,
                "spanning_trees": trees,
            },
            ["n", "invariant_factors", "free_rank", "order", "spanning_trees"],
            [[n, factors, group.free_rank, group.order, trees]],
            [
                f"KG({n},2)",
                f"  critical group   : {group}",
                f"  invariant factors: {factors or '-'}",
                f"  free rank        : {group.free_rank}",
                f"  torsion order    : {group.order}",
                f"  spanning trees   : {trees}",
            ],
        )
    print(out, end="")
    return EXIT_OK


def cmd_snf(args, parser) -> int:
    try:
        matrix = read_matrix_market(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MatrixMarketError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if matrix.rows == 0 or matrix.cols == 0:
        print("parse error: empty matrix", file=sys.stderr)
        return EXIT_USAGE

    snf = smith_normal_form(matrix, want_transforms=args.transforms)
    if args.transforms:
        u, v = snf.transforms
        # det U det M det V = det S, so |det M| = prod(S) != 0 leaves integers det U, det V with product ±1.
        units = matrix.is_square and abs(determinant(matrix)) == prod(snf.diagonal) != 0
        if u @ matrix @ v != snf.diagonal_matrix() or not (units or abs(determinant(u)) == abs(determinant(v)) == 1):
            raise CertificationError("transform certification failed")
    with _digits_unlimited():
        parts = [" ".join(map(str, snf.diagonal)) + "\n"]
        if args.transforms:
            for name, t in zip("UV", snf.transforms):
                parts += [name + "\n", write_matrix_market(t, fmt="array")]
    print("".join(parts), end="")
    return EXIT_OK


def cmd_profile(args, parser) -> int:
    _check_n(parser, "n", args.n, 5)
    try:
        prime = is_prime(args.p)
    except ValueError as exc:
        parser.error(str(exc))
    if not prime:
        parser.error(f"p must be prime, got {args.p}")
    n, p = args.n, args.p
    r = build_report(n, [p])
    pr = r.per_prime[0]
    match = pr.computed == pr.predicted

    with _digits_unlimited():
        note = None
        if set(pr.predicted) == {0}:
            note = f"{p} does not divide the group order {r.order}; trivial profile"
        computed, predicted = profile_str(pr.computed), profile_str(pr.predicted)
        dims = " ".join(map(str, pr.dims))
        out = _render(
            args.format,
            {
                "n": n,
                "p": p,
                "branch": pr.branch,
                "note": note,
                "computed": {str(i): e for i, e in sorted(pr.computed.items())},
                "predicted": {str(i): e for i, e in sorted(pr.predicted.items())},
                "kernel_rank": pr.kernel_rank,
                "filtration_dims": list(pr.dims),
                "mdim_ok": pr.mdim_ok,
                "match": match,
            },
            ["n", "p", "branch", "computed_profile", "predicted_profile",
             "filtration_dims", "mdim_ok", "match"],
            [[n, p, pr.branch or "", computed, predicted, dims, pr.mdim_ok, match]],
            [f"KG({n},2) at p={p}"]
            + ([f"  note     : {note}"] if note else [])
            + ([f"  branch   : {pr.branch}"] if pr.branch else [])
            + [
                f"  computed : {computed} (kernel rank {pr.kernel_rank})",
                f"  predicted: {predicted}",
                f"  filtration dims: {dims}",
                f"  mdim identity  : {'ok' if pr.mdim_ok else 'FAIL'}",
                f"  match          : {'yes' if match else 'NO'}",
            ],
        )
    print(out, end="")
    return EXIT_OK if pr.matches else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"verify": cmd_verify, "group": cmd_group, "snf": cmd_snf, "profile": cmd_profile}
    try:
        return command[args.command](args, parser)
    except CertificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
