"""critgroup benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (or any directory; paths are resolved from this
file).  The program is imported from ``src/`` next to this directory and
driven only through ``critgroup.cli.main(argv)`` with stdout captured; each op
starts when the previous one has ended.  Every op's output is checked against
values the benchmark computes itself (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics from untraced runs.  ``--trace 1``
runs one untraced batch, one batch with per-layer span wrappers and one with
per-layer tracemalloc wrappers (see ``spans.py``) and reports the per-layer
metrics; the spans are written to ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every output checked out, 1 when any op failed, 2 when set-up failed (no
result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")

# Set-up is repeated and its median reported, so one slow import or disk
# write does not decide setup_s.
MIN_SETUPS = 3
# A percentile is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100


class SetupError(Exception):
    pass


# ---------------------------------------------------------------- program access


def import_program():
    """(Re-)import critgroup from this checkout's src/ and return its cli module."""
    if not os.path.isfile(os.path.join(SRC, "critgroup", "cli.py")):
        raise SetupError(f"no critgroup sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "critgroup" or m.startswith("critgroup.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("critgroup.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import critgroup: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"critgroup imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op, cal=None):
    """One closed-loop op.  Returns (exit code or error text, stdout, t0, t1).

    With a running Calibrator, the time its samples took during the op is
    taken off t1, so that t1 - t0 is the op's own time.
    """
    spent = cal.spent if cal else 0.0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed op, counted; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    if cal:
        t1 -= cal.spent - spent
    return rc, out.getvalue(), t0, t1


def run_batch(cli, ops, on_op=None, cal=None):
    """Run every op once, in order.  Returns (wall seconds, per-op results)."""
    results = []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        results.append(run_op(cli, op, cal))
    return results[-1][3] - results[0][2], results


# ---------------------------------------------------------------- phases


def setup(name: str, seed: int, size: str, workdir: str, cal=None):
    """Import, generate inputs and run one warm-up op; returns (cli, workload, seconds).

    As in run_op, the time of a running Calibrator's samples is left out.
    """
    spent = cal.spent if cal else 0.0
    t0 = perf_counter()
    cli = import_program()
    wl = workloads.build(name, seed, workdir, size)
    rc, out, _, _ = run_op(cli, wl.warmup)
    seconds = perf_counter() - t0 - (cal.spent - spent if cal else 0.0)
    err = workloads.check(wl.warmup, rc, out)
    if err:
        raise SetupError(f"warm-up op {' '.join(wl.warmup.argv)} failed: {err}")
    return cli, wl, seconds


@dataclass
class Batch:
    """One checked batch: the sum of its op times, in seconds as measured and
    in reference seconds (see calibrate.py), op latencies and failed-op reasons."""

    seconds: float
    ref_seconds: float
    lat_ms: list[float]
    failures: list[str]


def checked_batch(wl, results, scale: float = 1.0, label: str = "batch") -> Batch:
    """Check a batch's outputs as soon as it ends, so that only its timings
    are kept and memory does not grow with the number of batches.  ``scale``
    is reference seconds per measured second over the batch."""
    failures = check_batches(wl, [(None, results)], label)
    seconds = sum(t1 - t0 for _, _, t0, t1 in results)
    return Batch(seconds, seconds * scale, [(t1 - t0) * 1000 for _, _, t0, t1 in results], failures)


def measure(name: str, seed: int, size: str, workdir: str, seconds: float):
    """Alternate set-up and batch while another pair fits in ``seconds``.

    Set-up is timed before every batch and once after the last (at least
    MIN_SETUPS times), so that it samples the whole run, as the batches do.
    The calibration kernel runs all along (see calibrate.py); each set-up
    and each batch is scaled by the kernel samples taken during it, and the
    set-up by one sample on either side as well.  Every set-up must generate
    the same inputs; every batch is checked against the first one's expected
    values.  Every set-up writes its input files over the previous set-up's,
    since creating and deleting hundreds of files costs the file system, not
    the program, a varying amount of time.  Returns (first workload, set-up
    seconds, set-up reference seconds, checked batches, kernel samples).
    """
    times, ref_times, batches, first = [], [], [], None
    cal = calibrate.Calibrator()
    start = perf_counter()

    def timed_setup():
        nonlocal first
        i0 = len(cal.samples)
        cal.sample()
        cli, wl, secs = setup(name, seed, size, workdir, cal)
        cal.sample()
        times.append(secs)
        ref_times.append(secs * cal.since(i0))
        first = first or wl
        if wl.digest != first.digest:
            raise SetupError("two set-ups generated different inputs")
        return cli, wl

    with cal.running():
        cli, wl = timed_setup()
        while True:
            i0 = len(cal.samples)
            _, results = run_batch(cli, wl.ops, cal=cal)
            scale = cal.since(i0)
            batches.append(checked_batch(first, results, scale, label=f"batch {len(batches)}"))
            cli, wl = timed_setup()
            elapsed = perf_counter() - start
            if elapsed + statistics.fmean(b.seconds for b in batches) + statistics.fmean(times) > seconds:
                break
        while len(times) < MIN_SETUPS:
            cli, wl = timed_setup()
    return first, times, ref_times, batches, cal.samples


def check_batches(wl, batches, label: str = "batch") -> list[str]:
    """Check every op result of every batch; one reason per failed op."""
    failures = []
    for b, (_, results) in enumerate(batches):
        name = label if len(batches) == 1 else f"{label} {b}"
        for op, (rc, out, _, _) in zip(wl.ops, results):
            err = workloads.check(op, rc, out)
            if err:
                failures.append(f"{name} {' '.join(op.argv)}: {err}")
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    metrics: dict  # name -> (value, unit); the result line's metrics
    extra: dict = field(default_factory=dict)  # printed, not in the result line
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- workloads


def untraced_outcome(setup_times: list[float], ref_setup_times: list[float], batches: list[Batch],
                     kernel_samples: list[float]) -> Outcome:
    """End-to-end metrics of a run's checked batches."""
    rss = peak_rss_mb()
    failures = [f for b in batches for f in b.failures]
    lat_ms = [x for b in batches for x in b.lat_ms]
    walls = [b.seconds for b in batches]
    refs = [b.ref_seconds for b in batches]
    metrics = {
        "setup_s": (statistics.median(ref_setup_times), "s"),
        "wall_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "wall_raw_s": (statistics.median(walls), "s"),
        "setup_raw_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "fail_frac": (len(failures) / len(lat_ms), "frac"),
    }
    if len(lat_ms) >= P90_MIN_SAMPLES:
        extra["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    notes = [f"batches={len(batches)}", f"op_samples={len(lat_ms)}", f"setups={len(setup_times)}",
             "batch_walls_s=" + ",".join(f"{w:.3f}" for w in walls),
             "batch_ref_s=" + ",".join(f"{w:.3f}" for w in refs),
             "setups_s=" + ",".join(f"{t:.3f}" for t in setup_times),
             f"kernel_samples={len(kernel_samples)}",
             f"kernel_ms_median={statistics.median(kernel_samples) * 1000:.3f}"]
    return Outcome(len(lat_ms), failures, metrics, extra, notes)


def run_traced(cli, wl, size: str) -> Outcome:
    """Untraced, span-traced and memory-traced batch; per-layer metrics."""
    base_wall, base = run_batch(cli, wl.ops)

    rec = spans.SpanRecorder()

    def set_op(i):
        rec.op_id = i

    with rec.tracing():
        traced_wall, traced = run_batch(cli, wl.ops, set_op)

    mem = spans.MemoryRecorder()
    mem_ops = wl.ops[: wl.memory_ops]
    with mem.tracing():
        _, memory = run_batch(cli, mem_ops)

    failures = check_batches(wl, [(base_wall, base), (traced_wall, traced), (None, memory)], "pass")
    for label, results in (("traced", traced), ("memory-traced", memory)):
        for op, a, b in zip(wl.ops, base, results):
            if a[:2] != b[:2]:
                failures.append(f"{label} output differs from untraced: {' '.join(op.argv)}")

    metrics = {}
    totals = rec.layer_totals()
    for layer in spans.LAYERS:
        t = totals[layer]
        metrics[f"{layer}.busy_s"] = (t["busy_s"], "s")
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.peak_kb"] = (mem.peak_kb[layer], "KB")
    ranked = rec.ranked
    distinct = len({(m.rows, m.cols, tuple(map(tuple, m.to_rows()))) for m in ranked})
    counts = rec.counts
    metrics["intmat.rank.distinct_frac"] = (distinct / len(ranked) if ranked else 0.0, "frac")
    metrics["intmat.snf.diag_max_bits"] = (counts["intmat.snf.diag_max_bits"], "bits")
    metrics["mmio.read.bytes"] = (counts["mmio.read.bytes"], "bytes")
    metrics["modring.howell.rows_in"] = (counts["modring.howell.rows_in"], "count")
    metrics["modring.kernel.gens_out"] = (counts["modring.kernel.gens_out"], "count")
    metrics["arith.is_prime.calls"] = (counts["arith.is_prime.calls"], "count")
    self_total = sum(t["self_s"] for t in totals.values())
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.trace_overhead_frac"] = (traced_wall / base_wall - 1, "frac")
    metrics["bench.unattributed_s"] = (traced_wall - self_total, "s")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}-{size}-seed{wl.seed}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "input_digest": wl.digest,
                   "ops": [op.argv[:1] + [os.path.basename(a) for a in op.argv[1:]] for op in wl.ops],
                   "counts": dict(counts), "spans": rec.dump()}, fh)
    notes = [f"memory_ops={len(mem_ops)}", f"spans={len(rec.spans)}", f"rank_calls={len(ranked)}",
             f"distinct_ranked={distinct}", f"untraced_wall_s={base_wall!r}",
             f"spans_file={os.path.relpath(path, ROOT)}"]
    return Outcome(2 * len(wl.ops) + len(mem_ops), failures, metrics, notes=notes)


# ---------------------------------------------------------------- reporting


def commit_id() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "critgroup")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def report(args, wl, outcome: Outcome) -> int:
    print(f"perfbench workload={args.workload} size={args.size} seed={args.seed} "
          f"trace={args.trace} input_digest={wl.digest} src_digest={src_digest()} "
          f"commit={commit_id()} nproc={os.cpu_count()} python={platform.python_version()}")
    for name, (value, unit) in {**outcome.metrics, **outcome.extra}.items():
        print(f"metric {name} {value!r} {unit}")
    print("notes " + " ".join(outcome.notes))
    for line in outcome.failures:
        print(f"FAIL {line}")
    failed = len(outcome.failures)
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'tiny' shrinks every workload for the self-tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    rc = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            cli, wl, _ = setup(args.workload, args.seed, args.size, workdir)
            outcome = run_traced(cli, wl, args.size)
        else:
            wl, *timings = measure(args.workload, args.seed, args.size, workdir, args.seconds)
            outcome = untraced_outcome(*timings)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, wl, outcome)


if __name__ == "__main__":
    sys.exit(main())
