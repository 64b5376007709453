"""CI benchmark-regression gate.

Compares a freshly measured ``BENCH_engine.fresh.json`` against the
committed ``BENCH_engine.json`` baseline and fails (exit code 1) when any op's ``wall_seconds`` regressed
by more than the allowed fraction. Ops present in the baseline but
missing from the fresh run also fail — a silently dropped benchmark is a
regression of the harness itself. New ops (present only in the fresh
run) are reported and allowed.

Usage (what ``.github/workflows/ci.yml`` runs)::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_engine.json \
        --fresh BENCH_engine.fresh.json \
        --max-regression 0.30 \
        --normalize-machine

``--normalize-machine`` divides every fresh wall-time by the median
fresh/baseline ratio across ops before comparing. A CI runner that is
uniformly 3× slower than the laptop that committed the baseline then
compares clean, while any *single* op that regressed relative to the
others still trips the gate (the median is robust as long as fewer than
half the ops regress at once). Omit the flag when baseline and fresh
numbers come from the same machine.

The benchmark suites write ``BENCH_engine.fresh.json`` (gitignored) and
never touch the committed baseline. To refresh the baseline after an
intentional change (or a hardware change), run the suites locally, then
copy the fresh file over the committed one and commit it::

    rm -f BENCH_engine.fresh.json
    PYTHONPATH=src python -m pytest benchmarks/test_perf_*.py -q
    cp BENCH_engine.fresh.json BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_ops(path: Path) -> dict[str, dict]:
    entries = json.loads(path.read_text())
    return {entry["op"]: entry for entry in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed baseline (BENCH_engine.json)")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="fresh measurements "
                             "(BENCH_engine.fresh.json)")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional wall-seconds increase "
                             "per op (default 0.30 = +30%%)")
    parser.add_argument("--normalize-machine", action="store_true",
                        help="divide fresh wall-times by the median "
                             "fresh/baseline ratio, cancelling a "
                             "uniformly faster/slower runner")
    args = parser.parse_args(argv)

    baseline = load_ops(args.baseline)
    fresh = load_ops(args.fresh)
    failures = []

    machine_factor = 1.0
    if args.normalize_machine:
        ratios = sorted(
            float(fresh[op]["wall_seconds"]) / float(entry["wall_seconds"])
            for op, entry in baseline.items()
            if op in fresh and float(entry["wall_seconds"]) > 0
        )
        if ratios:
            middle = len(ratios) // 2
            machine_factor = (
                ratios[middle]
                if len(ratios) % 2
                else (ratios[middle - 1] + ratios[middle]) / 2.0
            )
            print(f"machine normalization factor: {machine_factor:.3f}\n")

    # Baseline-vs-fresh trajectory table: one row per op with the
    # committed wall time, the (normalized) fresh wall time, the change,
    # and — where the op measures itself against a legacy/reference
    # implementation — how the speedup-vs-legacy trajectory moved. This
    # is what makes per-PR perf history readable straight from the
    # workflow log.
    def speedup_cell(committed, measured) -> str:
        def fmt(value) -> str:
            return f"{float(value):.1f}x" if value else "?"

        before = committed.get("speedup") if committed else None
        after = measured.get("speedup") if measured else None
        if before is None and after is None:
            return "-"
        return f"{fmt(before)} -> {fmt(after)}"

    header = (
        f"{'op':32s} {'baseline':>11s} {'fresh':>11s} {'change':>8s} "
        f"{'speedup vs legacy':>19s}  status"
    )
    print(header)
    print("-" * len(header))
    for op, committed in sorted(baseline.items()):
        measured = fresh.get(op)
        if measured is None:
            print(f"{op:32s} {'':>11s} {'':>11s} {'':>8s} {'':>19s}  MISSING")
            failures.append(f"{op}: missing from the fresh run")
            continue
        before = float(committed["wall_seconds"])
        after = float(measured["wall_seconds"]) / machine_factor
        change = after / before - 1.0
        status = "REGRESSION" if change > args.max_regression else "ok"
        print(
            f"{op:32s} {before * 1e3:9.2f} ms {after * 1e3:8.2f} ms "
            f"{change:+8.1%} {speedup_cell(committed, measured):>19s}  {status}"
        )
        if change > args.max_regression:
            failures.append(
                f"{op}: {before:.4f}s -> {after:.4f}s "
                f"({change:+.1%} > +{args.max_regression:.0%})"
            )

    for op in sorted(set(fresh) - set(baseline)):
        measured = fresh[op]
        after = float(measured["wall_seconds"]) / machine_factor
        print(
            f"{op:32s} {'(new)':>11s} {after * 1e3:8.2f} ms {'':>8s} "
            f"{speedup_cell(None, measured):>19s}  new op"
        )

    if failures:
        print("\nBenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf the slowdown is intentional (or the runner hardware "
            "changed), refresh the baseline: re-run the benchmark suites, "
            "then copy the fresh file over the committed one.",
            file=sys.stderr,
        )
        return 1
    print("\nBenchmark regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
