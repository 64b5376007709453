"""CI accuracy/robustness-regression gate.

The accuracy counterpart of ``check_bench_regression.py``: compares a
freshly measured testbed score table (``python -m repro.testbed run
benchmarks/scenarios_ci.toml --output ...``) against the committed
``ACCURACY_baseline.json`` and fails (exit code 1) when robustness
regressed:

- a baseline scenario is missing from the fresh run,
- any fresh scenario **crashed** instead of degrading gracefully
  (``completed: false`` — an unhandled exception inside the cell),
- a scenario that used to recover the tag's trajectory no longer does,
- a scenario whose baseline recognised the whole word
  (``word_correct: true``) misclassifies it now — the lexicon-scale
  cells pin index recall and the batched DTW engine this way,
- a scenario's **median trajectory error** grew beyond the relative
  tolerance plus an absolute slack (the slack absorbs BLAS-level float
  jitter between machines),
- a scenario's **character recognition rate** fell by more than the
  per-scenario tolerance (loose — one borderline character on a short
  word must not flap CI), or the **aggregate** rate across all
  scenarios fell by more than the tighter aggregate tolerance.

New scenarios (present only in the fresh run) are reported and allowed.
It prints a baseline-vs-fresh trajectory table into the workflow log,
like the bench gate does, then the platform each table was measured on
(Python, numpy, machine; "unrecorded" for a table written before the
runner recorded it) and the largest relative change of any median or
p90 error. Trajectory errors differ between platforms in the last
digits, so when the platforms differ or one is unrecorded the gate says
that a claim of bit-identical scores can only be checked against a run
of the parent commit on the same machine. None of this changes a pass
or a failure.

Usage (what ``.github/workflows/ci.yml`` runs)::

    python benchmarks/check_accuracy_regression.py \
        --baseline ACCURACY_baseline.json \
        --fresh ACCURACY_fresh.json

To refresh the committed baseline after an intentional change::

    PYTHONPATH=src python -m repro.testbed run \
        benchmarks/scenarios_ci.toml --output ACCURACY_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_table(path: Path) -> tuple[dict[str, dict], dict | None]:
    """A score table's scenarios by name, and the platform it was
    measured on (``None`` when unrecorded)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    scenarios = {entry["scenario"]: entry for entry in payload["scenarios"]}
    return scenarios, payload.get("platform")


def describe_platform(recorded: dict | None) -> str:
    if not recorded:
        return "unrecorded"
    return (
        f"Python {recorded.get('python', '?')}, "
        f"numpy {recorded.get('numpy', '?')}, "
        f"{recorded.get('machine', '?')}"
    )


def largest_error_change(
    baseline: dict[str, dict], fresh: dict[str, dict]
) -> tuple[float, str] | None:
    """The largest relative change of a median or p90 trajectory error
    over the scenarios both tables scored, with where it happened."""
    largest = None
    for name in sorted(set(baseline) & set(fresh)):
        for key in ("median_error_m", "p90_error_m"):
            before = baseline[name].get(key)
            after = fresh[name].get(key)
            if before is None or after is None or before == 0:
                continue
            change = abs(after / before - 1.0)
            if largest is None or change > largest[0]:
                largest = (change, f"{name} {key}")
    return largest


def report_drift(baseline: dict[str, dict], fresh: dict[str, dict],
                 base_platform: dict | None,
                 fresh_platform: dict | None) -> None:
    """Print both platforms and the largest error change (never fails)."""
    print(f"\nbaseline platform: {describe_platform(base_platform)}")
    print(f"fresh platform:    {describe_platform(fresh_platform)}")
    largest = largest_error_change(baseline, fresh)
    if largest is not None:
        print(
            f"largest relative median/p90 error change: {largest[0]:.3g} "
            f"({largest[1]})"
        )
    if not base_platform or not fresh_platform or base_platform != fresh_platform:
        print(
            "the platforms differ or one is unrecorded: errors may differ "
            "in the last digits, so a claim of bit-identical scores can "
            "only be checked against a parent-commit run on this machine"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed ACCURACY_baseline.json")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly measured score table")
    parser.add_argument("--max-error-regression", type=float, default=0.30,
                        help="allowed fractional median-error increase "
                             "per scenario (default 0.30 = +30%%)")
    parser.add_argument("--error-slack", type=float, default=0.005,
                        help="absolute slack in metres added to the "
                             "error tolerance (default 5 mm)")
    parser.add_argument("--max-accuracy-drop", type=float, default=0.34,
                        help="allowed per-scenario char-recognition drop "
                             "(fraction; default 0.34 — one character "
                             "on a 3-char word)")
    parser.add_argument("--max-aggregate-drop", type=float, default=0.12,
                        help="allowed drop of the char-recognition rate "
                             "aggregated over all scenarios")
    args = parser.parse_args(argv)

    baseline, base_platform = load_table(args.baseline)
    fresh, fresh_platform = load_table(args.fresh)
    failures: list[str] = []

    def err_cell(entry) -> str:
        value = entry.get("median_error_m") if entry else None
        return f"{value * 100:8.2f} cm" if value is not None else "      —    "

    def acc_cell(entry) -> str:
        value = entry.get("char_accuracy") if entry else None
        return f"{value * 100:5.1f} %" if value is not None else "  —    "

    width = max([len(name) for name in baseline] + [len(name) for name in fresh] + [8])
    header = (
        f"{'scenario':{width}s} {'base err':>11s} {'fresh err':>11s} "
        f"{'change':>8s} {'base acc':>8s} {'fresh acc':>9s}  status"
    )
    print(header)
    print("-" * len(header))

    base_correct = base_total = fresh_correct = fresh_total = 0
    for name, committed in sorted(baseline.items()):
        measured = fresh.get(name)
        if measured is None:
            print(f"{name:{width}s} {err_cell(committed):>11s} {'':>11s} "
                  f"{'':>8s} {acc_cell(committed):>8s} {'':>9s}  MISSING")
            failures.append(f"{name}: missing from the fresh run")
            continue

        status = "ok"
        if not measured.get("completed", False):
            status = "CRASHED"
            failures.append(
                f"{name}: crashed instead of degrading gracefully "
                f"({measured.get('error') or 'unknown error'})"
            )
        elif committed.get("recovered") and not measured.get("recovered"):
            status = "LOST TAG"
            failures.append(
                f"{name}: no longer recovers the tag's trajectory"
            )

        base_err = committed.get("median_error_m")
        fresh_err = measured.get("median_error_m")
        change = ""
        if base_err is not None and fresh_err is not None:
            allowed = base_err * (1.0 + args.max_error_regression) + args.error_slack
            change = f"{fresh_err / base_err - 1.0:+8.1%}" if base_err > 0 else "     new"
            if fresh_err > allowed and status == "ok":
                status = "ERR REG"
                failures.append(
                    f"{name}: median error {base_err:.4f} m -> "
                    f"{fresh_err:.4f} m (allowed {allowed:.4f} m)"
                )

        if (
            committed.get("word_correct") is True
            and measured.get("word_correct") is False
            and status == "ok"
        ):
            status = "WORD REG"
            failures.append(
                f"{name}: word recognition regressed — "
                f"{committed.get('word')!r} no longer recognised"
            )

        base_acc = committed.get("char_accuracy")
        fresh_acc = measured.get("char_accuracy")
        if base_acc is not None and fresh_acc is not None:
            if fresh_acc < base_acc - args.max_accuracy_drop and status == "ok":
                status = "ACC REG"
                failures.append(
                    f"{name}: char accuracy {base_acc:.0%} -> {fresh_acc:.0%} "
                    f"(allowed drop {args.max_accuracy_drop:.0%})"
                )
        if base_acc is not None:
            base_total += committed.get("chars_total", 0)
            base_correct += round(base_acc * committed.get("chars_total", 0))
        if fresh_acc is not None:
            fresh_total += measured.get("chars_total", 0)
            fresh_correct += round(fresh_acc * measured.get("chars_total", 0))

        print(
            f"{name:{width}s} {err_cell(committed):>11s} "
            f"{err_cell(measured):>11s} {change:>8s} "
            f"{acc_cell(committed):>8s} {acc_cell(measured):>9s}  {status}"
        )

    for name in sorted(set(fresh) - set(baseline)):
        measured = fresh[name]
        note = "new scenario" if measured.get("completed") else "new (CRASHED)"
        if not measured.get("completed", False):
            failures.append(
                f"{name}: new scenario crashed "
                f"({measured.get('error') or 'unknown error'})"
            )
        print(
            f"{name:{width}s} {'(new)':>11s} {err_cell(measured):>11s} "
            f"{'':>8s} {'':>8s} {acc_cell(measured):>9s}  {note}"
        )

    if base_total and fresh_total:
        base_rate = base_correct / base_total
        fresh_rate = fresh_correct / fresh_total
        print(
            f"\naggregate char recognition: {base_rate:.1%} (baseline, "
            f"{base_total} chars) vs {fresh_rate:.1%} (fresh, "
            f"{fresh_total} chars)"
        )
        if fresh_rate < base_rate - args.max_aggregate_drop:
            failures.append(
                f"aggregate char accuracy {base_rate:.1%} -> {fresh_rate:.1%} "
                f"(allowed drop {args.max_aggregate_drop:.0%})"
            )

    report_drift(baseline, fresh, base_platform, fresh_platform)

    if failures:
        print("\nAccuracy/robustness gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf the change is intentional, refresh the baseline:\n"
            "  PYTHONPATH=src python -m repro.testbed run "
            "benchmarks/scenarios_ci.toml --output ACCURACY_baseline.json",
            file=sys.stderr,
        )
        return 1
    print("\nAccuracy/robustness gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
