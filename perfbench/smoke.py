"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload of ``BENCHMARK.json`` untraced and traced with
``--tiny`` and checks that each run exits 0, passes its output checks,
and prints every metric ``BENCHMARK.json`` names, with its unit.

    python3 perfbench/smoke.py          # from the repository root
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(spec: dict, workload: str, trace: int) -> list[str]:
    """Problems found in one tiny run (empty when it is fine)."""
    command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False
    )
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{label}: exit code {completed.returncode}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: output checks failed")
    if not result.get("attempted", 0) >= 1:
        problems.append(f"{label}: nothing attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} printed as {got}")
    extra = set(metrics) - {metric["name"] for metric in wanted}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += run(spec, workload["name"], trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
