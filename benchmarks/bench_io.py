"""Shared I/O for the performance-regression harness.

Several benchmark modules contribute entries to one benchmark
document. Each entry is keyed by its ``op`` name; :func:`update_bench`
merges fresh measurements into the file without clobbering entries
owned by other modules, so the suites can run in any order (or
individually) and the CI regression gate sees one consolidated document.

The suites write the gitignored ``BENCH_engine.fresh.json`` at the repo
root, never the committed baseline ``BENCH_engine.json``: running them
(the local tier-1 command collects them) measures, it does not
re-baseline. To refresh the baseline after an intentional change, copy
the fresh file over the committed one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

#: The committed baseline the CI regression gate compares against.
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Where the suites write their measurements (gitignored).
FRESH_PATH = BENCH_PATH.with_name("BENCH_engine.fresh.json")


def update_bench(results: list[dict], path: Path = FRESH_PATH) -> None:
    """Merge ``results`` (keyed by ``op``) into the benchmark JSON at
    ``path`` (default: the fresh file, not the committed baseline)."""
    existing: list[dict] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = []
    merged = {entry["op"]: entry for entry in existing}
    for entry in results:
        merged[entry["op"]] = entry
    path.write_text(json.dumps(list(merged.values()), indent=2) + "\n")


def timed(fn, repeats: int = 1):
    """Best-of-``repeats`` wall time of ``fn()``; returns (value, seconds)."""
    best = np.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def timed_interleaved(fns, repeats: int = 1, setup=None):
    """Best-of-``repeats`` wall time of each of ``fns``, run round-robin.

    Alternating the calls makes every side of a speedup ratio sample the
    same stretch of machine load, so a burst of contention on a shared
    host cannot land on one side only. With ``setup``, every call is
    ``fn(setup())`` and ``setup`` runs outside the timed region. Returns
    one ``(value, seconds)`` per function, in order.
    """
    best = [np.inf] * len(fns)
    values = [None] * len(fns)
    for _ in range(repeats):
        for slot, fn in enumerate(fns):
            args = () if setup is None else (setup(),)
            start = time.perf_counter()
            values[slot] = fn(*args)
            best[slot] = min(best[slot], time.perf_counter() - start)
    return list(zip(values, best))
