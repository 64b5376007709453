"""The benchmark suites measure; they never re-baseline.

The tier-1 command collects ``benchmarks/test_perf_*.py``, and every one
of those suites records its numbers through :func:`bench_io.update_bench`.
So its default target must not be the committed ``BENCH_engine.json``,
or every test run would rewrite the baseline the CI regression gate
compares against.
"""

import json

from bench_io import BENCH_PATH, update_bench

PROBE_OP = "bench_io_default_target_probe"


def test_default_target_leaves_committed_baseline_alone():
    committed = BENCH_PATH.read_bytes()
    fresh = BENCH_PATH.with_name("BENCH_engine.fresh.json")
    fresh_before = fresh.read_bytes() if fresh.exists() else None
    try:
        update_bench([{"op": PROBE_OP, "wall_seconds": 0.0}])
        assert BENCH_PATH.read_bytes() == committed
        ops = [entry["op"] for entry in json.loads(fresh.read_text())]
        assert PROBE_OP in ops
    finally:
        # Leave both files exactly as found, whatever the outcome.
        BENCH_PATH.write_bytes(committed)
        if fresh_before is None:
            fresh.unlink(missing_ok=True)
        else:
            fresh.write_bytes(fresh_before)
