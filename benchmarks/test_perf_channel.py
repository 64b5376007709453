"""Performance regression harness for the vectorized channel engine.

Times the two operations PR 2 vectorized — multipath channel synthesis
across a full deployment, and an end-to-end ``simulate_word`` (whose
measurement path is dominated by channel synthesis) — against the loop
reference (``BackscatterChannel`` per-path loops driven one report at a
time by ``tests.oracles.inventory_reference``), and merges
machine-readable results into ``BENCH_engine.fresh.json`` alongside the
voting/tracing entries.

The asserted floors are deliberately far below the measured speedups
(≈7× dwell-shaped synthesis, ≈5× simulate_word on the dev box) so noisy
CI hardware does not flake while a real regression to per-path /
per-report behaviour is still caught.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.experiments.scenarios import (
    ScenarioConfig,
    office_lounge_environment,
    simulate_word,
)
from repro.rf.channel import BackscatterChannel
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rf.engine import ChannelBank
from repro.rfid.reader import Reader
from tests.oracles import inventory_reference

from bench_io import timed, update_bench


def test_channel_perf_regression():
    results = []

    # ------------------------------------------------------------------
    # Op 1: multipath phase+RSSI synthesis in the reader's shape — many
    # dwell-sized batches against one antenna at a time. This is where
    # the per-call path loops of the reference dominated (on huge single
    # batches both paths are exp-bound and roughly tie).
    # ------------------------------------------------------------------
    channel = BackscatterChannel(office_lounge_environment(), DEFAULT_WAVELENGTH)
    rng = np.random.default_rng(21)
    antennas = rng.uniform([-1.5, -0.1, 0.3], [1.5, 0.1, 2.8], size=(8, 3))
    dwells = 400
    batches = [
        rng.uniform([-2.0, 1.0, 0.0], [3.0, 5.0, 2.5], size=(16, 3))
        for _ in range(dwells)
    ]
    bank = ChannelBank(channel, antennas)

    def engine_dwells():
        return [
            bank.measure(batch, antenna_index=index % len(antennas))
            for index, batch in enumerate(batches)
        ]

    def legacy_dwells():
        out = []
        for index, batch in enumerate(batches):
            antenna = antennas[index % len(antennas)]
            out.append(
                (channel.phase_at(antenna, batch),
                 channel.rssi_dbm(antenna, batch))
            )
        return out

    engine_obs, engine_s = timed(engine_dwells, repeats=3)
    legacy_obs, legacy_s = timed(legacy_dwells, repeats=2)
    for (phase_a, rssi_a), (phase_b, rssi_b) in zip(engine_obs, legacy_obs):
        assert np.abs(phase_a - phase_b).max() < 1e-9
        assert np.abs(rssi_a - rssi_b).max() < 1e-9
    results.append(
        {
            "op": "channel_synthesis_dwells",
            "antennas": int(antennas.shape[0]),
            "dwells": dwells,
            "tags_per_dwell": 16,
            "paths": bank.path_count,
            "wall_seconds": engine_s,
            "wall_seconds_legacy": legacy_s,
            "speedup": legacy_s / engine_s,
        }
    )

    # ------------------------------------------------------------------
    # Op 2: end-to-end simulate_word on the multipath (NLOS) config —
    # the workload the vectorized reader measurement path accelerates.
    # ------------------------------------------------------------------
    config = ScenarioConfig(distance=2.0, los=False)

    def fresh_run():
        return simulate_word(
            "clear", user=0, seed=7, config=config, run_baseline=False
        )

    run_fast, engine_s = timed(fresh_run)
    with mock.patch.object(Reader, "inventory", inventory_reference):
        run_slow, legacy_s = timed(fresh_run)

    fast_reports = run_fast.rfidraw_log.reports
    slow_reports = run_slow.rfidraw_log.reports
    assert len(fast_reports) == len(slow_reports)
    assert all(
        a.time == b.time
        and a.antenna_id == b.antenna_id
        and abs(a.phase - b.phase) < 1e-9
        for a, b in zip(fast_reports, slow_reports)
    )
    results.append(
        {
            "op": "simulate_word_multipath",
            "word": "clear",
            "reports": len(fast_reports),
            "wall_seconds": engine_s,
            "wall_seconds_legacy": legacy_s,
            "speedup": legacy_s / engine_s,
        }
    )

    update_bench(results)

    by_op = {entry["op"]: entry for entry in results}
    assert by_op["channel_synthesis_dwells"]["speedup"] >= 2.0
    assert by_op["simulate_word_multipath"]["speedup"] >= 1.3
