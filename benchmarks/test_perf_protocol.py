"""Performance harness for the vectorized protocol + batched reconstruction.

Times the two operations PR 5 vectorized and merges them into
``BENCH_engine.fresh.json`` next to the engine/channel/stream entries:

* ``protocol_round_sweep`` — framed-ALOHA rounds over a tag population
  with an over-provisioned frame (``Q = 8``, the empty-slot-dominated
  regime a Gen2 reader actually spends its air time in), engine vs the
  per-slot ``InventoryRound.run`` reference in ``tests/oracles``. The
  logs are asserted identical (same successes, clocks, RNG stream).
* ``reconstruct_many_fig11`` — a fig11-shaped batch of words at mixed
  user distances reconstructed through one merged engine block vs the
  per-word loop; trajectories asserted bit-identical.

The asserted floors sit far below the measured speedups so noisy CI
hardware does not flake while a real regression to per-slot / per-word
behaviour is still caught.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import reconstruct_many
from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.rfid.engine import ProtocolEngine
from repro.rfid.epc import Epc96
from repro.rfid.protocol import QAlgorithm, SlotOutcome
from repro.rfid.tag import PassiveTag
from tests.oracles import InventoryRound

from bench_io import timed, timed_interleaved, update_bench

ROUNDS = 200
TAGS = 12
FRAME_Q = 8


def _population():
    return [
        PassiveTag(Epc96.with_serial(serial), np.array([0.4 * serial, 2.0, 1.0]))
        for serial in range(1, TAGS + 1)
    ]


def test_protocol_perf_regression():
    results = []

    # ------------------------------------------------------------------
    # Op 1: inventory rounds in the empty-slot-dominated regime.
    # ------------------------------------------------------------------
    tags = _population()
    power_dict = {tag.epc.serial: 0.0 for tag in tags}
    power_array = np.zeros(len(tags))

    def engine_sweep():
        rng = np.random.default_rng(42)
        q_algo = QAlgorithm(q_float=float(FRAME_Q))
        engine = ProtocolEngine(tags)
        clock = 0.0
        log = []
        for _ in range(ROUNDS):
            successes, clock = engine.run_round(
                power_array, FRAME_Q, rng, clock, q_algo
            )
            log.extend(successes)
        return log, clock, q_algo.q_float, rng.bit_generator.state

    def legacy_sweep():
        rng = np.random.default_rng(42)
        q_algo = QAlgorithm(q_float=float(FRAME_Q))
        clock = 0.0
        log = []
        for _ in range(ROUNDS):
            slots, clock = InventoryRound(FRAME_Q, rng).run(
                tags, power_dict, clock, q_algo
            )
            log.extend(
                slot for slot in slots if slot.outcome is SlotOutcome.SUCCESS
            )
        return log, clock, q_algo.q_float, rng.bit_generator.state

    (engine_log, engine_clock, engine_q, engine_state), engine_s = timed(
        engine_sweep, repeats=3
    )
    (legacy_log, legacy_clock, legacy_q, legacy_state), legacy_s = timed(
        legacy_sweep, repeats=2
    )
    assert engine_clock == legacy_clock
    assert engine_q == legacy_q
    assert engine_state == legacy_state
    assert len(engine_log) == len(legacy_log)
    assert all(
        fast.slot_index == slow.slot_index
        and fast.tag is slow.tag
        and fast.time == slow.time
        for fast, slow in zip(engine_log, legacy_log)
    )
    results.append(
        {
            "op": "protocol_round_sweep",
            "tags": TAGS,
            "q": FRAME_Q,
            "rounds": ROUNDS,
            "singulations": len(engine_log),
            "wall_seconds": engine_s,
            "wall_seconds_legacy": legacy_s,
            "speedup": legacy_s / engine_s,
        }
    )

    # ------------------------------------------------------------------
    # Op 2: fig11-shaped batched reconstruction — one merged engine
    # block vs the per-word loop, mixed user distances (mixed planes).
    # ------------------------------------------------------------------
    words = ["play", "clear", "on", "hi", "we", "act"]
    distances = (2.0, 2.5, 3.0, 3.5, 4.0)
    jobs = [
        WordJob(
            word,
            user=index % 5,
            seed=1100 + index,
            config=ScenarioConfig(distance=distances[index % len(distances)]),
        )
        for index, word in enumerate(words)
    ]
    runs = simulate_words(jobs, run_baseline=False)
    items = [(run.system, run.rfidraw_series) for run in runs]
    # Prime the lazy series/system caches so both timings measure
    # reconstruction only.
    for system, series in items:
        assert len(series[0]) > 0 and system is not None

    # Interleaved best-of-3: the two sides differ by tens of percent, so
    # each must see the same host load for the ratio to mean anything.
    (serial_results, serial_s), (batched_results, batched_s) = (
        timed_interleaved(
            [
                lambda: [
                    system.reconstruct(series) for system, series in items
                ],
                lambda: reconstruct_many(items),
            ],
            repeats=3,
        )
    )
    for expected, got in zip(serial_results, batched_results):
        assert got.chosen_index == expected.chosen_index
        assert np.array_equal(got.trajectory, expected.trajectory)
    results.append(
        {
            "op": "reconstruct_many_fig11",
            "words": len(words),
            "samples": sum(len(series[0]) for _, series in items),
            "wall_seconds": batched_s,
            "wall_seconds_legacy": serial_s,
            "speedup": serial_s / batched_s,
        }
    )

    update_bench(results)

    by_op = {entry["op"]: entry for entry in results}
    assert by_op["protocol_round_sweep"]["speedup"] >= 2.0
    assert by_op["reconstruct_many_fig11"]["speedup"] >= 1.05
