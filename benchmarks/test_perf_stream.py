"""Performance harness for the streaming session API.

Measures the costs a live deployment cares about and merges them into
``BENCH_engine.fresh.json`` (same file, same regression gate as the
engine/channel ops):

* ``stream_ingest_per_report`` — amortized wall time to fold one phase
  report into a :class:`TrackingSession` (incremental unwrap +
  interpolation + the tracer steps the report unlocks). This is the
  bound on sustainable reader throughput.
* ``stream_ingest_pruned`` — the same amortized cost with incremental
  candidate pruning enabled and converged: hopeless candidates dropped
  from the batched Gauss–Newton block, so the steady state advances
  one-to-two candidates instead of the full default set. The chosen
  trajectory is asserted bit-identical to batch.
* ``stream_word_end_to_end`` — a whole word streamed report-by-report
  and finalized, next to the batch facade on the same log. Streaming
  re-does the identical math plus per-report bookkeeping, so its
  overhead over batch is asserted to stay small.
* ``stream_eviction_sweep`` — a 24-tag staggered stream through a
  :class:`SessionManager` with an idle-timeout eviction policy: the
  cost of routing + sweeping, with open-session state asserted bounded.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.rfid.sampling import build_pair_series
from repro.stream import SessionConfig

from bench_io import timed as _timed
from bench_io import timed_interleaved as _timed_interleaved
from bench_io import update_bench

#: Pruning knobs for the steady-state op: on the fig10 "clear" word the
#: 4-vote margin with an 80-step burn-in drops every wrong-lobe
#: candidate for good (no resumes at finalize) and leaves one survivor.
PRUNE_MARGIN = 4.0
PRUNE_BURN_IN = 80


def _steady_ingest(system, log, sample_rate, warm_fraction, **session_kwargs):
    """Amortized per-report seconds over the post-warm-up tail."""
    session = system.open_session(
        config=SessionConfig(sample_rate=sample_rate, **session_kwargs)
    )
    warm = int(len(log.reports) * warm_fraction)
    for report in log.reports[:warm]:
        session.ingest(report)
    assert session.is_tracking, "warm-up should complete within the prefix"
    steady = log.reports[warm:]

    def ingest_steady():
        for report in steady:
            session.ingest(report)

    _, seconds = _timed(ingest_steady)
    result = session.finalize()
    return seconds / len(steady), len(steady), session, result


def test_stream_perf_regression():
    run = simulate_word(
        "clear",
        user=0,
        seed=7,
        config=ScenarioConfig(distance=2.0, los=True),
        run_baseline=False,
    )
    log = run.rfidraw_log
    system = run.system
    series = build_pair_series(
        log, run.rfidraw_deployment, sample_rate=run.config.sample_rate
    )

    # ------------------------------------------------------------------
    # Batch reference (the facade on prebuilt series) against streaming
    # (construct session, ingest every report, finalize), interleaved
    # best-of-3 so both sides of the overhead ratio see the same load.
    # ------------------------------------------------------------------
    def stream_word():
        session = system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate)
        )
        for report in log.reports:
            session.ingest(report)
        return session.finalize()

    (batch_result, batch_s), (stream_result, stream_s) = _timed_interleaved(
        [lambda: system.reconstruct(series), stream_word], repeats=3
    )

    # The whole point of the redesign: streaming must answer exactly
    # like batch (the facade routes through the session).
    assert stream_result.chosen_index == batch_result.chosen_index
    assert (
        np.abs(stream_result.trajectory - batch_result.trajectory).max()
        <= 1e-9
    )

    # ------------------------------------------------------------------
    # Amortized ingest cost, positioner warm-up and finalize excluded:
    # the steady-state per-report latency a reader loop experiences.
    # The pruned run warms past the prune transient (half the log), then
    # measures the tail, where the batched solve has shrunk to the
    # surviving candidate(s). Fresh sessions alternate between the two,
    # best-of-5 each, to tame scheduler noise on both sides alike.
    # ------------------------------------------------------------------
    unpruned_runs, pruned_runs = [], []
    for _ in range(5):
        unpruned_runs.append(
            _steady_ingest(system, log, run.config.sample_rate, 0.25)
        )
        pruned_runs.append(
            _steady_ingest(
                system,
                log,
                run.config.sample_rate,
                0.5,
                prune_margin=PRUNE_MARGIN,
                prune_burn_in=PRUNE_BURN_IN,
            )
        )
    per_report, steady_count, session, _ = min(
        unpruned_runs, key=lambda measured: measured[0]
    )
    per_report_us = 1e6 * per_report
    pruned_per_report, pruned_count, pruned_session, pruned_result = min(
        pruned_runs, key=lambda measured: measured[0]
    )
    pruned_us = 1e6 * pruned_per_report
    state = pruned_session._trace_state
    assert state.pruned_at, "the margin should drop wrong-lobe candidates"
    # Pruning may never change the answer: bit-identical winner.
    assert np.array_equal(pruned_result.trajectory, batch_result.trajectory)
    assert np.array_equal(pruned_result.times, batch_result.times)

    results = [
        {
            "op": "stream_ingest_per_report",
            "reports": steady_count,
            "points": session.point_count,
            "wall_seconds": per_report * steady_count,
            "per_report_microseconds": per_report_us,
        },
        {
            "op": "stream_ingest_pruned",
            "reports": pruned_count,
            "points": pruned_session.point_count,
            "candidates": len(pruned_session.candidates),
            "survivors": int(state.active.size),
            "prune_margin": PRUNE_MARGIN,
            "prune_burn_in": PRUNE_BURN_IN,
            "wall_seconds": pruned_per_report * pruned_count,
            "per_report_microseconds": pruned_us,
            "speedup_vs_unpruned": per_report_us / pruned_us,
        },
        {
            "op": "stream_word_end_to_end",
            "word": "clear",
            "reports": len(log.reports),
            "samples": int(stream_result.times.size),
            "wall_seconds": stream_s,
            "wall_seconds_batch": batch_s,
            "overhead_vs_batch": stream_s / batch_s,
        },
    ]
    update_bench(results)

    # Conservative floors/ceilings (CI-noise tolerant): per-report cost
    # stays well under a millisecond — an M6e-class reader peaks at a
    # few hundred reads/s, so this leaves >10× headroom — and streaming
    # a word costs at most a small multiple of the batch facade. The
    # pruned steady state must stay measurably cheaper than the
    # unpruned one (locally ~1.5–1.7×; 1.25 absorbs runner noise).
    assert per_report_us < 1000.0
    assert stream_s / batch_s < 3.0
    assert pruned_us * 1.25 < per_report_us


def test_stream_eviction_sweep():
    """Idle-timeout eviction keeps a staggered multi-tag stream bounded.

    Synthesizes 24 tags that come and go (0.6 s of reads each, staggered
    0.15 s apart, geometric phases — tracking quality is irrelevant
    here), routes the merged stream through a ``SessionManager`` with an
    idle timeout, and measures the full routing + sweeping + eviction
    cost. Open-session state must stay bounded by the stagger pattern,
    never reaching the total tag count.
    """
    from repro.core.pipeline import RFIDrawSystem
    from repro.geometry.layouts import rfidraw_layout
    from repro.geometry.plane import writing_plane
    from repro.rf.constants import DEFAULT_WAVELENGTH
    from repro.rfid.reader import PhaseReport
    from repro.stream import SessionManager

    wavelength = DEFAULT_WAVELENGTH
    deployment = rfidraw_layout(wavelength)
    plane = writing_plane(2.0)
    system = RFIDrawSystem(deployment, plane, wavelength)

    tags = 24
    stagger, active_span, read_every = 0.15, 0.6, 0.02
    rng = np.random.default_rng(42)
    reports = []
    for tag in range(tags):
        epc = f"{tag:024X}"
        uv = np.array([0.6 + 1.4 * rng.random(), 0.8 + 0.8 * rng.random()])
        start = stagger * tag
        for antenna in deployment.antennas:
            world = plane.to_world(uv)
            distance = float(np.linalg.norm(world - antenna.position))
            phase = (4.0 * np.pi * distance / wavelength) % (2.0 * np.pi)
            for k in range(int(active_span / read_every)):
                reports.append(
                    PhaseReport(
                        start + k * read_every + 1e-4 * antenna.antenna_id,
                        epc,
                        antenna.reader_id,
                        antenna.antenna_id,
                        phase,
                        -55.0,
                    )
                )
    reports.sort(key=lambda report: report.time)

    manager = SessionManager(
        system,
        config=SessionConfig(
            idle_timeout=0.25, candidate_count=2, sample_rate=20.0
        ),
    )
    peak_open = 0

    def sweep():
        nonlocal peak_open
        for report in reports:
            manager.ingest(report)
            peak_open = max(peak_open, len(manager.open_epcs()))

    _, sweep_s = _timed(sweep)
    manager.finalize_all()

    # Every tag that went silent long enough was closed out mid-stream,
    # and the concurrently open state stayed bounded by the stagger.
    assert len(manager.evicted_epcs) >= tags - 4
    assert peak_open < tags // 2
    assert not manager.failures

    update_bench(
        [
            {
                "op": "stream_eviction_sweep",
                "tags": tags,
                "reports": len(reports),
                "evictions": len(manager.evicted_epcs),
                "peak_open_sessions": peak_open,
                "wall_seconds": sweep_s,
            }
        ]
    )

    # Routing + sweeping must stay cheap relative to the tracking math.
    assert 1e6 * sweep_s / len(reports) < 1000.0
