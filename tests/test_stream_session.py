"""Streaming ↔ batch equivalence and TrackingSession lifecycle tests.

The load-bearing property: feeding a simulated word's reports one at a
time through a :class:`TrackingSession` reproduces the batch
``RFIDrawSystem.reconstruct`` on the same log to ≤ 1e-9 (in practice
bit-for-bit, since batch is a facade over the streaming core) — across
seeds, LOS/NLOS environments and the one-way WiFi configuration.
"""

import numpy as np
import pytest

from repro.core.pipeline import RFIDrawSystem
from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.motion.gestures import circle
from repro.rfid.reader import PhaseReport
from repro.rfid.sampling import build_pair_series
from repro.stream import (
    SessionConfig,
    SessionState,
    StreamResampler,
    TrackingSession,
)
from repro.stream.session import step_sessions
from repro.wifi.system import WifiTracker

from tests.helpers import ideal_pair_series

TOLERANCE = 1e-9


def _assert_results_equivalent(batch, stream):
    assert stream.chosen_index == batch.chosen_index
    assert np.abs(stream.times - batch.times).max() <= TOLERANCE
    assert np.abs(stream.trajectory - batch.trajectory).max() <= TOLERANCE
    assert np.abs(stream.votes - batch.votes).max() <= TOLERANCE
    assert len(stream.candidates) == len(batch.candidates)
    for ours, theirs in zip(stream.candidates, batch.candidates):
        assert np.abs(ours.position - theirs.position).max() <= TOLERANCE
    for ours, theirs in zip(stream.traces, batch.traces):
        assert np.abs(ours.positions - theirs.positions).max() <= TOLERANCE
        assert ours.locks == theirs.locks
        assert np.abs(ours.votes - theirs.votes).max() <= TOLERANCE


class TestStreamingMatchesBatch:
    @pytest.mark.parametrize(
        "word,seed,los",
        [
            ("on", 3, True),
            ("he", 11, True),
            ("on", 5, False),
        ],
    )
    def test_rfid_word_equivalence(self, word, seed, los):
        """Report-by-report streaming == batch, LOS and NLOS, per seed."""
        run = simulate_word(
            word,
            user=seed % 5,
            seed=seed,
            config=ScenarioConfig(distance=2.0, los=los),
            run_baseline=False,
        )
        batch = run.system.reconstruct(run.rfidraw_series)
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        emitted = []
        for report in run.rfidraw_log.reports:
            emitted.extend(session.ingest(report))
        result = session.finalize()
        _assert_results_equivalent(batch, result)
        # Most points stream out live; only the timeline tail waits for
        # finalize.
        assert len(emitted) >= len(result.times) - 3
        assert session.state is SessionState.FINALIZED

    def test_wifi_one_way_equivalence(self):
        """The round_trip=1 WiFi configuration streams == batch too."""
        tracker = WifiTracker()
        times, points = circle(center=(0.22, 0.22), radius=0.05, speed=0.15)
        log = tracker.observe_log(points, times, np.random.default_rng(9))
        series = build_pair_series(log, tracker.deployment, sample_rate=20.0)
        batch = tracker.reconstruct(series)
        stream = tracker.reconstruct_log(
            log, config=SessionConfig(sample_rate=20.0)
        )
        _assert_results_equivalent(batch, stream)

    def test_facade_routes_through_session(
        self, deployment, plane, wavelength, rng
    ):
        """reconstruct(series) == an explicit session fed the series
        through the one stepper."""
        t = np.linspace(0, 2 * np.pi, 70)
        uv = np.stack(
            [1.25 + 0.07 * np.cos(2 * t), 1.15 + 0.06 * np.sin(3 * t)], axis=1
        )
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.05, size=entry.delta_phi.shape
            )
        system = RFIDrawSystem(deployment, plane, wavelength)
        batch = system.reconstruct(series)
        session = system.open_session()
        step_sessions([(session, session._prepare_series(series))])
        _assert_results_equivalent(batch, session.finalize())

    def test_reconstruct_log_equivalence(self):
        """reconstruct_log streams a raw log to the batch answer."""
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        batch = run.system.reconstruct(run.rfidraw_series)
        stream = run.system.reconstruct_log(
            run.rfidraw_log,
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        _assert_results_equivalent(batch, stream)


class TestStreamResampler:
    @pytest.fixture(scope="class")
    def run(self):
        return simulate_word(
            "he",
            seed=7,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )

    def test_matches_build_pair_series(self, run):
        """Incremental unwrap+interp == the batch series builder."""
        series = build_pair_series(
            run.rfidraw_log,
            run.rfidraw_deployment,
            sample_rate=run.config.sample_rate,
        )
        resampler = StreamResampler(
            [entry.pair for entry in series],
            sample_rate=run.config.sample_rate,
        )
        samples = []
        for report in run.rfidraw_log.reports:
            samples.extend(resampler.ingest(report))
        samples.extend(resampler.drain())
        assert len(samples) == len(series[0])
        times = np.array([sample.time for sample in samples])
        assert np.abs(times - series[0].times).max() <= TOLERANCE
        delta = np.stack([sample.delta_phi for sample in samples], axis=1)
        batch_delta = np.stack([entry.delta_phi for entry in series])
        assert np.abs(delta - batch_delta).max() <= TOLERANCE

    def test_emission_is_prompt(self, run):
        """Instants stream out while reports arrive, not only at drain."""
        series = build_pair_series(
            run.rfidraw_log, run.rfidraw_deployment,
            sample_rate=run.config.sample_rate,
        )
        resampler = StreamResampler(
            [entry.pair for entry in series],
            sample_rate=run.config.sample_rate,
        )
        streamed = sum(
            len(resampler.ingest(report))
            for report in run.rfidraw_log.reports
        )
        drained = len(resampler.drain())
        assert streamed >= len(series[0]) - 3
        assert streamed + drained == len(series[0])

    def test_out_of_order_policies(self, run):
        pairs = run.rfidraw_deployment.pairs()
        reports = run.rfidraw_log.reports
        late = next(r for r in reports[40:] if r.antenna_id == reports[0].antenna_id)
        stale = PhaseReport(
            time=late.time - 1.0,
            epc_hex=late.epc_hex,
            reader_id=late.reader_id,
            antenna_id=late.antenna_id,
            phase=late.phase,
            rssi_dbm=late.rssi_dbm,
        )
        strict = StreamResampler(pairs)
        for report in reports[:60]:
            strict.ingest(report)
        with pytest.raises(ValueError, match="out-of-order"):
            strict.ingest(stale)
        lenient = StreamResampler(pairs, out_of_order="drop")
        for report in reports[:60]:
            lenient.ingest(report)
        assert lenient.ingest(stale) == []
        assert lenient.dropped_reports == 1

    def test_ignores_unknown_antennas(self, run):
        pairs = run.rfidraw_deployment.pairs(reader_id=1)
        resampler = StreamResampler(pairs)
        foreign = PhaseReport(0.01, "AB" * 12, 9, 99, 1.0, -50.0)
        assert resampler.ingest(foreign) == []


class TestSessionLifecycle:
    def test_epc_pinning(self, deployment, plane, wavelength):
        system = RFIDrawSystem(deployment, plane, wavelength)
        session = TrackingSession(system)
        session.ingest(PhaseReport(0.01, "AA" * 12, 1, 1, 1.0, -50.0))
        assert session.epc_hex == "AA" * 12
        with pytest.raises(ValueError, match="SessionManager"):
            session.ingest(PhaseReport(0.02, "BB" * 12, 1, 1, 1.0, -50.0))

    def test_explicit_epc_filters_foreign_reports(
        self, deployment, plane, wavelength
    ):
        """A session pinned at construction skips other tags, like the
        batch builder's per-EPC filter."""
        system = RFIDrawSystem(deployment, plane, wavelength)
        session = TrackingSession(system, epc_hex="AA" * 12)
        assert session.ingest(
            PhaseReport(0.01, "BB" * 12, 1, 1, 1.0, -50.0)
        ) == []
        assert session.skipped_foreign_reports == 1
        assert session.report_count == 0
        session.ingest(PhaseReport(0.02, "AA" * 12, 1, 1, 1.0, -50.0))
        assert session.report_count == 1

    def test_finalize_twice_is_idempotent(self):
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        session.extend(run.rfidraw_log.reports)
        first = session.finalize()
        assert session.finalize() is first
        with pytest.raises(ValueError, match="finalized"):
            session.ingest(run.rfidraw_log.reports[0])

    def test_empty_session_finalize_rejected(
        self, deployment, plane, wavelength
    ):
        system = RFIDrawSystem(deployment, plane, wavelength)
        with pytest.raises(ValueError, match="empty"):
            system.open_session().finalize()

    def test_dead_antenna_falls_back_to_batch(self):
        """A stream whose warm-up never fills still answers like batch."""
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        # Kill one wide-reader antenna: streaming warm-up cannot
        # complete, batch drops that antenna's pairs and proceeds.
        dead = 1
        kept = [
            r for r in run.rfidraw_log.reports if r.antenna_id != dead
        ]
        from repro.rfid.sampling import MeasurementLog

        log = MeasurementLog(kept)
        batch_series = build_pair_series(
            log, run.rfidraw_deployment, sample_rate=run.config.sample_rate
        )
        batch = run.system.reconstruct(batch_series)
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        emitted = session.extend(kept)
        assert emitted == []  # warm-up never completed
        result = session.finalize()
        _assert_results_equivalent(batch, result)

    def test_points_carry_best_candidate(self):
        run = simulate_word(
            "on",
            seed=3,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        points = session.extend(run.rfidraw_log.reports)
        result = session.finalize()
        assert points, "healthy stream should emit live points"
        for point in points:
            assert point.position.shape == (2,)
            assert 0 <= point.candidate_index < len(result.candidates)
        # Once the vote race settles, the live points coincide with the
        # finally chosen trajectory.
        tail = [p for p in points if p.candidate_index == result.chosen_index]
        for point in tail[-5:]:
            assert (
                np.abs(
                    point.position - result.trajectory[point.index]
                ).max()
                <= TOLERANCE
            )


class TestCandidatePruningSession:
    """prune_margin sessions must pick the bit-identical batch winner."""

    @pytest.mark.parametrize(
        "word,seed,los,margin,burn_in",
        [
            ("on", 3, True, 4.0, 16),
            ("he", 11, True, 1.0, 8),
            ("on", 5, False, 8.0, 24),
        ],
    )
    def test_pruned_winner_is_batch_winner(self, word, seed, los, margin, burn_in):
        run = simulate_word(
            word,
            user=seed % 5,
            seed=seed,
            config=ScenarioConfig(distance=2.0, los=los),
            run_baseline=False,
        )
        batch = run.system.reconstruct(run.rfidraw_series)
        session = run.system.open_session(
            config=SessionConfig(
                sample_rate=run.config.sample_rate,
                prune_margin=margin,
                prune_burn_in=burn_in,
            ),
        )
        session.extend(run.rfidraw_log.reports)
        result = session.finalize()
        assert np.array_equal(result.trajectory, batch.trajectory)
        assert np.array_equal(result.votes, batch.votes)
        assert np.array_equal(result.times, batch.times)
        # The result pairs each surviving candidate with its trace; all
        # of them are rows of the batch answer.
        assert len(result.candidates) == len(result.traces) <= len(batch.traces)
        indices = session._trace_state.result_indices
        if len(result.candidates) < len(batch.candidates):
            # Subset results publish the original warm-up index of each
            # row, keeping live points' candidate_index resolvable.
            assert result.candidate_indices == indices
        else:
            assert result.candidate_indices is None
        for candidate, trace, index in zip(
            result.candidates, result.traces, indices
        ):
            assert np.array_equal(
                candidate.position, batch.candidates[index].position
            )
            assert np.array_equal(trace.positions, batch.traces[index].positions)

    def test_pruned_wifi_one_way(self):
        """round_trip=1 (WiFi band) prunes to the same winner too."""
        tracker = WifiTracker()
        times, points = circle(center=(0.22, 0.22), radius=0.05, speed=0.15)
        log = tracker.observe_log(points, times, np.random.default_rng(9))
        batch = tracker.reconstruct_log(
            log, config=SessionConfig(sample_rate=20.0)
        )
        pruned = tracker.reconstruct_log(
            log,
            config=SessionConfig(
                sample_rate=20.0, prune_margin=2.0, prune_burn_in=8
            ),
        )
        assert np.array_equal(pruned.trajectory, batch.trajectory)
        assert np.array_equal(pruned.times, batch.times)

    def test_live_points_follow_active_best(self):
        """Emitted points always come from a candidate that stepped."""
        run = simulate_word(
            "on",
            seed=3,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        session = run.system.open_session(
            config=SessionConfig(
                sample_rate=run.config.sample_rate,
                prune_margin=2.0,
                prune_burn_in=8,
            ),
        )
        points = session.extend(run.rfidraw_log.reports)
        result = session.finalize()
        state = session._trace_state
        assert state.pruned_at, "expected pruning on a 2-vote margin"
        for point in points:
            dropped_by_then = {
                index
                for index, when in state.pruned_at.items()
                if when <= point.index
            }
            assert point.candidate_index not in dropped_by_then
        # session.candidates keeps the full warm-up list; the result
        # subsets it to the survivors.
        assert len(session.candidates) >= len(result.candidates)


def _corrupt_phase(report):
    """A copy of ``report`` with a NaN phase, as a flaky reader driver
    (or the testbed's NonFiniteInjector) hands the ingest loop —
    ``PhaseReport`` accepts non-finite phases as data, leaving the
    drop-or-raise decision to the stream policy downstream."""
    import dataclasses

    return dataclasses.replace(report, phase=float("nan"))


class TestStreamFailureModes:
    """The satellite bugfixes: dirty streams must answer like batch."""

    def _dead_window_reports(self, run):
        """Reports whose *stream* windows are disjoint under "drop" even
        though the time-sorted batch view overlaps fine: one antenna's
        late reads arrive first, so its own early reads (delivered
        afterwards in a stale burst) are dropped by the stream — its
        incremental window starts where every other antenna's ends."""
        reports = sorted(run.rfidraw_log.reports, key=lambda r: r.time)
        special = reports[0].antenna_id
        cut = reports[len(reports) // 2].time
        late_special = [
            r for r in reports if r.antenna_id == special and r.time >= cut
        ]
        early_burst = [r for r in reports if r.time < cut]
        # Stream ingest order: the special antenna's late window first,
        # then the early burst (stale for the special antenna — dropped
        # from its stream but retained for the batch fallback; fresh for
        # everyone else).
        return late_special + early_burst

    def test_non_overlapping_drain_falls_back_to_batch(self):
        """finalize() must not let drain's no-overlap ValueError escape:
        the batch builder handles the retained reports, so the session
        answers like batch instead of crashing."""
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        stream_order = self._dead_window_reports(run)
        session = run.system.open_session(
            config=SessionConfig(
                sample_rate=run.config.sample_rate,
                out_of_order="drop",
            ),
        )
        emitted = session.extend(stream_order)
        assert emitted == [], "disjoint windows must not emit live points"
        assert session.resampler.started, "this shape starts, then strands"
        result = session.finalize()  # must not raise
        assert session.state is SessionState.FINALIZED

        from repro.rfid.sampling import MeasurementLog

        batch_series = build_pair_series(
            MeasurementLog(list(stream_order)),
            run.rfidraw_deployment,
            sample_rate=run.config.sample_rate,
        )
        batch = run.system.reconstruct(batch_series)
        assert np.array_equal(result.trajectory, batch.trajectory)
        assert np.array_equal(result.times, batch.times)

    def test_nan_phase_dropped_under_drop_policy(self):
        """One NaN report must not kill a drop-policy session — it is
        counted, skipped, and excluded from the fallback reports."""
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        reports = run.rfidraw_log.reports
        batch = run.system.reconstruct(
            build_pair_series(
                run.rfidraw_log,
                run.rfidraw_deployment,
                sample_rate=run.config.sample_rate,
            )
        )
        session = run.system.open_session(
            config=SessionConfig(
                sample_rate=run.config.sample_rate,
                out_of_order="drop",
            ),
        )
        mid = len(reports) // 2
        nan_report = _corrupt_phase(reports[mid])
        for report in reports[:mid]:
            session.ingest(report)
        assert session.ingest(nan_report) == []  # must not raise
        for report in reports[mid:]:
            session.ingest(report)
        assert session.resampler.dropped_reports == 1
        assert all(np.isfinite(r.phase) for r in session._reports)
        result = session.finalize()
        assert np.array_equal(result.trajectory, batch.trajectory)

    def test_nan_phase_raises_in_strict_mode(self):
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        template = run.rfidraw_log.reports[0]
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        with pytest.raises(ValueError, match="non-finite"):
            session.ingest(_corrupt_phase(template))

    def test_fallback_syncs_internal_times(self):
        """After a degenerate finalize, the session's internal time list
        must agree with result.times (it used to go stale)."""
        run = simulate_word(
            "on",
            seed=21,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        dead = 1
        kept = [r for r in run.rfidraw_log.reports if r.antenna_id != dead]
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        session.extend(kept)
        result = session.finalize()
        assert np.array_equal(
            np.asarray(session._times, dtype=float), result.times
        )
        assert len(session.points) == len(result.times)

    def test_healthy_finalize_times_invariant(self):
        run = simulate_word(
            "on",
            seed=3,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        session = run.system.open_session(
            config=SessionConfig(sample_rate=run.config.sample_rate),
        )
        session.extend(run.rfidraw_log.reports)
        result = session.finalize()
        assert np.array_equal(
            np.asarray(session._times, dtype=float), result.times
        )


class TestFrontierHoldBack:
    def test_duplicate_timestamp_at_frontier(self, deployment):
        """An instant *at* the earliest-last-read frontier must wait:
        a later duplicate-timestamp read can still change its value.
        Cross-checked against the batch series builder."""
        pair = deployment.pairs()[0]
        aid1, aid2 = pair.ids
        epc = "AA" * 12
        rate = 10.0

        def report(aid, t, phase):
            return PhaseReport(t, epc, pair.first.reader_id, aid, phase, -50.0)

        reads = []
        for k in range(6):  # both antennas read at 0.0 .. 0.5
            reads.append(report(aid1, 0.1 * k, 1.0 + 0.05 * k))
            reads.append(report(aid2, 0.1 * k, 2.0 - 0.04 * k))
        duplicate = report(aid1, 0.5, 1.9)  # same stamp, new phase

        resampler = StreamResampler([pair], sample_rate=rate)
        live = []
        for r in reads:
            live.extend(resampler.ingest(r))
        # The instant at t=0.5 sits on the frontier (when >= end): held.
        assert [s.index for s in live] == [0, 1, 2, 3, 4]
        live_dup = resampler.ingest(duplicate)
        assert live_dup == []  # frontier did not advance past 0.5
        drained = resampler.drain()
        assert [s.index for s in drained] == [5]

        from repro.rfid.sampling import MeasurementLog

        series = build_pair_series(
            MeasurementLog(reads + [duplicate]),
            None,
            epc_hex=epc,
            pairs=[pair],
            sample_rate=rate,
        )
        batch_delta = series[0].delta_phi
        stream_delta = np.array(
            [s.delta_phi[0] for s in live + drained]
        )
        assert np.array_equal(stream_delta, batch_delta)

        # And the duplicate genuinely mattered: without it the frontier
        # instant interpolates to a different value.
        without = build_pair_series(
            MeasurementLog(list(reads)),
            None,
            epc_hex=epc,
            pairs=[pair],
            sample_rate=rate,
        )
        assert without[0].delta_phi[5] != batch_delta[5]


class TestSessionKnobValidation:
    def test_bad_prune_knobs_fail_at_construction(
        self, deployment, plane, wavelength
    ):
        """Bad knobs must not wait for the warm-up instant to explode
        inside a shared ingest loop."""
        system = RFIDrawSystem(deployment, plane, wavelength)
        with pytest.raises(ValueError, match="prune_margin"):
            TrackingSession(system, config=SessionConfig(prune_margin=0.0))
        with pytest.raises(ValueError, match="prune_margin"):
            system.open_session(config=SessionConfig(prune_margin=-2.0))
        with pytest.raises(ValueError, match="prune_burn_in"):
            system.open_session(
                config=SessionConfig(prune_margin=1.0, prune_burn_in=0)
            )
