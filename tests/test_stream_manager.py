"""SessionManager routing, lifecycle events and JSONL replay."""

import numpy as np
import pytest

from repro.core.pipeline import RFIDrawSystem
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.io.logs import save_phase_log
from repro.rf.channel import BackscatterChannel, Environment
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.epc import Epc96
from repro.rfid.reader import Reader
from repro.rfid.sampling import MeasurementLog, build_pair_series
from repro.rfid.tag import PassiveTag
from repro.stream import (
    SessionConfig,
    SessionEventType,
    SessionManager,
    TrackingSession,
)

#: Two traced candidates per tag keep the suite fast.
CONFIG = SessionConfig(candidate_count=2)


@pytest.fixture(scope="module")
def two_tag_world():
    """Two static-ish tags inventoried through the shared air protocol."""
    wavelength = DEFAULT_WAVELENGTH
    deployment = rfidraw_layout(wavelength)
    plane = writing_plane(2.0)
    channel = BackscatterChannel(Environment.free_space(), wavelength)
    rng = np.random.default_rng(314)
    positions = {
        5: np.array([0.8, 1.1]),
        6: np.array([1.8, 1.4]),
    }

    def position_at(serial, when):
        base = positions[serial]
        # A slow drift so the tracer has something to follow.
        return plane.to_world(base + np.array([0.02, 0.015]) * when)

    tags = [
        PassiveTag(Epc96.with_serial(serial), position_at(serial, 0.0))
        for serial in positions
    ]
    reports = []
    for reader_id in deployment.reader_ids:
        reader = Reader(
            reader_id,
            deployment.antennas_of_reader(reader_id),
            channel,
            PhaseNoiseModel(sigma=0.05),
            dwell_time=0.04,
        )
        reports.extend(
            reader.inventory(tags, 1.6, rng, position_at=position_at)
        )
    log = MeasurementLog(reports)
    system = RFIDrawSystem(deployment, plane, wavelength)
    return system, deployment, log, tags


class TestRouting:
    def test_one_session_per_epc(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        assert len(manager) == 2
        assert sorted(manager.epcs()) == sorted(
            tag.epc.to_hex() for tag in tags
        )

    def test_results_match_per_tag_batch(self, two_tag_world):
        """Routing through the manager == filtering the log per EPC."""
        system, deployment, log, tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        results = manager.finalize_all()
        for tag in tags:
            epc = tag.epc.to_hex()
            series = build_pair_series(log, deployment, epc_hex=epc)
            batch = system.reconstruct(series, candidate_count=2)
            assert (
                np.abs(results[epc].trajectory - batch.trajectory).max()
                <= 1e-9
            )
            assert np.abs(results[epc].times - batch.times).max() <= 1e-9

    def test_reconstruct_log_filters_multi_tag(self, two_tag_world):
        """reconstruct_log(epc_hex=…) on a shared log == per-tag batch."""
        system, deployment, log, tags = two_tag_world
        epc = tags[0].epc.to_hex()
        series = build_pair_series(log, deployment, epc_hex=epc)
        batch = system.reconstruct(series)
        stream = system.reconstruct_log(log, epc_hex=epc)
        assert np.abs(stream.trajectory - batch.trajectory).max() <= 1e-9
        assert np.abs(stream.times - batch.times).max() <= 1e-9


class TestLifecycleEvents:
    def test_event_sequence(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        seen = {"started": [], "points": 0, "finalized": []}
        manager.on_session_started = lambda e: seen["started"].append(e.epc_hex)
        manager.on_session_finalized = lambda e: seen["finalized"].append(
            e.epc_hex
        )

        def count_point(event):
            assert event.type is SessionEventType.POINT
            assert event.point is not None
            seen["points"] += 1

        manager.on_point = count_point
        events = manager.extend(log.reports)
        results = manager.finalize_all()
        assert sorted(seen["started"]) == sorted(
            tag.epc.to_hex() for tag in tags
        )
        assert seen["points"] == len(events) > 0
        assert sorted(seen["finalized"]) == sorted(seen["started"])
        assert set(results) == set(seen["started"])

    def test_straggler_reports_after_finalize_are_dropped(
        self, two_tag_world
    ):
        """A tag still replying after its session closed must not crash
        the shared reader loop."""
        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        epc = manager.epcs()[0]
        manager.finalize(epc)
        straggler = next(r for r in log.reports if r.epc_hex == epc)
        assert manager.ingest(straggler) == []
        assert manager.stragglers == 1
        # Sessions still open keep ingesting normally.
        from repro.rfid.reader import PhaseReport

        other_epc = next(e for e in manager.epcs() if e != epc)
        late = PhaseReport(
            log.reports[-1].time + 0.01, other_epc, 1, 1, 1.0, -60.0
        )
        manager.ingest(late)  # must not raise

    def test_finalize_fires_once(self, two_tag_world):
        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        fired = []
        manager.on_session_finalized = lambda e: fired.append(e.epc_hex)
        epc = manager.epcs()[0]
        manager.finalize(epc)
        manager.finalize(epc)
        assert fired == [epc]


class TestGhostTags:
    def test_ghost_epc_does_not_sink_real_sessions(self, two_tag_world):
        """A misread burst (ghost EPC, few reads) fails alone."""
        from repro.rfid.reader import PhaseReport

        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        ghost = "DEADBEEF" * 3
        manager.ingest(PhaseReport(0.5, ghost, 1, 1, 1.0, -70.0))
        results = manager.finalize_all()
        assert set(results) == {tag.epc.to_hex() for tag in tags}
        assert set(manager.failures) == {ghost}
        assert isinstance(manager.failures[ghost], ValueError)

    def test_raise_errors_propagates(self, two_tag_world):
        from repro.rfid.reader import PhaseReport

        system, *_ = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.ingest(PhaseReport(0.5, "DEADBEEF" * 3, 1, 1, 1.0, -70.0))
        with pytest.raises(ValueError):
            manager.finalize_all(raise_errors=True)


class TestReplay:
    def test_replay_jsonl_matches_live(self, two_tag_world, tmp_path):
        """Streaming a saved JSONL log == streaming the live reports."""
        system, _deployment, log, _tags = two_tag_world
        path = tmp_path / "session.jsonl"
        save_phase_log(log, path)

        live = SessionManager(system, config=CONFIG)
        live.extend(log.reports)
        live_results = live.finalize_all()

        replayed = SessionManager(system, config=CONFIG)
        replay_results = replayed.replay(path)
        assert set(replay_results) == set(live_results)
        for epc, result in live_results.items():
            assert (
                np.abs(
                    replay_results[epc].trajectory - result.trajectory
                ).max()
                <= 1e-9
            )

    def test_replay_without_finalize_keeps_sessions_open(
        self, two_tag_world, tmp_path
    ):
        system, _deployment, log, _tags = two_tag_world
        path = tmp_path / "session.jsonl"
        save_phase_log(log, path)
        manager = SessionManager(system, config=CONFIG)
        assert manager.replay(path, finalize=False) == {}
        assert all(
            session.result is None for session in manager.sessions.values()
        )


class TestEviction:
    def _split_streams(self, log, tags, cut):
        """Tag 0's reports truncated at ``cut``; tag 1's kept whole."""
        early_epc = tags[0].epc.to_hex()
        merged = [
            r
            for r in log.reports
            if r.epc_hex != early_epc or r.time < cut
        ]
        return early_epc, merged

    def test_idle_tag_is_auto_finalized(self, two_tag_world):
        """A tag that stops replying is evicted mid-stream: FINALIZED
        then EVICTED fire, and its result matches the per-tag batch over
        the reports it did send."""
        system, deployment, log, tags = two_tag_world
        early_epc, merged = self._split_streams(log, tags, cut=0.8)
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3),
        )
        order = []
        manager.on_session_finalized = lambda e: order.append(("fin", e.epc_hex))
        manager.on_session_evicted = lambda e: order.append(("evi", e.epc_hex))
        events = manager.extend(merged)
        assert manager.evicted_epcs == [early_epc]
        assert ("fin", early_epc) in order and ("evi", early_epc) in order
        assert order.index(("fin", early_epc)) < order.index(("evi", early_epc))
        evicted_events = [
            e for e in events if e.type is SessionEventType.EVICTED
        ]
        assert [e.epc_hex for e in evicted_events] == [early_epc]
        assert evicted_events[0].result is not None
        # The evicted session answered exactly like batch over its reports.
        series = build_pair_series(
            MeasurementLog([r for r in merged if r.epc_hex == early_epc]),
            deployment,
            epc_hex=early_epc,
        )
        batch = system.reconstruct(series, candidate_count=2)
        assert np.array_equal(
            evicted_events[0].result.trajectory, batch.trajectory
        )
        # The surviving tag was untouched and finalizes normally.
        other = next(t.epc.to_hex() for t in tags if t.epc.to_hex() != early_epc)
        results = manager.finalize_all()
        assert other in results and early_epc in results

    def test_stragglers_counted_after_eviction(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        early_epc, merged = self._split_streams(log, tags, cut=0.8)
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3),
        )
        manager.extend(merged)
        assert manager.evicted_epcs == [early_epc]
        before = manager.stragglers
        late = next(
            r for r in log.reports if r.epc_hex == early_epc and r.time >= 0.8
        )
        assert manager.ingest(late) == []
        assert manager.stragglers == before + 1
        # The evicted session did not ingest the straggler.
        assert all(
            r.time < 0.8
            for r in manager.sessions[early_epc]._reports
        )

    def test_ghost_eviction_fails_closed(self, two_tag_world):
        """Evicting a never-warmed ghost records the failure, fires the
        EVICTED event with result=None, and keeps the loop running —
        later ghost reports are stragglers, not retries."""
        from repro.rfid.reader import PhaseReport

        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3),
        )
        ghost = "DEADBEEF" * 3
        evicted = []
        manager.on_session_evicted = lambda e: evicted.append(e)
        manager.ingest(PhaseReport(0.05, ghost, 1, 1, 1.0, -70.0))
        manager.extend([r for r in log.reports if r.time >= 0.05])
        assert manager.evicted_epcs == [ghost]
        assert evicted and evicted[0].result is None
        assert isinstance(manager.failures[ghost], ValueError)
        before = manager.stragglers
        manager.ingest(PhaseReport(2.0, ghost, 1, 1, 1.0, -70.0))
        assert manager.stragglers == before + 1

    def test_max_sessions_cap_evicts_lru(self, two_tag_world):
        """With a cap of 1, the longest-idle open session is evicted the
        moment a new EPC shows up."""
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(max_sessions=1),
        )
        first_epc = log.reports[0].epc_hex
        second_epc = next(
            r.epc_hex for r in log.reports if r.epc_hex != first_epc
        )
        for report in log.reports:
            manager.ingest(report)
            if len(manager.sessions) == 2:
                break
        assert manager.evicted_epcs == [first_epc]
        assert len(manager.open_epcs()) == 1
        assert manager.open_epcs() == [second_epc]

    @pytest.mark.parametrize("burst", [False, True])
    def test_multi_eviction_follows_session_open_order(self, two_tag_world, burst):
        """Several tags going stale on one frontier advance are evicted in
        session-open order, not in the order of their last reports."""
        from repro.rfid.reader import PhaseReport

        system, *_ = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.5),
        )
        first, second, third, late = "A1" * 12, "B2" * 12, "C3" * 12, "D4" * 12
        # Opened first → second → third; last reports third → second → first.
        stream = [
            PhaseReport(0.00, first, 1, 1, 1.0, -60.0),
            PhaseReport(0.01, second, 1, 1, 1.0, -60.0),
            PhaseReport(0.10, third, 1, 1, 1.0, -60.0),
            PhaseReport(0.20, second, 1, 2, 1.0, -60.0),
            PhaseReport(0.30, first, 1, 2, 1.0, -60.0),
        ]
        manager.extend(stream)
        assert manager.evicted_epcs == []
        wake = PhaseReport(2.0, late, 1, 1, 1.0, -60.0)
        events = manager.ingest_burst([wake]) if burst else manager.ingest(wake)
        assert manager.evicted_epcs == [first, second, third]
        assert [
            e.epc_hex for e in events if e.type is SessionEventType.EVICTED
        ] == [first, second, third]
        assert manager.open_epcs() == [late]

    def test_eviction_knob_validation(self, two_tag_world):
        system, *_ = two_tag_world
        with pytest.raises(ValueError, match="idle_timeout"):
            SessionManager(system, config=SessionConfig(idle_timeout=0.0))
        with pytest.raises(ValueError, match="max_sessions"):
            SessionManager(system, config=SessionConfig(max_sessions=0))

    def test_replay_evicts_like_live(self, two_tag_world, tmp_path):
        """Report-time keying means a JSONL replay evicts at the same
        points a live run did."""
        from repro.io.logs import save_phase_log

        system, _deployment, log, tags = two_tag_world
        early_epc, merged = self._split_streams(log, tags, cut=0.8)
        path = tmp_path / "evict.jsonl"
        save_phase_log(MeasurementLog(list(merged)), path)

        live = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3),
        )
        live.extend(merged)
        live_results = live.finalize_all()

        replayed = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3),
        )
        replay_results = replayed.replay(path)
        assert replayed.evicted_epcs == live.evicted_epcs == [early_epc]
        for epc, result in live_results.items():
            assert np.array_equal(
                replay_results[epc].trajectory, result.trajectory
            )


class TestFailedFinalizeReingest:
    def test_ghost_failure_then_more_data_recovers(self, two_tag_world):
        """A session whose finalize failed stays open: more reports may
        still rescue it, and a later successful finalize clears the
        stale failure entry."""
        system, _deployment, log, tags = two_tag_world
        epc = tags[0].epc.to_hex()
        own = [r for r in log.reports if r.epc_hex == epc]
        manager = SessionManager(system, config=CONFIG)
        manager.extend(own[:3])  # far too few reads to warm up
        results = manager.finalize_all()
        assert results == {}
        assert isinstance(manager.failures[epc], ValueError)
        session = manager.sessions[epc]
        assert session.result is None  # failed finalize left it open

        # The tag bursts back to life: re-ingest must work...
        events = manager.extend(own[3:])
        assert session.report_count == len(own)
        assert any(e.type is SessionEventType.POINT for e in events)
        # ...and the retried finalize succeeds and clears the failure.
        results = manager.finalize_all()
        assert epc in results
        assert epc not in manager.failures


class TestIdleClockMonotonicity:
    def test_interleaved_antenna_times_do_not_age_a_tag(self, two_tag_world):
        """Reports from different antennas may interleave slightly out of
        global order; the idle clock must keep the tag's *latest* time."""
        from repro.rfid.reader import PhaseReport

        system, *_ = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.5),
        )
        tag, other = "AA" * 12, "BB" * 12
        manager.ingest(PhaseReport(1.00, tag, 1, 1, 1.0, -60.0))
        manager.ingest(PhaseReport(0.70, tag, 1, 2, 1.0, -60.0))
        assert manager.last_report_time[tag] == 1.00
        # Frontier advances past 0.70 + timeout but not 1.00 + timeout:
        # the tag is *not* idle and must survive the sweep.
        manager.ingest(PhaseReport(1.45, other, 1, 3, 1.0, -60.0))
        assert manager.evicted_epcs == []
        # Past 1.00 + timeout it genuinely idled out.
        manager.ingest(PhaseReport(1.55, other, 1, 3, 1.0, -60.0))
        assert manager.evicted_epcs == [tag]

    def test_nan_report_time_does_not_stall_the_sweep(self, two_tag_world):
        """A tag whose first report carries a NaN time never ages out, and
        other tags still idle out on schedule."""
        from repro.rfid.reader import PhaseReport

        system, *_ = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.5),
        )
        broken, tag, other = "EE" * 12, "AA" * 12, "BB" * 12
        manager.ingest(PhaseReport(float("nan"), broken, 1, 1, 1.0, -60.0))
        manager.ingest(PhaseReport(0.10, tag, 1, 1, 1.0, -60.0))
        manager.ingest(PhaseReport(0.20, other, 1, 1, 1.0, -60.0))
        manager.ingest(PhaseReport(0.65, other, 1, 2, 1.0, -60.0))
        assert manager.evicted_epcs == [tag]
        manager.ingest(PhaseReport(5.0, "CC" * 12, 1, 1, 1.0, -60.0))
        assert manager.evicted_epcs == [tag, other]
        assert broken in manager.open_epcs()


class TestRetainResults:
    def test_finalized_sessions_release_buffers(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(retain_results=8),
        )
        manager.extend(log.reports)
        results = manager.finalize_all()
        assert len(results) == 2
        for tag in tags:
            session = manager.sessions[tag.epc.to_hex()]
            # Result and points survive; tracking buffers are gone.
            assert session.result is not None
            assert session.points
            assert session.resampler is None
            assert session._trace_state is None
            assert session._reports == []

    def test_results_match_uncapped_manager(self, two_tag_world):
        system, _deployment, log, _tags = two_tag_world
        capped = SessionManager(
            system,
            config=CONFIG.with_updates(retain_results=8),
        )
        plain = SessionManager(system, config=CONFIG)
        capped.extend(log.reports)
        plain.extend(log.reports)
        capped_results = capped.finalize_all()
        plain_results = plain.finalize_all()
        assert capped_results.keys() == plain_results.keys()
        for epc, expected in plain_results.items():
            assert np.array_equal(
                capped_results[epc].trajectory, expected.trajectory
            )

    def test_oldest_finalized_sessions_shed(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(retain_results=1),
        )
        manager.extend(log.reports)
        epcs = [tag.epc.to_hex() for tag in tags]
        first = manager.finalize(epcs[0])
        assert first is not None
        assert epcs[0] in manager.sessions
        manager.finalize(epcs[1])  # pushes the first past the cap
        assert epcs[0] not in manager.sessions
        assert epcs[0] not in manager.last_report_time
        assert epcs[1] in manager.sessions

    def test_shed_tag_returning_starts_fresh_session(self, two_tag_world):
        system, _deployment, log, tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(retain_results=0),
        )
        manager.extend(log.reports)
        manager.finalize_all()  # every session finalized then shed
        assert len(manager.sessions) == 0
        started = []
        manager.on_session_started = lambda event: started.append(event.epc_hex)
        events = manager.ingest(log.reports[0])
        # Not a straggler: the shed tag begins a new gesture.
        assert manager.stragglers == 0
        assert started == [log.reports[0].epc_hex]
        assert events == [] or all(
            event.type is not SessionEventType.EVICTED for event in events
        )

    def test_eviction_combines_with_retention(self, two_tag_world):
        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.5, retain_results=1),
        )
        finalized = []
        manager.on_session_finalized = (
            lambda event: finalized.append(event.epc_hex)
        )
        manager.extend(log.reports)
        manager.finalize_all()
        assert len(finalized) == 2
        # At most the cap's worth of finalized history is retained.
        closed_held = [
            epc
            for epc, session in manager.sessions.items()
            if session.result is not None
        ]
        assert len(closed_held) <= 1

    def test_negative_cap_rejected(self, two_tag_world):
        system, *_ = two_tag_world
        with pytest.raises(ValueError, match="retain_results"):
            SessionManager(system, config=SessionConfig(retain_results=-1))

    def test_release_requires_finalized(self, two_tag_world):
        system, *_ = two_tag_world
        session = TrackingSession(system, config=CONFIG)
        with pytest.raises(ValueError, match="finalized"):
            session.release()


class TestRetainResultsBoundedState:
    def test_ghost_eviction_is_shed_too(self, two_tag_world):
        """A ghost whose eviction finalize fails must not pin memory.

        With retain_results=0 every closed session — failed ghosts
        included — is shed, along with its failures/evicted_epcs
        bookkeeping, so noise EPCs cannot grow the manager forever.
        """
        from repro.rfid.reader import PhaseReport

        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.3, retain_results=0),
        )
        ghost = "DEADBEEF" * 3
        manager.ingest(PhaseReport(0.05, ghost, 1, 1, 1.0, -70.0))
        # Advancing the frontier evicts the silent ghost; its finalize
        # fails (never warmed), and the shed queue drops it entirely.
        manager.extend([r for r in log.reports if r.time >= 0.05])
        assert ghost not in manager.sessions
        assert ghost not in manager.failures
        assert ghost not in manager.last_report_time
        assert manager.evicted_epcs == []

    def test_replay_returns_results_shed_mid_replay(
        self, two_tag_world, tmp_path
    ):
        """replay() must deliver every gesture's result even when the
        eviction policy + retention cap shed the sessions mid-log."""
        from dataclasses import replace

        system, _deployment, log, tags = two_tag_world
        # One tag keeps reporting for an extra second while the other
        # goes silent, so the silent one is evicted (and, under the
        # cap, shed) while the replay is still running.
        survivor = tags[0].epc.to_hex()
        extended = MeasurementLog(
            list(log.reports)
            + [
                replace(report, time=report.time + 1.0)
                for report in log.reports
                if report.epc_hex == survivor
            ]
        )
        path = tmp_path / "log.jsonl"
        save_phase_log(extended, path)

        plain = SessionManager(system, config=CONFIG)
        expected = plain.replay(path)

        capped = SessionManager(
            system,
            config=CONFIG.with_updates(idle_timeout=0.4, retain_results=0),
        )
        results = capped.replay(path)
        # The silent tag really was evicted and shed mid-replay…
        assert tags[1].epc.to_hex() not in capped.sessions
        # …yet its result still comes back, identical to the uncapped
        # replay (its reports had all arrived before the eviction).
        assert set(results) == set(expected)
        assert np.array_equal(
            results[tags[1].epc.to_hex()].trajectory,
            expected[tags[1].epc.to_hex()].trajectory,
        )
        # Every session was shed — only the results survive.
        assert len(capped.sessions) == 0

    def test_replay_tap_restores_user_callback(self, two_tag_world, tmp_path):
        system, _deployment, log, _tags = two_tag_world
        path = tmp_path / "log.jsonl"
        save_phase_log(log, path)
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(retain_results=1),
        )
        seen = []
        manager.on_session_finalized = lambda event: seen.append(event.epc_hex)
        user_callback = manager.on_session_finalized
        manager.replay(path)
        assert manager.on_session_finalized is user_callback
        assert len(seen) == 2  # the user's callback still fired


class TestStatsSnapshot:
    """SessionManager.stats(): one structured health snapshot."""

    def test_replay_result_is_dict_with_stats(self, two_tag_world, tmp_path):
        from repro.stream import ManagerStats, ReplayResult

        system, _deployment, log, tags = two_tag_world
        path = tmp_path / "log.jsonl"
        save_phase_log(log, path)
        manager = SessionManager(system, config=CONFIG)
        results = manager.replay(path)
        # Backward compatible: still the {epc: result} mapping…
        assert isinstance(results, dict)
        assert isinstance(results, ReplayResult)
        assert set(results) == {tag.epc.to_hex() for tag in tags}
        # …with the end-of-replay snapshot riding along.
        assert isinstance(results.stats, ManagerStats)
        assert results.stats.ingested_reports == len(log.reports)
        assert results.stats.finalized_sessions == 2
        assert results.stats.open_sessions == 0
        assert results.stats.failed_sessions == 0
        assert results.stats.skipped_log_lines == 0

    def test_stats_as_dict_is_json_ready(self, two_tag_world):
        import json

        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports[:50])
        snapshot = manager.stats().as_dict()
        json.dumps(snapshot)  # must serialize
        assert snapshot["ingested_reports"] == 50
        assert snapshot["open_sessions"] >= 1
        assert snapshot["injected"] == {}

    def test_open_then_finalized_transitions(self, two_tag_world):
        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.extend(log.reports)
        assert manager.stats().open_sessions == 2
        manager.finalize_all()
        stats = manager.stats()
        assert stats.open_sessions == 0
        assert stats.finalized_sessions == 2

    def test_nonfinite_drops_counted(self, two_tag_world):
        import dataclasses

        system, _deployment, log, _tags = two_tag_world
        manager = SessionManager(
            system,
            config=CONFIG.with_updates(out_of_order="drop"),
        )
        reports = list(log.reports)
        corrupted = [
            dataclasses.replace(reports[10], phase=float("nan")),
            dataclasses.replace(reports[20], phase=float("inf")),
        ]
        manager.extend(reports[:30] + corrupted + reports[30:])
        stats = manager.stats()
        assert stats.ingested_reports == len(reports) + 2
        assert stats.dropped_nonfinite == 2
        assert stats.dropped_reports >= 2

    def test_note_injected_accumulates_into_stats(self, two_tag_world):
        system, _deployment, _log, _tags = two_tag_world
        manager = SessionManager(system, config=CONFIG)
        manager.note_injected({"drop.dropped": 3, "ghost_epc.ghosts": 1})
        manager.note_injected({"drop.dropped": 2})
        assert manager.stats().injected == {
            "drop.dropped": 5,
            "ghost_epc.ghosts": 1,
        }

    def test_nonstrict_replay_counts_skipped_lines(
        self, two_tag_world, tmp_path
    ):
        system, _deployment, log, _tags = two_tag_world
        path = tmp_path / "dirty.jsonl"
        save_phase_log(log, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
            handle.write('{"time": 0.5}\n')
        manager = SessionManager(system, config=CONFIG)
        results = manager.replay(path, strict=False)
        assert len(results) == 2  # the stream still reconstructs
        assert results.stats.skipped_log_lines == 2

    def test_strict_replay_still_raises(self, two_tag_world, tmp_path):
        system, _deployment, log, _tags = two_tag_world
        path = tmp_path / "dirty.jsonl"
        save_phase_log(log, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        manager = SessionManager(system, config=CONFIG)
        with pytest.raises(ValueError, match="malformed phase record"):
            manager.replay(path)
