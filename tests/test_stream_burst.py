"""ingest_burst ≡ sequential ingest, bit for bit, per tag.

The batched multi-tag step is the hot loop of the sharded service; its
contract is that batching changes *throughput only*. Every test here
runs the same stream through ``ingest`` one report at a time and
through ``ingest_burst`` in chunks, then demands identical per-tag
results, per-tag event sequences and manager stats — clean, pruned,
under eviction pressure and under fault injection.
"""

import numpy as np
import pytest

from repro.serve.workload import fleet_system, synthetic_fleet
from repro.stream import (
    PointEmitted,
    SessionConfig,
    SessionEvent,
    SessionEventType,
    SessionEvicted,
    SessionFinalized,
    SessionManager,
    SessionStarted,
)
from repro.testbed.config import FaultSpec
from repro.testbed.faults import FaultPipeline


@pytest.fixture(scope="module")
def fleet():
    system = fleet_system()
    reports = synthetic_fleet(system, tags=6, active_span=0.5)
    return system, reports


def _run(system, reports, config, burst=None):
    """Feed the stream; return (manager, per-EPC event log, results)."""
    manager = SessionManager(system, config=config)
    events = []
    manager.on_session_started = events.append
    manager.on_point = events.append
    manager.on_session_finalized = events.append
    manager.on_session_evicted = events.append
    if burst is None:
        for report in reports:
            manager.ingest(report)
    else:
        for start in range(0, len(reports), burst):
            manager.ingest_burst(reports[start:start + burst])
    results = manager.finalize_all()
    return manager, events, results


def _by_epc(events):
    grouped = {}
    for event in events:
        key = (
            type(event).__name__,
            None
            if event.point is None
            else (event.point.time, tuple(event.point.position)),
        )
        grouped.setdefault(event.epc_hex, []).append(key)
    return grouped


def _assert_equivalent(system, reports, config, burst=33):
    m_seq, ev_seq, res_seq = _run(system, reports, config)
    m_bat, ev_bat, res_bat = _run(system, reports, config, burst=burst)
    assert set(res_seq) == set(res_bat)
    for epc in res_seq:
        assert np.array_equal(res_seq[epc].times, res_bat[epc].times)
        assert np.array_equal(
            res_seq[epc].trajectory, res_bat[epc].trajectory
        )
    assert _by_epc(ev_seq) == _by_epc(ev_bat)
    assert m_seq.stats() == m_bat.stats()
    return res_seq


class TestBurstEquivalence:
    def test_clean_stream(self, fleet):
        system, reports = fleet
        results = _assert_equivalent(
            system, reports, SessionConfig(out_of_order="drop")
        )
        assert len(results) == 6
        assert all(len(r.times) for r in results.values())

    def test_with_pruning(self, fleet):
        system, reports = fleet
        _assert_equivalent(
            system,
            reports,
            SessionConfig(out_of_order="drop", prune_margin=4.0),
        )

    def test_under_eviction_pressure(self, fleet):
        """Idle + capacity eviction fire mid-burst at the same points."""
        system, reports = fleet
        config = SessionConfig(
            out_of_order="drop",
            idle_timeout=0.3,
            max_sessions=3,
        )
        m_seq, ev_seq, _ = _run(system, reports, config)
        m_bat, ev_bat, _ = _run(system, reports, config, burst=33)
        assert m_seq.stats() == m_bat.stats()
        assert m_seq.stats().evicted_sessions > 0
        assert _by_epc(ev_seq) == _by_epc(ev_bat)

    def test_under_fault_injection(self, fleet):
        system, reports = fleet
        pipeline = FaultPipeline.from_spec(
            FaultSpec(
                drop_rate=0.05,
                duplicate_rate=0.03,
                stale_replay_rate=0.02,
                nonfinite_rate=0.02,
                ghost_epcs=2,
                reorder_rate=0.1,
            ),
            seed=7,
        )
        faulted = pipeline.inject(reports)
        config = SessionConfig(out_of_order="drop", prune_margin=4.0)
        m_seq, ev_seq, res_seq = _run(system, faulted, config)
        m_bat, ev_bat, res_bat = _run(system, faulted, config, burst=41)
        assert set(res_seq) == set(res_bat)
        for epc in res_seq:
            assert np.array_equal(
                res_seq[epc].trajectory, res_bat[epc].trajectory
            )
        assert _by_epc(ev_seq) == _by_epc(ev_bat)
        assert m_seq.stats() == m_bat.stats()
        assert sorted(m_seq.failures) == sorted(m_bat.failures)
        assert m_seq.stats().dropped_reports > 0

    def test_burst_size_does_not_matter(self, fleet):
        system, reports = fleet
        config = SessionConfig(out_of_order="drop")
        reference = None
        for burst in (1, 17, len(reports)):
            _, _, results = _run(system, reports, config, burst=burst)
            snapshot = {
                epc: results[epc].trajectory.tobytes() for epc in results
            }
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference

    def test_strict_policy_raises_but_applies_prefix(self, fleet):
        """A strict-mode failure mid-burst must not desync sessions:
        samples already unlocked by earlier reports are still applied."""
        system, reports = fleet
        config = SessionConfig()  # out_of_order="raise"
        stale = reports[10]
        doctored = reports[:40] + [
            type(stale)(
                time=stale.time - 5.0,
                epc_hex=stale.epc_hex,
                reader_id=stale.reader_id,
                antenna_id=stale.antenna_id,
                phase=stale.phase,
                rssi_dbm=stale.rssi_dbm,
            )
        ]
        m_seq = SessionManager(system, config=config)
        with pytest.raises(ValueError):
            for report in doctored:
                m_seq.ingest(report)
        m_bat = SessionManager(system, config=config)
        with pytest.raises(ValueError):
            m_bat.ingest_burst(doctored)
        for epc, session in m_seq.sessions.items():
            assert len(m_bat.sessions[epc].points) == len(session.points)

    def test_raising_point_callback_loses_no_step(self, fleet):
        """An ``on_point`` callback that raises once mid-stream costs the
        caller events, never steps: under ``ingest`` and under
        ``ingest_burst`` every instant a resampler emitted reaches its
        session, and both paths agree bit for bit."""
        system, reports = fleet
        config = SessionConfig(out_of_order="drop")

        def feed(burst):
            manager = SessionManager(system, config=config)
            calls = 0

            def on_point(event):
                nonlocal calls
                calls += 1
                if calls == 5:
                    raise RuntimeError("consumer failed")

            manager.on_point = on_point
            raised = 0
            for start in range(0, len(reports), burst):
                chunk = reports[start:start + burst]
                try:
                    if burst == 1:
                        manager.ingest(chunk[0])
                    else:
                        manager.ingest_burst(chunk)
                except RuntimeError:
                    raised += 1  # the caller keeps feeding reports
            assert raised == 1
            for session in manager.sessions.values():
                emitted = len(session.resampler.timeline())
                assert len(session.points) == emitted
            results = manager.finalize_all(raise_errors=True)
            for session in manager.sessions.values():
                assert len(session.points) == len(session.result.times)
            return results

        sequential = feed(1)
        burst = feed(256)
        assert set(sequential) == set(burst)
        for epc in sequential:
            assert np.array_equal(sequential[epc].times, burst[epc].times)
            assert np.array_equal(
                sequential[epc].trajectory, burst[epc].trajectory
            )


class TestTypedEvents:
    def test_events_are_typed_subclasses(self, fleet):
        system, reports = fleet
        config = SessionConfig(out_of_order="drop", idle_timeout=0.3)
        _, events, _ = _run(system, reports, config, burst=50)
        kinds = {type(event) for event in events}
        assert kinds == {
            SessionStarted,
            PointEmitted,
            SessionFinalized,
            SessionEvicted,
        }
        for event in events:
            assert isinstance(event, SessionEvent)
            # The lifecycle tag is the subclass's class constant.
            assert event.type is {
                SessionStarted: SessionEventType.STARTED,
                PointEmitted: SessionEventType.POINT,
                SessionFinalized: SessionEventType.FINALIZED,
                SessionEvicted: SessionEventType.EVICTED,
            }[type(event)]

    def test_detached_drops_session_keeps_payload(self, fleet):
        system, reports = fleet
        _, events, _ = _run(
            system, reports, SessionConfig(out_of_order="drop"), burst=50
        )
        point_event = next(e for e in events if isinstance(e, PointEmitted))
        detached = point_event.detached()
        assert type(detached) is PointEmitted
        assert detached.session is None
        assert detached.point is point_event.point
        assert detached.epc_hex == point_event.epc_hex

    def test_detached_base_class(self):
        # The one detached() on the base class keeps the subclass and
        # its lifecycle tag.
        event = SessionStarted("30AA", session=object())
        detached = event.detached()
        assert type(detached) is SessionStarted
        assert detached.session is None
        assert detached.type is SessionEventType.STARTED

    def test_events_pickle_detached(self, fleet):
        import pickle

        system, reports = fleet
        _, events, _ = _run(
            system, reports, SessionConfig(out_of_order="drop"), burst=50
        )
        for event in events[:10]:
            clone = pickle.loads(pickle.dumps(event.detached()))
            assert type(clone) is type(event)
            assert clone.epc_hex == event.epc_hex
