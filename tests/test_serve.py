"""Shard-determinism suite for the sharded async tracking service.

The service's one promise: sharding changes where work runs, never what
it computes. The same stream through 1, 2 and 4 shards must produce
per-EPC trajectories, results and event sequences bit-identical to a
single in-process ``SessionManager`` — clean and under testbed fault
injection — with stats that sum to the single-manager stats.
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.io.logs import save_phase_log
from repro.serve import (
    TrackingService,
    replay_log,
    serve_reports,
    shard_for,
    split_burst,
    synthetic_fleet,
)
from repro.serve.workload import fleet_system
from repro.stream import SessionConfig, SessionManager
from repro.testbed.config import FaultSpec
from repro.testbed.faults import FaultPipeline


@pytest.fixture(scope="module")
def fleet():
    system = fleet_system()
    reports = synthetic_fleet(system, tags=6, active_span=0.4)
    return system, reports


def _single_manager(system, reports, config):
    manager = SessionManager(system, config=config)
    events = []
    manager.on_session_started = events.append
    manager.on_point = events.append
    manager.on_session_finalized = events.append
    manager.on_session_evicted = events.append
    for report in reports:
        manager.ingest(report)
    results = manager.finalize_all()
    return results, events, manager.stats(), manager.failures


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


class TestSharding:
    def test_shard_for_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for tag in range(50):
                epc = f"{tag:024X}"
                index = shard_for(epc, shards)
                assert 0 <= index < shards
                assert index == shard_for(epc, shards)

    def test_shard_for_crc32_not_salted_hash(self):
        # The pinned placement: stable across processes and runs.
        import zlib

        assert shard_for("30AA", 4) == zlib.crc32(b"30AA") % 4

    def test_shard_for_rejects_zero(self):
        with pytest.raises(ValueError):
            shard_for("30AA", 0)

    def test_split_burst_partitions_in_order(self, fleet):
        _, reports = fleet
        buckets = split_burst(reports[:200], 3)
        assert sum(len(b) for b in buckets) == 200
        for shard, bucket in enumerate(buckets):
            for report in bucket:
                assert shard_for(report.epc_hex, 3) == shard
            times = [r.time for r in bucket]
            assert times == sorted(times)


def _stroke_error_m(epc_hex, result, stagger=0.15):
    """Largest distance between a fleet tag's reconstruction and the
    circular stroke :func:`synthetic_fleet` draws for it (recomputed
    here, independently of the stream)."""
    tag = int(epc_hex, 16)
    angle = 2.0 * np.pi * 0.4 * (result.times - tag * stagger)
    truth = np.stack(
        [
            0.55 + 0.04 * (tag % 5) + 0.08 * np.cos(angle),
            0.65 + 0.03 * (tag % 7) + 0.08 * np.sin(angle),
        ],
        axis=1,
    )
    return float(np.max(np.linalg.norm(result.trajectory - truth, axis=1)))


class TestFleetAccuracy:
    """The noise-free fleet is geometry-exact, so every tag must
    reconstruct onto its own stroke — not just agree across paths."""

    def test_in_process_within_1mm(self, fleet):
        system, reports = fleet
        results, _, _, failures = _single_manager(
            system, reports, SessionConfig()
        )
        assert failures == {}
        assert len(results) == 6
        for epc, result in results.items():
            assert _stroke_error_m(epc, result) < 1e-3

    @pytest.mark.parametrize("shards", [1, 2])
    def test_service_within_1mm(self, fleet, shards):
        system, reports = fleet
        replay = serve_reports(
            system, reports, shards=shards, config=SessionConfig(),
            burst_size=64,
        )
        assert replay.failures == {}
        assert len(replay.results) == 6
        for epc, result in replay.results.items():
            assert _stroke_error_m(epc, result) < 1e-3


class TestShardDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_clean_stream_matches_single_manager(self, fleet, shards):
        system, reports = fleet
        config = SessionConfig(out_of_order="drop", prune_margin=4.0)
        ref_results, ref_events, ref_stats, _ = _single_manager(
            system, reports, config
        )
        replay = serve_reports(
            system, reports, shards=shards, config=config, burst_size=64
        )
        assert set(replay.results) == set(ref_results)
        for epc in ref_results:
            assert np.array_equal(
                ref_results[epc].times, replay.results[epc].times
            )
            assert np.array_equal(
                ref_results[epc].trajectory,
                replay.results[epc].trajectory,
            )
        # Merged event stream equals the single-manager stream per EPC
        # (cross-EPC interleaving is the documented difference).
        assert _by_epc(replay.events) == _by_epc(ref_events)
        assert replay.stats == ref_stats
        assert replay.failures == {}

    @pytest.mark.parametrize("shards", [2, 4])
    def test_faulted_stream_matches_single_manager(self, fleet, shards):
        system, reports = fleet
        pipeline = FaultPipeline.from_spec(
            FaultSpec(
                drop_rate=0.05,
                duplicate_rate=0.03,
                nonfinite_rate=0.02,
                ghost_epcs=2,
                reorder_rate=0.1,
            ),
            seed=11,
        )
        faulted = pipeline.inject(reports)
        config = SessionConfig(out_of_order="drop")
        ref_results, ref_events, ref_stats, ref_failures = _single_manager(
            system, faulted, config
        )
        replay = serve_reports(
            system, faulted, shards=shards, config=config, burst_size=48
        )
        assert set(replay.results) == set(ref_results)
        for epc in ref_results:
            assert np.array_equal(
                ref_results[epc].trajectory,
                replay.results[epc].trajectory,
            )
        assert _by_epc(replay.events) == _by_epc(ref_events)
        assert replay.stats == ref_stats
        assert replay.stats.dropped_reports > 0
        assert sorted(replay.failures) == sorted(ref_failures)

    def test_results_independent_of_shard_count(self, fleet):
        system, reports = fleet
        config = SessionConfig(out_of_order="drop")
        snapshots = []
        for shards in (1, 2, 4):
            replay = serve_reports(
                system, reports, shards=shards, config=config,
                collect_events=False, emit_points=False,
            )
            snapshots.append(
                {
                    epc: result.trajectory.tobytes()
                    for epc, result in replay.results.items()
                }
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_backpressure_window_does_not_change_results(self, fleet):
        system, reports = fleet
        config = SessionConfig(out_of_order="drop")
        tight = serve_reports(
            system, reports, shards=2, config=config,
            burst_size=8, max_pending_bursts=1, event_queue_size=16,
        )
        loose = serve_reports(
            system, reports, shards=2, config=config, burst_size=512
        )
        assert {
            epc: r.trajectory.tobytes() for epc, r in tight.results.items()
        } == {
            epc: r.trajectory.tobytes() for epc, r in loose.results.items()
        }
        assert _by_epc(tight.events) == _by_epc(loose.events)


class TestServiceEvents:
    def test_events_are_detached_and_picklable(self, fleet):
        system, reports = fleet
        replay = serve_reports(
            system, reports, shards=2,
            config=SessionConfig(out_of_order="drop"),
        )
        assert replay.events
        for event in replay.events:
            assert event.session is None
            pickle.loads(pickle.dumps(event))

    def test_emit_points_false_keeps_lifecycle_edges(self, fleet):
        system, reports = fleet
        replay = serve_reports(
            system, reports, shards=2,
            config=SessionConfig(out_of_order="drop"),
            emit_points=False,
        )
        names = {type(event).__name__ for event in replay.events}
        assert names == {"SessionStarted", "SessionFinalized"}
        # Results are unaffected by what gets shipped back.
        assert len(replay.results) == 6


class TestReplayLog:
    def test_replay_log_matches_manager_replay(self, fleet, tmp_path):
        system, reports = fleet
        log_path = tmp_path / "fleet.jsonl"
        save_phase_log(reports, log_path)
        config = SessionConfig(out_of_order="drop")
        manager = SessionManager(system, config=config)
        ref = manager.replay(log_path)
        replay = replay_log(
            system, log_path, shards=2, config=config,
            collect_events=False, emit_points=False,
        )
        assert set(replay.results) == set(ref)
        for epc in ref:
            assert np.array_equal(
                ref[epc].trajectory, replay.results[epc].trajectory
            )
        assert replay.stats == ref.stats

    def test_multi_log_fan_in(self, fleet, tmp_path):
        """Per-reader logs merge time-ordered into one stream."""
        system, reports = fleet
        whole = tmp_path / "whole.jsonl"
        save_phase_log(reports, whole)
        parts = []
        for reader_id in sorted({r.reader_id for r in reports}):
            part = tmp_path / f"reader{reader_id}.jsonl"
            save_phase_log(
                [r for r in reports if r.reader_id == reader_id], part
            )
            parts.append(part)
        config = SessionConfig(out_of_order="drop")
        merged = replay_log(
            system, parts, shards=2, config=config,
            collect_events=False, emit_points=False,
        )
        single = replay_log(
            system, whole, shards=2, config=config,
            collect_events=False, emit_points=False,
        )
        assert {
            epc: r.trajectory.tobytes() for epc, r in merged.results.items()
        } == {
            epc: r.trajectory.tobytes() for epc, r in single.results.items()
        }

    def test_lenient_mode_counts_skipped_lines(self, fleet, tmp_path):
        system, reports = fleet
        log_path = tmp_path / "torn.jsonl"
        save_phase_log(reports[:200], log_path)
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"time": 1.0, "epc_hex":\n')
            handle.write("not json either\n")
        with pytest.raises(ValueError):
            replay_log(
                system, log_path, shards=2, collect_events=False,
                config=SessionConfig(out_of_order="drop"),
            )
        replay = replay_log(
            system, log_path, shards=2, strict=False,
            collect_events=False,
            config=SessionConfig(out_of_order="drop"),
        )
        assert replay.stats.skipped_log_lines == 2


class TestServiceLifecycle:
    def test_stop_without_drain_is_clean(self, fleet):
        import asyncio

        system, reports = fleet

        async def main():
            async with TrackingService(
                system, shards=2,
                config=SessionConfig(out_of_order="drop"),
            ) as service:
                await service.ingest_many(reports[:100])
            # exiting the context stops workers without draining

        asyncio.run(main())

    def test_ingest_after_stop_raises(self, fleet):
        import asyncio

        system, reports = fleet

        async def main():
            service = TrackingService(system, shards=1)
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError):
                await service.ingest(reports[0])

        asyncio.run(main())


class TestCli:
    def test_demo_json_smoke(self, fleet):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve", "demo",
                "--tags", "3", "--active-span", "0.3",
                "--shards", "2", "--json",
            ],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["shards"] == 2
        assert len(payload["tags"]) == 3
        assert all(row["points"] > 0 for row in payload["tags"])
        assert payload["stats"]["finalized_sessions"] == 3

    def test_replay_log_cli(self, fleet, tmp_path):
        system, reports = fleet
        log_path = tmp_path / "fleet.jsonl"
        save_phase_log(reports[:400], log_path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.serve", "replay",
                str(log_path), "--shards", "2", "--json",
            ],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["reports"] == 400
