"""Per-tag streaming tracking sessions.

A :class:`TrackingSession` is the online form of the batch pipeline: it
ingests individual :class:`~repro.rfid.reader.PhaseReport`\\ s, maintains
per-antenna unwrap/interpolation state incrementally (through
:class:`repro.stream.resampler.StreamResampler`), runs the
multi-resolution positioner once the warm-up instant fills, then advances
the engine's :class:`~repro.core.engine.BatchedTracer` step by step via
its incremental ``begin``/``step``/``finish`` API — emitting a
:class:`TrajectoryPoint` per timeline instant with bounded per-report
work.

The design invariant, enforced by ``tests/test_stream_session.py``:
feeding a finished log report-by-report and calling :meth:`finalize`
produces the *same* :class:`~repro.core.pipeline.ReconstructionResult` as
the batch ``RFIDrawSystem.reconstruct`` on that log — the batch facade is
in fact implemented on top of this class (:meth:`ingest_series`).

Lifecycle::

    WARMING ──(warm-up instant fills: positioner runs)──▶ TRACKING
    TRACKING ──(finalize)──▶ FINALIZED

Degenerate streams (an antenna that never reaches the minimum read
count, or a log too short for the timeline to start) fall back, at
finalize time, to the batch series builder over the retained reports —
so the session never answers differently from the batch path, it only
answers *earlier* when the stream is healthy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.engine import TraceState, check_series
from repro.core.pipeline import ReconstructionResult, RFIDrawSystem
from repro.core.positioning import PositionCandidate
from repro.geometry.antennas import AntennaPair
from repro.rf.phase import wrap_to_pi
from repro.rfid.reader import PhaseReport
from repro.rfid.sampling import (
    MeasurementLog,
    PairSeries,
    PhaseSnapshot,
    build_pair_series,
)
from repro.stream.resampler import PairSample, StreamResampler

__all__ = ["SessionState", "TrajectoryPoint", "TrackingSession", "step_sessions"]


class SessionState(enum.Enum):
    """Where a session is in its lifecycle."""

    WARMING = "warming"
    TRACKING = "tracking"
    FINALIZED = "finalized"


@dataclass(frozen=True)
class TrajectoryPoint:
    """One emitted trajectory instant (provisional until finalize).

    Attributes:
        index: timeline index of this instant.
        time: the instant, in seconds.
        position: ``(2,)`` plane position of the *currently best*
            candidate (highest running vote sum) — the final trajectory
            re-reads every instant from the candidate that wins overall.
        candidate_index: which candidate supplied :attr:`position`.
        vote: that candidate's Eq. 7 vote at this instant.
    """

    index: int
    time: float
    position: np.ndarray
    candidate_index: int
    vote: float


class TrackingSession:
    """Online reconstruction of one tag's trajectory.

    Args:
        system: the (batch) pipeline facade supplying the deployment,
            plane, positioner and tracer. Streaming reuses its exact
            components, which is what makes streaming ≡ batch.
        epc_hex: only ingest reports of this tag — reports of other
            tags are silently skipped (counted in
            :attr:`skipped_foreign_reports`), mirroring the batch
            builder's per-EPC filter. ``None`` accepts the first EPC
            seen, pins to it, and then treats a different EPC as a
            routing error (use a
            :class:`~repro.stream.manager.SessionManager` to
            demultiplex tags).
        pairs: antenna pairs to difference (default: all same-reader
            pairs of the system's deployment — the batch default).
        sample_rate: shared timeline rate in Hz.
        min_reads_per_antenna: the batch dead-antenna threshold.
        candidate_count: how many initial candidates to trace (default:
            the positioner's configured count).
        out_of_order: per-antenna timestamp policy, see
            :class:`~repro.stream.resampler.StreamResampler`. Under
            ``"drop"``, non-finite phase samples from a flaky reader are
            likewise counted in the resampler's ``dropped_reports`` and
            skipped instead of killing the session.
        retain_reports: keep raw reports so degenerate streams can fall
            back to the batch builder at finalize. Disable for bounded
            memory on healthy long-running streams.
        prune_margin: steady-state cost knob — drop trace candidates
            whose running vote sum trails the leader's by more than this
            margin, shrinking the per-step batched solve. Safe for any
            positive value: the engine resumes a dropped candidate at
            finalize whenever its frozen sum does not already prove it a
            loser (see :meth:`repro.core.engine.BatchedTracer.begin`),
            so the chosen trajectory is always identical to the
            unpruned batch answer; only the per-candidate diagnostics of
            certified losers are omitted from the result. ``None``
            (default) disables pruning.
        prune_burn_in: steps before pruning may begin.
    """

    def __init__(
        self,
        system: RFIDrawSystem,
        epc_hex: str | None = None,
        pairs: list[AntennaPair] | None = None,
        sample_rate: float = 20.0,
        min_reads_per_antenna: int = 4,
        candidate_count: int | None = None,
        out_of_order: str = "raise",
        retain_reports: bool = True,
        prune_margin: float | None = None,
        prune_burn_in: int = 8,
    ) -> None:
        self.system = system
        self.epc_hex = epc_hex
        self._epc_filtering = epc_hex is not None
        self.skipped_foreign_reports = 0
        self.pairs = (
            list(pairs) if pairs is not None else system.deployment.pairs()
        )
        self.sample_rate = float(sample_rate)
        self.min_reads_per_antenna = int(min_reads_per_antenna)
        self.candidate_count = candidate_count
        self.retain_reports = retain_reports
        # Fail fast on bad knobs (the engine re-validates at begin(), but
        # that is mid-stream — long after a SessionManager loop started).
        if prune_margin is not None and not float(prune_margin) > 0:
            raise ValueError("prune_margin must be positive")
        if int(prune_burn_in) < 1:
            raise ValueError("prune_burn_in must be at least 1")
        self.prune_margin = prune_margin
        self.prune_burn_in = prune_burn_in
        self.resampler = StreamResampler(
            self.pairs,
            sample_rate=self.sample_rate,
            min_reads_per_antenna=self.min_reads_per_antenna,
            out_of_order=out_of_order,
        )
        self.state = SessionState.WARMING
        self.candidates: list[PositionCandidate] = []
        self.points: list[TrajectoryPoint] = []
        self.result: ReconstructionResult | None = None
        self.report_count = 0
        # Resampler drop counters, stashed at release() so the stats a
        # SessionManager aggregates survive the buffers being freed.
        self._released_drop_counts: tuple[int, int] = (0, 0)
        self._reports: list[PhaseReport] = []
        self._trace_state: TraceState | None = None
        self._running_votes: np.ndarray | None = None
        self._times: list[float] = []
        self._series_mode = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_tracking(self) -> bool:
        return self.state is SessionState.TRACKING

    @property
    def point_count(self) -> int:
        return len(self.points)

    @property
    def dropped_reports(self) -> int:
        """Reports the resampler discarded (``"drop"`` policy), total.

        Still readable after :meth:`release` freed the resampler.
        """
        if self.resampler is not None:
            return self.resampler.dropped_reports
        return self._released_drop_counts[0]

    @property
    def dropped_nonfinite(self) -> int:
        """The non-finite-phase subset of :attr:`dropped_reports`."""
        if self.resampler is not None:
            return self.resampler.dropped_nonfinite
        return self._released_drop_counts[1]

    def latest_point(self) -> TrajectoryPoint | None:
        return self.points[-1] if self.points else None

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def ingest(self, report: PhaseReport) -> list[TrajectoryPoint]:
        """Fold one phase report in; return any newly emitted points."""
        return [self._on_sample(sample) for sample in self._prepare(report)]

    def _prepare(self, report: PhaseReport) -> list[PairSample]:
        """Route one report into the resampler; return the finalized samples.

        The front half of :meth:`ingest` — validation, EPC pinning,
        incremental unwrap/interpolation, raw-report retention —
        *without* advancing the tracer. :meth:`ingest` steps each
        returned sample immediately;
        :meth:`repro.stream.manager.SessionManager.ingest_burst` instead
        collects the samples of many sessions and advances them through
        :func:`step_sessions`. Both paths produce bit-identical points
        because the step arithmetic is row-separable
        (:meth:`repro.core.engine.BatchedTracer.step_many`).
        """
        if self.state is SessionState.FINALIZED:
            raise ValueError("cannot ingest into a finalized session")
        if self._series_mode:
            raise ValueError(
                "this session consumes prebuilt series, not raw reports"
            )
        if self.epc_hex is None:
            self.epc_hex = report.epc_hex
        elif report.epc_hex != self.epc_hex:
            if self._epc_filtering:
                # An explicitly pinned session acts like the batch
                # builder's per-EPC filter: foreign tags just pass by.
                self.skipped_foreign_reports += 1
                return []
            raise ValueError(
                f"report for tag {report.epc_hex} routed to the session "
                f"tracking {self.epc_hex} (use a SessionManager to "
                "demultiplex tags)"
            )
        samples = self.resampler.ingest(report)  # may raise in strict mode
        self.report_count += 1
        # Retain even reports the resampler dropped as stale — the batch
        # builder would see them (the log is time-sorted), so a fallback
        # needs them to answer identically. Non-finite phases are the
        # exception: they are not data and would poison the fallback.
        if self.retain_reports and math.isfinite(report.phase):
            self._reports.append(report)
        return samples

    def extend(self, reports) -> list[TrajectoryPoint]:
        """Ingest an iterable of reports; return all emitted points."""
        emitted: list[TrajectoryPoint] = []
        for report in reports:
            emitted.extend(self.ingest(report))
        return emitted

    # ------------------------------------------------------------------
    # Prebuilt-series ingest (the batch facade's path)
    # ------------------------------------------------------------------
    def ingest_series(self, series: list[PairSeries]) -> list[TrajectoryPoint]:
        """Stream already-resampled pair series through the session.

        This is how the batch facade routes through the streaming core:
        each timeline instant of the prebuilt series is fed to the same
        incremental positioner/tracer machinery a live stream drives.
        The session must be fresh (no raw reports ingested).
        """
        return [self._on_sample(sample) for sample in self._prepare_series(series)]

    def _prepare_series(self, series: list[PairSeries]) -> list[PairSample]:
        """The front half of :meth:`ingest_series`: validate the series,
        switch to series mode and return one unstepped sample per
        timeline instant (:func:`repro.core.pipeline.reconstruct_many`
        hands them to :func:`step_sessions`)."""
        if self.state is not SessionState.WARMING or self.points:
            raise ValueError(
                "ingest_series needs a fresh session (nothing ingested yet)"
            )
        check_series(series)
        self._series_mode = True
        self.pairs = [entry.pair for entry in series]
        delta = np.stack([entry.delta_phi for entry in series])  # (P, T)
        times = series[0].times
        return [
            PairSample(index=index, time=float(times[index]), delta_phi=delta[:, index])
            for index in range(len(times))
        ]

    # ------------------------------------------------------------------
    # The incremental core
    # ------------------------------------------------------------------
    def _on_sample(self, sample: PairSample) -> TrajectoryPoint:
        """Advance the tracker by one timeline instant."""
        if self.state is SessionState.WARMING:
            self._warm_up(sample)
        positions, votes = self.system.tracer.step(
            self._trace_state, sample.delta_phi
        )
        return self._emit_point(sample, positions, votes)

    def _warm_up(self, sample: PairSample) -> None:
        """Warm-up instant: run the multi-resolution positioner on the
        first snapshot, lock lobes, seed every candidate — exactly the
        batch pipeline's front half."""
        snapshot = PhaseSnapshot(
            pairs=self.pairs,
            delta_phi=np.array(
                [wrap_to_pi(value) for value in sample.delta_phi]
            ),
            time=sample.time,
        )
        self.candidates = self.system.positioner.candidates(
            snapshot, self.candidate_count
        )
        if not self.candidates:
            raise ValueError("the positioner produced no candidates")
        starts = np.stack(
            [candidate.position for candidate in self.candidates]
        )
        self._trace_state = self.system.tracer.begin(
            self.pairs,
            sample.delta_phi,
            starts,
            prune_margin=self.prune_margin,
            prune_burn_in=self.prune_burn_in,
        )
        self._running_votes = self._trace_state.running
        self.state = SessionState.TRACKING

    def _emit_point(
        self, sample: PairSample, positions: np.ndarray, votes: np.ndarray
    ) -> TrajectoryPoint:
        """Fold one solved step (from :meth:`~repro.core.engine.BatchedTracer.step`
        or a merged ``step_many`` row) into the session's histories.

        The step returns rows for the candidates still active (all of
        them unless pruning is on). The emitted point is the best
        *active* candidate by running vote sum — a pruned candidate's
        frozen sum can drift above the leader's late in a long trace,
        but it has no live position to report (and finalize resumes it
        if it could actually win).
        """
        stepped = self._trace_state.active_history[-1]
        if stepped.size == self._running_votes.size:
            row = int(np.argmax(self._running_votes))
            best = row
        elif stepped.size == 1:
            row = 0
            best = int(stepped[0])
        else:
            row = int(np.argmax(self._running_votes[stepped]))
            best = int(stepped[row])
        point = TrajectoryPoint(
            index=sample.index,
            time=sample.time,
            position=positions[row].copy(),
            candidate_index=best,
            vote=float(votes[row]),
        )
        self._times.append(sample.time)
        self.points.append(point)
        return point

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self) -> ReconstructionResult:
        """Drain the timeline tail and pick the winning trajectory.

        Returns the same :class:`ReconstructionResult` the batch
        pipeline computes on the equivalent finished log.
        """
        if self.state is SessionState.FINALIZED:
            assert self.result is not None
            return self.result
        if not self._series_mode:
            try:
                tail = self.resampler.drain()
            except ValueError as error:
                if "no overlapping observation window" not in str(error):
                    raise
                # E.g. stale bursts dropped under out_of_order="drop"
                # left the stream's per-antenna windows disjoint. The
                # batch builder over the retained (time-sorted) reports
                # handles exactly this shape, so answer like batch
                # instead of crashing. (Other ValueErrors are real bugs
                # and must surface.)
                return self._finalize_fallback()
            for sample in tail:
                self._on_sample(sample)
        if self.state is not SessionState.TRACKING:
            return self._finalize_fallback()
        traces = self.system.tracer.finish(self._trace_state)
        indices = self._trace_state.result_indices
        if indices is not None and len(indices) != len(self.candidates):
            # Pruning certified the missing candidates as losers; the
            # result pairs the surviving candidates with their traces
            # and records each row's original warm-up index, so live
            # TrajectoryPoint.candidate_index values stay resolvable.
            candidates = [self.candidates[index] for index in indices]
            candidate_indices = list(indices)
        else:
            candidates = self.candidates
            candidate_indices = None
        chosen = int(np.argmax([trace.total_vote for trace in traces]))
        self.result = ReconstructionResult(
            times=np.asarray(self._times, dtype=float),
            chosen_index=chosen,
            candidates=candidates,
            traces=traces,
            candidate_indices=candidate_indices,
        )
        self.state = SessionState.FINALIZED
        return self.result

    def release(self) -> None:
        """Free the tracking buffers of a finalized session.

        :attr:`result`, :attr:`points` and :attr:`candidates` stay
        available; the resampler's per-antenna history, the engine's
        incremental trace state and the retained raw reports exist only
        to *compute* the result and are dropped. A long-lived
        :class:`~repro.stream.manager.SessionManager` with a
        ``retain_results`` cap calls this as sessions close so a
        day-long stream's finalized tags stop holding per-report
        memory. Idempotent; ingesting into a released session raises
        exactly like any finalized session.
        """
        if self.state is not SessionState.FINALIZED:
            raise ValueError("release() needs a finalized session")
        if self.resampler is not None:
            self._released_drop_counts = (
                self.resampler.dropped_reports,
                self.resampler.dropped_nonfinite,
            )
        self._reports = []
        self._trace_state = None
        self._running_votes = None
        self.resampler = None

    def _finalize_fallback(self) -> ReconstructionResult:
        """Degenerate stream: defer to the batch builder over raw reports.

        Streams whose timeline never started (dead antenna, too few
        reads) are exactly the inputs the batch path handles by dropping
        pairs — replaying the retained reports through it keeps the
        streaming API's answers identical to batch on every input.
        """
        if not self.retain_reports:
            raise ValueError(
                "stream never warmed up and retain_reports=False left "
                "nothing to fall back on"
            )
        if not self._reports:
            raise ValueError("cannot finalize an empty session")
        log = MeasurementLog(list(self._reports))
        series = build_pair_series(
            log,
            self.system.deployment,
            epc_hex=self.epc_hex,
            pairs=self.pairs,
            sample_rate=self.sample_rate,
            min_reads_per_antenna=self.min_reads_per_antenna,
        )
        fallback = TrackingSession(
            self.system,
            candidate_count=self.candidate_count,
            prune_margin=self.prune_margin,
            prune_burn_in=self.prune_burn_in,
        )
        fallback.ingest_series(series)
        self.points = fallback.points
        self.candidates = fallback.candidates
        self.result = fallback.finalize()
        # Adopt the fallback's timeline too, so this session's internal
        # time list agrees with result.times (the invariant every
        # non-degenerate finalize upholds).
        self._times = list(fallback._times)
        self.state = SessionState.FINALIZED
        return self.result


def step_sessions(
    queues: Iterable[tuple[TrackingSession, list[PairSample]]],
) -> Iterator[tuple[TrackingSession, TrajectoryPoint]]:
    """Advance many sessions through their queued samples in merged rounds.

    Round ``r`` takes the ``r``-th sample of every queue that still has
    one, in queue order. A session still warming up runs its positioner
    on that sample first, exactly as :meth:`TrackingSession.ingest`
    would. The round's sessions are then grouped by
    :attr:`repro.core.engine.TraceState.merge_key`, and each group
    advances in one :meth:`repro.core.engine.BatchedTracer.step_many`
    solve. The solve is row-separable, so every point is bit-identical
    to stepping its session alone.

    Args:
        queues: ``(session, samples)`` pairs; each session appears once.

    Yields:
        ``(session, point)`` for every sample: round by round, then
        group by group in first-seen key order, then in queue order.
    """
    queues = [(session, samples) for session, samples in queues if samples]
    round_index = 0
    while queues:
        groups: dict[tuple, list] = {}
        for session, samples in queues:
            sample = samples[round_index]
            if session.state is SessionState.WARMING:
                session._warm_up(sample)
            groups.setdefault(session._trace_state.merge_key, []).append(
                (session, sample)
            )
        for items in groups.values():
            outputs = items[0][0].system.tracer.step_many(
                [(session._trace_state, sample.delta_phi) for session, sample in items]
            )
            for (session, sample), (positions, votes) in zip(items, outputs):
                yield session, session._emit_point(sample, positions, votes)
        round_index += 1
        queues = [
            (session, samples) for session, samples in queues if round_index < len(samples)
        ]
