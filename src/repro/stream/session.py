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
in fact implemented on top of this class: ``reconstruct`` runs through
:func:`repro.core.pipeline.reconstruct_many`, which feeds each word's
series to a session in series mode.

Every path that advances a session steps it through :func:`step_sessions`,
the one grouped stepper: per-report :meth:`TrackingSession.ingest`, the
finalize tail, the degenerate-stream fallback, the batch facade and the
manager's ingest paths.

Lifecycle::

    WARMING ──(warm-up instant fills: positioner runs)──▶ TRACKING
    TRACKING ──(finalize)──▶ FINALIZED

Degenerate streams (an antenna that never reaches the minimum read
count, or a log too short for the timeline to start) fall back, at
finalize time, to the batch series builder over the retained reports,
which the session then steps itself in series mode — so the session never
answers differently from the batch path, it only answers *earlier* when
the stream is healthy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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
from repro.stream.config import SessionConfig
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
        config: the session policy — timeline rate, dead-antenna
            threshold, candidate count, out-of-order policy and
            candidate pruning (see
            :class:`~repro.stream.config.SessionConfig`; ``None``
            means ``SessionConfig()``). Its manager-level fields are
            ignored here.
    """

    def __init__(
        self,
        system: RFIDrawSystem,
        epc_hex: str | None = None,
        pairs: list[AntennaPair] | None = None,
        config: SessionConfig | None = None,
    ) -> None:
        self.system = system
        self.epc_hex = epc_hex
        self._epc_filtering = epc_hex is not None
        self.skipped_foreign_reports = 0
        self.pairs = (
            list(pairs) if pairs is not None else system.deployment.pairs()
        )
        self.config = config = (
            config if config is not None else SessionConfig()
        )
        self.resampler = StreamResampler(
            self.pairs,
            sample_rate=config.sample_rate,
            min_reads_per_antenna=config.min_reads_per_antenna,
            out_of_order=config.out_of_order,
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

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def ingest(self, report: PhaseReport) -> list[TrajectoryPoint]:
        """Fold one phase report in; return any newly emitted points."""
        queue = [(self, self._prepare(report))]
        return [point for _, point in step_sessions(queue)]

    def _prepare(self, report: PhaseReport) -> list[PairSample]:
        """Route one report into the resampler; return the finalized samples.

        The front half of :meth:`ingest` — validation, EPC pinning,
        incremental unwrap/interpolation, raw-report retention —
        *without* advancing the tracer. :meth:`ingest` steps the
        returned samples at once;
        :meth:`repro.stream.manager.SessionManager.ingest_burst` instead
        collects the samples of many sessions first. Both hand them to
        :func:`step_sessions`, and both produce bit-identical points
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
        if math.isfinite(report.phase):
            self._reports.append(report)
        return samples

    def extend(self, reports) -> list[TrajectoryPoint]:
        """Ingest an iterable of reports; return all emitted points."""
        emitted: list[TrajectoryPoint] = []
        for report in reports:
            emitted.extend(self.ingest(report))
        return emitted

    # ------------------------------------------------------------------
    # Prebuilt-series input (the batch facade's path)
    # ------------------------------------------------------------------
    def _prepare_series(self, series: list[PairSeries]) -> list[PairSample]:
        """Switch a session that emitted nothing yet to series mode.

        Validates already-resampled pair series and returns one unstepped
        sample per timeline instant, for :func:`step_sessions` to feed
        through the same incremental positioner/tracer machinery a live
        stream drives. :func:`repro.core.pipeline.reconstruct_many` (the
        batch facade) and the degenerate-stream fallback of
        :meth:`finalize` are its callers.
        """
        if self.state is not SessionState.WARMING or self.points:
            raise ValueError(
                "series input needs a fresh session (nothing emitted yet)"
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
    # The incremental core (driven by step_sessions)
    # ------------------------------------------------------------------
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
            snapshot, self.config.candidate_count
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
            prune_margin=self.config.prune_margin,
            prune_burn_in=self.config.prune_burn_in,
        )
        self._running_votes = self._trace_state.running
        self.state = SessionState.TRACKING

    def _emit_point(
        self, sample: PairSample, positions: np.ndarray, votes: np.ndarray
    ) -> TrajectoryPoint:
        """Fold one solved step (a row of
        :meth:`~repro.core.engine.BatchedTracer.step_many`) into the
        session's histories.

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
                # left the stream's per-antenna windows disjoint. No
                # instant was ever emitted then (an emitted instant
                # proves an overlap, and windows only grow), so the
                # fallback below answers like batch instead of
                # crashing. (Other ValueErrors are real bugs and must
                # surface.)
                tail = []
            step_sessions([(self, tail)])
        if self.state is not SessionState.TRACKING:
            step_sessions([(self, self._fallback_samples())])
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

    def _fallback_samples(self) -> list[PairSample]:
        """Degenerate stream: the batch builder's series over raw reports.

        Streams whose timeline never started (dead antenna, too few
        reads) or whose drain found the antenna windows disjoint are
        exactly the inputs the batch path handles by dropping pairs.
        Nothing was emitted from them, so the session switches to
        series mode and steps the batch series itself — which keeps the
        streaming API's answers identical to batch on every input.
        """
        if not self._reports:
            raise ValueError("cannot finalize an empty session")
        log = MeasurementLog(list(self._reports))
        series = build_pair_series(
            log,
            self.system.deployment,
            epc_hex=self.epc_hex,
            pairs=self.pairs,
            sample_rate=self.config.sample_rate,
            min_reads_per_antenna=self.config.min_reads_per_antenna,
        )
        return self._prepare_series(series)


def step_sessions(
    queues: Iterable[tuple[TrackingSession, list[PairSample]]],
) -> list[tuple[TrackingSession, TrajectoryPoint]]:
    """Advance many sessions through their queued samples in merged rounds.

    The only code that advances a session: per-report ingest, the
    finalize tail, the degenerate-stream fallback, the batch facade
    (:func:`repro.core.pipeline.reconstruct_many`) and the manager's
    ingest paths all come through here.

    Round ``r`` takes the ``r``-th sample of every queue that still has
    one, in queue order. A session still warming up runs its positioner
    on that sample first. The round's sessions are then grouped by
    :attr:`repro.core.engine.TraceState.merge_key`, and each group
    advances in one :meth:`repro.core.engine.BatchedTracer.step_many`
    solve. The solve is row-separable, so every point is bit-identical
    to stepping its session alone.

    Args:
        queues: ``(session, samples)`` pairs; each session appears once.

    Returns:
        ``(session, point)`` for every sample: round by round, then
        group by group in first-seen key order, then in queue order.
        The list is returned only after every queued sample was
        stepped, so a caller that fires callbacks on it cannot leave a
        session behind its queue when one of them raises.
    """
    queues = [(session, samples) for session, samples in queues if samples]
    stepped: list[tuple[TrackingSession, TrajectoryPoint]] = []
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
                stepped.append(
                    (session, session._emit_point(sample, positions, votes))
                )
        round_index += 1
        queues = [
            (session, samples) for session, samples in queues if round_index < len(samples)
        ]
    return stepped
