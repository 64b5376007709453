"""End-to-end RF-IDraw pipeline: phase series in, chosen trajectory out.

Mirrors the algorithm summary at the end of paper section 5.2:

1. select a few candidate initial positions with the highest total votes
   (multi-resolution positioning on the initial phase measurements);
2. trace one trajectory per candidate, locking each antenna pair to the
   grating lobe nearest that candidate;
3. pick the trajectory whose summed vote across all points is highest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import BatchedTracer
from repro.geometry.antennas import Deployment
from repro.geometry.plane import WritingPlane
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.core.positioning import (
    MultiResolutionPositioner,
    PositionCandidate,
    PositionerConfig,
)
from repro.core.tracing import TraceResult, TracerConfig
from repro.rfid.sampling import PairSeries, snapshot_at

__all__ = ["ReconstructionResult", "RFIDrawSystem", "reconstruct_many"]


@dataclass
class ReconstructionResult:
    """Everything the pipeline produced for one trace.

    Attributes:
        trajectory: the chosen ``(T, 2)`` plane-coordinate trajectory.
        times: the shared timeline of the trajectory samples.
        chosen_index: which candidate produced the chosen trajectory —
            an index into :attr:`candidates`/:attr:`traces`.
        candidates: candidate initial positions, best vote first.
        traces: one :class:`TraceResult` per candidate (same order).
        candidate_indices: when a pruned streaming session omitted
            certified-loser candidates, the *original* warm-up index of
            each row of :attr:`candidates`/:attr:`traces` (matching the
            ``candidate_index`` carried by live ``TrajectoryPoint``\\ s);
            ``None`` when the rows already are the full warm-up list.
    """

    times: np.ndarray
    chosen_index: int
    candidates: list[PositionCandidate]
    traces: list[TraceResult]
    candidate_indices: list[int] | None = None

    @property
    def trajectory(self) -> np.ndarray:
        return self.traces[self.chosen_index].positions

    @property
    def votes(self) -> np.ndarray:
        return self.traces[self.chosen_index].votes

    @property
    def total_vote(self) -> float:
        return self.traces[self.chosen_index].total_vote

    @property
    def initial_position(self) -> np.ndarray:
        """The chosen trajectory's first reconstructed point."""
        return self.trajectory[0]


class RFIDrawSystem:
    """Facade tying the positioner and tracer together.

    Args:
        deployment: the RF-IDraw 8-antenna deployment.
        plane: writing plane for all reported coordinates.
        wavelength: carrier wavelength.
        round_trip: 2 for backscatter RFID (the prototype), 1 for one-way.
        positioner_config / tracer_config: stage tunables.
    """

    def __init__(
        self,
        deployment: Deployment,
        plane: WritingPlane,
        wavelength: float = DEFAULT_WAVELENGTH,
        round_trip: float = 2.0,
        positioner_config: PositionerConfig | None = None,
        tracer_config: TracerConfig | None = None,
    ) -> None:
        self.deployment = deployment
        self.plane = plane
        self.wavelength = wavelength
        self.round_trip = round_trip
        self.positioner = MultiResolutionPositioner(
            deployment,
            plane,
            wavelength,
            round_trip,
            positioner_config,
        )
        # The vectorized engine tracer: advances every candidate
        # trajectory simultaneously.
        self.tracer = BatchedTracer(plane, wavelength, round_trip, tracer_config)

    def reconstruct(
        self,
        series: list[PairSeries],
        candidate_count: int | None = None,
    ) -> ReconstructionResult:
        """Run the full pipeline on per-pair phase series.

        This is a thin batch facade over the streaming core: the
        one-word case of :func:`reconstruct_many`, which streams the
        series instant-by-instant through a
        :class:`repro.stream.session.TrackingSession` and finalizes it —
        the streaming path is authoritative, batch is just "feed
        everything, then finalize".

        Args:
            series: unwrapped Δφ series on a shared timeline (from
                :func:`repro.rfid.sampling.build_pair_series`).
            candidate_count: how many initial candidates to trace
                (default: the positioner's configured count).

        Returns:
            A :class:`ReconstructionResult` with the chosen trajectory and
            all per-candidate diagnostics.
        """
        return reconstruct_many([(self, series)], candidate_count)[0]

    def reconstruct_log(
        self,
        log,
        epc_hex: str | None = None,
        *,
        config=None,
    ) -> ReconstructionResult:
        """Reconstruct straight from a raw measurement log.

        Streams every report of ``log`` (a
        :class:`repro.rfid.sampling.MeasurementLog` or an iterable of
        reports) through a fresh :class:`TrackingSession` in time order
        and finalizes — equivalent to building pair series and calling
        :meth:`reconstruct`, without the intermediate structure.

        Pass the session policy as ``config``
        (:class:`repro.stream.SessionConfig`, default ``SessionConfig()``)
        — notably ``prune_margin``/``prune_burn_in`` (drop hopeless trace
        candidates mid-stream; the chosen trajectory is provably still
        the batch one, see :meth:`repro.core.engine.BatchedTracer.begin`)
        and ``out_of_order="drop"`` (survive stale or non-finite reports
        from a flaky reader).
        """
        from repro.rfid.sampling import MeasurementLog

        session = self.open_session(epc_hex=epc_hex, config=config)
        reports = log.reports if isinstance(log, MeasurementLog) else log
        session.extend(reports)
        return session.finalize()

    def open_session(
        self, config=None, *, epc_hex: str | None = None, pairs=None
    ):
        """A fresh :class:`repro.stream.session.TrackingSession` over
        this system's deployment, positioner and tracer.

        Pass the tunables as ``config``
        (:class:`repro.stream.SessionConfig`, default ``SessionConfig()``)
        — ``prune_margin`` / ``prune_burn_in`` tune steady-state
        candidate pruning, ``out_of_order`` the dirty-input policy; the
        manager-level fields (``idle_timeout`` etc.) are ignored here.
        ``epc_hex=`` / ``pairs=`` are the session's identity, not
        policy (see :class:`~repro.stream.session.TrackingSession`)."""
        from repro.stream.session import TrackingSession

        return TrackingSession(self, epc_hex=epc_hex, pairs=pairs, config=config)

    def reconstruct_many(
        self,
        series_blocks,
        candidate_count: int | None = None,
    ) -> list["ReconstructionResult"]:
        """Batch :meth:`reconstruct` over many independent words.

        Convenience form of the module-level :func:`reconstruct_many`
        for words that share this system (same deployment and plane) —
        e.g. many gestures recorded on one virtual touch screen.

        Args:
            series_blocks: one ``list[PairSeries]`` per word.
            candidate_count: forwarded to every word's positioner.

        Returns:
            One :class:`ReconstructionResult` per block, in order, each
            bit-identical to ``self.reconstruct(block, candidate_count)``.
        """
        return reconstruct_many(
            [(self, series) for series in series_blocks], candidate_count
        )

    def locate(self, series: list[PairSeries], index: int = 0) -> PositionCandidate:
        """One-shot position fix from a single snapshot (no tracing)."""
        return self.positioner.locate(snapshot_at(series, index=index))


def reconstruct_many(
    items,
    candidate_count: int | None = None,
) -> list[ReconstructionResult]:
    """Reconstruct many independent words in merged engine blocks.

    Each word becomes one series-mode
    :class:`repro.stream.session.TrackingSession`, and
    :func:`repro.stream.session.step_sessions` advances all of them
    together — the same grouped stepper
    :meth:`repro.stream.manager.SessionManager.ingest_burst` uses. The
    engine's per-candidate solve is row-separable
    (:meth:`repro.core.engine.BatchedTracer.begin`), so at each timeline
    instant the candidates of every word with an equal
    :attr:`repro.core.engine.TraceState.merge_key` (same pair geometry,
    ``round_trip/wavelength`` scale and tracer settings) share one
    batched Gauss–Newton block, and words whose timeline ended simply
    drop out. Writing planes may differ within a block (each candidate
    row carries its own plane frame), and words need not share a
    system object.

    Every result is **bit-identical** to the word's own
    ``system.reconstruct(series, candidate_count)``
    (``tests/test_core_reconstruct_many.py`` enforces this across
    seeds, LOS/NLOS and the one-way WiFi configuration). What changes
    is the constant factor: the per-step numpy dispatch is paid once
    per block instead of once per word, which is what makes the
    fig11/fig14/fig15 sweeps scale.

    Args:
        items: ``(system, series)`` pairs — one :class:`RFIDrawSystem`
            and its word's ``list[PairSeries]`` per entry.
        candidate_count: how many initial candidates to trace per word
            (default: each positioner's configured count).

    Returns:
        One :class:`ReconstructionResult` per item, in item order.
    """
    from repro.stream.config import SessionConfig
    from repro.stream.session import TrackingSession, step_sessions

    config = SessionConfig(candidate_count=candidate_count)
    queues = []
    for system, series in items:
        session = TrackingSession(system, config=config)
        queues.append((session, session._prepare_series(list(series))))
    step_sessions(queues)
    return [session.finalize() for session, _ in queues]
