"""Streaming session API: ingest-as-you-go reconstruction.

RF-IDraw is a *live* virtual touch screen, so the public API tracks tags
online rather than demanding a finished measurement log:

* :class:`~repro.stream.resampler.StreamResampler` — incremental
  unwrap + interpolation: raw phase reports in, shared-timeline Δφ
  instants out, each emitted as soon as its value is final.
* :class:`~repro.stream.session.TrackingSession` — one tag's online
  pipeline: warm-up → multi-resolution positioning → step-by-step
  lobe-locked tracing, emitting trajectory points with bounded
  per-report work. :meth:`~repro.stream.session.TrackingSession.finalize`
  returns the exact batch :class:`~repro.core.pipeline.ReconstructionResult`.
  The ``prune_margin``/``prune_burn_in`` knobs drop hopeless trace
  candidates mid-stream, shrinking the steady-state per-step solve
  while provably keeping the winning trajectory identical to batch.
* :class:`~repro.stream.manager.SessionManager` — multi-tag routing by
  EPC with lifecycle events, a JSONL
  :meth:`~repro.stream.manager.SessionManager.replay` driver, and an
  eviction policy (``idle_timeout``/``max_sessions``) that
  auto-finalizes tags that stop replying, so a day-long merged stream
  holds bounded open-session state.

The batch facade ``RFIDrawSystem.reconstruct`` is a thin wrapper over
this subsystem (feed everything, finalize), so streaming and batch can
never drift apart.
"""

from repro.stream.config import SessionConfig
from repro.stream.manager import (
    ManagerStats,
    PointEmitted,
    ReplayResult,
    SessionEvent,
    SessionEventType,
    SessionEvicted,
    SessionFinalized,
    SessionManager,
    SessionStarted,
)
from repro.stream.resampler import PairSample, StreamResampler
from repro.stream.session import SessionState, TrackingSession, TrajectoryPoint

__all__ = [
    "ManagerStats",
    "PairSample",
    "PointEmitted",
    "ReplayResult",
    "SessionConfig",
    "SessionEvent",
    "SessionEventType",
    "SessionEvicted",
    "SessionFinalized",
    "SessionManager",
    "SessionStarted",
    "SessionState",
    "StreamResampler",
    "TrackingSession",
    "TrajectoryPoint",
]
