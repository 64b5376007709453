"""One session-config surface for every tier of the tracking stack.

:class:`SessionConfig` is the only way to pass a tracking-session or
session-manager tunable. It is one frozen, validated value, so "the
production ingest policy" can be handed around, compared and shipped to
the worker processes of the sharded :class:`repro.serve.TrackingService`
unchanged. Every tier takes it as ``config=``:

    config = SessionConfig(out_of_order="drop", prune_margin=4.0,
                           idle_timeout=30.0, retain_results=256)
    manager = SessionManager(system, config=config)
    session = system.open_session(config=config)
    result = system.reconstruct_log(log, config=config)

A session reads the per-session fields and ignores the manager-level
ones (``idle_timeout``, ``max_sessions``, ``retain_results``). A tag's
identity (``epc_hex=``, ``pairs=``) is not policy and stays a keyword
argument of the session constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """Every tracking-session and manager tunable, as one frozen value.

    Per-session knobs, read by
    :class:`repro.stream.session.TrackingSession`:

    Attributes:
        sample_rate: shared resample timeline rate in Hz.
        min_reads_per_antenna: the batch dead-antenna threshold.
        candidate_count: how many initial candidates to trace (``None``:
            the positioner's configured count).
        out_of_order: per-antenna timestamp policy, see
            :class:`~repro.stream.resampler.StreamResampler`:
            ``"raise"`` (strict) or ``"drop"`` (robust ingest: stale
            arrivals and non-finite phases from a flaky reader are
            counted in the resampler's ``dropped_reports`` and skipped
            instead of killing the session).
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

    Manager/service-level policy (see
    :class:`repro.stream.manager.SessionManager`):

    Attributes:
        idle_timeout: auto-finalize a tag silent for this many *report*
            seconds behind the stream frontier (``None``: never).
        max_sessions: cap on concurrently open sessions (LRU eviction;
            per shard when used with :class:`repro.serve.TrackingService`).
        retain_results: cap on retained closed-session history.

    Invalid values raise :class:`ValueError` here, at construction, so a
    bad knob fails before any stream starts rather than mid-stream.
    """

    sample_rate: float = 20.0
    min_reads_per_antenna: int = 4
    candidate_count: int | None = None
    out_of_order: str = "raise"
    prune_margin: float | None = None
    prune_burn_in: int = 8
    idle_timeout: float | None = None
    max_sessions: int | None = None
    retain_results: int | None = None

    def __post_init__(self) -> None:
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        if int(self.min_reads_per_antenna) < 1:
            raise ValueError("min_reads_per_antenna must be at least 1")
        if self.candidate_count is not None and int(self.candidate_count) < 1:
            raise ValueError("candidate_count must be at least 1")
        if self.out_of_order not in ("raise", "drop"):
            raise ValueError('out_of_order must be "raise" or "drop"')
        if self.prune_margin is not None and not float(self.prune_margin) > 0:
            raise ValueError("prune_margin must be positive")
        if int(self.prune_burn_in) < 1:
            raise ValueError("prune_burn_in must be at least 1")
        if self.idle_timeout is not None and not self.idle_timeout > 0:
            raise ValueError("idle_timeout must be positive")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must allow at least one session")
        if self.retain_results is not None and self.retain_results < 0:
            raise ValueError("retain_results must be non-negative")

    def with_updates(self, **changes) -> "SessionConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)
