"""Grating-lobe trajectory tracing (paper section 5.2): settings and results.

Given a candidate initial position, the tracer:

1. identifies, for every antenna pair, the grating lobe closest to that
   position — an integer lobe index ``k``;
2. tracks the *continuous rotation* of exactly those lobes: because the
   pair series' Δφ is already unwrapped over time, fixing ``k`` turns
   Eq. 7 into a smooth residual per pair, and each time step becomes a
   small nonlinear least-squares solve seeded at the previous position;
3. records the total vote at every step. In the over-constrained system
   (more pairs than unknowns), locking the *wrong* lobes makes them stop
   intersecting as the tag moves, so the wrong candidate's vote decays —
   which is how the best initial position is selected (section 7.2): the
   trajectory with the highest total vote (Eq. 7) wins.

The tracer itself is :class:`repro.core.engine.BatchedTracer`, which
advances every candidate trajectory at once; this module holds its
tunables (:class:`TracerConfig`) and its per-candidate output
(:class:`TraceResult`: the trajectory, its per-step votes, its lobe
locks and its start).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TracerConfig", "TraceResult"]


@dataclass
class TracerConfig:
    """Trajectory tracer tunables."""

    #: Hard cap on the per-step movement (metres); handwriting at M6e read
    #: rates moves a few mm per sample, so this only guards against
    #: divergence on corrupted steps.
    max_step: float = 0.30
    #: Loss for the per-step solver: "linear" (pure least squares) or
    #: "soft_l1" (robust to one bad pair, e.g. a multipath glitch).
    loss: str = "soft_l1"
    #: Scale (in cycles) where the robust loss starts to saturate.
    loss_scale: float = 0.12

    def __post_init__(self) -> None:
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.loss not in ("linear", "soft_l1"):
            raise ValueError(f"unsupported loss {self.loss!r}")
        if not self.loss_scale > 0:
            raise ValueError("loss_scale must be positive")


@dataclass
class TraceResult:
    """A reconstructed trajectory from one candidate initial position.

    Attributes:
        positions: ``(T, 2)`` plane coordinates.
        votes: ``(T,)`` total vote at each step (≤ 0, higher is better).
        locks: the lobe index each pair was locked to.
        initial_position: the candidate this trace started from.
    """

    positions: np.ndarray
    votes: np.ndarray
    locks: dict[tuple[int, int], int]
    initial_position: np.ndarray

    @property
    def total_vote(self) -> float:
        """Sum of votes along the whole trajectory (Eq. 7 selection)."""
        return float(self.votes.sum())

    def __len__(self) -> int:
        return int(self.positions.shape[0])
