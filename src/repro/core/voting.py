"""The antenna-pair vote (paper Eq. 6 and Eq. 7).

An antenna pair ``<i, j>`` that measured phase difference ``Δφ`` votes on a
point ``P`` according to how far ``P`` is from the pair's nearest beam /
grating lobe, in (squared) cycles::

    V(P) = − min_k ‖ rt·Δd(P)/λ − Δφ/2π − k ‖²          (Eq. 7)

For a tightly spaced pair (``rt·D ≤ λ/2``) the minimisation admits only
``k = 0``, recovering Eq. 6. The library always evaluates the exact
hyperbolic form (the paper's Eq. 2), not the far-field approximation, as
the paper itself recommends for implementation.

Votes are ≤ 0; 0 means "exactly on a lobe".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import PairBank
from repro.geometry.antennas import AntennaPair
from repro.geometry.plane import WritingPlane
from repro.rf.phase import cycle_residual

__all__ = ["pair_votes", "total_votes", "VoteMap"]


def pair_votes(
    pair: AntennaPair,
    delta_phi: float,
    points: np.ndarray,
    wavelength: float,
    round_trip: float = 2.0,
    lock_k: int | None = None,
) -> np.ndarray:
    """Eq. 6/7 vote of one pair on many 3-D points.

    Args:
        pair: the antenna pair.
        delta_phi: measured ``φ_second − φ_first`` (any 2π offset is fine —
            it shifts ``k``, which is minimised over or locked).
        points: ``(N, 3)`` world points to vote on.
        wavelength: carrier wavelength.
        round_trip: 2 for backscatter, 1 for one-way sources.
        lock_k: if given, vote with this fixed lobe index instead of the
            nearest lobe — the trajectory tracer's "keep rotating with the
            same grating lobe" rule.

    Returns:
        ``(N,)`` votes, each ``−residual²`` in cycles².
    """
    residual = cycle_residual(
        pair.path_difference(points), delta_phi, wavelength, round_trip, k=lock_k
    )
    return -np.square(residual)


def total_votes(
    pairs: list[AntennaPair],
    delta_phis: np.ndarray,
    points: np.ndarray,
    wavelength: float,
    round_trip: float = 2.0,
) -> np.ndarray:
    """Sum of every pair's vote on each point (the paper's ``V(P)``).

    Evaluated through the vectorized engine
    (:class:`repro.core.engine.PairBank`): one shared distance matrix
    over the unique antennas instead of a Python-level per-pair loop.
    """
    delta_phis = np.asarray(delta_phis, dtype=float)
    if len(pairs) != delta_phis.size:
        raise ValueError("need exactly one Δφ per pair")
    if not pairs:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros(points.shape[0])
    return PairBank(pairs).total_votes(delta_phis, points, wavelength, round_trip)


@dataclass
class VoteMap:
    """Total votes evaluated over a plane grid, with peak extraction.

    Attributes:
        plane: the grid's plane.
        us, vs: the grid axes (plane coordinates).
        votes: ``(len(vs), len(us))`` total votes.
    """

    plane: WritingPlane
    us: np.ndarray
    vs: np.ndarray
    votes: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.vs.size, self.us.size)
        if self.votes.shape != expected:
            raise ValueError(
                f"votes shape {self.votes.shape} does not match grid {expected}"
            )

    @property
    def best_vote(self) -> float:
        return float(self.votes.max())

    def best_point(self) -> np.ndarray:
        """Plane coordinates of the highest-vote grid cell."""
        row, col = np.unravel_index(int(np.argmax(self.votes)), self.votes.shape)
        return np.array([self.us[col], self.vs[row]])

    def threshold_mask(self, margin: float) -> np.ndarray:
        """Cells whose vote is within ``margin`` of the best vote."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return self.votes >= self.best_vote - margin

    def peaks(
        self, count: int, min_separation: float, margin: float | None = None
    ) -> list[tuple[np.ndarray, float]]:
        """Up to ``count`` local maxima, greedily non-max suppressed.

        Args:
            count: maximum number of peaks to return.
            min_separation: minimum plane distance between returned peaks.
            margin: optionally ignore cells more than this far below the
                best vote.

        Returns:
            ``(plane position, vote)`` tuples, best first.
        """
        votes = self.votes
        order = np.argsort(votes, axis=None)[::-1]
        picked: list[tuple[np.ndarray, float]] = []
        floor = -np.inf if margin is None else self.best_vote - margin
        for flat_index in order:
            value = float(votes.flat[flat_index])
            if value < floor:
                break
            row, col = np.unravel_index(int(flat_index), votes.shape)
            point = np.array([self.us[col], self.vs[row]])
            if any(
                np.linalg.norm(point - existing) < min_separation
                for existing, _ in picked
            ):
                continue
            picked.append((point, value))
            if len(picked) >= count:
                break
        return picked


def vote_map_on_grid(
    pairs: list[AntennaPair],
    delta_phis: np.ndarray,
    plane: WritingPlane,
    u_range: tuple[float, float],
    v_range: tuple[float, float],
    step: float,
    wavelength: float,
    round_trip: float = 2.0,
) -> VoteMap:
    """Evaluate :func:`total_votes` over a regular plane grid."""
    points, us, vs = plane.grid(u_range, v_range, step)
    votes = total_votes(pairs, delta_phis, points, wavelength, round_trip)
    return VoteMap(plane, us, vs, votes.reshape(vs.size, us.size))
