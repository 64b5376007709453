"""Reference vote: the literal per-pair sum of Eq. 6/7."""

from __future__ import annotations

import numpy as np

from repro.core.voting import pair_votes
from repro.geometry.antennas import AntennaPair


def total_votes_reference(
    pairs: list[AntennaPair],
    delta_phis: np.ndarray,
    points: np.ndarray,
    wavelength: float,
    round_trip: float = 2.0,
    locks: dict[tuple[int, int], int] | None = None,
) -> np.ndarray:
    """The literal per-pair sum of Eq. 6/7 votes.

    The executable specification of :func:`repro.core.voting.total_votes`:
    the engine path must match it to within float accumulation error
    (``tests/test_core_engine.py``).
    """
    delta_phis = np.asarray(delta_phis, dtype=float)
    if len(pairs) != delta_phis.size:
        raise ValueError("need exactly one Δφ per pair")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    votes = np.zeros(points.shape[0])
    for pair, delta_phi in zip(pairs, delta_phis):
        lock_k = None if locks is None else locks.get(pair.ids)
        votes += pair_votes(
            pair, float(delta_phi), points, wavelength, round_trip, lock_k
        )
    return votes
