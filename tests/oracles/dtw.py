"""Reference DTW: the scalar loop, the row-by-row batched sweep, and the
adaptive-abandon character loop.

The executable specifications of
:func:`repro.handwriting.dtw.dtw_distance_many`, the package's one DTW
kernel: the wavefront must reproduce the row sweep bit for bit, ``inf``
pattern included (``tests/test_lexicon_dtw_wavefront.py``), and the
scalar loop to ≤1e-9 (``tests/test_lexicon_dtw.py``).
:func:`character_scores_reference` is the character recogniser's
earlier per-template loop, which ``CharacterRecognizer.classify`` must
still agree with.
"""

from __future__ import annotations

import numpy as np

from repro.handwriting.recognizer import normalize_trajectory


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    band: int | None = None,
    early_abandon: float | None = None,
) -> float:
    """DTW distance between two ``(N, D)`` sequences, one cell at a time.

    Args:
        a, b: point sequences (rows are points).
        band: Sakoe–Chiba band half-width in samples; ``None`` means
            unconstrained. The band is auto-widened to cover any length
            difference between the sequences.
        early_abandon: if every cell of a row exceeds this bound the
            computation stops and ``inf`` is returned.

    Returns:
        The accumulated Euclidean alignment cost, normalised by the
        alignment path's nominal length ``max(N_a, N_b)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("sequences must be (N, D) with matching D")
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise ValueError("sequences must be non-empty")

    if band is None:
        band = max(n, m)
    band = max(band, abs(n - m) + 1)

    scale = float(max(n, m))
    bound = np.inf if early_abandon is None else early_abandon * scale

    previous = np.full(m + 1, np.inf)
    previous[0] = 0.0
    current = np.empty(m + 1)
    for i in range(1, n + 1):
        current.fill(np.inf)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        # Distances from a[i-1] to the band's b points, vectorised.
        diff = b[j_lo - 1 : j_hi] - a[i - 1]
        costs = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        row_min = np.inf
        for offset, j in enumerate(range(j_lo, j_hi + 1)):
            best_prev = min(
                previous[j], previous[j - 1], current[j - 1]
            )
            value = costs[offset] + best_prev
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > bound:
            return float("inf")
        previous, current = current, previous
    return float(previous[m] / scale)


def character_scores_reference(recognizer, points: np.ndarray) -> dict:
    """Best distance per label, the character recogniser's earlier way.

    One scalar DTW per template, in template order, each abandoned once
    its band rows pass four times the best distance so far; labels whose
    every template was abandoned report ``inf``.
    """
    query = normalize_trajectory(points, recognizer.resample)
    best = dict.fromkeys(recognizer.template_labels, np.inf)
    bound = np.inf
    for label, template in zip(
        recognizer.template_labels, recognizer.templates
    ):
        distance = dtw_distance(
            query, template, band=recognizer.band, early_abandon=bound * 4
        )
        if distance < best[label]:
            best[label] = distance
            bound = min(bound, distance)
    return best


def dtw_distance_many_reference(
    query: np.ndarray,
    templates: np.ndarray,
    band: int | None = None,
    early_abandon: float | None = None,
) -> np.ndarray:
    """DTW distance from one query to every template, one band row at a time.

    Each band cell of each row is one vectorised update over the
    template axis. A template whose entire band row exceeds the bound
    (scaled by ``max(N, M)``) is dead and reports ``inf``; dead
    templates are compacted out of the remaining rows.
    """
    query = np.asarray(query, dtype=float)
    templates = np.asarray(templates, dtype=float)
    n = query.shape[0]
    count, m, _ = templates.shape
    if count == 0:
        return np.empty(0)

    if band is None:
        band = max(n, m)
    band = max(band, abs(n - m) + 1)

    scale = float(max(n, m))
    bound = np.inf if early_abandon is None else early_abandon * scale

    order = np.arange(count)
    live = templates
    out = np.full(count, np.inf)
    previous = np.full((count, m + 1), np.inf)
    previous[:, 0] = 0.0
    current = np.full((count, m + 1), np.inf)

    for i in range(1, n + 1):
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        current[:, j_lo - 1] = np.inf
        if j_hi < m:
            current[:, j_hi + 1] = np.inf
        diff = live[:, j_lo - 1 : j_hi, :] - query[i - 1]
        costs = np.sqrt(np.einsum("twd,twd->tw", diff, diff))
        hold = np.minimum(
            previous[:, j_lo - 1 : j_hi], previous[:, j_lo : j_hi + 1]
        )
        row_min = np.full(live.shape[0], np.inf)
        left = current[:, j_lo - 1]
        for offset in range(j_hi - j_lo + 1):
            value = costs[:, offset] + np.minimum(hold[:, offset], left)
            current[:, j_lo + offset] = value
            left = value
            row_min = np.minimum(row_min, value)
        if bound < np.inf:
            dead = row_min > bound
            if dead.any():
                keep = ~dead
                if not keep.any():
                    return out
                order = order[keep]
                live = live[keep]
                current = current[keep]
                previous = previous[keep]
        previous, current = current, previous
    out[order] = previous[:, m] / scale
    return out
