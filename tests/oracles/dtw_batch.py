"""Reference batched DTW: the row-by-row sweep across a template stack.

The executable specification of
:func:`repro.lexicon.dtw_batch.dtw_distance_many`: the shipped wavefront
kernel must reproduce it bit for bit, ``inf`` pattern included
(``tests/test_lexicon_dtw_wavefront.py``).
"""

from __future__ import annotations

import numpy as np


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
