"""Dynamic time warping over 2-D point sequences, one query against many.

The recognisers compare trajectories with DTW — the standard elastic
matcher for online handwriting — with a Sakoe–Chiba band to keep the
alignment sane and the cost quadratic-with-small-constant. Every
recogniser scores a whole template stack per query, so the one kernel
here, :func:`dtw_distance_many`, evaluates the banded recurrence for
every template at once. The scalar one-template loop and the row-by-row
batched sweep are its executable specifications in ``tests/oracles/dtw.py``:
the kernel reproduces the row sweep bit for bit, ``inf`` pattern
included, and the scalar loop to ≤1e-9.

Why it is fast: a scalar kernel pays one Python-level DP loop *per
template*. Here the DP runs once for the whole stack, and it runs along
anti-diagonals: the cells on ``i + j = k`` depend only on diagonals
``k − 1`` and ``k − 2``, so each diagonal is one vectorised update over
(band cells × templates). A row-by-row sweep must walk its band cells
one at a time (each needs its left neighbour), i.e.
``N · (2·band + 1)`` interpreted steps; the wavefront takes
``N + M − 1``, whatever ``band`` and ``T`` are. On recognition-sized
problems (``N = M = 128``, ``band = 16``, ``T = 64``) that cuts the
batched kernel's time about threefold (``dtw_batch_sweep`` in
``BENCH_engine.json`` tracks it against the scalar loop).

Early abandoning works per template: a template with a band row whose
every cell exceeds the bound reports ``inf``, exactly like a scalar
kernel returning early. Row minima never decrease down the table —
every cell is a non-negative cost plus a neighbour's value, and the
leftmost band cell of a row can only read the row above — so some row
exceeds the bound exactly when the last row does, and the wavefront
only has to track the last row's minimum.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dtw_distance_many"]


def dtw_distance_many(
    query: np.ndarray,
    templates: np.ndarray,
    band: int | None = None,
    early_abandon: float | None = None,
) -> np.ndarray:
    """DTW distance from one query to every template, in one banded DP.

    Args:
        query: ``(N, D)`` point sequence (rows are points).
        templates: ``(T, M, D)`` stacked template sequences (every
            template the same length — recognition templates share one
            resample count).
        band: Sakoe–Chiba band half-width in samples; ``None`` means
            unconstrained. The band is auto-widened to cover the
            ``N``/``M`` length difference.
        early_abandon: per-template abandon bound, in the same
            normalised units the function returns. A template whose
            whole band row exceeds ``early_abandon`` (scaled by
            ``max(N, M)``) reports ``inf``.

    Returns:
        ``(T,)`` float array: each template's accumulated Euclidean
        alignment cost, normalised by the alignment path's nominal
        length ``max(N, M)`` so values are comparable across sequence
        lengths.
    """
    query = np.asarray(query, dtype=float)
    if query.ndim != 2:
        raise ValueError("query must be an (N, D) sequence")
    templates = np.asarray(templates, dtype=float)
    if templates.ndim != 3 or templates.shape[2] != query.shape[1]:
        raise ValueError(
            "templates must be (T, M, D) with D matching the query"
        )
    n = query.shape[0]
    count, m, _ = templates.shape
    if n == 0 or m == 0:
        raise ValueError("sequences must be non-empty")
    if count == 0:
        return np.empty(0)

    if band is None:
        band = max(n, m)
    band = max(band, abs(n - m) + 1)

    scale = float(max(n, m))
    bound = np.inf if early_abandon is None else early_abandon * scale

    # Diagonal k holds the cells (i, k - i); buffers are indexed by the
    # query row i (0..n+1) with the template axis last, and rotate
    # through diagonals k-2 (``older``), k-1 (``old``) and k (``new``).
    # Diagonal 0 is the origin cell (0, 0) = 0; diagonal 1 is all
    # boundary (inf).
    older = np.full((n + 2, count), np.inf)
    older[0] = 0.0
    old = np.full((n + 2, count), np.inf)
    new = np.empty((n + 2, count))
    # Templates reversed along their points and transposed to (M, T, D):
    # as i rises along a diagonal, j = k - i falls, so the diagonal's
    # template points are one forward slice of this array. The query is
    # broadcast to (N, T, D) once, so each diagonal's differences are
    # one flat subtraction.
    reverse = np.ascontiguousarray(templates[:, ::-1, :].transpose(1, 0, 2))
    points = np.ascontiguousarray(
        np.broadcast_to(query[:, None, :], (n, count, query.shape[1]))
    )
    last_row_min = np.full(count, np.inf)

    for k in range(2, n + m + 1):
        # Rows on this diagonal inside the table and the band |i - j| ≤ band.
        lo = max(1, k - m, (k - band + 1) // 2)
        hi = min(n, k - 1, (k + band) // 2)
        # cost(i, j) for the whole diagonal — the scalar spec's
        # einsum + sqrt arithmetic, over (cells, templates).
        diff = reverse[m - k + lo : m - k + hi + 1] - points[lo - 1 : hi]
        costs = np.sqrt(np.einsum("wtd,wtd->wt", diff, diff))
        # min(D[i-1, j], D[i, j-1], D[i-1, j-1]): the first two lie on
        # diagonal k-1, the last on k-2.
        best = np.minimum(old[lo - 1 : hi], old[lo : hi + 1])
        np.minimum(best, older[lo - 1 : hi], out=best)
        np.add(costs, best, out=new[lo : hi + 1])
        # The band edges move by at most one row per diagonal, so the
        # two rows flanking this diagonal are the only stale slots the
        # next two diagonals can read.
        new[lo - 1] = np.inf
        new[hi + 1] = np.inf
        if hi == n:
            np.minimum(last_row_min, new[n], out=last_row_min)
        older, old, new = old, new, older

    out = old[n] / scale
    out[last_row_min > bound] = np.inf
    return out
