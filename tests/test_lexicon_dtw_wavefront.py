"""Property test: the wavefront DTW kernel against the row-sweep oracle.

``dtw_distance_many`` sweeps anti-diagonals; the row-by-row sweep in
``tests/oracles/dtw_batch.py`` is its executable specification. The
per-cell arithmetic is the same, so the two must agree bit for bit —
``inf`` pattern included — over random lengths, bands (narrower than
the length difference too), batch sizes and abandon bounds. The scalar
``dtw_distance`` is checked alongside: same ``inf`` pattern, finite
values within 1e-9.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.handwriting.dtw import dtw_distance
from repro.lexicon import dtw_distance_many
from tests.oracles.dtw_batch import dtw_distance_many_reference


@st.composite
def dtw_cases(draw):
    n = draw(st.integers(1, 160))
    m = draw(st.integers(1, 160))
    count = draw(st.integers(1, 70))
    band = draw(st.integers(0, 40)) if draw(st.booleans()) else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = rng.normal(size=(n, 2))
    # Half the templates are noisy copies of the query path, so the
    # distances spread and a quantile bound splits the batch.
    templates = rng.normal(size=(count, m, 2))
    near = rng.random(count) < 0.5
    stretched = np.stack(
        [np.interp(np.linspace(0, n - 1, m), np.arange(n), query[:, d]) for d in range(2)],
        axis=1,
    )
    templates[near] = stretched + rng.normal(scale=0.1, size=(int(near.sum()), m, 2))
    quantile = draw(st.floats(0.0, 1.0)) if draw(st.booleans()) else None
    return query, templates, band, quantile


@given(dtw_cases())
@settings(max_examples=40, deadline=None)
def test_wavefront_matches_row_sweep_and_scalar(case):
    query, templates, band, quantile = case
    bound = None
    if quantile is not None:
        exact = dtw_distance_many_reference(query, templates, band=band)
        bound = float(np.quantile(exact, quantile))

    got = dtw_distance_many(query, templates, band=band, early_abandon=bound)
    oracle = dtw_distance_many_reference(
        query, templates, band=band, early_abandon=bound
    )
    assert np.array_equal(got, oracle)

    scalar = np.array(
        [dtw_distance(query, t, band=band, early_abandon=bound) for t in templates]
    )
    assert np.array_equal(np.isinf(got), np.isinf(scalar))
    finite = np.isfinite(got)
    if finite.any():
        assert np.abs(got[finite] - scalar[finite]).max() <= 1e-9


def test_all_abandoned_matches_row_sweep():
    # A bound under every distance: the row sweep returns early with
    # every template dead; the wavefront must report the same.
    rng = np.random.default_rng(7)
    query = rng.normal(size=(30, 2))
    templates = rng.normal(loc=3.0, size=(9, 25, 2))
    bound = 0.5 * float(dtw_distance_many_reference(query, templates, band=5).min())
    got = dtw_distance_many(query, templates, band=5, early_abandon=bound)
    assert np.isinf(got).all()
    assert np.array_equal(
        got, dtw_distance_many_reference(query, templates, band=5, early_abandon=bound)
    )
