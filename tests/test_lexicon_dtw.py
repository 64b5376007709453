"""Property tests: the batched DTW kernel against its scalar spec.

The scalar ``dtw_distance`` in ``tests/oracles/dtw.py`` is the
executable specification;
``dtw_distance_many`` must reproduce it to ≤1e-9 across random shapes,
bands and early-abandon bounds — the contract the whole lexicon tier
(and the fig15 answers riding on it) rests on.
"""

import numpy as np
import pytest

from repro.handwriting.dtw import dtw_distance_many
from tests.oracles.dtw import dtw_distance


def _random_batch(rng, count, n_points, m_points):
    query = rng.normal(size=(n_points, 2))
    templates = rng.normal(size=(count, m_points, 2))
    return query, templates


class TestAgainstScalarSpec:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 96))
        m = int(rng.integers(8, 96))
        band = int(rng.integers(1, 24))
        query, templates = _random_batch(rng, 17, n, m)
        batched = dtw_distance_many(query, templates, band=band)
        scalar = np.array(
            [dtw_distance(query, t, band=band) for t in templates]
        )
        assert np.abs(batched - scalar).max() <= 1e-9

    def test_unbanded_matches_scalar(self):
        rng = np.random.default_rng(100)
        query, templates = _random_batch(rng, 7, 40, 40)
        batched = dtw_distance_many(query, templates)
        scalar = np.array([dtw_distance(query, t) for t in templates])
        assert np.abs(batched - scalar).max() <= 1e-9

    def test_narrow_band_auto_widens_like_scalar(self):
        # Very different lengths force the |n-m|+1 band floor on both
        # sides; a kernel that widened differently would diverge here.
        rng = np.random.default_rng(101)
        query = rng.normal(size=(12, 2))
        templates = rng.normal(size=(5, 70, 2))
        batched = dtw_distance_many(query, templates, band=1)
        scalar = np.array(
            [dtw_distance(query, t, band=1) for t in templates]
        )
        assert np.abs(batched - scalar).max() <= 1e-9

    def test_identical_sequences_are_zero(self):
        rng = np.random.default_rng(102)
        query = rng.normal(size=(30, 2))
        templates = np.stack([query, query + 0.5])
        out = dtw_distance_many(query, templates, band=8)
        assert out[0] <= 1e-12
        assert out[1] > 0.0

    def test_single_template(self):
        rng = np.random.default_rng(103)
        query, templates = _random_batch(rng, 1, 25, 31)
        batched = dtw_distance_many(query, templates, band=6)
        scalar = dtw_distance(query, templates[0], band=6)
        assert abs(float(batched[0]) - scalar) <= 1e-9


class TestEarlyAbandon:
    @pytest.mark.parametrize("seed", range(3))
    def test_abandon_matches_scalar_per_template(self, seed):
        # Abandonment is per template: each survivor must carry the
        # exact scalar distance, each abandoned slot the scalar's inf.
        rng = np.random.default_rng(200 + seed)
        query, templates = _random_batch(rng, 23, 48, 48)
        # A bound inside the batch's distance range, so some templates
        # survive and some are genuinely abandoned.
        exact = dtw_distance_many(query, templates, band=10)
        bound = float(np.percentile(exact, 40))
        batched = dtw_distance_many(
            query, templates, band=10, early_abandon=bound
        )
        scalar = np.array(
            [
                dtw_distance(query, t, band=10, early_abandon=bound)
                for t in templates
            ]
        )
        assert np.isinf(batched).any()  # the bound actually bites
        assert np.isfinite(batched).any()
        assert (np.isinf(batched) == np.isinf(scalar)).all()
        finite = np.isfinite(batched)
        assert np.abs(batched[finite] - scalar[finite]).max() <= 1e-9

    def test_survivors_unaffected_by_dead_neighbours(self):
        # A template's result must not change because other templates in
        # the batch were abandoned (the compaction bug class).
        rng = np.random.default_rng(300)
        query = rng.normal(size=(40, 2))
        close = query + rng.normal(scale=0.01, size=(40, 2))
        far = rng.normal(loc=50.0, size=(6, 40, 2))
        mixed = np.concatenate([far[:3], close[None], far[3:]])
        batched = dtw_distance_many(
            query, mixed, band=8, early_abandon=0.05
        )
        alone = dtw_distance_many(
            query, close[None], band=8, early_abandon=0.05
        )
        assert np.isinf(batched[[0, 1, 2, 4, 5, 6]]).all()
        assert abs(float(batched[3]) - float(alone[0])) <= 1e-12


class TestValidation:
    def test_empty_batch(self):
        query = np.zeros((10, 2))
        out = dtw_distance_many(query, np.zeros((0, 10, 2)))
        assert out.shape == (0,)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            dtw_distance_many(np.zeros((10, 3)), np.zeros((2, 10, 2)))
        with pytest.raises(ValueError):
            dtw_distance_many(np.zeros((10, 2)), np.zeros((2, 10, 3)))
        with pytest.raises(ValueError):
            dtw_distance_many(np.zeros((10, 2)), np.zeros((10, 2)))
