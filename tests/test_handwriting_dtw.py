"""Unit and property tests for the scalar DTW loop in ``tests/oracles``.

It is the specification the package's one DTW kernel,
``repro.handwriting.dtw.dtw_distance_many``, is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests.oracles.dtw import dtw_distance

sequences = arrays(
    dtype=float,
    shape=st.tuples(st.integers(3, 24), st.just(2)),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)


class TestBasics:
    def test_identical_sequences_zero(self):
        a = np.random.default_rng(0).normal(size=(20, 2))
        assert dtw_distance(a, a) == pytest.approx(0.0)

    def test_known_value_constant_offset(self):
        a = np.zeros((5, 2))
        b = np.ones((5, 2))
        # Every aligned pair costs √2; normalised by max length.
        assert dtw_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_time_warp_invariance(self):
        t = np.linspace(0, 1, 40)
        a = np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)], axis=1)
        # Same path, uneven sampling.
        warped_t = t**2
        b = np.stack(
            [np.sin(2 * np.pi * warped_t), np.cos(2 * np.pi * warped_t)], axis=1
        )
        linear = np.linalg.norm(a - b, axis=1).mean()
        assert dtw_distance(a, b) < linear

    def test_band_widened_for_length_gap(self):
        a = np.zeros((30, 2))
        b = np.zeros((5, 2))
        # Must not raise or return inf despite band < length gap.
        assert dtw_distance(a, b, band=1) == pytest.approx(0.0)

    def test_early_abandon_returns_inf(self):
        a = np.zeros((20, 2))
        b = np.full((20, 2), 10.0)
        assert dtw_distance(a, b, early_abandon=0.5) == np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dtw_distance(np.zeros((3, 2)), np.zeros((3, 3)))


class TestProperties:
    @given(sequences, sequences)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(
            dtw_distance(b, a), rel=1e-9, abs=1e-9
        )

    @given(sequences)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    @given(sequences, sequences)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, a, b):
        assert dtw_distance(a, b) >= 0.0

    @given(sequences, sequences)
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_worst_alignment(self, a, b):
        # DTW (normalised) never exceeds the largest pointwise distance.
        worst = max(
            float(np.linalg.norm(p - q)) for p in a for q in b
        )
        assert dtw_distance(a, b) <= worst * (len(a) + len(b)) / max(
            len(a), len(b)
        ) + 1e-9
