"""Unit tests for the grating-lobe trajectory tracer."""

import numpy as np
import pytest

from repro.core.tracing import TracerConfig

from tests.helpers import ideal_pair_series
from tests.oracles import GridTracer, TrajectoryTracer, lock_lobes


def circle_uv(center=(1.3, 1.2), radius=0.08, steps=60):
    angles = np.linspace(0.0, 2 * np.pi, steps)
    return np.stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)],
        axis=1,
    )


@pytest.fixture
def circle_series(deployment, plane, wavelength):
    uv = circle_uv()
    times = np.linspace(0.0, 4.0, uv.shape[0])
    return ideal_pair_series(deployment, plane, uv, times, wavelength), uv


class TestLockLobes:
    def test_zero_residual_at_lock_point(
        self, deployment, plane, wavelength, circle_series
    ):
        series, uv = circle_series
        world = plane.to_world(uv[0])
        locks = lock_lobes(series, world, wavelength)
        for entry in series:
            residual = (
                2.0 * entry.pair.path_difference(world) / wavelength
                - entry.delta_phi[0] / (2 * np.pi)
                - locks[entry.pair.ids]
            )
            assert abs(residual) < 0.5

    def test_ideal_series_locks_are_exact(
        self, deployment, plane, wavelength, circle_series
    ):
        series, uv = circle_series
        world = plane.to_world(uv[0])
        locks = lock_lobes(series, world, wavelength)
        for entry in series:
            residual = (
                2.0 * entry.pair.path_difference(world) / wavelength
                - entry.delta_phi[0] / (2 * np.pi)
                - locks[entry.pair.ids]
            )
            assert abs(residual) < 1e-9


class TestTrajectoryTracer:
    def test_exact_reconstruction_from_truth(
        self, plane, wavelength, circle_series
    ):
        series, uv = circle_series
        tracer = TrajectoryTracer(plane, wavelength)
        result = tracer.trace(series, uv[0])
        errors = np.linalg.norm(result.positions - uv, axis=1)
        assert errors.max() < 1e-6
        assert result.total_vote == pytest.approx(0.0, abs=1e-9)

    def test_wrong_start_preserves_shape(self, plane, wavelength, circle_series):
        # The paper's shape-resilience property: a trace started from an
        # adjacent lobe intersection reproduces the shape with an offset.
        series, uv = circle_series
        tracer = TrajectoryTracer(plane, wavelength)
        result = tracer.trace(series, uv[0] + np.array([0.17, 0.17]))
        shifted = result.positions - (result.positions[0] - uv[0])
        shape_error = np.linalg.norm(shifted - uv, axis=1)
        assert np.median(shape_error) < 0.02
        # And its vote is worse than the correct start's.
        correct = tracer.trace(series, uv[0])
        assert result.total_vote < correct.total_vote

    def test_votes_reported_per_step(self, plane, wavelength, circle_series):
        series, uv = circle_series
        result = TrajectoryTracer(plane, wavelength).trace(series, uv[0])
        assert result.votes.shape == (uv.shape[0],)
        assert np.all(result.votes <= 1e-12)

    def test_mean_vote(self, plane, wavelength, circle_series):
        series, uv = circle_series
        result = TrajectoryTracer(plane, wavelength).trace(series, uv[0])
        assert result.votes.mean() == pytest.approx(
            result.total_vote / len(result)
        )

    def test_empty_series_rejected(self, plane, wavelength):
        tracer = TrajectoryTracer(plane, wavelength)
        with pytest.raises(ValueError):
            tracer.trace([], np.zeros(2))

    def test_mismatched_series_rejected(self, deployment, plane, wavelength):
        from repro.rfid.sampling import PairSeries

        pairs = deployment.pairs()
        series = [
            PairSeries(pairs[0], np.arange(5.0), np.zeros(5)),
            PairSeries(pairs[1], np.arange(4.0), np.zeros(4)),
        ]
        with pytest.raises(ValueError, match="timeline"):
            TrajectoryTracer(plane, wavelength).trace(series, np.zeros(2))


class TestTracerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TracerConfig(max_step=0.0)
        for loss in ("l0", "huber", "cauchy"):
            with pytest.raises(ValueError, match="unsupported loss"):
                TracerConfig(loss=loss)

    @pytest.mark.parametrize("scale", [0.0, -0.12, float("nan")])
    def test_loss_scale_must_be_positive(self, scale):
        # A zero scale would freeze the tracer in place; a negative one
        # traces like its absolute value under a different merge key.
        with pytest.raises(ValueError, match="loss_scale"):
            TracerConfig(loss_scale=scale)


class TestGridTracer:
    def test_agrees_with_least_squares(self, plane, wavelength, circle_series):
        series, uv = circle_series
        ls_result = TrajectoryTracer(plane, wavelength).trace(series, uv[0])
        grid_result = GridTracer(
            plane, wavelength, radius=0.04, step=0.004
        ).trace(series, uv[0])
        gaps = np.linalg.norm(ls_result.positions - grid_result.positions, axis=1)
        # Grid quantisation bounds the disagreement.
        assert np.median(gaps) < 0.01

    def test_validation(self, plane, wavelength):
        with pytest.raises(ValueError):
            GridTracer(plane, wavelength, radius=0.0)
        with pytest.raises(ValueError):
            GridTracer(plane, wavelength, radius=0.01, step=0.02)
