"""Unit tests for the air-writing generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.handwriting.generator import (
    HandwritingGenerator,
    UserStyle,
    WritingTrace,
    resample_polyline,
    resample_polylines,
)


def _interp_reference(points: np.ndarray, count: int) -> np.ndarray:
    """Arc-length resampling spelled out with ``np.linspace``/``np.interp``."""
    deltas = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(deltas)])
    total = cumulative[-1]
    if total == 0.0:
        return np.repeat(points[:1], count, axis=0)
    targets = np.linspace(0.0, total, count)
    return np.stack(
        [np.interp(targets, cumulative, points[:, axis]) for axis in range(2)],
        axis=1,
    )


@st.composite
def polyline_batches(draw):
    """Back-to-back polylines: random, zero-length, and with repeated points."""
    polylines, counts = [], []
    for _ in range(draw(st.integers(1, 8))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(2, 40))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        points = rng.normal(scale=scale, size=(size, 2))
        kind = draw(st.sampled_from(["random", "still", "repeats"]))
        if kind == "still":
            points[:] = points[0]
        elif kind == "repeats":
            points = np.repeat(points, rng.integers(1, 4, size=size), axis=0)
        polylines.append(points)
        counts.append(draw(st.integers(2, 200)))
    return polylines, counts


class TestResample:
    def test_endpoint_preserved(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        out = resample_polyline(line, 10)
        assert np.allclose(out[0], [0, 0])
        assert np.allclose(out[-1], [1, 1])

    def test_equal_spacing(self):
        line = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = resample_polyline(line, 5)
        gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert np.allclose(gaps, gaps[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            resample_polyline(np.zeros((1, 2)), 5)
        with pytest.raises(ValueError):
            resample_polyline(np.zeros((3, 2)), 1)
        with pytest.raises(ValueError):
            resample_polylines(np.zeros((5, 2)), [0, 1, 5], [4, 4])

    @given(polyline_batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_each_polyline(self, batch):
        # Each polyline of a batch comes out exactly as it does alone
        # and as the np.interp formulation gives it: the batch must not
        # leak arc length or targets across polyline boundaries.
        polylines, counts = batch
        flat = np.concatenate(polylines)
        starts = np.cumsum([0] + [len(p) for p in polylines])
        out, out_starts = resample_polylines(flat, starts, counts)
        assert out.shape == (sum(counts), 2)
        assert np.array_equal(out_starts, np.cumsum([0] + counts))
        for index, (points, count) in enumerate(zip(polylines, counts)):
            piece = out[out_starts[index] : out_starts[index + 1]]
            assert np.array_equal(piece, resample_polyline(points, count))
            assert np.array_equal(piece, _interp_reference(points, count))

    def test_underflowing_step_follows_linspace(self):
        # A total arc length so small that total / (count - 1) rounds to
        # zero: linspace switches to (i / (count - 1)) * total.
        points = np.array([[0.0, 0.0], [5e-324, 0.0], [1e-323, 0.0]])
        assert np.array_equal(
            resample_polyline(points, 9), _interp_reference(points, 9)
        )


class TestUserStyle:
    def test_sample_within_ranges(self, rng):
        for _ in range(20):
            style = UserStyle.sample(rng)
            assert -0.2 < style.slant < 0.25
            assert 0.1 < style.speed < 0.4

    def test_neutral_is_styleless(self):
        style = UserStyle.neutral()
        assert style.slant == 0.0
        assert style.tremor == 0.0
        assert style.letter_jitter == 0.0


class TestWordTrace:
    def test_timestamps_monotone(self):
        trace = HandwritingGenerator().word_trace("clear")
        assert np.all(np.diff(trace.times) > 0)

    def test_starts_at_origin_time(self):
        trace = HandwritingGenerator().word_trace("play", start_time=2.5)
        assert trace.times[0] == pytest.approx(2.5)

    def test_letter_spans_cover_word_in_order(self):
        trace = HandwritingGenerator().word_trace("house")
        chars = [span[0] for span in trace.letter_spans]
        assert chars == list("house")
        starts = [span[1] for span in trace.letter_spans]
        assert starts == sorted(starts)

    def test_constant_speed(self):
        style = UserStyle.neutral()
        trace = HandwritingGenerator(style=style).word_trace("water")
        speeds = np.linalg.norm(np.diff(trace.points, axis=0), axis=1) / np.diff(
            trace.times
        )
        assert np.median(np.abs(speeds - style.speed)) < 0.02

    def test_letter_width_matches_height(self):
        trace = HandwritingGenerator(letter_height=0.18).letter_trace("o")
        width = float(np.ptp(trace.points[:, 0]))
        assert 0.05 < width < 0.18

    def test_deterministic_across_calls(self):
        style = UserStyle.sample(np.random.default_rng(5))
        a = HandwritingGenerator(style=style).word_trace("light")
        b = HandwritingGenerator(style=style).word_trace("light")
        assert np.allclose(a.points, b.points)

    def test_different_styles_differ(self):
        rng = np.random.default_rng(6)
        a = HandwritingGenerator(style=UserStyle.sample(rng)).word_trace("good")
        b = HandwritingGenerator(style=UserStyle.sample(rng)).word_trace("good")
        assert a.points.shape != b.points.shape or not np.allclose(
            a.points[: min(len(a.points), len(b.points))],
            b.points[: min(len(a.points), len(b.points))],
        )

    def test_position_at_interpolates(self):
        trace = HandwritingGenerator().word_trace("hi")
        mid_time = (trace.times[0] + trace.times[-1]) / 2
        position = trace.position_at(mid_time)
        assert position.shape == (2,)
        # Within the writing bounding box.
        assert trace.points[:, 0].min() - 0.01 <= position[0]
        assert position[0] <= trace.points[:, 0].max() + 0.01

    def test_letter_slice(self):
        trace = HandwritingGenerator().word_trace("on")
        first = trace.letter_slice(0)
        assert first.shape[0] > 5

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            HandwritingGenerator().word_trace("")

    def test_unknown_char_rejected(self):
        with pytest.raises(KeyError):
            HandwritingGenerator().word_trace("héllo")

    def test_validation(self):
        with pytest.raises(ValueError):
            HandwritingGenerator(letter_height=0.0)
        with pytest.raises(ValueError):
            HandwritingGenerator(sample_rate=0.0)


class TestWritingTrace:
    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            WritingTrace("x", np.zeros(3), np.zeros((4, 2)), [])

    def test_duration_and_path_length(self):
        trace = HandwritingGenerator().word_trace("me")
        assert trace.duration > 0
        assert trace.path_length() > 0.1
