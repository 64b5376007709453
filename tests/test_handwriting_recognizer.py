"""Unit tests for the character and word recognisers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.handwriting.recognizer import (
    CharacterRecognizer,
    WordRecognizer,
    normalize_resampled,
    normalize_trajectory,
)
from tests.oracles.dtw import character_scores_reference, dtw_distance


@st.composite
def letter_traces(draw):
    """A drawn letter in a sampled user style, with optional pen noise."""
    char = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = HandwritingGenerator(style=UserStyle.sample(rng)).letter_trace(
        char
    ).points
    noise = draw(st.sampled_from([0.0, 0.002, 0.004, 0.01]))  # metres
    return points + rng.normal(scale=noise, size=points.shape)


@pytest.fixture(scope="module")
def char_recognizer():
    return CharacterRecognizer()


@pytest.fixture(scope="module")
def word_recognizer():
    return WordRecognizer()


class TestNormalize:
    def test_output_shape(self):
        points = np.random.default_rng(0).normal(size=(50, 2))
        out = normalize_trajectory(points, 32)
        assert out.shape == (32, 2)

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(40, 2))
        a = normalize_trajectory(points)
        b = normalize_trajectory(points + 100.0)
        assert np.allclose(a, b, atol=1e-9)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(40, 2))
        a = normalize_trajectory(points)
        b = normalize_trajectory(points * 7.5)
        assert np.allclose(a, b, atol=1e-9)

    def test_deslant_removes_shear(self):
        # A smooth curve and its slanted copy normalise to near-identical
        # shapes (arc-length resampling shifts correspondences slightly).
        t = np.linspace(0, 2 * np.pi, 80)
        points = np.stack([t / 4.0, np.sin(t)], axis=1)
        sheared = points.copy()
        sheared[:, 0] += 0.2 * sheared[:, 1]
        a = normalize_trajectory(points, deslant=True)
        b = normalize_trajectory(sheared, deslant=True)
        assert np.abs(a - b).max() < 0.1

    def test_stack_rows_normalise_on_their_own(self):
        # Batched template synthesis normalises a (W, R, 2) stack in one
        # call; each row must come out exactly as a one-row call does,
        # clipped slant and degenerate heights included.
        t = np.linspace(0.0, 1.0, 64)
        rows = np.stack(
            [
                np.random.default_rng(3).normal(size=(64, 2)),
                np.stack([2.0 * t, t], axis=1),  # leans past the clip
                np.stack([3.0 * t, np.zeros(64)], axis=1),  # flat
                np.zeros((64, 2)),  # a single point
            ]
        )
        stacked = normalize_resampled(rows, deslant=True)
        for row, out in zip(rows, stacked):
            assert np.array_equal(out, normalize_resampled(row, deslant=True))
        leaning, flat, point = stacked[1:]
        # Only the clip's 0.35 of the slope 2 is removed.
        assert np.allclose(leaning[:, 0], 1.65 * leaning[:, 1])
        # No height: the width normalises instead, and a point stays put.
        assert np.allclose(flat[:, 0], t - 0.5)
        assert np.array_equal(point, np.zeros((64, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize_trajectory(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            normalize_trajectory(np.zeros((5, 3)))


class TestCharacterRecognizer:
    def test_neutral_letters_perfect(self, char_recognizer):
        generator = HandwritingGenerator()
        for char in "abcdefghijklmnopqrstuvwxyz":
            trace = generator.letter_trace(char)
            assert char_recognizer.classify(trace.points) == char

    def test_styled_letters_high_accuracy(self, char_recognizer):
        rng = np.random.default_rng(9)
        correct = total = 0
        for _ in range(3):
            generator = HandwritingGenerator(style=UserStyle.sample(rng))
            for char in "aeghknoqrstuwy":
                trace = generator.letter_trace(char)
                correct += char_recognizer.classify(trace.points) == char
                total += 1
        assert correct / total > 0.9

    def test_scores_cover_all_labels(self, char_recognizer):
        trace = HandwritingGenerator().letter_trace("e")
        scores = char_recognizer.scores(trace.points)
        assert set(scores) == set(char_recognizer.labels)

    def test_templates_read_only(self, char_recognizer):
        assert char_recognizer.templates.shape == (104, 64, 2)
        assert len(char_recognizer.template_labels) == 104
        with pytest.raises(ValueError):
            char_recognizer.templates[0, 0, 0] = 1.0

    @given(letter_traces())
    @settings(max_examples=20, deadline=None)
    def test_scores_match_scalar_oracle(self, char_recognizer, points):
        # One kernel call scores every template in full: each label's
        # score is its templates' minimum scalar DTW distance, and the
        # winner is the one the earlier adaptive-abandon loop picked.
        scores = char_recognizer.scores(points)
        query = normalize_trajectory(points, char_recognizer.resample)
        expected = {}
        for label, template in zip(
            char_recognizer.template_labels, char_recognizer.templates
        ):
            distance = dtw_distance(query, template, band=char_recognizer.band)
            expected[label] = min(expected.get(label, np.inf), distance)
        assert list(scores) == list(expected)
        for label, distance in expected.items():
            assert abs(scores[label] - distance) <= 1e-9
        reference = character_scores_reference(char_recognizer, points)
        assert char_recognizer.classify(points) == min(
            reference, key=reference.get
        )

    def test_random_scribble_is_a_guess(self, char_recognizer, rng):
        # Random-walk garbage: decision carries no information, like the
        # baseline's scattered reconstructions in the paper (<4 %).
        scribble = np.cumsum(rng.normal(0, 0.01, size=(80, 2)), axis=0)
        label = char_recognizer.classify(scribble)
        assert label in char_recognizer.labels


class TestWordRecognizer:
    def test_neutral_words_recognised(self, word_recognizer):
        generator = HandwritingGenerator()
        for word in ("play", "clear", "water"):
            trace = generator.word_trace(word)
            assert word_recognizer.classify(trace.points) == word

    def test_styled_words_mostly_recognised(self, word_recognizer):
        rng = np.random.default_rng(4)
        words = ["good", "house", "light", "story", "music", "people"]
        correct = 0
        for index, word in enumerate(words):
            generator = HandwritingGenerator(
                style=UserStyle.sample(rng)
            )
            trace = generator.word_trace(word)
            correct += word_recognizer.classify(trace.points) == word
        assert correct >= len(words) - 1

    def test_shortlist_contains_truth(self, word_recognizer):
        generator = HandwritingGenerator(
            style=UserStyle.sample(np.random.default_rng(8))
        )
        trace = generator.word_trace("import")
        query = normalize_trajectory(
            trace.points, word_recognizer.resample, deslant=True
        )
        assert "import" in word_recognizer.shortlist_for(query)

    def test_custom_dictionary(self):
        recognizer = WordRecognizer(dictionary=("cat", "dog"))
        trace = HandwritingGenerator().word_trace("cat")
        assert recognizer.classify(trace.points) == "cat"

    def test_custom_dictionary_with_digits(self):
        # The default font writes digits, so a dictionary may use them.
        recognizer = WordRecognizer(dictionary=("room101", "42", "cat"))
        for word in ("room101", "42"):
            trace = HandwritingGenerator().word_trace(word)
            assert recognizer.classify(trace.points) == word

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            WordRecognizer(dictionary=())
