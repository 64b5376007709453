"""Facade equivalence and the lexicon-mode recogniser.

The load-bearing test is `TestFacadeEquivalence`: the rebuilt
``WordRecognizer`` (eager immutable templates + one batched DTW sweep)
must reproduce the historical per-word scalar scoring loop on the
embedded corpus — same shortlist, same distances to 1e-9, same answers —
so every committed fig15 number survives the refactor untouched.
"""

import pickle

import numpy as np
import pytest

from repro.handwriting.dtw import dtw_distance
from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.handwriting.recognizer import WordRecognizer, normalize_trajectory
from repro.lexicon import LexiconRecognizer, RecognizerFactory, build_lexicon


@pytest.fixture(scope="module")
def corpus_recognizer():
    return WordRecognizer()


@pytest.fixture(scope="module")
def lexicon_recognizer():
    return LexiconRecognizer(lexicon=build_lexicon(size=4000), shortlist=64)


class TestFacadeEquivalence:
    def _legacy_scores(self, recognizer, points):
        """The pre-subsystem scoring path, verbatim: linear prefilter
        then one scalar DTW per shortlisted word, no abandon."""
        query = normalize_trajectory(
            points, recognizer.resample, deslant=True
        )
        words = recognizer.shortlist_for(query)
        return {
            word: dtw_distance(
                query,
                recognizer._template(word).points,
                band=recognizer.band,
            )
            for word in words
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_scores_match_scalar_loop(self, corpus_recognizer, seed):
        rng = np.random.default_rng(seed)
        generator = HandwritingGenerator(style=UserStyle.sample(rng))
        word = ["water", "story", "think", "people"][seed]
        trace = generator.word_trace(word)
        new = corpus_recognizer.scores(trace.points)
        old = self._legacy_scores(corpus_recognizer, trace.points)
        assert set(new) == set(old)
        for candidate, distance in old.items():
            assert abs(new[candidate] - distance) <= 1e-9
        assert min(new, key=new.get) == min(old, key=old.get)

    def test_classify_unchanged_on_neutral_words(self, corpus_recognizer):
        generator = HandwritingGenerator()
        for word in ("play", "clear", "water", "import"):
            trace = generator.word_trace(word)
            assert corpus_recognizer.classify(trace.points) == word

    def test_recognize_counters(self, corpus_recognizer):
        trace = HandwritingGenerator().word_trace("water")
        result = corpus_recognizer.recognize(trace.points)
        assert result.word == "water"
        assert result.shortlist_size == corpus_recognizer.shortlist
        assert 0 < result.dtw_evals <= result.shortlist_size
        assert result.candidates[0][0] == "water"
        assert result.distance == pytest.approx(
            result.candidates[0][1], abs=1e-12
        )


class TestImmutability:
    def test_templates_and_matrix_write_protected(self, corpus_recognizer):
        template = corpus_recognizer._template("water")
        with pytest.raises(ValueError):
            template.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            corpus_recognizer._matrix[0, 0, 0] = 1.0

    def test_templates_complete_at_construction(self, corpus_recognizer):
        # The stale-cache bug class is gone: every dictionary word is
        # rendered exactly once, at construction.
        assert set(corpus_recognizer._templates) == set(
            corpus_recognizer.dictionary
        )
        assert corpus_recognizer._matrix.shape[0] == len(
            corpus_recognizer.dictionary
        )


class TestLexiconMode:
    def test_recognize_against_lexicon(self, lexicon_recognizer):
        trace = HandwritingGenerator().word_trace("water")
        result = lexicon_recognizer.recognize(trace.points)
        assert result.word == "water"
        assert result.shortlist_size == 64

    def test_prefix_and_length_constraints(self, lexicon_recognizer):
        trace = HandwritingGenerator().word_trace("water")
        result = lexicon_recognizer.recognize(trace.points, prefix="wa")
        assert result.word.startswith("wa")
        result = lexicon_recognizer.recognize(trace.points, lengths=(5, 5))
        assert len(result.word) == 5

    def test_template_cache_bounded(self):
        recognizer = LexiconRecognizer(
            lexicon=build_lexicon(size=4000), shortlist=16, cache_size=32
        )
        generator = HandwritingGenerator()
        for word in ("water", "people", "think", "house", "story"):
            recognizer.recognize(generator.word_trace(word).points)
        assert recognizer.cached_templates <= 32

    def test_cache_smaller_than_shortlist_rejected(self):
        with pytest.raises(ValueError):
            LexiconRecognizer(
                lexicon=build_lexicon(size=4000), shortlist=64, cache_size=8
            )


class TestRecognizerFactory:
    def test_pickles_and_builds(self):
        factory = RecognizerFactory(lexicon_size=1000, shortlist=32)
        clone = pickle.loads(pickle.dumps(factory))
        recognizer = clone()
        assert isinstance(recognizer, LexiconRecognizer)
        assert len(recognizer.lexicon) == 1000
        trace = HandwritingGenerator().word_trace("water")
        assert recognizer.classify(trace.points) == "water"

    def test_default_builds_corpus_recognizer(self):
        recognizer = RecognizerFactory()()
        assert isinstance(recognizer, WordRecognizer)
