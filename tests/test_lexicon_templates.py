"""Batched neutral templates and the recogniser's template cache.

``neutral_templates`` synthesises many words in one vectorised pass; the
per-word generator path (``word_trace`` then ``normalize_trajectory``)
is its specification, held to 1e-9 here. The cache tests pin the LRU
contract of ``LexiconRecognizer.templates``: each miss synthesised
once, hits reused, the size bound kept, arrays read-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lexicon.recognizer as recognizer_module
from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.handwriting.recognizer import normalize_trajectory
from repro.lexicon import LexiconRecognizer, build_lexicon
from repro.lexicon.store import neutral_templates

#: Words over every glyph of the default font: lowercase letters and
#: digits (a facade dictionary may hold "room101").
words_strategy = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=14
)


def _scalar_template(word: str, resample: int) -> np.ndarray:
    trace = HandwritingGenerator(style=UserStyle.neutral()).word_trace(word)
    return normalize_trajectory(trace.points, resample, deslant=True)


@given(
    st.lists(words_strategy, min_size=1, max_size=12),
    st.sampled_from([128, 2, 37, 200]),
)
@settings(max_examples=40, deadline=None)
def test_batched_templates_match_generator_path(words, resample):
    batch = neutral_templates(words, resample)
    assert batch.shape == (len(words), resample, 2)
    for word, template in zip(words, batch):
        assert np.abs(template - _scalar_template(word, resample)).max() <= 1e-9


def test_batch_rows_independent_of_neighbours():
    # A word's template must not depend on what else is in its batch.
    alone = neutral_templates(["water"])[0]
    mixed = neutral_templates(["i", "water", "mmmmmmmmmmmmmm", "water"])
    assert np.abs(mixed[1] - alone).max() <= 1e-9
    assert np.abs(mixed[3] - alone).max() <= 1e-9


def test_rejects_unsupported_words():
    with pytest.raises(ValueError, match="no glyph for 'W'"):
        neutral_templates(["Water"])
    with pytest.raises(ValueError, match="no glyph for 'é'"):
        neutral_templates(["café"])
    with pytest.raises(ValueError):
        neutral_templates([""])
    with pytest.raises(ValueError):
        neutral_templates(["water"], resample=1)


@pytest.fixture
def counting(monkeypatch):
    """Record every batch the recogniser sends for synthesis."""
    batches = []

    def counted(words, resample=128, font=None):
        batches.append(list(words))
        return neutral_templates(words, resample, font)

    monkeypatch.setattr(recognizer_module, "neutral_templates", counted)
    return batches


@pytest.fixture(scope="module")
def small_lexicon():
    return build_lexicon(size=500)


class TestTemplateCache:
    def test_repeated_misses_synthesised_once(self, small_lexicon, counting):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=8, cache_size=16)
        words = ["the", "of", "the", "and", "of", "the"]
        rows = recognizer.templates(words)
        assert counting == [["the", "of", "and"]]
        assert len(rows) == 6
        for word, row in zip(words, rows):
            assert row is recognizer.template(word)
        assert recognizer.cached_templates == 3

    def test_hits_not_resynthesised(self, small_lexicon, counting):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=8, cache_size=16)
        first = recognizer.template("water")
        recognizer.templates(["water", "people", "water"])
        assert counting == [["water"], ["people"]]
        assert recognizer.template("water") is first
        assert len(counting) == 2

    def test_size_bound_and_lru_order(self, small_lexicon, counting):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=4, cache_size=4)
        recognizer.templates(["a", "b", "c", "d"])
        recognizer.template("a")  # a hit: now the most recent
        recognizer.template("e")  # evicts the least recent, "b"
        assert recognizer.cached_templates == 4
        counting.clear()
        recognizer.templates(["a", "c", "d", "e"])
        assert counting == []
        recognizer.template("b")
        assert counting == [["b"]]
        assert recognizer.cached_templates == 4

    def test_request_larger_than_cache_is_complete(self, small_lexicon):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=4, cache_size=4)
        words = list(small_lexicon.words[:10])
        rows = recognizer.templates(words)
        assert recognizer.cached_templates == 4
        assert np.array_equal(np.stack(rows), neutral_templates(words))

    def test_cached_arrays_read_only(self, small_lexicon):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=4, cache_size=8)
        for template in recognizer.templates(["water", "story", "water"]):
            assert not template.flags.writeable
            with pytest.raises(ValueError):
                template[0, 0] = 1.0

    def test_template_is_the_batched_row(self, small_lexicon):
        recognizer = LexiconRecognizer(small_lexicon, shortlist=4, cache_size=8)
        assert np.array_equal(
            recognizer.template("water"), neutral_templates(["water"])[0]
        )
        assert np.abs(
            recognizer.template("water") - _scalar_template("water", 128)
        ).max() <= 1e-9
