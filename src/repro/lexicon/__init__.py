"""Lexicon-scale word recognition subsystem.

Scales the repo's recognition dictionary ~100× over the embedded
corpus: a deterministic 100k-word lexicon with persisted shape features
(`store`), a trie + feature index that prunes each query to a small
shortlist (`index`), and a batched banded-DTW kernel that scores the
whole shortlist in one vectorised recurrence (`dtw_batch`).
`recognizer` ties them together in :class:`LexiconRecognizer`, which
answers the same ``recognize``/``classify`` calls as the
rendered-dictionary ``WordRecognizer`` in `repro.handwriting.recognizer`.
"""

from repro.lexicon.dtw_batch import dtw_distance_many
from repro.lexicon.index import DEFAULT_SHORTLIST, LexiconIndex, Trie
from repro.lexicon.recognizer import (
    LexiconRecognizer,
    RecognitionResult,
    RecognizerFactory,
)
from repro.lexicon.store import (
    FEATURE_NAMES,
    Lexicon,
    build_lexicon,
    default_lexicon,
    query_features,
    style_tolerance,
    template_features,
)

__all__ = [
    "FEATURE_NAMES",
    "DEFAULT_SHORTLIST",
    "Lexicon",
    "LexiconIndex",
    "LexiconRecognizer",
    "RecognitionResult",
    "RecognizerFactory",
    "Trie",
    "build_lexicon",
    "default_lexicon",
    "dtw_distance_many",
    "query_features",
    "style_tolerance",
    "template_features",
]
