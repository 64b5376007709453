"""Air-writing synthesis and recognition.

The paper's evaluation has five users write 150 words sampled from the
5000 most common words of the Corpus of Contemporary American English,
with an RFID on the hand, each letter ≈ 10 cm wide; the reconstructed
trajectories are then recognised by the MyScript Stylus Android app.

We do not have users or MyScript, so this subpackage builds both halves:

* :mod:`repro.handwriting.font` — a monoline stroke font (a–z, 0–9).
* :mod:`repro.handwriting.corpus` — an embedded frequency-ranked list of
  common English words standing in for the COCA top-5000.
* :mod:`repro.handwriting.generator` — turns a word into a continuous,
  time-parametrised air-writing trajectory with per-user style variation
  (slant, scale jitter, tremor, speed).
* :mod:`repro.handwriting.dtw` — dynamic time warping: one banded kernel
  that scores a query against a whole template stack at once.
* :mod:`repro.handwriting.recognizer` — template DTW recognisers for
  characters and dictionary words (the MyScript substitute).
"""

from repro.handwriting.font import Glyph, StrokeFont, default_font
from repro.handwriting.corpus import CORPUS, sample_words, words_by_length
from repro.handwriting.generator import (
    HandwritingGenerator,
    UserStyle,
    WritingTrace,
)
from repro.handwriting.dtw import dtw_distance_many
from repro.handwriting.recognizer import CharacterRecognizer, WordRecognizer

__all__ = [
    "Glyph",
    "StrokeFont",
    "default_font",
    "CORPUS",
    "sample_words",
    "words_by_length",
    "HandwritingGenerator",
    "UserStyle",
    "WritingTrace",
    "dtw_distance_many",
    "CharacterRecognizer",
    "WordRecognizer",
]
