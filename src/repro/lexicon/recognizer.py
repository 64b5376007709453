"""Lexicon-scale word recognition: index pruning + batched banded DTW.

The pipeline per query: the trajectory's shape features prune the
lexicon to a shortlist (`repro.lexicon.index`), the shortlist's
templates come from a bounded LRU cache — every miss synthesised in one
vectorised pass (`repro.lexicon.store.neutral_templates`) — and batched
DTW (`repro.lexicon.dtw_batch`) scores them in feature-rank chunks with
an adaptive early-abandon bound, so the likely winner (median feature
rank 0) sets a tight bound for the rest of the shortlist.

:class:`LexiconRecognizer` answers the same ``recognize``/``classify``
calls as the rendered-dictionary ``WordRecognizer`` in
`repro.handwriting.recognizer`; callers pick one by vocabulary size.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.handwriting.font import StrokeFont, default_font
from repro.handwriting.recognizer import normalize_trajectory
from repro.lexicon.dtw_batch import dtw_distance_many
from repro.lexicon.index import DEFAULT_SHORTLIST, LexiconIndex
from repro.lexicon.store import Lexicon, default_lexicon, neutral_templates

__all__ = ["RecognitionResult", "LexiconRecognizer", "RecognizerFactory"]

#: Shortlist chunk per batched-DTW launch. The first chunk (the
#: feature-nearest candidates) almost always contains the true word,
#: whose distance then early-abandons most of the remaining chunks.
_SCORE_CHUNK = 64

#: Early-abandon slack over the best distance so far — matches the
#: scalar recogniser's ``early_abandon=bound * 3``.
_ABANDON_SLACK = 3.0


@dataclass(frozen=True)
class RecognitionResult:
    """One classified trajectory, with the work it took.

    Attributes:
        word: the best-scoring lexicon word.
        distance: its normalised DTW distance.
        shortlist_size: candidates that survived feature pruning.
        dtw_evals: shortlist templates whose DTW ran to completion
            (the rest were early-abandoned mid-recurrence).
        candidates: the best few ``(word, distance)`` pairs, ascending.
    """

    word: str
    distance: float
    shortlist_size: int
    dtw_evals: int
    candidates: tuple[tuple[str, float], ...]


class LexiconRecognizer:
    """Scalable dictionary word recognition over a :class:`Lexicon`.

    Args:
        lexicon: vocabulary to recognise against (default: the shared
            100k lexicon).
        font: stroke font for template synthesis.
        resample: points per normalised trajectory (DTW resolution).
        band: DTW Sakoe–Chiba band half-width.
        shortlist: candidates that survive feature pruning per query.
        cache_size: maximum synthesised templates kept (LRU) — bounds
            long-running processes regardless of lexicon size.
    """

    def __init__(
        self,
        lexicon: Lexicon | None = None,
        font: StrokeFont | None = None,
        resample: int = 128,
        band: int = 16,
        shortlist: int = DEFAULT_SHORTLIST,
        cache_size: int = 8192,
    ) -> None:
        if cache_size < shortlist:
            raise ValueError("cache_size must cover at least one shortlist")
        self.font = font or default_font()
        self.resample = resample
        self.band = band
        self.index = LexiconIndex(lexicon, font=font, shortlist=shortlist)
        self.lexicon = self.index.lexicon
        self.cache_size = int(cache_size)
        self._templates: OrderedDict[str, np.ndarray] = OrderedDict()

    # -- templates ------------------------------------------------------
    def template(self, word: str) -> np.ndarray:
        """The word's normalised neutral template (LRU-cached)."""
        return self.templates((word,))[0]

    def templates(self, words) -> list[np.ndarray]:
        """The cached read-only template of every word, in request order.

        Cache hits are reused; all misses (each distinct word once) are
        synthesised together in one vectorised pass. The LRU cache then
        sees the words in request order — each moved to the most-recent
        end — and is trimmed to ``cache_size``.
        """
        words = tuple(words)
        unique = dict.fromkeys(words)
        found = {
            word: self._templates[word]
            for word in unique
            if word in self._templates
        }
        misses = [word for word in unique if word not in found]
        if misses:
            batch = neutral_templates(misses, self.resample, font=self.font)
            for word, row in zip(misses, batch):
                row = row.copy()  # own its memory: evictions free it
                row.setflags(write=False)
                found[word] = row
        for word in words:
            self._templates[word] = found[word]
            self._templates.move_to_end(word)
        while len(self._templates) > self.cache_size:
            self._templates.popitem(last=False)
        return [found[word] for word in words]

    @property
    def cached_templates(self) -> int:
        return len(self._templates)

    # -- recognition ----------------------------------------------------
    def recognize(
        self,
        points: np.ndarray,
        shortlist: int | None = None,
        prefix: str | None = None,
        lengths: tuple[int, int] | None = None,
        top: int = 5,
    ) -> RecognitionResult:
        """Classify a trajectory, reporting shortlist + DTW effort.

        Args:
            points: raw ``(N, 2)`` trajectory.
            shortlist: shortlist-size override.
            prefix: restrict candidates to a trie prefix.
            lengths: inclusive letter-count window.
            top: how many runner-up candidates to report.
        """
        points = np.asarray(points, dtype=float)
        picks = self.index.shortlist(
            points, size=shortlist, prefix=prefix, lengths=lengths
        )
        if not len(picks):
            raise ValueError("no lexicon candidates match the constraints")
        query = normalize_trajectory(points, self.resample, deslant=True)
        words = [self.lexicon.words[int(i)] for i in picks]
        stack = np.stack(self.templates(words))
        distances = np.full(len(words), np.inf)
        best = np.inf
        for lo in range(0, len(words), _SCORE_CHUNK):
            bound = None if not np.isfinite(best) else best * _ABANDON_SLACK
            scored = dtw_distance_many(
                query,
                stack[lo : lo + _SCORE_CHUNK],
                band=self.band,
                early_abandon=bound,
            )
            distances[lo : lo + len(scored)] = scored
            finite = scored[np.isfinite(scored)]
            if len(finite):
                best = min(best, float(finite.min()))
        order = np.argsort(distances, kind="stable")
        leaders = tuple(
            (words[int(i)], float(distances[int(i)]))
            for i in order[:top]
            if np.isfinite(distances[int(i)])
        )
        winner = int(order[0])
        return RecognitionResult(
            word=words[winner],
            distance=float(distances[winner]),
            shortlist_size=len(words),
            dtw_evals=int(np.isfinite(distances).sum()),
            candidates=leaders,
        )

    def scores(self, points: np.ndarray) -> dict[str, float]:
        """Exact DTW distance per shortlisted word (nothing is abandoned)."""
        points = np.asarray(points, dtype=float)
        picks = self.index.shortlist(points)
        query = normalize_trajectory(points, self.resample, deslant=True)
        words = [self.lexicon.words[int(i)] for i in picks]
        distances = dtw_distance_many(
            query, np.stack(self.templates(words)), band=self.band
        )
        return {
            word: float(distance)
            for word, distance in zip(words, distances)
        }

    def classify(self, points: np.ndarray) -> str:
        """The most likely lexicon word for a whole-word trajectory."""
        return self.recognize(points).word


@dataclass(frozen=True)
class RecognizerFactory:
    """Picklable recipe for building a recognizer inside a worker.

    The serve tier's shard processes cannot receive a live recogniser
    (templates and numpy caches don't pickle usefully); they receive
    this factory and build their own. ``lexicon_size=None`` means a
    ``WordRecognizer`` over the embedded corpus; a number means a
    :class:`LexiconRecognizer` over the shared deterministic lexicon of
    that size.
    """

    lexicon_size: int | None = None
    resample: int = 128
    band: int = 16
    shortlist: int | None = None
    cache_size: int = 8192

    def __call__(self):
        if self.lexicon_size is None:
            from repro.handwriting.recognizer import WordRecognizer

            return WordRecognizer(
                resample=self.resample,
                band=self.band,
                **(
                    {}
                    if self.shortlist is None
                    else {"shortlist": self.shortlist}
                ),
            )
        return LexiconRecognizer(
            lexicon=default_lexicon(self.lexicon_size),
            resample=self.resample,
            band=self.band,
            shortlist=(
                DEFAULT_SHORTLIST if self.shortlist is None else self.shortlist
            ),
            cache_size=self.cache_size,
        )
