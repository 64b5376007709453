"""Template-DTW character and word recognition (the MyScript substitute).

The paper's recognition results are a *proxy for trajectory shape
fidelity*: a coherently stretched reconstruction is still recognised, a
scattered one is not. A template DTW recogniser has exactly that property
and a well-defined chance floor (1/26 ≈ 3.8 % for characters — compare the
paper's "< 4 %, equivalent to a random guess" for the baseline).

Characters are matched against per-letter templates rendered from the same
stroke font with a handful of slant/aspect variants. Words are matched
against templates rendered for every dictionary word at construction,
pre-filtered by a linear-alignment distance so only a shortlist pays for
DTW. Both score their templates with the one batched DTW kernel,
:func:`repro.handwriting.dtw.dtw_distance_many`.
"""

from __future__ import annotations

import numpy as np

from repro.handwriting.corpus import CORPUS
from repro.handwriting.dtw import dtw_distance_many
from repro.handwriting.font import StrokeFont, default_font
from repro.handwriting.generator import (
    HandwritingGenerator,
    UserStyle,
    resample_polyline,
)

__all__ = [
    "normalize_trajectory",
    "normalize_resampled",
    "CharacterRecognizer",
    "WordRecognizer",
]


#: Largest writing slant (|dx/dy|) that deslanting removes; steeper
#: shears are left alone rather than read as slant.
DESLANT_CLIP = 0.35


def normalize_trajectory(
    points: np.ndarray, count: int = 64, deslant: bool = False
) -> np.ndarray:
    """Resample + translate + height-normalise a trajectory for matching.

    The trajectory is resampled to ``count`` equally spaced points, its
    centroid moved to the origin, and its scale divided by its bounding
    height (aspect ratio is preserved — it is a discriminative feature).
    With ``deslant=True`` the writer's slant is removed first by shearing
    away the regression of x on y — standard online-handwriting
    preprocessing, important for matching styled words against neutral
    templates.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("expected an (N, 2) trajectory")
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    return normalize_resampled(resample_polyline(points, count), deslant)


def normalize_resampled(points: np.ndarray, deslant: bool = False) -> np.ndarray:
    """The centre / deslant / height steps of :func:`normalize_trajectory`.

    ``points`` is an already resampled ``(..., R, 2)`` stack; every
    trajectory in it is normalised on its own.
    """
    out = points - points.mean(axis=-2, keepdims=True)
    x, y = out[..., 0], out[..., 1]
    if deslant:
        # Row dot products via matmul, which sums each row in the same
        # order as ``np.dot`` on a single trajectory.
        y_var = (y[..., None, :] @ y[..., :, None])[..., 0, 0]
        tilted = y_var > 1e-12
        xy = (x[..., None, :] @ y[..., :, None])[..., 0, 0]
        slope = xy / np.where(tilted, y_var, 1.0)
        # Only correct plausible writing slants, not arbitrary shears.
        slope = np.clip(slope, -DESLANT_CLIP, DESLANT_CLIP)
        sheared = x - slope[..., None] * y
        sheared -= sheared.mean(axis=-1, keepdims=True)
        np.copyto(x, sheared, where=tilted[..., None])
    height = y.max(axis=-1) - y.min(axis=-1)
    height = np.where(height < 1e-9, x.max(axis=-1) - x.min(axis=-1), height)
    height = np.where(height < 1e-9, 1.0, height)
    return out / height[..., None, None]


class CharacterRecognizer:
    """Nearest-template DTW classifier over single characters.

    Every letter is rendered once per style variant at construction;
    the templates are one read-only ``(T, resample, 2)`` stack
    (``templates``) with one label per row (``template_labels``), and a
    query is scored against all of them in one DTW kernel call.
    """

    #: Style variants every template letter is rendered with.
    _VARIANTS = (
        UserStyle.neutral(),
        UserStyle(slant=0.12, smoothing=2),
        UserStyle(slant=-0.08, smoothing=2),
        UserStyle(aspect=1.12, smoothing=3),
    )

    def __init__(
        self,
        font: StrokeFont | None = None,
        characters: str | None = None,
        resample: int = 64,
        band: int = 10,
    ) -> None:
        self.font = font or default_font()
        self.resample = resample
        self.band = band
        chars = characters or "abcdefghijklmnopqrstuvwxyz"
        generators = [
            HandwritingGenerator(style=style, font=self.font)
            for style in self._VARIANTS
        ]
        self.template_labels = np.array(
            [char for char in chars for _ in generators]
        )
        self.templates = np.stack(
            [
                normalize_trajectory(
                    generator.letter_trace(char).points, self.resample
                )
                for char in chars
                for generator in generators
            ]
        )
        self.templates.setflags(write=False)
        self.template_labels.setflags(write=False)

    @property
    def labels(self) -> list[str]:
        return sorted(set(self.template_labels.tolist()))

    def scores(self, points: np.ndarray) -> dict[str, float]:
        """Best DTW distance per character label (lower is better).

        Every template is scored in full (no early abandon), so each
        label reports its own best distance.
        """
        query = normalize_trajectory(points, self.resample)
        distances = dtw_distance_many(query, self.templates, band=self.band)
        labels = self.template_labels.tolist()
        best = dict.fromkeys(labels, np.inf)
        for label, distance in zip(labels, distances.tolist()):
            if distance < best[label]:
                best[label] = distance
        return best

    def classify(self, points: np.ndarray) -> str:
        """The most likely character for a trajectory segment."""
        scores = self.scores(points)
        return min(scores, key=scores.get)


class WordRecognizer:
    """Dictionary-constrained word recognition via synthesised templates.

    Every template of the ``dictionary`` (or the default embedded
    corpus) is rendered once at construction — immutable,
    matrix-prefiltered, scored by one batched DTW sweep; answers match
    the historical per-word scalar loop. For lexicon-scale vocabularies
    use :class:`repro.lexicon.LexiconRecognizer` (feature-index pruning,
    an LRU-bounded template cache, the same batched DTW), which answers
    the same ``recognize``/``classify`` calls.

    Args:
        dictionary: candidate words (default: the embedded corpus).
        font: stroke font for template synthesis.
        resample: points per normalised trajectory.
        band: DTW band half-width.
        shortlist: how many pre-filtered candidates get a DTW pass
            (default 110).
    """

    def __init__(
        self,
        dictionary: tuple[str, ...] | list[str] | None = None,
        font: StrokeFont | None = None,
        resample: int = 128,
        band: int = 16,
        shortlist: int | None = None,
    ) -> None:
        self.font = font or default_font()
        self.resample = resample
        self.band = band
        self.shortlist = 110 if shortlist is None else shortlist
        self.dictionary = tuple(dictionary if dictionary is not None else CORPUS)
        if not self.dictionary:
            raise ValueError("the dictionary is empty")
        # Imported here: repro.lexicon.store imports this module.
        from repro.lexicon.store import neutral_templates

        # Every template is rendered here, once, in one vectorised pass:
        # construction is the only time the template set can change, so
        # there is no cache to invalidate (the old lazily-built matrix
        # kept scoring against a stale copy if the dictionary grew
        # afterwards) and nothing grows per classify in long-running
        # processes.
        matrix = neutral_templates(self.dictionary, self.resample, self.font)
        matrix.setflags(write=False)  # (W, resample, 2); rows are views
        self._templates = dict(zip(self.dictionary, matrix))
        self._matrix = matrix

    def shortlist_for(self, query: np.ndarray) -> list[str]:
        """Dictionary candidates ranked by linear-alignment distance.

        The pre-filter compares the query against every template point by
        point after the shared resample/normalise step — no warping, but
        fully vectorised over the whole dictionary. DTW then re-ranks only
        the shortlist. Linear alignment is a (loose) lower-quality bound on
        DTW similarity that keeps the true word in the shortlist reliably.
        """
        gaps = np.sqrt(((self._matrix - query) ** 2).sum(axis=2)).mean(axis=1)
        order = np.argsort(gaps)[: self.shortlist]
        return [self.dictionary[int(index)] for index in order]

    def scores(self, points: np.ndarray) -> dict[str, float]:
        """DTW distance for the shortlisted dictionary candidates."""
        query = normalize_trajectory(points, self.resample, deslant=True)
        words = self.shortlist_for(query)
        stack = np.stack([self._templates[word] for word in words])
        distances = dtw_distance_many(query, stack, band=self.band)
        return {
            word: float(distance)
            for word, distance in zip(words, distances)
        }

    def recognize(self, points: np.ndarray):
        """Classify with work counters — a ``RecognitionResult``."""
        from repro.lexicon.recognizer import RecognitionResult

        results = self.scores(points)
        ranked = sorted(results.items(), key=lambda item: item[1])
        word, distance = ranked[0]
        return RecognitionResult(
            word=word,
            distance=float(distance),
            shortlist_size=len(results),
            dtw_evals=int(np.isfinite(list(results.values())).sum()),
            candidates=tuple(
                (w, float(d)) for w, d in ranked[:5] if np.isfinite(d)
            ),
        )

    def classify(self, points: np.ndarray) -> str:
        """The most likely dictionary word for a whole-word trajectory."""
        scores = self.scores(points)
        return min(scores, key=scores.get)
