"""Template-DTW character and word recognition (the MyScript substitute).

The paper's recognition results are a *proxy for trajectory shape
fidelity*: a coherently stretched reconstruction is still recognised, a
scattered one is not. A template DTW recogniser has exactly that property
and a well-defined chance floor (1/26 ≈ 3.8 % for characters — compare the
paper's "< 4 %, equivalent to a random guess" for the baseline).

Characters are matched against per-letter templates rendered from the same
stroke font with a handful of slant/aspect variants. Words are matched
against trajectories synthesised on demand for dictionary candidates,
pre-filtered by cheap shape features so only a shortlist pays for DTW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.handwriting.corpus import CORPUS
from repro.handwriting.dtw import dtw_distance
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


@dataclass(frozen=True)
class _Template:
    label: str
    points: np.ndarray
    path_ratio: float
    aspect: float


def _shape_features(normalized: np.ndarray) -> tuple[float, float]:
    """(ink length / height, width / height) of a normalised trajectory."""
    length = float(np.linalg.norm(np.diff(normalized, axis=0), axis=1).sum())
    width = float(normalized[:, 0].max() - normalized[:, 0].min())
    return length, width


class CharacterRecognizer:
    """Nearest-template DTW classifier over single characters."""

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
        self._templates: list[_Template] = []
        for char in chars:
            for style in self._VARIANTS:
                generator = HandwritingGenerator(style=style, font=self.font)
                trace = generator.letter_trace(char)
                normalized = normalize_trajectory(trace.points, self.resample)
                length, width = _shape_features(normalized)
                self._templates.append(
                    _Template(char, normalized, length, width)
                )

    @property
    def labels(self) -> list[str]:
        return sorted({template.label for template in self._templates})

    def scores(self, points: np.ndarray) -> dict[str, float]:
        """Best DTW distance per character label (lower is better).

        Labels whose every template was early-abandoned report ``inf`` —
        they are certainly worse than the current best.
        """
        query = normalize_trajectory(points, self.resample)
        best: dict[str, float] = {
            template.label: np.inf for template in self._templates
        }
        bound = np.inf
        for template in self._templates:
            distance = dtw_distance(
                query, template.points, band=self.band, early_abandon=bound * 4
            )
            if distance < best[template.label]:
                best[template.label] = distance
                bound = min(bound, distance)
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
        self._templates = {
            word: _Template(word, points, *_shape_features(points))
            for word, points in zip(self.dictionary, matrix)
        }
        self._matrix = matrix

    def _template(self, word: str) -> _Template:
        return self._templates[word]

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
        from repro.lexicon.dtw_batch import dtw_distance_many

        query = normalize_trajectory(points, self.resample, deslant=True)
        words = self.shortlist_for(query)
        stack = np.stack([self._templates[word].points for word in words])
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
        word, distance = min(
            results.items(), key=lambda item: item[1]
        )
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
