"""The 100k-word lexicon: deterministic generation + shape features.

The paper's recognition dictionary is the top of COCA; the repo ships a
~1.7k embedded corpus (`repro.handwriting.corpus`). This module scales
that to a 100k-word *lexicon* without any network fetch: the embedded
corpus occupies the top frequency ranks verbatim, and the long tail is
composed deterministically from the corpus' own character statistics (a
frequency-weighted bigram Markov chain over a–z, seeded) so every
machine builds the identical word list.

Every word also carries *template shape-features*: scale-free ratios of
the smoothed neutral-style pen path — extent/ink ratios, arc-length
moments and a 12-point arc-quantile profile of the deslanted path (29
numbers per word, see :data:`FEATURE_NAMES`). Rendering 100k templates
through the full generator to measure these is infeasible (~0.3 ms each
⇒ half a minute), so the pen paths are *assembled* instead: the neutral
template style has no jitter, wobble or tremor, which makes a word's raw
polyline an exact concatenation of glyph polylines at layout cursors.
One flat vectorised Chaikin pass smooths every word at once, and the
features fall out of per-word ``reduceat`` reductions — the whole 100k
lexicon builds in about 5 s on a 2-core x86 box. A small affine calibration,
fitted once against genuinely rendered templates, absorbs what path
assembly cannot see (finite resampling, the normalised frame's shear),
and :func:`style_tolerance` measures how much each feature wobbles
across writing styles — the natural per-feature length scale for the
index tier (`repro.lexicon.index`), which prunes on these features so
only a shortlist ever pays for template synthesis + DTW.

The same assembled paths give the DTW templates themselves:
:func:`neutral_templates` carries them through the generator's
constant-speed resampling and the recogniser's normalisation for a
whole batch of words at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.handwriting.corpus import CORPUS
from repro.handwriting.font import StrokeFont, default_font
from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.handwriting.recognizer import DESLANT_CLIP, normalize_resampled

__all__ = [
    "Lexicon",
    "build_lexicon",
    "default_lexicon",
    "template_features",
    "neutral_templates",
    "query_features",
    "style_tolerance",
    "FEATURE_NAMES",
]

#: Arc-quantile profile resolution: the deslanted path sampled at this
#: many equally-spaced arc-length fractions.
PROFILE_POINTS = 12

#: The per-word shape features, in storage order. Every feature is a
#: ratio over the *deslanted ink length* L (not the height): per-letter
#: jitter perturbs a word's height multiplicatively, which would shift
#: every height-normalised feature coherently, while L averages the
#: jitter over all letters and stays stable. Five global ratios
#: (height, width, y-spread, vertical and horizontal asymmetry about
#: the arc-length centroid), then the profile x and y coordinates.
FEATURE_NAMES: tuple[str, ...] = (
    "height_ratio",
    "width_ratio",
    "y_spread",
    "y_asym",
    "x_asym",
    *(f"prof_x_{i}" for i in range(PROFILE_POINTS)),
    *(f"prof_y_{i}" for i in range(PROFILE_POINTS)),
)

#: Letter spacing of the neutral template style, in height units.
_NEUTRAL_SPACING = UserStyle.neutral().spacing

#: Chaikin smoothing depth of the neutral template style.
_NEUTRAL_SMOOTHING = UserStyle.neutral().smoothing

#: Resample count used for *feature extraction* on the query side. This
#: is deliberately finer than the DTW resample (128): coarse resampling
#: clips a path's y-extremes and that noise would eat the features'
#: discriminative power. Independent of the DTW knobs.
_QUERY_RESAMPLE = 512

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_ORD_A = ord("a")


# ----------------------------------------------------------------------
# The frozen lexicon
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Lexicon:
    """An immutable frequency-ranked word list with shape features.

    Attributes:
        words: all words, most frequent first (rank = position).
        features: ``(W, 29)`` float32 calibrated template shape-features
            (see :data:`FEATURE_NAMES`), row-aligned with ``words``.
    """

    words: tuple[str, ...]
    features: np.ndarray
    _ranks: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a lexicon needs at least one word")
        features = np.asarray(self.features, dtype=np.float32)
        if features.shape != (len(self.words), len(FEATURE_NAMES)):
            raise ValueError(
                f"features must be ({len(self.words)}, {len(FEATURE_NAMES)})"
            )
        features.setflags(write=False)
        object.__setattr__(self, "features", features)
        self._ranks.update(
            (word, rank) for rank, word in enumerate(self.words)
        )
        if len(self._ranks) != len(self.words):
            raise ValueError("lexicon words must be unique")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        return word in self._ranks

    def rank(self, word: str) -> int:
        """Frequency rank of ``word`` (0 = most frequent); raises KeyError."""
        return self._ranks[word]

    @property
    def lengths(self) -> np.ndarray:
        """``(W,)`` letter counts, row-aligned with ``words``."""
        return np.fromiter(
            (len(w) for w in self.words), dtype=np.int32, count=len(self.words)
        )

    def length_buckets(self) -> dict[int, np.ndarray]:
        """Word indices grouped by letter count (ascending rank inside)."""
        lengths = self.lengths
        return {
            int(n): np.flatnonzero(lengths == n)
            for n in np.unique(lengths)
        }

    # -- persistence ----------------------------------------------------
    def save(self, path) -> None:
        """Persist words + features as a compressed ``.npz`` archive."""
        np.savez_compressed(
            Path(path),
            words=np.asarray(self.words, dtype="U"),
            features=self.features,
        )

    @classmethod
    def load(cls, path) -> "Lexicon":
        with np.load(Path(path)) as archive:
            return cls(
                words=tuple(str(w) for w in archive["words"]),
                features=np.asarray(archive["features"], dtype=np.float32),
            )


# ----------------------------------------------------------------------
# Assembled template paths → shape features
# ----------------------------------------------------------------------
def _encode(
    words, code_points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten words into one glyph-index array + word-start offsets.

    ``code_points`` holds the sorted code point of every glyph in the
    font's tables; a character is encoded as its position there.
    """
    lengths = np.fromiter((len(w) for w in words), dtype=np.int64,
                          count=len(words))
    if len(words) and (lengths == 0).any():
        raise ValueError("lexicon words must be non-empty")
    text = "".join(words)
    chars = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    codes = np.searchsorted(code_points, chars)
    known = code_points[np.minimum(codes, len(code_points) - 1)] == chars
    if not known.all():
        missing = text[int(np.argmin(known))]
        raise ValueError(f"the font has no glyph for {missing!r}")
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return codes, starts


@lru_cache(maxsize=4)
def _glyph_tables(font: StrokeFont | None):
    """Flat glyph polylines + layout advances for the neutral style.

    Covers every glyph of the font, in code point order; the last entry
    is those code points, for :func:`_encode`.
    """
    resolved = font or default_font()
    chars = [c for c in resolved.characters if len(c) == 1]
    polylines = [resolved.glyph(c).polyline() for c in chars]
    counts = np.array([len(p) for p in polylines], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    flat = np.concatenate(polylines, axis=0)
    advance = np.array(
        [resolved.glyph(c).width + _NEUTRAL_SPACING for c in chars]
    )
    code_points = np.array([ord(c) for c in chars], dtype=np.uint32)
    return flat, offsets, counts, advance, code_points


def _assemble_paths(
    words, font: StrokeFont | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Raw neutral-style pen paths for every word, as one flat array.

    Reproduces the generator's layout exactly (glyph polylines shifted
    to the letter cursor; each non-first letter's entry point appears
    twice, because the generator appends the connector's endpoint and
    then the glyph), fully vectorised: one gather from the flat glyph
    table per point.

    Returns:
        ``(flat, starts)`` — ``(P, 2)`` points and ``(W + 1,)`` word
        boundary offsets into them.
    """
    gflat, goffsets, gcounts, advance, code_points = _glyph_tables(font)
    codes, wstarts = _encode(words, code_points)
    if not len(codes):
        return np.empty((0, 2)), np.zeros(len(words) + 1, dtype=np.int64)
    wends = np.concatenate([wstarts[1:], [len(codes)]])

    # Layout cursor of each letter inside its word (exclusive prefix
    # sum of advances, reset at word starts).
    adv = advance[codes]
    cursor = np.cumsum(adv) - adv
    cursor = cursor - cursor[wstarts].repeat(wends - wstarts)

    # Points contributed per letter occurrence: the glyph polyline,
    # plus one duplicated entry point for non-first letters.
    first = np.zeros(len(codes), dtype=bool)
    first[wstarts] = True
    dup = (~first).astype(np.int64)
    npts = gcounts[codes] + dup

    occ_end = np.cumsum(npts)
    occ_start = occ_end - npts
    total = int(occ_end[-1])

    # Within-occurrence offset of every output point, then the source
    # index into the flat glyph table (offset 0 of a duplicated letter
    # re-reads glyph point 0).
    within = np.arange(total) - occ_start.repeat(npts)
    src_local = np.maximum(within - dup.repeat(npts), 0)
    src = goffsets[codes].repeat(npts) + src_local

    flat = gflat[src].copy()
    flat[:, 0] += cursor.repeat(npts)
    starts = np.concatenate([[0], occ_end[wends - 1]])
    return flat, starts


def _chaikin_flat(
    flat: np.ndarray, starts: np.ndarray, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chaikin corner-cutting applied to every word path at once.

    Identical arithmetic to the generator's ``_chaikin`` (q/r corner
    points, endpoints kept), but over the flat multi-word array: a
    word starting at ``s`` before an iteration starts at ``2 s`` after
    it. Point pair ``p`` writes its q/r points to output slots
    ``2p + 1`` and ``2p + 2``, so every pair is written with contiguous
    slices; the endpoint copies then overwrite exactly the two slots of
    each pair that straddles a word boundary, so words never mix.
    """
    for _ in range(max(0, iterations)):
        out = np.empty((2 * len(flat), 2))
        head, tail = flat[:-1], flat[1:]
        pairs = out[1:-1].reshape(-1, 2, 2)
        pairs[:, 0] = 0.75 * head + 0.25 * tail
        pairs[:, 1] = 0.25 * head + 0.75 * tail
        out[2 * starts[:-1]] = flat[starts[:-1]]
        out[2 * starts[1:] - 1] = flat[starts[1:] - 1]
        flat, starts = out, starts * 2
    return flat, starts


def _path_features(flat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``(W, 29)`` raw shape features of smoothed word paths.

    Per word: arc-length moments (trapezoid-exact over segments) give
    the centroid, y-variance and the regression slope of x on y; the
    path is sheared by that slope (clipped like ``normalize_trajectory``
    does) and every feature is formed as a ratio over the sheared ink
    length. All reductions are ``reduceat`` over the flat array.
    """
    count = len(starts) - 1
    seg_starts = starts[:-1]
    counts = starts[1:] - starts[:-1]
    cross = starts[1:-1] - 1  # segment indices straddling word ends

    x, y = flat[:, 0], flat[:, 1]
    dx, dy = np.diff(x), np.diff(y)
    dl0 = np.sqrt(dx * dx + dy * dy)
    dl0[cross] = 0.0
    x0, x1 = x[:-1], x[1:]
    y0, y1 = y[:-1], y[1:]

    def seg_sum(values: np.ndarray) -> np.ndarray:
        values[cross] = 0.0  # fresh per-segment products; safe to mutate
        return np.add.reduceat(values, seg_starts)

    length0 = np.add.reduceat(dl0, seg_starts)
    s_x = seg_sum(dl0 * (x0 + x1) / 2.0)
    s_y = seg_sum(dl0 * (y0 + y1) / 2.0)
    s_yy = seg_sum(dl0 * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0)
    s_xy = seg_sum(
        dl0 * (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) / 6.0
    )
    safe0 = np.maximum(length0, 1e-12)
    mean_x = s_x / safe0
    mean_y = s_y / safe0
    var_y = np.maximum(s_yy / safe0 - mean_y**2, 0.0)
    cov_xy = s_xy / safe0 - mean_x * mean_y
    slope = np.clip(
        np.where(var_y > 1e-12, cov_xy / np.maximum(var_y, 1e-12), 0.0),
        -DESLANT_CLIP,
        DESLANT_CLIP,
    )

    # Deslanted frame: shear x, re-measure lengths and extents there.
    xs = x - slope.repeat(counts) * (y - mean_y.repeat(counts))
    dxs = np.diff(xs)
    dls = np.sqrt(dxs * dxs + dy * dy)
    dls[cross] = 0.0
    length = np.maximum(np.add.reduceat(dls, seg_starts), 1e-12)
    y_min = np.minimum.reduceat(y, seg_starts)
    y_max = np.maximum.reduceat(y, seg_starts)
    x_min = np.minimum.reduceat(xs, seg_starts)
    x_max = np.maximum.reduceat(xs, seg_starts)

    # Arc-quantile profile: the sheared path sampled at PROFILE_POINTS
    # equal arc-length fractions. The global cumulative arc length is
    # monotone (boundary segments contribute zero), so one searchsorted
    # resolves every word's sample points; indices are clipped back
    # into each word so boundary plateaus never leak a neighbour.
    cum = np.concatenate([[0.0], np.cumsum(dls)])
    fractions = np.linspace(0.0, 1.0, PROFILE_POINTS)
    targets = (
        cum[seg_starts][:, None] + length[:, None] * fractions[None, :]
    ).ravel()
    lo = np.repeat(seg_starts + 1, PROFILE_POINTS)
    hi = np.repeat(starts[1:] - 1, PROFILE_POINTS)
    idx = np.clip(np.searchsorted(cum, targets, side="right"), lo, hi)
    span = np.maximum(cum[idx] - cum[idx - 1], 1e-12)
    frac = np.clip((targets - cum[idx - 1]) / span, 0.0, 1.0)
    prof_x = (xs[idx - 1] + frac * (xs[idx] - xs[idx - 1])).reshape(
        count, PROFILE_POINTS
    )
    prof_y = (y[idx - 1] + frac * (y[idx] - y[idx - 1])).reshape(
        count, PROFILE_POINTS
    )

    # The shear preserves the arc-mean of x, so centring on (mean_x,
    # mean_y) matches the normalised query frame's origin.
    return np.column_stack(
        [
            (y_max - y_min) / length,
            (x_max - x_min) / length,
            np.sqrt(var_y) / length,
            (y_max + y_min - 2.0 * mean_y) / length,
            (x_max + x_min - 2.0 * mean_x) / length,
            (prof_x - mean_x[:, None]) / length[:, None],
            (prof_y - mean_y[:, None]) / length[:, None],
        ]
    )


#: Words per vectorised feature chunk — bounds the flat-array footprint
#: (a chunk is ~4 M points after two Chaikin subdivisions).
_FEATURE_CHUNK = 8192


def _raw_features(words, font: StrokeFont | None = None) -> np.ndarray:
    """Uncalibrated ``(W, 29)`` features of assembled template paths."""
    words = tuple(words)
    out = np.empty((len(words), len(FEATURE_NAMES)))
    for lo in range(0, len(words), _FEATURE_CHUNK):
        chunk = words[lo : lo + _FEATURE_CHUNK]
        flat, starts = _assemble_paths(chunk, font=font)
        flat, starts = _chaikin_flat(flat, starts, _NEUTRAL_SMOOTHING)
        out[lo : lo + len(chunk)] = _path_features(flat, starts)
    return out


def query_features(
    points: np.ndarray, resample: int = _QUERY_RESAMPLE
) -> np.ndarray:
    """Shape features of a query trajectory, in template feature space.

    Mirrors :func:`template_features`: the trajectory is normalised
    (deslanted, arc-length resampled — finely, so y-extremes survive),
    and the same 29 ink-length ratios are read off. In the normalised
    frame the centroid sits at the origin, so the centring terms
    vanish.
    """
    from repro.handwriting.recognizer import normalize_trajectory

    normalized = normalize_trajectory(
        np.asarray(points, dtype=float), resample, deslant=True
    )
    x, y = normalized[:, 0], normalized[:, 1]
    deltas = np.linalg.norm(np.diff(normalized, axis=0), axis=1)
    length = max(float(deltas.sum()), 1e-12)
    cum = np.concatenate([[0.0], np.cumsum(deltas)])
    targets = np.linspace(0.0, cum[-1], PROFILE_POINTS)
    prof_x = np.interp(targets, cum, x)
    prof_y = np.interp(targets, cum, y)
    globals_ = [
        (y.max() - y.min()) / length,
        (x.max() - x.min()) / length,
        float(y.std()) / length,
        (y.max() + y.min()) / length,
        (x.max() + x.min()) / length,
    ]
    return np.concatenate([globals_, prof_x / length, prof_y / length])


#: Rendered calibration sample size; drawn deterministically from the
#: corpus with a spread of lengths.
_CALIBRATION_WORDS = 96


@lru_cache(maxsize=4)
def _calibration(font: StrokeFont | None) -> np.ndarray:
    """``(29, 3)`` per-feature affine map: assembled-path → rendered.

    Each rendered feature is modelled as affine in the same assembled
    feature plus a letter-count term, fitted per feature on genuinely
    rendered neutral templates — this absorbs the small systematic
    differences path assembly cannot see (finite resampling, the
    normalised frame's own shear estimate).
    """
    rng = np.random.default_rng(3)
    sample = [
        CORPUS[int(i)]
        for i in rng.choice(len(CORPUS), _CALIBRATION_WORDS, replace=False)
    ]
    generator = HandwritingGenerator(
        style=UserStyle.neutral(), font=font or default_font()
    )
    raw = _raw_features(sample, font=font)
    rendered = np.array(
        [
            query_features(generator.word_trace(word).points)
            for word in sample
        ]
    )
    letters = np.array([len(w) for w in sample], dtype=float)
    coefs = np.empty((len(FEATURE_NAMES), 3))
    ones = np.ones(len(sample))
    for feature in range(len(FEATURE_NAMES)):
        design = np.column_stack([ones, raw[:, feature], letters])
        coefs[feature], *_ = np.linalg.lstsq(
            design, rendered[:, feature], rcond=None
        )
    return coefs


def template_features(
    words, font: StrokeFont | None = None
) -> np.ndarray:
    """Calibrated ``(W, 29)`` template shape-features for every word."""
    words = tuple(words)
    if not words:
        return np.empty((0, len(FEATURE_NAMES)), dtype=np.float32)
    raw = _raw_features(words, font=font)
    coefs = _calibration(font)
    letters = np.fromiter(
        (len(w) for w in words), dtype=float, count=len(words)
    )
    predicted = (
        coefs[:, 0] + raw * coefs[:, 1] + letters[:, None] * coefs[:, 2]
    )
    return predicted.astype(np.float32)


@lru_cache(maxsize=4)
def style_tolerance(font: StrokeFont | None = None) -> np.ndarray:
    """Per-feature std of (styled query − calibrated template feature).

    Measured once on a deterministic set of styled renders, this is the
    natural length scale for the feature-index distance: a feature only
    discriminates to the extent the writer's style leaves it alone, so
    the index weighs each feature by the *style residual*, not by its
    spread over the lexicon.
    """
    rng = np.random.default_rng(5)
    sample = [
        CORPUS[int(i)] for i in rng.choice(len(CORPUS), 24, replace=False)
    ]
    predicted = template_features(sample, font=font)
    residuals = []
    for user in range(4):
        style = UserStyle.sample(np.random.default_rng(1000 + user))
        generator = HandwritingGenerator(
            style=style, font=font or default_font()
        )
        for row, word in enumerate(sample):
            observed = query_features(generator.word_trace(word).points)
            residuals.append(observed - predicted[row])
    spread = np.asarray(residuals).std(axis=0)
    return np.maximum(spread, 1e-4)


# ----------------------------------------------------------------------
# Batched neutral templates
# ----------------------------------------------------------------------
#: Words per vectorised template-synthesis chunk — bounds the footprint
#: of the constant-speed resample (~1.5k points per word).
_TEMPLATE_CHUNK = 512


def _resample_flat(
    flat: np.ndarray, starts: np.ndarray, counts
) -> tuple[np.ndarray, np.ndarray]:
    """``resample_polyline`` applied to every word path at once.

    ``counts`` maps the ``(W,)`` word path lengths to ``(W,)`` point
    counts; word ``w`` becomes ``counts[w]`` points equally spaced by arc
    length, interpolated with ``np.interp``'s formula (the segment's
    slope times the offset into it, plus its start). One cumulative arc
    length over the whole flat array is monotone, so a single
    ``searchsorted`` places every word's targets (offset by the arc
    length at the word's start); a target at a word's very end is
    clipped back onto the word's last segment, so none reads the
    segment joining two words.

    Returns:
        ``(points, starts)`` of the resampled flat array.
    """
    seg = np.diff(flat, axis=0)
    lengths = np.sqrt(seg[:, 0] * seg[:, 0] + seg[:, 1] * seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    origin = cum[starts[:-1]]
    total = cum[starts[1:] - 1] - origin
    counts = counts(total)
    slope = seg / np.where(lengths > 0.0, lengths, 1.0)[:, None]

    out_starts = np.concatenate([[0], np.cumsum(counts)])
    local = np.arange(out_starts[-1]) - out_starts[:-1].repeat(counts)
    targets = local * (total / (counts - 1)).repeat(counts)
    targets += origin.repeat(counts)
    idx = np.minimum(
        np.searchsorted(cum, targets, side="right") - 1,
        (starts[1:] - 2).repeat(counts),
    )
    out = slope[idx]
    out *= (targets - cum[idx])[:, None]
    out += flat[idx]
    return out, out_starts


def neutral_templates(
    words, resample: int = 128, font: StrokeFont | None = None
) -> np.ndarray:
    """Normalised neutral-style templates for many words, in one pass.

    Row ``w`` is ``normalize_trajectory(generator.word_trace(word).points,
    resample, deslant=True)`` for a neutral-style ``HandwritingGenerator``
    — equal to float rounding (the tests hold it to 1e-9) — without the
    per-word generator loop: the paths are assembled from glyph
    polylines (the neutral style has no jitter, wobble or tremor),
    scaled by the generator's letter height, Chaikin-smoothed, resampled
    at the generator's constant writing speed and sample rate, then
    arc-length resampled to ``resample`` points and normalised — each
    step one vectorised pass over the whole batch.

    Returns:
        ``(W, resample, 2)`` float array.
    """
    words = tuple(words)
    if resample < 2:
        raise ValueError("resample must be at least 2")
    generator = HandwritingGenerator(style=UserStyle.neutral(), font=font)

    def timed_counts(lengths: np.ndarray) -> np.ndarray:
        return generator.timing(lengths)[1]

    def fixed_counts(lengths: np.ndarray) -> np.ndarray:
        return np.full(len(lengths), resample, dtype=np.int64)

    out = np.empty((len(words), resample, 2))
    for lo in range(0, len(words), _TEMPLATE_CHUNK):
        chunk = words[lo : lo + _TEMPLATE_CHUNK]
        flat, starts = _assemble_paths(chunk, font=font)
        flat, starts = _chaikin_flat(
            flat * generator.letter_height, starts, generator.style.smoothing
        )
        flat, starts = _resample_flat(flat, starts, timed_counts)
        flat, _ = _resample_flat(flat, starts, fixed_counts)
        out[lo : lo + len(chunk)] = normalize_resampled(
            flat.reshape(len(chunk), resample, 2), deslant=True
        )
    return out


# ----------------------------------------------------------------------
# Deterministic 100k generation
# ----------------------------------------------------------------------
def _corpus_statistics():
    """(start-char probs, bigram transition probs, length probs) from the
    embedded corpus, frequency-weighted so common words shape the chain."""
    k = len(_ALPHABET)
    start = np.zeros(k)
    transition = np.full((k, k), 0.05)  # smoothing: every pair possible
    max_len = max(len(w) for w in CORPUS)
    length = np.zeros(max_len + 1)
    for rank, word in enumerate(CORPUS):
        weight = 1.0 / (rank + 10.0)
        codes = [ord(c) - _ORD_A for c in word]
        start[codes[0]] += weight
        for a, b in zip(codes, codes[1:]):
            transition[a, b] += weight
        length[len(word)] += weight
    length[0] = length[1] = 0.0  # generated words are ≥ 2 letters
    return (
        start / start.sum(),
        transition / transition.sum(axis=1, keepdims=True),
        length / length.sum(),
    )


def build_lexicon(
    size: int = 100_000, seed: int = 0, font: StrokeFont | None = None
) -> Lexicon:
    """Compose a ``size``-word frequency-ranked lexicon, deterministically.

    The embedded corpus occupies the top ranks verbatim (so corpus-based
    figures see the exact same top-of-dictionary), and the tail is drawn
    from a frequency-weighted character bigram chain fitted on the
    corpus — pronounceable-ish pseudo-words with the corpus' letter and
    length statistics, de-duplicated, in draw order as pseudo-rank.
    """
    if size < 1:
        raise ValueError("size must be positive")
    words: list[str] = list(CORPUS[:size])
    if len(words) < size:
        seen = set(words)
        start_p, trans_p, length_p = _corpus_statistics()
        start_cdf = np.cumsum(start_p)
        trans_cdf = np.cumsum(trans_p, axis=1)
        length_cdf = np.cumsum(length_p)
        rng = np.random.default_rng(seed)
        while len(words) < size:
            batch = max(4096, int((size - len(words)) * 1.3))
            lengths = np.searchsorted(
                length_cdf, rng.random(batch), side="right"
            )
            max_len = int(lengths.max())
            codes = np.empty((batch, max_len), dtype=np.int64)
            codes[:, 0] = np.searchsorted(
                start_cdf, rng.random(batch), side="right"
            )
            draws = rng.random((batch, max_len))
            for pos in range(1, max_len):
                rows = trans_cdf[codes[:, pos - 1]]
                codes[:, pos] = (
                    rows < draws[:, pos, None]
                ).sum(axis=1)
            for row in range(batch):
                n = int(lengths[row])
                word = "".join(
                    _ALPHABET[c] for c in codes[row, :n]
                )
                if word not in seen:
                    seen.add(word)
                    words.append(word)
                    if len(words) == size:
                        break
    words_t = tuple(words)
    return Lexicon(words=words_t, features=template_features(words_t, font=font))


@lru_cache(maxsize=2)
def default_lexicon(size: int = 100_000) -> Lexicon:
    """The shared default lexicon (cached — building 100k takes ~5 s)."""
    return build_lexicon(size)
