"""Air-writing trajectory synthesis with per-user style variation.

Turns a word into the continuous, time-parametrised path a user's hand
(with an RFID on the finger) traces when writing in the air:

* glyph polylines are laid out left-to-right and joined with straight
  transition segments (the "pen" never lifts in the air),
* a per-user style applies slant, aspect, per-letter size jitter and a
  smoothed tremor,
* the path is smoothed (corner rounding — fingers do not do sharp
  corners) and resampled at constant writing speed to produce timestamps.

The evaluation's geometry follows the paper: letters ≈ 10 cm wide on a
writing plane 2–5 m in front of the reader wall.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.handwriting.font import StrokeFont, default_font

__all__ = [
    "UserStyle",
    "WritingTrace",
    "HandwritingGenerator",
    "resample_polyline",
    "resample_polylines",
]


def resample_polyline(points: np.ndarray, count: int) -> np.ndarray:
    """Resample a polyline to ``count`` points equally spaced by arc length."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("need at least two points to resample")
    return resample_polylines(points, [0, len(points)], [count])[0]


def resample_polylines(
    flat: np.ndarray, starts, counts
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`resample_polyline` applied to many polylines at once.

    Polyline ``w`` is ``flat[starts[w]:starts[w + 1]]`` and becomes
    ``counts[w]`` points; each comes out bit for bit as
    ``resample_polyline`` on its own would give it: its own cumulative
    arc length from 0, ``np.linspace(0, total, count)`` targets (the
    last one exactly ``total``), and ``np.interp``'s formula and end
    rules; a polyline of zero length repeats its first point. Only the
    cumulative sum and the target search run per polyline (they must
    restart at each polyline to stay exact); the interpolation is one
    vectorised pass over every target.

    Args:
        flat: ``(P, D)`` points of all polylines, back to back.
        starts: ``(W + 1,)`` polyline boundary offsets into ``flat``.
        counts: ``(W,)`` output points per polyline.

    Returns:
        ``(points, starts)`` — the ``(sum(counts), D)`` resampled points
        and their ``(W + 1,)`` boundary offsets.
    """
    flat = np.asarray(flat, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    firsts, ends = starts[:-1], starts[1:]
    if (ends - firsts < 2).any():
        raise ValueError("need at least two points to resample")
    if (counts < 2).any():
        raise ValueError("count must be at least 2")
    out_starts = np.concatenate([[0], np.cumsum(counts)])
    if not len(counts):
        return np.empty((0, flat.shape[1])), out_starts

    # Segment lengths, summed over the axes in order (for 2-D points the
    # same single addition as ``np.linalg.norm(..., axis=1)``).
    seg = np.diff(flat, axis=0)
    lengths = seg[:, 0] * seg[:, 0]
    for axis in range(1, flat.shape[1]):
        lengths += seg[:, axis] * seg[:, axis]
    np.sqrt(lengths, out=lengths)

    # Per polyline: cumulative arc length, the linspace targets, and the
    # np.interp bracket j — the last vertex with cum[j] <= target,
    # searched among all but the final vertex so every j has a segment.
    cum = np.zeros(len(flat))
    targets = np.empty(out_starts[-1])
    j = np.empty(out_starts[-1], dtype=np.int64)
    ramp = np.arange(counts.max(), dtype=float)
    for s, e, o, c in zip(
        firsts.tolist(), ends.tolist(), out_starts.tolist(), counts.tolist()
    ):
        xp = cum[s:e]
        np.cumsum(lengths[s : e - 1], out=xp[1:])
        total = xp[-1]
        x = targets[o : o + c]
        step = total / (c - 1)
        if step > 0.0:
            np.multiply(ramp[:c], step, out=x)
        else:  # linspace's rule when the step underflows
            np.multiply(ramp[:c] / (c - 1), total, out=x)
        x[-1] = total
        j[o : o + c] = np.searchsorted(xp[:-1], x, side="right")
    j += np.repeat(firsts - 1, counts)

    # np.interp: slope * (x - xp[j]) + fp[j]. Only the rows overwritten
    # below (each polyline's end, zero-length polylines) can divide by 0.
    x0 = cum[j]
    offset = targets - x0
    span = cum[j + 1] - x0
    out = np.empty((len(targets), flat.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(flat.shape[1]):
            column = flat[:, axis]
            y0 = column[j]
            value = column[j + 1] - y0
            value /= span
            value *= offset
            value += y0
            out[:, axis] = value
    out[out_starts[1:] - 1] = flat[ends - 1]
    still = cum[ends - 1] == 0.0
    if still.any():
        out[np.repeat(still, counts)] = np.repeat(
            flat[firsts[still]], counts[still], axis=0
        )
    return out, out_starts


def _chaikin(points: np.ndarray, iterations: int) -> np.ndarray:
    """Chaikin corner-cutting: rounds polyline corners like a relaxed hand."""
    result = np.asarray(points, dtype=float)
    for _ in range(max(0, iterations)):
        if result.shape[0] < 3:
            break
        q = 0.75 * result[:-1] + 0.25 * result[1:]
        r = 0.25 * result[:-1] + 0.75 * result[1:]
        middle = np.empty((q.shape[0] + r.shape[0], result.shape[1]))
        middle[0::2] = q
        middle[1::2] = r
        result = np.concatenate([result[:1], middle, result[-1:]], axis=0)
    return result


@dataclass
class UserStyle:
    """One user's handwriting idiosyncrasies.

    Attributes:
        slant: shear applied to x as a fraction of height (positive leans
            right; ±0.15 covers typical writers).
        aspect: width multiplier on every glyph.
        letter_jitter: per-letter random scale spread (std, fraction).
        spacing: gap between letters as a fraction of letter height.
        baseline_wobble: per-letter vertical offset spread (fraction).
        tremor: smoothed random hand tremor amplitude (fraction of
            height; ~0.02 ⇒ 2 mm at 10 cm letters).
        speed: writing speed in metres/second.
        smoothing: Chaikin corner-rounding iterations.
        seed: per-user seed so a "user" writes consistently.
    """

    slant: float = 0.0
    aspect: float = 1.0
    letter_jitter: float = 0.05
    spacing: float = 0.16
    baseline_wobble: float = 0.02
    tremor: float = 0.015
    speed: float = 0.22
    smoothing: int = 2
    seed: int = 0

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "UserStyle":
        """Draw a plausible user at random (the paper's five users)."""
        return cls(
            slant=float(rng.uniform(-0.12, 0.18)),
            aspect=float(rng.uniform(0.9, 1.15)),
            letter_jitter=float(rng.uniform(0.03, 0.08)),
            spacing=float(rng.uniform(0.10, 0.22)),
            baseline_wobble=float(rng.uniform(0.01, 0.04)),
            tremor=float(rng.uniform(0.008, 0.025)),
            speed=float(rng.uniform(0.16, 0.30)),
            smoothing=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**31 - 1)),
        )

    @classmethod
    def neutral(cls) -> "UserStyle":
        """A styleless writer — used to build recognition templates."""
        return cls(
            slant=0.0,
            aspect=1.0,
            letter_jitter=0.0,
            spacing=0.16,
            baseline_wobble=0.0,
            tremor=0.0,
            speed=0.22,
            smoothing=2,
            seed=0,
        )


@dataclass
class WritingTrace:
    """A ground-truth air-writing trajectory.

    Attributes:
        word: the text written.
        times: ``(N,)`` seconds, starting at 0.
        points: ``(N, 2)`` plane coordinates (metres).
        letter_spans: per letter ``(char, t_start, t_end)`` — the paper's
            manual word segmentation, known exactly here.
    """

    word: str
    times: np.ndarray
    points: np.ndarray
    letter_spans: list[tuple[str, float, float]]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.times.shape[0] != self.points.shape[0]:
            raise ValueError("times and points must align")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def position_at(self, when) -> np.ndarray:
        """Linear interpolation of the pen position (clamped at the ends)."""
        when = np.asarray(when, dtype=float)
        u = np.interp(when, self.times, self.points[:, 0])
        v = np.interp(when, self.times, self.points[:, 1])
        if when.ndim == 0:
            return np.array([float(u), float(v)])
        return np.stack([u, v], axis=1)

    def letter_slice(self, span_index: int) -> np.ndarray:
        """The trajectory points inside one letter's time span."""
        char, start, end = self.letter_spans[span_index]
        mask = (self.times >= start) & (self.times <= end)
        return self.points[mask]

    def path_length(self) -> float:
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())


class HandwritingGenerator:
    """Generates :class:`WritingTrace` objects for words.

    Args:
        style: the writer's style (default: neutral).
        font: stroke font (default: the library font).
        letter_height: x-height-to-cap scale in metres; the paper's users
            wrote letters ≈ 10 cm wide, which a 0.10 m height reproduces.
        sample_rate: ground-truth sampling rate in Hz.
    """

    def __init__(
        self,
        style: UserStyle | None = None,
        font: StrokeFont | None = None,
        letter_height: float = 0.10,
        sample_rate: float = 200.0,
    ) -> None:
        if letter_height <= 0:
            raise ValueError("letter_height must be positive")
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.style = style or UserStyle.neutral()
        self.font = font or default_font()
        self.letter_height = letter_height
        self.sample_rate = sample_rate

    # ------------------------------------------------------------------
    def timing(self, path_length):
        """Duration and sample count of writing a path at constant speed.

        The writer's speed sets the duration (at least two sample
        periods); one sample per period plus the end point, and at least
        two. Element-wise over an array of path lengths.

        Returns:
            ``(duration, count)`` — float and int64, shaped like
            ``path_length``.
        """
        duration = np.maximum(
            np.divide(path_length, self.style.speed), 2.0 / self.sample_rate
        )
        count = np.ceil(duration * self.sample_rate).astype(np.int64) + 1
        return duration, np.maximum(count, 2)

    def word_trace(
        self,
        word: str,
        origin: tuple[float, float] = (0.0, 0.0),
        start_time: float = 0.0,
    ) -> WritingTrace:
        """Synthesise the continuous trajectory of writing ``word``.

        Args:
            word: lowercase word using glyphs present in the font.
            origin: plane coordinates of the first letter's baseline start.
            start_time: timestamp of the first sample.
        """
        if not word:
            raise ValueError("cannot write an empty word")
        style = self.style
        # zlib.crc32 is process-stable, unlike the salted built-in hash().
        rng = np.random.default_rng(
            (style.seed * 1_000_003 + zlib.crc32(word.encode("utf-8")))
            % (2**63)
        )
        height = self.letter_height

        # Assemble the styled, scaled polyline letter by letter, tracking
        # which cumulative point range belongs to which letter.
        pieces: list[np.ndarray] = []
        letter_ranges: list[tuple[str, int, int]] = []
        cursor = 0.0
        point_count = 0
        for char in word:
            glyph = self.font.glyph(char)
            local = glyph.polyline().copy()
            scale = height * (1.0 + rng.normal(0.0, style.letter_jitter))
            local *= scale * np.array([style.aspect, 1.0])
            local[:, 0] += style.slant * local[:, 1]  # shear
            local[:, 0] += cursor
            local[:, 1] += rng.normal(0.0, style.baseline_wobble) * height
            if pieces:
                # Transition segment from the previous exit point.
                connector = np.stack([pieces[-1][-1], local[0]])
                pieces.append(connector[1:])
                point_count += 1
            start_index = point_count
            pieces.append(local)
            point_count += local.shape[0]
            letter_ranges.append((char, start_index, point_count - 1))
            cursor += (glyph.width * style.aspect + style.spacing) * scale

        raw = np.concatenate(pieces, axis=0)
        raw += np.asarray(origin, dtype=float)

        # Arc-length bookkeeping before smoothing: letter boundaries are
        # mapped through arc length, which smoothing preserves well.
        lengths = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(raw, axis=0), axis=1))]
        )
        total_raw = float(lengths[-1])
        letter_arcs = [
            (char, lengths[i0] / total_raw, lengths[i1] / total_raw)
            for char, i0, i1 in letter_ranges
        ]

        smooth = _chaikin(raw, style.smoothing)

        # Constant-speed time parametrisation.
        path_length = float(
            np.linalg.norm(np.diff(smooth, axis=0), axis=1).sum()
        )
        duration, count = self.timing(path_length)
        duration, count = float(duration), int(count)
        points = resample_polyline(smooth, count)
        times = start_time + np.linspace(0.0, duration, count)

        if style.tremor > 0.0:
            points = points + self._tremor(rng, count) * style.tremor * height

        spans = [
            (
                char,
                float(start_time + f0 * duration),
                float(start_time + f1 * duration),
            )
            for char, f0, f1 in letter_arcs
        ]
        return WritingTrace(word, times, points, spans)

    def letter_trace(self, char: str, **kwargs) -> WritingTrace:
        """Single-character convenience wrapper."""
        return self.word_trace(char, **kwargs)

    # ------------------------------------------------------------------
    @staticmethod
    def _tremor(rng: np.random.Generator, count: int) -> np.ndarray:
        """Smoothed unit-amplitude 2-D noise (physiological hand tremor)."""
        noise = rng.normal(0.0, 1.0, size=(count, 2))
        kernel = np.ones(9) / 9.0
        for axis in range(2):
            noise[:, axis] = np.convolve(noise[:, axis], kernel, mode="same")
        peak = np.abs(noise).max()
        return noise / peak if peak > 0 else noise
