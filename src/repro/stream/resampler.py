"""The Δφ timeline: raw phase reports → per-pair Δφ instants.

This module is the one implementation of the timeline rule that turns
the reader's asynchronous reports (multiplexed ports, dropped reads)
into Δφ on a shared timeline:

1. skip reports with a non-finite phase — they are not data;
2. unwrap each antenna's phase over time (valid while the tag's radial
   speed keeps per-read phase steps below π);
3. run the timeline from the latest first read to the earliest last
   read: ``max(2, floor((end − start)·rate) + 1)`` instants
   ``start + j/rate``;
4. interpolate every antenna onto each instant (``numpy.interp``,
   clamping at the edges) and difference the pairs.

:class:`StreamResampler` applies it *incrementally*: each
:class:`~repro.rfid.reader.PhaseReport` is folded in with O(1) amortised
work and an instant is emitted as soon as its value can no longer
change. Live sessions drive it report by report; the batch builders of
:mod:`repro.rfid.sampling` and a session's degenerate-stream fallback
drive it over a finished log (:func:`resample_pairs`,
:func:`resample_antennas`), so live and batch agree by construction.
``tests/oracles/sampling.py`` keeps the whole-array form of the rule,
which this code matches bit for bit:

* **Unwrapping** replicates ``numpy.unwrap``'s per-sample recurrence,
  accumulated in the same order.
* **Instants** use the float operations of
  ``start + np.arange(count) / rate``; the live count tracks
  ``floor((end − start)·rate) + 1`` as ``end`` grows.
* **Interpolation** calls ``numpy.interp`` on each antenna's samples so
  far, and an instant is emitted live only once every antenna has a
  read past it: later reads cannot change the samples that bracket it,
  so the value equals the full-array call's.
  The rest (the trailing edge, and the ``max(2, …)`` short-log
  timeline) comes out of :meth:`StreamResampler.drain`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geometry.antennas import AntennaPair
from repro.rfid.reader import PhaseReport

__all__ = ["PairSample", "StreamResampler", "resample_antennas", "resample_pairs"]

_TWO_PI = 2.0 * np.pi
_PI = np.pi
_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class PairSample:
    """One emitted timeline instant: unwrapped Δφ of every pair.

    Attributes:
        index: position of this instant on the shared timeline.
        time: the instant, in seconds (``start + index / sample_rate``).
        delta_phi: ``(P,)`` unwrapped phase differences, in the
            resampler's pair order.
        phases: ``(A,)`` unwrapped phase of every antenna at the
            instant, in the resampler's :attr:`~StreamResampler.antenna_ids`
            order — the vector ``delta_phi`` differences. ``None`` for a
            sample cut from prebuilt pair series.
    """

    index: int
    time: float
    delta_phi: np.ndarray
    phases: np.ndarray | None = None


class _AntennaState:
    """Growing unwrapped phase series of one antenna (one tag).

    The samples live in numpy buffers that double when full, so the
    resampler interpolates a batch of instants with one ``np.interp``
    call on buffer views instead of converting Python lists per instant.
    """

    __slots__ = ("times", "unwrapped", "count", "first_time", "last_time",
                 "_last_raw", "_correction")

    def __init__(self) -> None:
        self.times = np.empty(_INITIAL_CAPACITY)
        self.unwrapped = np.empty(_INITIAL_CAPACITY)
        self.count = 0
        self.first_time = math.nan
        self.last_time = math.nan
        self._last_raw = 0.0
        self._correction = 0.0

    def append(self, time: float, phase: float) -> None:
        """Fold one wrapped phase sample in, replicating ``np.unwrap``.

        ``np.unwrap``'s correction for sample *n* is a pure function of
        the raw step ``dd = φ_n − φ_{n−1}`` and corrections accumulate by
        a running sum — so maintaining that sum incrementally reproduces
        the batch unwrap bit-for-bit. (Scalar ``%``/``math`` calls are
        used in place of their ``np`` spellings — same float semantics,
        a fraction of the per-report overhead.)
        """
        count = self.count
        if count:
            dd = phase - self._last_raw
            ddmod = (dd + _PI) % _TWO_PI - _PI
            if ddmod == -_PI and dd > 0:
                ddmod = _PI
            if abs(dd) >= _PI:
                self._correction += ddmod - dd
        else:
            self.first_time = time
        self._last_raw = phase
        if count == self.times.size:
            self.times = np.concatenate([self.times, np.empty(count)])
            self.unwrapped = np.concatenate([self.unwrapped, np.empty(count)])
        self.times[count] = time
        self.unwrapped[count] = phase + self._correction
        self.count = count + 1
        self.last_time = time

    def values_at(self, whens: np.ndarray) -> np.ndarray:
        """``np.interp`` of the unwrapped series at every instant of
        ``whens`` (edges clamp, as ``np.interp`` does)."""
        count = self.count
        return np.interp(whens, self.times[:count], self.unwrapped[:count])


class StreamResampler:
    """Report-by-report construction of the shared Δφ timeline.

    Args:
        pairs: the antenna pairs to difference, fixing the order of every
            emitted :class:`PairSample`'s ``delta_phi`` vector.
        sample_rate: common timeline rate in Hz.
        min_reads_per_antenna: an antenna must accumulate this many reads
            before the timeline may start (the batch path's dead-antenna
            threshold).
        out_of_order: how to treat a report older than its antenna's
            latest — ``"raise"`` (default) or ``"drop"`` (count it in
            :attr:`dropped_reports` and move on). The same policy covers
            a report with a non-finite phase (a flaky reader emitting
            NaN must not kill a long-running ingest loop): ``"drop"``
            counts it in :attr:`dropped_reports` and skips it, strict
            mode raises.
    """

    def __init__(
        self,
        pairs: list[AntennaPair],
        sample_rate: float = 20.0,
        min_reads_per_antenna: int = 4,
        out_of_order: str = "raise",
    ) -> None:
        if not pairs:
            raise ValueError("a StreamResampler needs at least one pair")
        self._setup(
            list(pairs),
            {aid for pair in pairs for aid in pair.ids},
            sample_rate,
            min_reads_per_antenna,
            out_of_order,
        )

    @classmethod
    def _of_antennas(
        cls, antenna_ids: Iterable[int], sample_rate: float, min_reads_per_antenna: int
    ) -> "StreamResampler":
        """A resampler with no pairs over ``antenna_ids``: its samples
        carry only :attr:`PairSample.phases` (``delta_phi`` is empty)."""
        resampler = cls.__new__(cls)
        resampler._setup([], set(antenna_ids), sample_rate, min_reads_per_antenna, "raise")
        return resampler

    def _setup(
        self,
        pairs: list[AntennaPair],
        antenna_ids: set[int],
        sample_rate: float,
        min_reads_per_antenna: int,
        out_of_order: str,
    ) -> None:
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if out_of_order not in ("raise", "drop"):
            raise ValueError(f"unknown out_of_order policy {out_of_order!r}")
        self.pairs = pairs
        self.sample_rate = float(sample_rate)
        self.min_reads_per_antenna = int(min_reads_per_antenna)
        self.out_of_order = out_of_order
        self.antenna_ids = sorted(antenna_ids)
        self._antennas = {aid: _AntennaState() for aid in self.antenna_ids}
        self._states = list(self._antennas.values())
        column = {aid: index for index, aid in enumerate(self.antenna_ids)}
        self._first = np.array(
            [column[pair.first.antenna_id] for pair in pairs], dtype=np.intp
        )
        self._second = np.array(
            [column[pair.second.antenna_id] for pair in pairs], dtype=np.intp
        )
        self._last_times: dict[int, float] = {}
        self._start: float | None = None
        self._next_index = 0
        #: Total reports discarded under the ``"drop"`` policy
        #: (out-of-order arrivals plus non-finite phases).
        self.dropped_reports = 0
        #: The non-finite subset of :attr:`dropped_reports`.
        self.dropped_nonfinite = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once the timeline origin is fixed and emission may begin."""
        return self._start is not None

    # ------------------------------------------------------------------
    def ingest(self, report: PhaseReport) -> list[PairSample]:
        """Fold one report in; return any newly final timeline instants.

        Reports from antennas no pair references are ignored, exactly as
        the batch path never reads them.
        """
        if not self._fold(report):
            return []
        return self._emit_ready()

    def _fold(self, report: PhaseReport) -> bool:
        """Append one report to its antenna's series; ``False`` when it
        is ignored or dropped."""
        state = self._antennas.get(report.antenna_id)
        if state is None:
            return False
        if not math.isfinite(report.phase):
            if self.out_of_order == "drop":
                self.dropped_reports += 1
                self.dropped_nonfinite += 1
                return False
            raise ValueError(
                f"non-finite phase sample from antenna {report.antenna_id} "
                f"at t={report.time}"
            )
        if state.count and report.time < state.last_time:
            if self.out_of_order == "drop":
                self.dropped_reports += 1
                return False
            raise ValueError(
                f"out-of-order report for antenna {report.antenna_id}: "
                f"{report.time} after {state.last_time}"
            )
        state.append(report.time, report.phase)
        self._last_times[report.antenna_id] = report.time
        if self._start is None:
            self._maybe_start()
        return True

    def _maybe_start(self) -> None:
        if any(
            state.count < max(1, self.min_reads_per_antenna)
            for state in self._states
        ):
            return
        # The timeline origin: the latest first read. First reads never
        # change, so the origin is final the moment it is known.
        self._start = max(state.first_time for state in self._states)

    def _instant_count(self, end: float) -> int:
        """Instants in the window from the origin to ``end``."""
        return math.floor((end - self._start) * self.sample_rate) + 1

    def _emit_ready(self) -> list[PairSample]:
        """Emit instants whose interpolated values can no longer change."""
        if self._start is None:
            return []
        end = min(self._last_times.values())
        # The instant count for the data seen so far only grows as `end`
        # grows, so emitting up to it never overshoots the final
        # timeline. An instant *at* the earliest last read could still
        # be altered by a later duplicate timestamp, so it waits for the
        # frontier to advance (or for :meth:`drain`).
        count = self._instant_count(end)
        if self._next_index >= count:
            return []
        return self._emit(count, frontier=end)

    def drain(self) -> list[PairSample]:
        """Emit every remaining instant of the finished timeline.

        Call once, when the stream has ended. Applies the final
        ``max(2, floor((end − start)·rate) + 1)`` instant count; the tail
        instants interpolate with edge clamping, exactly like
        ``np.interp`` over the finished arrays.
        """
        if self._start is None:
            return []
        end = min(state.last_time for state in self._states)
        if end <= self._start:
            raise ValueError("antennas have no overlapping observation window")
        return self._emit(max(2, self._instant_count(end)))

    def _emit(self, count: int, frontier: float = math.inf) -> list[PairSample]:
        """Samples of the instants before ``count`` and below ``frontier``.

        Instant ``j`` is ``start + j / rate``, with the float operations
        of ``start + np.arange(count) / rate``. Each antenna interpolates
        the whole batch of instants in one ``np.interp`` call.
        """
        first = index = self._next_index
        whens = []
        while index < count:
            when = float(self._start + float(index) / self.sample_rate)
            if when >= frontier:
                break
            whens.append(when)
            index += 1
        if not whens:
            return []
        self._next_index = index
        grid = np.array(whens)
        phases = np.array([state.values_at(grid) for state in self._states])
        deltas = phases[self._second] - phases[self._first]  # (P, K)
        return [
            PairSample(
                index=first + column,
                time=when,
                delta_phi=deltas[:, column],
                phases=phases[:, column],
            )
            for column, when in enumerate(whens)
        ]

    def timeline(self) -> np.ndarray:
        """The emitted instants so far, as the batch array would hold them."""
        if self._start is None:
            return np.empty(0)
        return self._start + np.arange(self._next_index) / self.sample_rate

    def _run(self, reports: list[PhaseReport]) -> list[PairSample]:
        """Every instant of a finished, time-sorted, finite stream.

        Every report is folded in before anything is emitted, so
        :meth:`drain` interpolates the whole timeline in one batch —
        the same samples live ingestion would emit, since an instant's
        value depends only on the reads that bracket it.
        """
        for report in reports:
            self._fold(report)
        return self.drain()


def _finite_reads(
    reports: Iterable[PhaseReport],
) -> tuple[list[PhaseReport], Counter]:
    """The finite-phase reports, stably time-sorted (as a
    :class:`~repro.rfid.sampling.MeasurementLog` holds them), and each
    antenna's count of them."""
    kept = sorted(
        (report for report in reports if math.isfinite(report.phase)),
        key=lambda report: report.time,
    )
    return kept, Counter(report.antenna_id for report in kept)


def resample_pairs(
    reports: Iterable[PhaseReport],
    pairs: list[AntennaPair],
    sample_rate: float,
    min_reads_per_antenna: int,
) -> tuple[list[AntennaPair], list[PairSample]]:
    """The whole Δφ timeline of a finished stream of one tag's reports.

    Pairs with an antenna that has fewer than ``min_reads_per_antenna``
    finite reads are dropped as dead; the rest go through one
    :class:`StreamResampler` to its :meth:`~StreamResampler.drain`.

    Returns:
        ``(usable pairs, samples)``; each sample's ``delta_phi`` follows
        the usable pairs' order.

    Raises:
        ValueError: no pair is usable, or the usable antennas'
            observation windows do not overlap.
    """
    reports, reads = _finite_reads(reports)
    threshold = max(1, min_reads_per_antenna)
    usable = [
        pair for pair in pairs if min(reads[aid] for aid in pair.ids) >= threshold
    ]
    if not usable:
        raise ValueError("no antenna pair has enough reads to build a series")
    resampler = StreamResampler(usable, sample_rate, min_reads_per_antenna)
    return usable, resampler._run(reports)


def resample_antennas(
    reports: Iterable[PhaseReport],
    antenna_ids: list[int],
    sample_rate: float,
    min_reads_per_antenna: int,
) -> tuple[list[int], list[PairSample]]:
    """Every antenna's unwrapped phase on the timeline of a finished
    stream of one tag's reports.

    Returns:
        ``(antenna order, samples)``: each sample's ``phases`` follows
        the returned (sorted) antenna order.

    Raises:
        ValueError: an antenna has fewer than ``min_reads_per_antenna``
            finite reads, or the windows do not overlap.
    """
    reports, reads = _finite_reads(reports)
    for antenna_id in antenna_ids:
        if reads[antenna_id] < max(1, min_reads_per_antenna):
            raise ValueError(
                f"antenna {antenna_id} has only {reads[antenna_id]} reads; "
                "cannot build a stream"
            )
    resampler = StreamResampler._of_antennas(
        antenna_ids, sample_rate, min_reads_per_antenna
    )
    return resampler.antenna_ids, resampler._run(reports)
