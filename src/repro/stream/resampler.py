"""Incremental resampling: raw phase reports → per-pair Δφ instants.

This is the streaming counterpart of
:func:`repro.rfid.sampling.build_pair_series`. The batch function sees a
finished log and performs four passes (group per antenna, unwrap,
interpolate onto a common timeline, difference pairs); the
:class:`StreamResampler` maintains the same state *incrementally* so each
:class:`~repro.rfid.reader.PhaseReport` is folded in with O(1) amortised
work and timeline instants are emitted as soon as their value can no
longer change.

Equivalence with the batch path is exact, not approximate:

* **Unwrapping** replicates ``numpy.unwrap``'s per-sample recurrence
  (the correction of sample *n* depends only on samples *n−1* and *n*,
  accumulated in the same order), so the incremental unwrapped series is
  bit-identical to unwrapping the finished per-antenna series.
* **The timeline** is the batch timeline: ``start`` is the latest first
  read over the needed antennas, instants are ``start + j/rate`` with the
  same float operations, and the instant count tracks the batch
  ``floor((end − start)·rate) + 1`` as ``end`` (the earliest last read)
  grows.
* **Interpolation** evaluates ``numpy.interp`` on the two samples that
  bracket the instant — the same two samples the full-array call uses —
  and an instant is only emitted once every antenna has a read at or past
  it, i.e. once its bracketing samples are final.

An instant that batch processing would include but whose value is not yet
final (the trailing edge, plus the degenerate ``max(2, …)`` short-log
timeline) is emitted by :meth:`StreamResampler.drain`, which applies the
same edge-clamping ``numpy.interp`` semantics the batch path applies.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.antennas import AntennaPair
from repro.rfid.reader import PhaseReport

__all__ = ["PairSample", "StreamResampler"]

_TWO_PI = 2.0 * np.pi
_PI = np.pi


@dataclass(frozen=True)
class PairSample:
    """One emitted timeline instant: unwrapped Δφ of every pair.

    Attributes:
        index: position of this instant on the shared timeline.
        time: the instant, in seconds (``start + index / sample_rate``).
        delta_phi: ``(P,)`` unwrapped phase differences, in the
            resampler's pair order.
    """

    index: int
    time: float
    delta_phi: np.ndarray


@dataclass
class _AntennaState:
    """Growing unwrapped phase series of one antenna (one tag)."""

    times: list[float] = field(default_factory=list)
    unwrapped: list[float] = field(default_factory=list)
    _last_raw: float = 0.0
    _correction: float = 0.0

    def append(self, time: float, phase: float) -> None:
        """Fold one wrapped phase sample in, replicating ``np.unwrap``.

        ``np.unwrap``'s correction for sample *n* is a pure function of
        the raw step ``dd = φ_n − φ_{n−1}`` and corrections accumulate by
        a running sum — so maintaining that sum incrementally reproduces
        the batch unwrap bit-for-bit. (Scalar ``%``/``math`` calls are
        used in place of their ``np`` spellings — same float semantics,
        a fraction of the per-report overhead.)
        """
        if not math.isfinite(phase):
            raise ValueError("cannot ingest a non-finite phase sample")
        if self.times:
            dd = phase - self._last_raw
            ddmod = (dd + _PI) % _TWO_PI - _PI
            if ddmod == -_PI and dd > 0:
                ddmod = _PI
            if abs(dd) >= _PI:
                self._correction += ddmod - dd
        self._last_raw = phase
        self.times.append(time)
        self.unwrapped.append(phase + self._correction)

    @property
    def first_time(self) -> float:
        return self.times[0]

    @property
    def last_time(self) -> float:
        return self.times[-1]

    def value_at(self, when: float) -> float:
        """``np.interp`` of the unwrapped series at ``when``.

        Evaluated on the bracketing sample pair, which is exactly what
        the full-array call computes; past-the-end instants clamp to the
        last value, matching ``np.interp``'s edge behaviour.
        """
        i = bisect_right(self.times, when) - 1
        if i < 0:  # before the first sample: np.interp clamps
            return self.unwrapped[0]
        return float(
            np.interp(when, self.times[i : i + 2], self.unwrapped[i : i + 2])
        )


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
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if out_of_order not in ("raise", "drop"):
            raise ValueError(f"unknown out_of_order policy {out_of_order!r}")
        self.pairs = list(pairs)
        self.sample_rate = float(sample_rate)
        self.min_reads_per_antenna = int(min_reads_per_antenna)
        self.out_of_order = out_of_order
        self.antenna_ids = sorted(
            {aid for pair in self.pairs for aid in pair.ids}
        )
        self._antennas = {aid: _AntennaState() for aid in self.antenna_ids}
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

    @property
    def start_time(self) -> float | None:
        return self._start

    def time_of(self, index: int) -> float:
        """Timeline instant ``index``, with the batch path's float ops."""
        if self._start is None:
            raise ValueError("the timeline has not started yet")
        return float(self._start + float(index) / self.sample_rate)

    # ------------------------------------------------------------------
    def ingest(self, report: PhaseReport) -> list[PairSample]:
        """Fold one report in; return any newly final timeline instants.

        Reports from antennas no pair references are ignored, exactly as
        the batch path never reads them.
        """
        state = self._antennas.get(report.antenna_id)
        if state is None:
            return []
        if not math.isfinite(report.phase):
            if self.out_of_order == "drop":
                self.dropped_reports += 1
                self.dropped_nonfinite += 1
                return []
            raise ValueError(
                f"non-finite phase sample from antenna {report.antenna_id} "
                f"at t={report.time}"
            )
        if state.times and report.time < state.last_time:
            if self.out_of_order == "drop":
                self.dropped_reports += 1
                return []
            raise ValueError(
                f"out-of-order report for antenna {report.antenna_id}: "
                f"{report.time} after {state.last_time}"
            )
        state.append(report.time, report.phase)
        self._last_times[report.antenna_id] = report.time
        if self._start is None:
            self._maybe_start()
        return self._emit_ready()

    def _maybe_start(self) -> None:
        if self._start is not None:
            return
        states = self._antennas.values()
        if any(
            len(state.times) < max(1, self.min_reads_per_antenna)
            for state in states
        ):
            return
        # The batch timeline origin: the latest first read. First reads
        # never change, so the origin is final the moment it is known.
        self._start = max(state.first_time for state in states)

    def _emit_ready(self) -> list[PairSample]:
        """Emit instants whose interpolated values can no longer change."""
        if self._start is None:
            return []
        end = min(self._last_times.values())
        # The batch instant count for the data seen so far; it only
        # grows as `end` grows, so emitting up to it never overshoots
        # the final batch timeline.
        count = math.floor((end - self._start) * self.sample_rate) + 1
        if self._next_index >= count:
            return []
        emitted: list[PairSample] = []
        while self._next_index < count:
            when = self.time_of(self._next_index)
            # Strictly below the frontier: an instant *at* the earliest
            # last read could still be altered by a later duplicate
            # timestamp, so it waits for the frontier to advance (or for
            # :meth:`drain`).
            if when >= end:
                break
            emitted.append(self._sample_at(self._next_index, when))
            self._next_index += 1
        return emitted

    def drain(self) -> list[PairSample]:
        """Emit every remaining instant of the finished batch timeline.

        Call once, when the stream has ended. Applies the batch path's
        final ``max(2, floor((end − start)·rate) + 1)`` instant count;
        the tail instants interpolate with edge clamping, exactly like
        ``np.interp`` over the finished arrays.
        """
        if self._start is None:
            return []
        end = min(state.last_time for state in self._antennas.values())
        if end <= self._start:
            raise ValueError("antennas have no overlapping observation window")
        count = max(
            2, int(np.floor((end - self._start) * self.sample_rate)) + 1
        )
        emitted: list[PairSample] = []
        while self._next_index < count:
            when = self.time_of(self._next_index)
            emitted.append(self._sample_at(self._next_index, when))
            self._next_index += 1
        return emitted

    def _sample_at(self, index: int, when: float) -> PairSample:
        values = {
            aid: state.value_at(when) for aid, state in self._antennas.items()
        }
        delta = np.array(
            [
                values[pair.second.antenna_id] - values[pair.first.antenna_id]
                for pair in self.pairs
            ]
        )
        return PairSample(index=index, time=when, delta_phi=delta)

    def timeline(self) -> np.ndarray:
        """The emitted instants so far, as the batch array would hold them."""
        if self._start is None:
            return np.empty(0)
        return self._start + np.arange(self._next_index) / self.sample_rate
