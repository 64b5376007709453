"""From raw phase reports to the series the algorithms consume.

The reader stream is *asynchronous*: each antenna is read at different
times (ports are multiplexed) and reads drop out. The positioning and
tracing algorithms instead want, per antenna pair, a phase difference
``Δφ(t) = φ_second(t) − φ_first(t)`` on a common timeline.

The pipeline here is what a real deployment runs:

1. group reports per antenna (and per tag EPC),
2. unwrap each antenna's phase over time (valid while the tag's radial
   speed keeps per-read phase steps below π — comfortably true for
   handwriting speeds and M6e read rates),
3. linearly interpolate each antenna's unwrapped phase onto a uniform
   timeline,
4. difference pairs of antennas on that timeline.

Per-antenna unwrapping changes each series by an arbitrary constant
``2πn``, so the resulting Δφ is offset by an unknown integer number of
cycles — exactly the integer ``k`` ambiguity of Eq. 2 that the
multi-resolution positioner resolves.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.antennas import AntennaPair, Deployment
from repro.rf.phase import interpolate_phase, unwrap_series, wrap_to_pi
from repro.rfid.reader import PhaseReport

__all__ = [
    "MeasurementLog",
    "PairSeries",
    "PhaseSnapshot",
    "build_antenna_streams",
    "build_pair_series",
    "snapshot_at",
]


@dataclass
class MeasurementLog:
    """A merged, time-sorted collection of phase reports."""

    reports: list[PhaseReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.reports = sorted(self.reports, key=lambda report: report.time)

    def __len__(self) -> int:
        return len(self.reports)

    def extend(self, reports: list[PhaseReport]) -> None:
        """Merge more reports in, keeping the log time-sorted.

        A live session extends its log once per reader poll, so this
        must not re-sort the whole history every call: the incoming
        chunk is sorted on its own and *merged* in O(n+m) (or simply
        appended when it starts at/after the current tail — the common
        streaming case). Ties keep existing reports before new ones,
        matching the previous stable full re-sort exactly.
        """
        if not reports:
            return
        incoming = sorted(reports, key=lambda report: report.time)
        if not self.reports or incoming[0].time >= self.reports[-1].time:
            self.reports.extend(incoming)
            return
        self.reports = list(
            heapq.merge(self.reports, incoming, key=lambda report: report.time)
        )

    def epcs(self) -> list[str]:
        seen: list[str] = []
        for report in self.reports:
            if report.epc_hex not in seen:
                seen.append(report.epc_hex)
        return seen

    def antenna_ids(self) -> list[int]:
        return sorted({report.antenna_id for report in self.reports})

    def for_tag(self, epc_hex: str) -> "MeasurementLog":
        return MeasurementLog(
            [report for report in self.reports if report.epc_hex == epc_hex]
        )

    def antenna_series(
        self, antenna_id: int, epc_hex: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, wrapped phases) of one antenna, optionally one tag."""
        times, phases = [], []
        for report in self.reports:
            if report.antenna_id != antenna_id:
                continue
            if epc_hex is not None and report.epc_hex != epc_hex:
                continue
            times.append(report.time)
            phases.append(report.phase)
        return np.asarray(times), np.asarray(phases)

    def time_span(self) -> tuple[float, float]:
        if not self.reports:
            raise ValueError("empty measurement log")
        return self.reports[0].time, self.reports[-1].time

    def read_rate(self) -> float:
        """Aggregate reads per second across all antennas."""
        start, end = self.time_span()
        if end <= start:
            return float(len(self.reports))
        return len(self.reports) / (end - start)


@dataclass
class PairSeries:
    """Unwrapped phase-difference series for one antenna pair.

    ``delta_phi[t]`` is continuous in time but offset from the physical
    phase difference by an unknown ``2π·n`` — the tracer's lobe lock (the
    integer ``k``) absorbs that offset.
    """

    pair: AntennaPair
    times: np.ndarray
    delta_phi: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.delta_phi = np.asarray(self.delta_phi, dtype=float)
        if self.times.shape != self.delta_phi.shape:
            raise ValueError("times and delta_phi must have matching shapes")
        if self.times.ndim != 1:
            raise ValueError("PairSeries holds 1-D series")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass
class PhaseSnapshot:
    """Wrapped phase differences of many pairs at one instant.

    This is the input to the multi-resolution positioner: one Δφ per
    antenna pair, each wrapped to ``(−π, π]``.
    """

    pairs: list[AntennaPair]
    delta_phi: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.delta_phi = np.asarray(self.delta_phi, dtype=float)
        if len(self.pairs) != self.delta_phi.size:
            raise ValueError("one Δφ per pair required")

    def subset(self, pairs: list[AntennaPair]) -> "PhaseSnapshot":
        """Snapshot restricted to ``pairs`` (matched by antenna ids)."""
        wanted = {pair.ids for pair in pairs}
        keep = [
            index
            for index, pair in enumerate(self.pairs)
            if pair.ids in wanted
        ]
        return PhaseSnapshot(
            [self.pairs[index] for index in keep],
            self.delta_phi[keep],
            self.time,
        )


def build_pair_series(
    log: MeasurementLog,
    deployment: Deployment,
    epc_hex: str | None = None,
    pairs: list[AntennaPair] | None = None,
    sample_rate: float = 20.0,
    min_reads_per_antenna: int = 4,
) -> list[PairSeries]:
    """Interpolate raw reports into per-pair Δφ series on a shared timeline.

    Args:
        log: the merged reader output.
        deployment: the antenna deployment (for pair geometry).
        epc_hex: restrict to one tag (required when several tags are read).
        pairs: which pairs to build; defaults to all same-reader pairs.
        sample_rate: common timeline rate in Hz.
        min_reads_per_antenna: antennas observed fewer times than this are
            considered dead; pairs using them are dropped.

    Returns:
        One :class:`PairSeries` per usable pair, all sharing one timeline.
    """
    if epc_hex is None:
        epcs = log.epcs()
        if len(epcs) != 1:
            raise ValueError(
                f"log contains {len(epcs)} tags; pass epc_hex to choose one"
            )
        epc_hex = epcs[0]
    if pairs is None:
        pairs = deployment.pairs()

    # Unwrap each needed antenna once.
    needed_ids = sorted({aid for pair in pairs for aid in pair.ids})
    unwrapped: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for antenna_id in needed_ids:
        times, phases = log.antenna_series(antenna_id, epc_hex)
        if times.size >= min_reads_per_antenna:
            unwrapped[antenna_id] = (times, unwrap_series(phases))

    usable = [pair for pair in pairs if all(aid in unwrapped for aid in pair.ids)]
    if not usable:
        raise ValueError("no antenna pair has enough reads to build a series")

    # Common timeline covering the span where every usable antenna has data.
    start = max(unwrapped[aid][0][0] for pair in usable for aid in pair.ids)
    end = min(unwrapped[aid][0][-1] for pair in usable for aid in pair.ids)
    if end <= start:
        raise ValueError("antennas have no overlapping observation window")
    count = max(2, int(np.floor((end - start) * sample_rate)) + 1)
    timeline = start + np.arange(count) / sample_rate

    series: list[PairSeries] = []
    for pair in usable:
        first_times, first_phase = unwrapped[pair.first.antenna_id]
        second_times, second_phase = unwrapped[pair.second.antenna_id]
        phi_first = interpolate_phase(timeline, first_times, first_phase)
        phi_second = interpolate_phase(timeline, second_times, second_phase)
        series.append(PairSeries(pair, timeline, phi_second - phi_first))
    return series


def build_antenna_streams(
    log: MeasurementLog,
    antenna_ids: list[int],
    epc_hex: str | None = None,
    sample_rate: float = 20.0,
    min_reads_per_antenna: int = 4,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Per-antenna unwrapped phase on a shared timeline.

    This is the input format of the AoA baseline, which steers whole
    arrays rather than differencing pairs. Phases are unwrapped per
    antenna (each therefore offset by an arbitrary ``2πn``, harmless to
    beam steering) and linearly interpolated.

    Returns:
        ``(timeline, {antenna_id: phases})``.
    """
    if epc_hex is None:
        epcs = log.epcs()
        if len(epcs) != 1:
            raise ValueError(
                f"log contains {len(epcs)} tags; pass epc_hex to choose one"
            )
        epc_hex = epcs[0]

    unwrapped: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for antenna_id in antenna_ids:
        times, phases = log.antenna_series(antenna_id, epc_hex)
        if times.size < min_reads_per_antenna:
            raise ValueError(
                f"antenna {antenna_id} has only {times.size} reads; "
                "cannot build a stream"
            )
        unwrapped[antenna_id] = (times, unwrap_series(phases))

    start = max(series[0][0] for series in unwrapped.values())
    end = min(series[0][-1] for series in unwrapped.values())
    if end <= start:
        raise ValueError("antennas have no overlapping observation window")
    count = max(2, int(np.floor((end - start) * sample_rate)) + 1)
    timeline = start + np.arange(count) / sample_rate

    streams = {
        antenna_id: interpolate_phase(timeline, times, phases)
        for antenna_id, (times, phases) in unwrapped.items()
    }
    return timeline, streams


def snapshot_at(series: list[PairSeries], index: int = 0) -> PhaseSnapshot:
    """Wrapped Δφ snapshot at a timeline index, for initial positioning."""
    if not series:
        raise ValueError("no pair series given")
    length = len(series[0])
    if not all(len(entry) == length for entry in series):
        raise ValueError("pair series do not share a timeline")
    if not -length <= index < length:
        raise IndexError(f"index {index} out of range for series of {length}")
    return PhaseSnapshot(
        pairs=[entry.pair for entry in series],
        delta_phi=np.array([wrap_to_pi(entry.delta_phi[index]) for entry in series]),
        time=float(series[0].times[index]),
    )
