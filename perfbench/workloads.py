"""Seeded inputs, timed passes and output checks for the benchmark workloads.

Three closed-loop workloads drive the public API of ``src/repro``:

* ``fleet`` — many short concurrent strokes from
  :func:`repro.serve.workload.synthetic_fleet`, fed to
  :meth:`SessionManager.ingest_burst` 256 time-sorted reports per call.
* ``words`` — long noisy gestures from
  :func:`repro.experiments.scenarios.simulate_word`, fed report by report
  to :meth:`SessionManager.ingest`, then an explicit
  :meth:`SessionManager.finalize` at pen-up that recognises the word
  against the 100k-word lexicon.
* ``fleet-serve`` — the ``fleet`` stream through a one-shard
  :class:`repro.serve.TrackingService`, one ``await ingest`` per report,
  with ``events()`` consumed concurrently.

The simulator is the load generator: inputs are built by :func:`prepare`
in their own process, cached per seed, and never timed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import resource
import time
from collections import defaultdict

import numpy as np

#: Fleet shape: 0.6 s strokes started every span/24 s, so about 24 tags
#: write at once; 96 tags give ~23k reports and ~1150 points per pass.
FLEET_TAGS = 96
FLEET_SPAN = 0.6
FLEET_STAGGER = FLEET_SPAN / 24
FLEET_READ_EVERY = 0.02
BURST = 256
#: Words: 2 gestures per second of run time, at least 20 at full size,
#: each timed in ``WORDS_PASSES`` untraced passes (the faster one counts).
WORDS_PER_SECOND = 2
WORDS_PASSES = 2
WORDS_LEXICON = 100_000
WORDS_GAP_S = 1.0
WORD_LENGTHS = (3, 4, 5, 6, 7)
#: ``--tiny`` sizes, for the smoke test.
TINY_FLEET_TAGS = 12
TINY_WORDS = 2
TINY_LEXICON = 5_000


def fleet_config():
    from repro.stream import SessionConfig

    return SessionConfig(out_of_order="drop", prune_margin=4.0, idle_timeout=0.3)


def words_config():
    from repro.stream import SessionConfig

    return SessionConfig(out_of_order="drop")


# ----------------------------------------------------------------------
# Inputs (load generation, never timed)
# ----------------------------------------------------------------------
def _snapshot(results) -> dict:
    return {
        epc: (result.times.tobytes(), result.trajectory.tobytes())
        for epc, result in results.items()
    }


def _fleet_inputs(seed: int, tags: int) -> dict:
    """The synthetic fleet, with seeded per-tag start jitter and EPCs.

    Shifting all of one tag's reports by the same offset keeps its phases
    exact for its stroke, so the stream stays geometry-exact.
    """
    from repro.serve.workload import fleet_system, synthetic_fleet

    system = fleet_system()
    base = synthetic_fleet(
        system, tags=tags, active_span=FLEET_SPAN, stagger=FLEET_STAGGER,
        read_every=FLEET_READ_EVERY,
    )
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(0.0, FLEET_STAGGER, size=tags)
    epcs = [rng.bytes(12).hex().upper() for _ in range(tags)]
    if len(set(epcs)) != tags:
        raise ValueError("EPC collision; pick another seed")
    reports = []
    for report in base:
        tag = int(report.epc_hex, 16)
        reports.append(
            dataclasses.replace(report, time=report.time + shifts[tag], epc_hex=epcs[tag])
        )
    reports.sort(key=lambda report: report.time)
    # synthetic_fleet's stroke: a 0.08 m circle at 0.4 Hz around a
    # centre set by the tag index (repro/serve/workload.py).
    truth = {
        epcs[tag]: (tag * FLEET_STAGGER + shifts[tag], 0.55 + 0.04 * (tag % 5),
                    0.65 + 0.03 * (tag % 7))
        for tag in range(tags)
    }
    return {"stream": reports, "truth": truth,
            "reference": _reference_pass(system, reports)}


def _reference_pass(system, reports) -> dict:
    """One per-report ``ingest`` pass: what every measured pass must match.

    Records, per EPC, the index of the report whose ``ingest`` emitted
    each ``POINT`` event (the report that made the point computable) and
    of the report whose ``ingest`` closed the session (-1: closed by
    ``finalize_all``), plus the final results bit for bit.
    """
    from repro.stream import SessionManager

    manager = SessionManager(system, config=fleet_config())
    unlock: dict[str, list[int]] = defaultdict(list)
    closes: dict[str, int] = {}
    current = [0]
    manager.on_point = lambda event: unlock[event.epc_hex].append(current[0])
    manager.on_session_finalized = lambda event: closes.__setitem__(event.epc_hex, current[0])
    for index, report in enumerate(reports):
        current[0] = index
        manager.ingest(report)
    current[0] = -1
    results = manager.finalize_all()
    if manager.failures:
        raise ValueError(f"reference pass failed sessions: {sorted(manager.failures)}")
    return {"unlock": dict(unlock), "closes": closes, "results": _snapshot(results)}


def _words_inputs(seed: int, count: int) -> dict:
    """``count`` simulated gestures, shifted back to back into one stream."""
    from repro.experiments.scenarios import ScenarioConfig, simulate_word
    from repro.handwriting.corpus import sample_words

    rng = np.random.default_rng(seed)
    gestures = []
    offset = 0.0
    for index in range(count):
        # Word lengths, users and line of sight take turns, so every seed
        # has the same mix of gesture lengths, writing styles and
        # channels; the seed picks the words and the noise.
        length = WORD_LENGTHS[index % len(WORD_LENGTHS)]
        (word,) = sample_words(1, rng, min_length=length, max_length=length)
        user = index % 5
        los = index % 2 == 0
        run = simulate_word(
            word, user=user, seed=int(rng.integers(2**31)), config=ScenarioConfig(los=los),
            run_baseline=False,
        )
        reports = sorted(run.rfidraw_log.reports, key=lambda report: report.time)
        reports = [dataclasses.replace(r, time=r.time + offset) for r in reports]
        gestures.append({
            "word": word, "user": user, "los": los, "epc": reports[0].epc_hex,
            "offset": offset, "stream": reports, "truth": run.ground_truth,
        })
        offset = reports[-1].time + WORDS_GAP_S
    if len({g["epc"] for g in gestures}) != count:
        raise ValueError("EPC collision; pick another seed")
    return {"gestures": gestures}


def input_size(workload: str, seconds: float, tiny: bool) -> int:
    """Tags in the fleet stream, or gestures in the words stream."""
    if workload == "words":
        return TINY_WORDS if tiny else max(20, int(round(WORDS_PER_SECOND * seconds)))
    return TINY_FLEET_TAGS if tiny else FLEET_TAGS


def prepare(workload: str, seed: int, size: int) -> dict:
    """Build a workload's inputs (fleet and fleet-serve share one stream)."""
    if workload == "words":
        return _words_inputs(seed, size)
    return _fleet_inputs(seed, size)


# ----------------------------------------------------------------------
# Set-up (timed as setup_s)
# ----------------------------------------------------------------------
def setup(workload: str, tiny: bool) -> dict:
    """Everything a workload needs before its first report, from a fresh process.

    ``fleet-serve`` also starts its service; see :func:`start_service`.
    """
    if workload != "words":
        from repro.serve.workload import fleet_system

        return {"system": fleet_system()}
    from repro.core.pipeline import RFIDrawSystem
    from repro.core.positioning import PositionerConfig
    from repro.experiments.scenarios import SIDE_IN_WAVELENGTHS, WALL_Z_OFFSET
    from repro.geometry.layouts import rfidraw_layout
    from repro.geometry.plane import writing_plane
    from repro.lexicon import LexiconRecognizer
    from repro.lexicon.store import default_lexicon
    from repro.rf.constants import DEFAULT_WAVELENGTH

    # The deployment and plane simulate_word observes the pen through.
    deployment = rfidraw_layout(
        DEFAULT_WAVELENGTH, SIDE_IN_WAVELENGTHS, origin=(0.0, WALL_Z_OFFSET)
    )
    system = RFIDrawSystem(
        deployment, writing_plane(2.0), DEFAULT_WAVELENGTH,
        positioner_config=PositionerConfig(candidate_count=8),
    )
    lexicon = default_lexicon(TINY_LEXICON if tiny else WORDS_LEXICON)
    return {"system": system, "lexicon": lexicon, "recognizer": LexiconRecognizer(lexicon)}


async def start_service(system):
    from repro.serve import TrackingService

    service = TrackingService(
        system, shards=1, config=fleet_config(), burst_size=BURST, emit_points=True
    )
    await service.start()
    return service


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (shard worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FleetPass:
    """One pass over the fleet stream, as the benchmark observed it.

    ``handed[i]`` is when report ``i`` was handed to the system;
    ``closing`` is when the final ``finalize_all``/``drain`` began.
    """

    reports: int
    wall_s: float
    handed: np.ndarray
    closing: float
    points: list
    finals: list
    results: dict
    failed: int
    stats: object
    events: list = dataclasses.field(default_factory=list)


def fleet_pass(system, reports) -> FleetPass:
    """``ingest_burst`` over the stream, 256 reports per call, then finalize."""
    from repro.stream import SessionManager

    clock = time.perf_counter
    manager = SessionManager(system, config=fleet_config())
    points: list = []
    finals: list = []
    manager.on_point = lambda event: points.append((event.epc_hex, clock()))
    manager.on_session_finalized = lambda event: finals.append((event.epc_hex, clock()))
    handed = np.empty(len(reports))
    start = clock()
    for lo in range(0, len(reports), BURST):
        handed[lo:lo + BURST] = clock()
        manager.ingest_burst(reports[lo:lo + BURST])
    closing = clock()
    results = manager.finalize_all()
    end = clock()
    return FleetPass(
        len(reports), end - start, handed, closing, points, finals, results,
        len(manager.failures), manager.stats(),
    )


async def serve_pass(service, reports) -> FleetPass:
    """One ``await ingest`` per report under backpressure, then drain."""
    from repro.stream import SessionEventType

    clock = time.perf_counter
    points: list = []
    finals: list = []
    events: list = []

    async def consume() -> None:
        async for event in service.events():
            now = clock()
            events.append(event)
            if event.type is SessionEventType.POINT:
                points.append((event.epc_hex, now))
            elif event.type is SessionEventType.FINALIZED:
                finals.append((event.epc_hex, now))

    consumer = asyncio.ensure_future(consume())
    handed = np.empty(len(reports))
    start = clock()
    try:
        for index, report in enumerate(reports):
            handed[index] = clock()
            await service.ingest(report)
        closing = clock()
        outcome = await service.drain()
        await consumer
    finally:
        if not consumer.done():
            consumer.cancel()
    end = clock()
    await service.stop()
    return FleetPass(
        len(reports), end - start, handed, closing, points, finals, outcome.results,
        len(outcome.failures), outcome.stats, events,
    )


def check_fleet_pass(done: FleetPass, inputs: dict) -> tuple[list, list, list]:
    """Output checks and lags of one fleet pass against the reference pass.

    Returns ``(problems, point_lags_ms, word_lags_ms)``. A point's lag runs
    from when the report that made it computable was handed over to when
    its ``POINT`` event reached the benchmark; a session's (word) lag from
    when the report that closed it (or the final finalize/drain) was
    handed over to its ``FINALIZED`` event.
    """
    reference = inputs["reference"]
    problems = []
    if _snapshot(done.results) != reference["results"]:
        problems.append("per-EPC times/trajectory differ from per-report ingest")
    if done.failed:
        problems.append(f"{done.failed} sessions failed")
    seen: dict[str, int] = defaultdict(int)
    point_lags = []
    for epc, when in done.points:
        unlock = reference["unlock"].get(epc, ())
        k = seen[epc]
        seen[epc] += 1
        if k < len(unlock):
            point_lags.append((when - done.handed[unlock[k]]) * 1e3)
    if dict(seen) != {epc: len(unlock) for epc, unlock in reference["unlock"].items()}:
        problems.append("POINT events differ from per-report ingest")
    word_lags = []
    for epc, when in done.finals:
        index = reference["closes"].get(epc, -1)
        handed = done.handed[index] if index >= 0 else done.closing
        word_lags.append((when - handed) * 1e3)
    if sorted(epc for epc, _ in done.finals) != sorted(reference["closes"]):
        problems.append("FINALIZED events differ from per-report ingest")
    return problems, point_lags, word_lags


def fleet_errors_mm(results: dict, inputs: dict) -> list:
    """Point errors against each tag's true stroke (paper §8.1 offset rule)."""
    from repro.analysis.metrics import trajectory_error_rfidraw

    errors = []
    for epc, result in results.items():
        start, center_u, center_v = inputs["truth"][epc]
        angle = 2.0 * np.pi * 0.4 * (result.times - start)
        truth = np.stack(
            [center_u + 0.08 * np.cos(angle), center_v + 0.08 * np.sin(angle)], axis=1
        )
        errors.extend((trajectory_error_rfidraw(result.trajectory, truth) * 1e3).tolist())
    return errors


@dataclasses.dataclass
class GestureRun:
    """One gesture, as the benchmark observed it."""

    epc: str
    reports: int
    wall_s: float
    point_lags_ms: list
    word_lag_ms: float | None
    errors_mm: list
    correct: bool
    failed: bool


def words_pass(system, recognizer, gestures) -> tuple[list, object]:
    """Per-report ``ingest`` of each gesture, then ``finalize`` at pen-up.

    Each point is made computable by the report whose ``ingest`` call
    emitted it, so its lag runs from the start of that call. A gesture's
    word lag is its ``finalize`` call: pen-up to the ``FINALIZED`` event
    that carries the recognised word. Returns one :class:`GestureRun` per
    gesture and the manager's final stats.
    """
    from repro.analysis.metrics import trajectory_error_rfidraw
    from repro.stream import SessionManager

    clock = time.perf_counter
    manager = SessionManager(system, config=words_config(), recognizer=recognizer)
    handed = [0.0]
    point_lags: list = []
    finalized: dict = {}
    manager.on_point = lambda event: point_lags.append(clock() - handed[0])
    manager.on_session_finalized = lambda event: finalized.__setitem__(
        event.epc_hex, (clock(), event)
    )
    runs = []
    for gesture in gestures:
        point_lags = []
        start = clock()
        for report in gesture["stream"]:
            handed[0] = clock()
            manager.ingest(report)
        pen_up = clock()
        failed = False
        try:
            manager.finalize(gesture["epc"])
        except Exception:  # counted as a failed session; the run goes on
            failed = True
        end = clock()
        delivered = finalized.get(gesture["epc"])
        run = GestureRun(
            gesture["epc"], len(gesture["stream"]), end - start,
            [lag * 1e3 for lag in point_lags], None, [], False, failed,
        )
        if delivered is not None and delivered[1].recognition is not None:
            when, event = delivered
            run.word_lag_ms = (when - pen_up) * 1e3
            run.correct = event.recognition.word == gesture["word"]
            truth = gesture["truth"].position_at(event.result.times - gesture["offset"])
            run.errors_mm = (
                trajectory_error_rfidraw(event.result.trajectory, truth) * 1e3
            ).tolist()
        runs.append(run)
    return runs, manager.stats()
