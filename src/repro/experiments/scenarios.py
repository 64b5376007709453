"""Evaluation scenarios: rooms, deployments and the word-writing pipeline.

This module wires every substrate together the way the paper's testbed
was wired (section 6):

* the VICON room (5×6 m, line of sight) and the office lounge (8×12 m,
  cubicle separators, non-line-of-sight);
* RF-IDraw's two-reader 8-antenna deployment and the baseline's two
  4-antenna arrays, both on the same wall;
* users writing corpus words on the writing plane 2–5 m away, letters
  ≈ 10 cm wide;
* both systems observing the *same* tag motion through the *same*
  channel, so comparisons are apples-to-apples.

:func:`simulate_word` is the single entry point for one writing session;
:func:`simulate_words` fans an iterable of ``(word, user, seed, config)``
jobs through shared deployments and channels (optionally on a
``concurrent.futures`` executor) — the batch entry point the figure
experiments (fig11/fig14/fig15/fig16) route through.
"""

from __future__ import annotations

import concurrent.futures
import functools

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.geometry.antennas import Deployment
from repro.geometry.layouts import aoa_baseline_layout, rfidraw_layout
from repro.geometry.plane import WritingPlane, writing_plane
from repro.rf.channel import BackscatterChannel, Environment
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rf.multipath import PointScatterer, WallReflector
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.epc import Epc96
from repro.rfid.reader import Reader
from repro.rfid.sampling import (
    MeasurementLog,
    PairSeries,
    build_antenna_streams,
    build_pair_series,
)
from repro.rfid.tag import PassiveTag
from repro.baseline.aoa import BeamScanAoA
from repro.baseline.tracker import ArrayIntersectionTracker
from repro.core.pipeline import ReconstructionResult, RFIDrawSystem
from repro.core.positioning import PositionerConfig
from repro.handwriting.generator import HandwritingGenerator, UserStyle, WritingTrace
from repro.motion.vicon import GroundTruthTrace, ViconCapture

__all__ = [
    "ScenarioConfig",
    "SimulationRun",
    "WordJob",
    "vicon_room_environment",
    "office_lounge_environment",
    "simulate_word",
    "simulate_words",
    "user_style",
]

#: The square side (in wavelengths) of the prototype deployment.
SIDE_IN_WAVELENGTHS = 8.0
#: Height of the square's bottom edge above the floor (metres).
WALL_Z_OFFSET = 0.4


def vicon_room_environment() -> Environment:
    """The 5×6 m VICON room: line of sight plus mild room multipath.

    The direct path dominates; the floor, one side wall and a couple of
    furniture-grade scatterers provide the residual multipath that the
    paper holds responsible for its centimetre-scale errors (footnote 4).
    """
    return Environment(
        los_gain=1.0,
        scatterers=[
            PointScatterer(position=(-0.8, 1.4, 0.7), gain=0.32),
            PointScatterer(position=(3.4, 2.8, 1.6), gain=0.26),
        ],
        walls=[
            WallReflector(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                          reflectivity=0.30),
            WallReflector(point=(-1.3, 0.0, 0.0), normal=(1.0, 0.0, 0.0),
                          reflectivity=0.24),
        ],
    )


def office_lounge_environment() -> Environment:
    """The 8×12 m office lounge, NLOS through cubicle separators.

    The direct path penetrates "2.5 m tall, 20 cm thick separators made of
    two layers of wood" (≈ −4.5 dB amplitude one-way); reflections off the
    lounge's structures are relatively stronger, which is what degrades
    absolute positioning while trajectory shapes survive (section 8.1).
    """
    return Environment(
        los_gain=0.6,
        scatterers=[
            PointScatterer(position=(-0.9, 1.7, 0.8), gain=0.30),
            PointScatterer(position=(3.5, 2.4, 1.8), gain=0.26),
            PointScatterer(position=(1.6, 3.4, 0.5), gain=0.22),
            PointScatterer(position=(0.4, 1.1, 2.2), gain=0.18),
        ],
        walls=[
            WallReflector(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                          reflectivity=0.26),
            WallReflector(point=(-1.6, 0.0, 0.0), normal=(1.0, 0.0, 0.0),
                          reflectivity=0.21),
            WallReflector(point=(4.3, 0.0, 0.0), normal=(-1.0, 0.0, 0.0),
                          reflectivity=0.17),
        ],
    )


@dataclass
class ScenarioConfig:
    """Everything configurable about one simulated writing session."""

    wavelength: float = DEFAULT_WAVELENGTH
    distance: float = 2.0
    los: bool = True
    letter_height: float = 0.18
    phase_noise_sigma: float = 0.12
    #: Antenna mounting/calibration error: the *true* antenna positions
    #: differ from the nominal positions the algorithms assume by this
    #: per-axis Gaussian sigma (metres). A real deployment measures its
    #: antenna positions with a tape measure; centimetre-level error is
    #: generous. This is a dominant absolute-accuracy limiter in practice.
    antenna_jitter_sigma: float = 0.003
    reader_dwell: float = 0.04
    sample_rate: float = 20.0
    writing_center_u: float = 1.3
    writing_baseline_v: float = 1.2
    candidate_count: int = 8

    def __post_init__(self) -> None:
        if not 0.5 <= self.distance <= 8.0:
            raise ValueError("distance should be within the room (0.5–8 m)")

    def environment(self) -> Environment:
        return vicon_room_environment() if self.los else office_lounge_environment()


def user_style(user: int) -> UserStyle:
    """The paper's five users, reproducibly: one fixed style per user id."""
    rng = np.random.default_rng(90_000 + user)
    return UserStyle.sample(rng)


# ----------------------------------------------------------------------
# Shared, immutable simulation substrate
# ----------------------------------------------------------------------
# A batch of simulated words shares its nominal deployments and its
# propagation channel: both are pure functions of the scenario tunables
# and nothing mutates them after construction (the channel's wall-image
# cache only grows). Rebuilding them per word was measurable overhead in
# the fig11/fig14/fig15 sweeps — and a shared channel also shares its
# hoisted wall images across every word of a batch.
@functools.lru_cache(maxsize=None)
def _shared_channel(los: bool, wavelength: float) -> BackscatterChannel:
    environment = (
        vicon_room_environment() if los else office_lounge_environment()
    )
    return BackscatterChannel(environment, wavelength)


@functools.lru_cache(maxsize=None)
def _shared_rfidraw_layout(wavelength: float) -> Deployment:
    return rfidraw_layout(
        wavelength, SIDE_IN_WAVELENGTHS, origin=(0.0, WALL_Z_OFFSET)
    )


@functools.lru_cache(maxsize=None)
def _shared_baseline_layout(wavelength: float) -> Deployment:
    return aoa_baseline_layout(
        wavelength, SIDE_IN_WAVELENGTHS, origin=(0.0, WALL_Z_OFFSET)
    )


def _channel_for(config: ScenarioConfig) -> BackscatterChannel:
    """The (shared) channel of a config; honours subclass overrides."""
    if type(config).environment is ScenarioConfig.environment:
        return _shared_channel(config.los, config.wavelength)
    return BackscatterChannel(config.environment(), config.wavelength)


@dataclass
class SimulationRun:
    """One word written once, observed by both systems.

    Built by :func:`simulate_word`; reconstructions are computed lazily and
    cached, so an experiment that only needs RF-IDraw never pays for the
    baseline (and vice versa).
    """

    word: str
    config: ScenarioConfig
    plane: WritingPlane
    trace: WritingTrace
    ground_truth: GroundTruthTrace
    rfidraw_deployment: Deployment
    baseline_deployment: Deployment
    rfidraw_log: MeasurementLog
    baseline_log: MeasurementLog

    @cached_property
    def rfidraw_series(self) -> list[PairSeries]:
        return build_pair_series(
            self.rfidraw_log,
            self.rfidraw_deployment,
            sample_rate=self.config.sample_rate,
        )

    @cached_property
    def system(self) -> RFIDrawSystem:
        positioner_config = PositionerConfig(
            candidate_count=self.config.candidate_count
        )
        return RFIDrawSystem(
            self.rfidraw_deployment,
            self.plane,
            self.config.wavelength,
            positioner_config=positioner_config,
        )

    @cached_property
    def rfidraw_result(self) -> ReconstructionResult:
        return self.system.reconstruct(self.rfidraw_series)

    @cached_property
    def timeline(self) -> np.ndarray:
        return self.rfidraw_series[0].times

    def truth_on(self, times: np.ndarray) -> np.ndarray:
        """Ground-truth positions interpolated onto a timeline."""
        return self.ground_truth.position_at(np.asarray(times, dtype=float))

    # ------------------------------------------------------------------
    # Baseline
    # ------------------------------------------------------------------
    @cached_property
    def baseline_timeline_and_streams(self):
        antenna_ids = [a.antenna_id for a in self.baseline_deployment]
        return build_antenna_streams(
            self.baseline_log,
            antenna_ids,
            sample_rate=self.config.sample_rate,
        )

    @cached_property
    def baseline_trajectory(self) -> np.ndarray:
        timeline, streams = self.baseline_timeline_and_streams
        arrays = []
        phase_blocks = []
        for reader_id in (1, 2):
            elements = self.baseline_deployment.antennas_of_reader(reader_id)
            arrays.append(
                BeamScanAoA(elements, self.config.wavelength, round_trip=2.0)
            )
            phase_blocks.append(
                np.stack(
                    [streams[a.antenna_id] for a in elements], axis=1
                )
            )
        tracker = ArrayIntersectionTracker(arrays, self.plane)
        return tracker.track(phase_blocks)

    @property
    def baseline_timeline(self) -> np.ndarray:
        return self.baseline_timeline_and_streams[0]


def simulate_word(
    word: str,
    user: int = 0,
    seed: int = 0,
    config: ScenarioConfig | None = None,
    run_baseline: bool = True,
) -> SimulationRun:
    """Simulate one user writing one word, observed by both systems.

    Args:
        word: lowercase word (must be writable with the built-in font).
        user: user id 0–4 (fixed per-user style, like the paper's users).
        seed: seed for everything stochastic in this run (protocol,
            noise, LO offsets, tag phase).
        config: scenario tunables; default is LOS at 2 m.
        run_baseline: also run the antenna-array scheme's readers.

    Returns:
        A :class:`SimulationRun` with both systems' raw logs attached.
    """
    config = config or ScenarioConfig()
    seeds = np.random.SeedSequence([seed, user, abs(hash_word(word))])
    rng_protocol, rng_session, rng_vicon, rng_baseline = (
        np.random.default_rng(s) for s in seeds.spawn(4)
    )

    # --- the user writes ------------------------------------------------
    style = user_style(user)
    generator = HandwritingGenerator(
        style=style, letter_height=config.letter_height
    )
    # Centre the word horizontally in front of the deployment.
    probe = generator.word_trace(word, origin=(0.0, 0.0))
    width = probe.points[:, 0].max() - probe.points[:, 0].min()
    origin = (
        config.writing_center_u - width / 2.0,
        config.writing_baseline_v,
    )
    trace = generator.word_trace(word, origin=origin, start_time=0.2)

    plane = writing_plane(config.distance)

    # The reader asks for the pen's world position once per ~2.4 ms
    # inventory round, so the scalar path below inlines
    # ``plane.to_world(trace.position_at(when))`` as the identical float
    # operations (same interp inputs, same products, same addition
    # order — bit-for-bit) minus the array-wrapper overhead. Vector
    # queries (the reader's batched per-dwell synthesis) keep the
    # general path.
    trace_times = trace.times
    trace_u = np.ascontiguousarray(trace.points[:, 0])
    trace_v = np.ascontiguousarray(trace.points[:, 1])
    origin, u_axis, v_axis = plane.origin, plane.u_axis, plane.v_axis

    def position_at(_serial: int, when) -> np.ndarray:
        if isinstance(when, float):
            u = np.interp(when, trace_times, trace_u)
            v = np.interp(when, trace_times, trace_v)
            return origin + float(u) * u_axis + float(v) * v_axis
        return plane.to_world(trace.position_at(when))

    # --- the RF world ----------------------------------------------------
    channel = _channel_for(config)
    noise = PhaseNoiseModel(sigma=config.phase_noise_sigma)
    tag = PassiveTag(
        Epc96.with_serial(int(rng_session.integers(1, 2**38))),
        plane.to_world(trace.position_at(0.0)),
        modulation_phase=float(rng_session.uniform(0.0, 2.0 * np.pi)),
    )
    duration = trace.times[-1] + 0.3

    deployment = _shared_rfidraw_layout(config.wavelength)
    # The readers see the *true* (jittered) antenna positions; the
    # algorithms only know the nominal deployment.
    true_deployment = _jitter_deployment(
        deployment, config.antenna_jitter_sigma, rng_session
    )
    readers = [
        Reader(
            reader_id,
            true_deployment.antennas_of_reader(reader_id),
            channel,
            noise,
            lo_offset=float(rng_session.uniform(0.0, 2.0 * np.pi)),
            dwell_time=config.reader_dwell,
        )
        for reader_id in true_deployment.reader_ids
    ]
    reports = []
    for reader in readers:
        reports.extend(
            reader.inventory(
                [tag], duration, rng_protocol, position_at=position_at
            )
        )
    rfidraw_log = MeasurementLog(reports)

    # --- the baseline's readers ------------------------------------------
    baseline_deployment = _shared_baseline_layout(config.wavelength)
    true_baseline = _jitter_deployment(
        baseline_deployment, config.antenna_jitter_sigma, rng_baseline
    )
    baseline_reports = []
    if run_baseline:
        for reader_id in true_baseline.reader_ids:
            reader = Reader(
                reader_id,
                true_baseline.antennas_of_reader(reader_id),
                channel,
                noise,
                lo_offset=float(rng_baseline.uniform(0.0, 2.0 * np.pi)),
                dwell_time=config.reader_dwell,
            )
            baseline_reports.extend(
                reader.inventory(
                    [tag], duration, rng_baseline, position_at=position_at
                )
            )
    baseline_log = MeasurementLog(baseline_reports)

    # --- ground truth ------------------------------------------------------
    vicon = ViconCapture()
    ground_truth = vicon.capture(trace.times, trace.points, rng_vicon)

    return SimulationRun(
        word=word,
        config=config,
        plane=plane,
        trace=trace,
        ground_truth=ground_truth,
        rfidraw_deployment=deployment,
        baseline_deployment=baseline_deployment,
        rfidraw_log=rfidraw_log,
        baseline_log=baseline_log,
    )


@dataclass(frozen=True)
class WordJob:
    """One :func:`simulate_word` invocation, as data.

    The batch runner accepts either ``WordJob`` instances or plain
    ``(word, user, seed, config)`` tuples (trailing fields optional).
    """

    word: str
    user: int = 0
    seed: int = 0
    config: ScenarioConfig | None = None


def _run_job(job: WordJob, run_baseline: bool) -> SimulationRun:
    """Module-level job body (picklable for process executors)."""
    return simulate_word(
        job.word,
        user=job.user,
        seed=job.seed,
        config=job.config,
        run_baseline=run_baseline,
    )


def simulate_words(
    jobs,
    run_baseline: bool = True,
    max_workers: int | None = None,
    batch_reconstruct: bool = False,
) -> list[SimulationRun]:
    """Simulate a batch of writing sessions through shared substrate.

    Every job reuses the cached nominal deployments and the shared
    propagation channel (see :func:`_channel_for`), so a sweep pays the
    layout/environment construction once instead of per word. Jobs are
    mutually independent — each derives its randomness from its own
    ``(seed, user, word)`` tuple — so results are identical whether they
    run serially or on a process pool.

    Args:
        jobs: iterable of :class:`WordJob` or ``(word[, user[, seed[,
            config]]])`` tuples, in result order.
        run_baseline: also run the antenna-array scheme's readers.
        max_workers: fan jobs across a ``ProcessPoolExecutor`` of this
            many workers when > 1; ``None``/``0``/``1`` runs serially
            in-process. Each worker re-imports the library and ships
            its runs back by pickle.
        batch_reconstruct: run every job's RF-IDraw reconstruction
            immediately through one merged engine block
            (:func:`repro.core.pipeline.reconstruct_many`) instead of
            leaving ``rfidraw_result`` lazy — bit-identical results,
            the per-step solve shared across the whole batch. Figure
            sweeps (fig11/fig14/fig15) enable this; leave it off when
            only the raw logs are of interest. Batched reconstruction
            always happens in the calling process, after any pool
            fan-out of the simulations themselves.

    Returns:
        One :class:`SimulationRun` per job, in job order.
    """
    normalized = [
        job if isinstance(job, WordJob) else WordJob(*job) for job in jobs
    ]
    body = functools.partial(_run_job, run_baseline=run_baseline)
    if max_workers and max_workers > 1 and len(normalized) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers) as pool:
            runs = list(pool.map(body, normalized))
    else:
        runs = [body(job) for job in normalized]
    if batch_reconstruct and runs:
        from repro.core.pipeline import reconstruct_many

        reconstructions = reconstruct_many(
            [(run.system, run.rfidraw_series) for run in runs]
        )
        for run, result in zip(runs, reconstructions):
            # Prime the cached_property, so later `run.rfidraw_result`
            # reads hit the batched result.
            run.__dict__["rfidraw_result"] = result
    return runs


def _jitter_deployment(
    deployment: Deployment, sigma: float, rng: np.random.Generator
) -> Deployment:
    """True antenna positions: nominal plus mounting error."""
    from repro.geometry.antennas import Antenna

    if sigma <= 0:
        return deployment
    jittered = [
        Antenna(
            antenna.antenna_id,
            antenna.position + rng.normal(0.0, sigma, size=3),
            antenna.reader_id,
            antenna.port,
        )
        for antenna in deployment
    ]
    return Deployment(jittered)


def hash_word(word: str) -> int:
    """Process-stable small hash of a word (for seed derivation)."""
    import zlib

    return zlib.crc32(word.encode("utf-8")) % (2**31)
