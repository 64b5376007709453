#!/usr/bin/env python3
"""Quickstart: localise a static tag, then trace a small gesture.

This example builds the paper's 8-antenna deployment, simulates an RFID
tag through the Gen2 reader stack, and runs both halves of RF-IDraw:

1. multi-resolution positioning of a *static* tag (paper section 5.1),
2. trajectory tracing of a circular gesture (paper section 5.2).

There are two equivalent entry points into the reconstruction core:

**Batch** — build per-pair Δφ series from a finished log, then call the
facade (what this file's ``main`` does)::

    series = build_pair_series(log, deployment, sample_rate=20.0)
    system = RFIDrawSystem(deployment, plane, wavelength)
    result = system.reconstruct(series)

**Streaming** — open a :class:`repro.stream.TrackingSession` and feed
phase reports as the reader emits them; trajectory points come back with
bounded per-report latency, and ``finalize()`` returns the *identical*
:class:`ReconstructionResult` (the batch facade is a wrapper over this
path)::

    session = system.open_session(config=SessionConfig(sample_rate=20.0))
    for report in reader_stream:          # live loop
        for point in session.ingest(report):
            print(point.time, point.position)
    result = session.finalize()

**Batched multi-word** — many independent recordings (words, users,
gestures) reconstruct through *one* merged engine block: candidates
from every word share the batched per-step solve, and each word's
result is bit-identical to its own ``reconstruct`` call::

    results = system.reconstruct_many([series_a, series_b, series_c])

    # …or across different systems/planes (each user at their own
    # distance), and wired into the scenario runner:
    from repro.core.pipeline import reconstruct_many
    results = reconstruct_many([(system_a, series_a), (system_b, series_b)])
    runs = simulate_words(jobs, batch_reconstruct=True)   # figure sweeps

Two families of knobs tune a long-running session:

* ``prune_margin`` / ``prune_burn_in`` — after the burn-in, candidate
  trajectories whose running vote sum trails the leader's by more than
  the margin are dropped from the per-step solve, cutting steady-state
  cost (≈1.5× per report at the default candidate count). Safe at any
  margin: finalize resumes a dropped candidate whenever its frozen vote
  sum does not already prove it a loser, so the chosen trajectory is
  always bit-identical to the batch answer.
* on a :class:`repro.stream.SessionManager`, ``idle_timeout`` /
  ``max_sessions`` — evict (auto-finalize) tags that stop replying, so
  an always-on merged stream holds bounded open-session state — and
  ``retain_results`` — shed finalized-session history past a cap
  (each closing session releases its resampler/trace/report buffers),
  so a day-long stream's memory stays bounded.

All of those tunables travel as one frozen value,
:class:`repro.stream.SessionConfig`, the only way to set them on every
tier — ``SessionManager(system, config=...)``, ``system.open_session(
config=...)``, ``system.reconstruct_log(log, config=...)`` and the
sharded ``repro.serve.TrackingService`` — so "the production ingest
policy" is a value you hand around, not a kwarg list to keep in sync::

    from repro.stream import SessionConfig
    config = SessionConfig(out_of_order="drop", prune_margin=4.0,
                           idle_timeout=30.0)
    manager = SessionManager(system, config=config)

**The session event contract.** Everything a manager (or the sharded
service) observes flows through one typed union of frozen events —
``SessionStarted``, ``PointEmitted``, ``SessionFinalized``,
``SessionEvicted``, all subclasses of ``SessionEvent`` — consumed
identically from the manager callbacks (``on_point = ...``), from the
events returned by ``ingest``/``ingest_burst``/``replay``, and from
``TrackingService.events()``'s merged async stream (there in
``detached()`` form: ``event.session is None`` across a process
boundary, while ``epc_hex``/``point``/``result`` travel intact).
Dispatch on ``isinstance(event, PointEmitted)`` or on
``event.type is SessionEventType.POINT`` — ``type`` is each subclass's
class constant, so both name the same event. Ordering guarantee: per
EPC, events always arrive in lifecycle order (``STARTED``, its
``POINT`` s, then ``FINALIZED``/``EVICTED``);
cross-EPC interleaving follows report order on a single manager and
shard-arrival order on the service (see ``examples/tracking_service.py``).

**Recognition at finalize.** Hand a manager (or the service, via a
picklable ``RecognizerFactory``) a word recogniser and every finalized
trajectory classifies itself against the embedded corpus
(``WordRecognizer()``) or against the 100k-word indexed lexicon
(``LexiconRecognizer(default_lexicon(100_000))``); results ride
``SessionFinalized.recognition`` and work counters surface in
``ManagerStats`` (see ``examples/lexicon_recognition.py``)::

    recognizer = LexiconRecognizer(default_lexicon(100_000))
    manager = SessionManager(system, config=config, recognizer=recognizer)

``main`` below runs both entry points (streaming with pruning enabled)
and checks they agree. Run it with::

    python examples/quickstart.py
"""

import numpy as np

from repro import rfidraw_layout, writing_plane
from repro.core.pipeline import RFIDrawSystem
from repro.experiments.scenarios import ScenarioConfig
from repro.motion.gestures import circle
from repro.rf.channel import BackscatterChannel
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.epc import Epc96
from repro.rfid.reader import Reader
from repro.rfid.sampling import MeasurementLog, build_pair_series
from repro.rfid.tag import PassiveTag


def main() -> None:
    config = ScenarioConfig()  # LOS VICON room, 2 m, 922 MHz
    plane = writing_plane(config.distance)
    deployment = rfidraw_layout(config.wavelength, origin=(0.0, 0.4))
    channel = BackscatterChannel(config.environment(), config.wavelength)
    noise = PhaseNoiseModel(sigma=config.phase_noise_sigma)
    rng = np.random.default_rng(2014)

    # A circular gesture, 8 cm radius, drawn over ~2 seconds.
    times, points = circle(center=(1.3, 1.2), radius=0.08, speed=0.25)

    def position_at(_serial: int, when: float) -> np.ndarray:
        u = np.interp(when, times, points[:, 0])
        v = np.interp(when, times, points[:, 1])
        return plane.to_world(np.array([u, v]))

    tag = PassiveTag(Epc96.with_serial(2014), position_at(0, 0.0))

    print("Running Gen2 inventory on both readers…")
    reports = []
    for reader_id in deployment.reader_ids:
        reader = Reader(
            reader_id,
            deployment.antennas_of_reader(reader_id),
            channel,
            noise,
            lo_offset=float(rng.uniform(0, 2 * np.pi)),
        )
        reports.extend(
            reader.inventory([tag], times[-1] + 0.2, rng, position_at=position_at)
        )
    log = MeasurementLog(reports)
    print(f"  {len(log)} tag reads at {log.read_rate():.0f} reads/s")

    series = build_pair_series(log, deployment, sample_rate=20.0)
    system = RFIDrawSystem(deployment, plane, config.wavelength)

    # --- static fix from the first snapshot --------------------------------
    fix = system.locate(series)
    start_uv = np.array([np.interp(series[0].times[0], times, points[:, 0]),
                         np.interp(series[0].times[0], times, points[:, 1])])
    print("\nStatic multi-resolution fix:")
    print(f"  estimated ({fix.position[0]:.3f}, {fix.position[1]:.3f}) m, "
          f"true ({start_uv[0]:.3f}, {start_uv[1]:.3f}) m, "
          f"error {100 * np.linalg.norm(fix.position - start_uv):.1f} cm")

    # --- full trajectory reconstruction -------------------------------------
    result = system.reconstruct(series)
    truth = np.stack(
        [
            np.interp(result.times, times, points[:, 0]),
            np.interp(result.times, times, points[:, 1]),
        ],
        axis=1,
    )
    shifted = result.trajectory - (result.trajectory[0] - truth[0])
    shape_error = np.linalg.norm(shifted - truth, axis=1)
    print("\nTrajectory tracing of the circle gesture:")
    print(f"  {len(result.trajectory)} reconstructed points, "
          f"{len(result.candidates)} initial candidates considered")
    print(f"  chosen candidate vote {result.total_vote:.2f}")
    print(f"  shape error (offset removed): median "
          f"{100 * np.median(shape_error):.2f} cm, "
          f"90th pct {100 * np.percentile(shape_error, 90):.2f} cm")

    # --- the same thing, streamed report-by-report ---------------------------
    # prune_margin drops hopeless candidates mid-stream (cheaper steady
    # state); the chosen trajectory is provably still the batch one.
    from repro.stream import SessionConfig

    session = system.open_session(
        config=SessionConfig(sample_rate=20.0, prune_margin=6.0, prune_burn_in=8)
    )
    live_points = []
    for report in log.reports:  # stands in for the live reader loop
        live_points.extend(session.ingest(report))
    streamed = session.finalize()
    agree = np.array_equal(streamed.trajectory, result.trajectory)
    print("\nStreaming session (same reports, fed one at a time):")
    print(f"  {len(live_points)} points emitted live, "
          f"{len(streamed.candidates)}/{len(result.candidates)} candidates "
          f"survived pruning, final trajectory identical to batch: {agree}")


if __name__ == "__main__":
    main()
