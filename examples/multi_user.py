#!/usr/bin/env python3
"""Two users sharing one virtual touch screen — streamed live.

The paper notes (section 2) that because every tag carries a unique EPC,
"it is easy to scale to a larger number of users simultaneously
interacting through the virtual touch screen without causing confusion."

This example puts two tags in the field at once. Both are inventoried by
the same two readers in the same Gen2 slotted-ALOHA air protocol — so they
genuinely contend for slots — and the merged report stream is fed,
report by report, to a :class:`repro.stream.SessionManager`, which routes
each report to its tag's :class:`~repro.stream.TrackingSession` and fires
lifecycle events (session started / point emitted / finalized / evicted)
as each user's trajectory takes shape.

Always-on knobs are exercised too: the manager's ``idle_timeout`` evicts
(auto-finalizes) the user who finishes writing and walks away — their
trajectory is delivered mid-stream, not at shutdown — and each session's
``prune_margin`` drops hopeless trace candidates to keep the steady-state
per-report cost low without changing any answer.

Run it with::

    python examples/multi_user.py
"""

import numpy as np

from repro import SessionManager, rfidraw_layout, writing_plane
from repro.core.pipeline import RFIDrawSystem
from repro.experiments.scenarios import ScenarioConfig
from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.rf.channel import BackscatterChannel
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.epc import Epc96
from repro.rfid.reader import Reader
from repro.rfid.sampling import MeasurementLog
from repro.rfid.tag import PassiveTag
from repro.stream import SessionConfig


def main() -> None:
    config = ScenarioConfig()
    plane = writing_plane(config.distance)
    deployment = rfidraw_layout(config.wavelength, origin=(0.0, 0.4))
    channel = BackscatterChannel(config.environment(), config.wavelength)
    rng = np.random.default_rng(77)

    # Two users write different letters in their own screen regions.
    sessions = {
        1: ("o", np.array([0.55, 1.10])),
        2: ("w", np.array([1.75, 1.30])),
    }
    traces = {}
    for serial, (char, origin) in sessions.items():
        style = UserStyle.sample(np.random.default_rng(1000 + serial))
        generator = HandwritingGenerator(style=style, letter_height=0.16)
        traces[serial] = generator.letter_trace(char, origin=tuple(origin))

    duration = max(trace.times[-1] for trace in traces.values()) + 0.3

    def position_at(serial: int, when: float) -> np.ndarray:
        return plane.to_world(traces[serial].position_at(when))

    tags = [
        PassiveTag(Epc96.with_serial(serial), position_at(serial, 0.0))
        for serial in sessions
    ]
    serial_of = {tag.epc.to_hex(): tag.epc.serial for tag in tags}

    print("Inventorying two tags through the shared Gen2 air protocol…")
    reports = []
    for reader_id in deployment.reader_ids:
        reader = Reader(
            reader_id,
            deployment.antennas_of_reader(reader_id),
            channel,
            PhaseNoiseModel(sigma=config.phase_noise_sigma),
            lo_offset=float(rng.uniform(0, 2 * np.pi)),
        )
        reports.extend(reader.inventory(tags, duration, rng,
                                        position_at=position_at))
    # User 1 finishes their letter and walks out of the field: their tag
    # simply stops replying partway through the merged stream.
    walk_off = traces[1].times[-1] + 0.05
    walker_epc = next(epc for epc, serial in serial_of.items() if serial == 1)
    reports = [
        r for r in reports if r.epc_hex != walker_epc or r.time <= walk_off
    ]
    log = MeasurementLog(reports)
    print(f"  {len(log)} reads of {len(log.epcs())} distinct EPCs "
          f"({log.read_rate():.0f} reads/s shared)")

    # One manager demultiplexes the merged stream onto per-tag sessions.
    # idle_timeout auto-finalizes the walker mid-stream; prune_margin
    # keeps each session's steady-state step cheap (answers unchanged).
    system = RFIDrawSystem(deployment, plane, config.wavelength)
    manager = SessionManager(
        system,
        config=SessionConfig(
            idle_timeout=0.4,
            sample_rate=config.sample_rate,
            candidate_count=3,
            prune_margin=10.0,
        ),
    )
    live_counts: dict[str, int] = {}
    manager.on_session_started = lambda event: print(
        f"  session started for user {serial_of[event.epc_hex]} "
        f"(EPC {event.epc_hex[:12]}…)"
    )
    manager.on_point = lambda event: live_counts.__setitem__(
        event.epc_hex, live_counts.get(event.epc_hex, 0) + 1
    )
    # event.result is None when an evicted session could not finalize
    # (e.g. a ghost EPC) — a robust callback must not assume success.
    manager.on_session_evicted = lambda event: print(
        f"  user {serial_of[event.epc_hex]} stopped replying — session "
        + (
            f"evicted mid-stream with {len(event.result.trajectory)} points"
            if event.result is not None
            else "evicted without a reconstruction"
        )
    )

    print("\nStreaming the merged report log through the SessionManager…")
    for report in log.reports:  # stands in for the live reader loop
        manager.ingest(report)
    results = manager.finalize_all()
    if manager.stragglers:
        print(f"  ({manager.stragglers} straggler reads dropped)")

    for epc_hex, result in results.items():
        serial = serial_of[epc_hex]
        char, _origin = sessions[serial]
        truth = traces[serial].position_at(result.times)
        shifted = result.trajectory - (result.trajectory[0] - truth[0])
        shape_error = np.linalg.norm(shifted - truth, axis=1)
        print(f"\nuser {serial} (EPC {epc_hex[:12]}…) wrote {char!r}:")
        print(f"  {live_counts.get(epc_hex, 0)} points streamed live, "
              f"{len(result.trajectory)} in the final trajectory")
        print(f"  shape error median {100 * np.median(shape_error):.2f} cm "
              f"(offset removed)")


if __name__ == "__main__":
    main()
