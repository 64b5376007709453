"""A 4-port UHF reader producing timestamped phase reports.

Models a ThingMagic M6e-class reader as the paper uses it (section 6):

* four antenna ports, multiplexed round-robin with a configurable dwell;
* continuous Gen2 inventory on the active port (slotted ALOHA + Q-algo);
* for every successful singulation, a report of ``(time, EPC, antenna,
  phase, RSSI)``, where the phase is the **round-trip** backscatter phase;
* an unknown but constant per-reader LO phase offset. There is *no* offset
  between ports of the same reader (the paper leans on this — footnote 2),
  so phase differences within a reader are meaningful while differences
  across readers are not.

Two readers are simulated as independent instances; real deployments
interleave their inventories (frequency hopping / time sharing), which we
idealise as non-interfering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.geometry.antennas import Antenna
from repro.rf.channel import BackscatterChannel
from repro.rf.engine import ChannelBank
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.engine import ProtocolEngine
from repro.rfid.protocol import QAlgorithm
from repro.rfid.tag import PassiveTag

__all__ = ["PhaseReport", "Reader"]

#: Type of the tag-motion callback: serial, time → 3-D position.
PositionsAt = Callable[[int, float], np.ndarray]


@dataclass(frozen=True)
class PhaseReport:
    """One successful tag read, as a commercial reader reports it.

    A *finite* phase must be a wrapped value in [0, 2π) — anything else
    is a unit bug. A non-finite phase (NaN/±inf) is allowed to exist as
    data: flaky readers emit such garbage, recorded logs and the fault
    testbed carry it, and the streaming stack's ``out_of_order="drop"``
    policy counts and discards it instead of crashing mid-stream.
    """

    time: float
    epc_hex: str
    reader_id: int
    antenna_id: int
    phase: float
    rssi_dbm: float

    def __post_init__(self) -> None:
        if np.isfinite(self.phase) and not 0.0 <= self.phase < 2.0 * np.pi + 1e-12:
            raise ValueError(f"phase must be reported in [0, 2π), got {self.phase}")


@dataclass
class Reader:
    """A 4-port reader running continuous inventory.

    Attributes:
        reader_id: this reader's id; all attached antennas must match.
        antennas: the antennas on this reader's ports (1–4 of them).
        channel: the propagation model used for phase/RSSI/power.
        noise: reader measurement noise and quantisation.
        lo_offset: constant LO phase offset added to every phase report.
        dwell_time: seconds spent on each port before switching.
        initial_q: starting Gen2 frame exponent (Q).
    """

    reader_id: int
    antennas: list[Antenna]
    channel: BackscatterChannel
    noise: PhaseNoiseModel = field(default_factory=PhaseNoiseModel)
    lo_offset: float = 0.0
    dwell_time: float = 0.04
    initial_q: int = 2

    def __post_init__(self) -> None:
        if not self.antennas:
            raise ValueError("a reader needs at least one antenna")
        if len(self.antennas) > 4:
            raise ValueError("M6e-class readers have four antenna ports")
        for antenna in self.antennas:
            if antenna.reader_id != self.reader_id:
                raise ValueError(
                    f"antenna {antenna.antenna_id} belongs to reader "
                    f"{antenna.reader_id}, not {self.reader_id}"
                )
        if self.dwell_time <= 0:
            raise ValueError("dwell_time must be positive")
        self._bank: ChannelBank | None = None

    def _channel_bank(self) -> ChannelBank:
        """The vectorized channel over this reader's antennas (lazy)."""
        if self._bank is None:
            self._bank = ChannelBank.from_antennas(self.channel, self.antennas)
        return self._bank

    def inventory(
        self,
        tags: list[PassiveTag],
        duration: float,
        rng: np.random.Generator,
        start_time: float = 0.0,
        position_at: PositionsAt | None = None,
    ) -> list[PhaseReport]:
        """Run continuous inventory for ``duration`` seconds.

        Vectorized measurement *and* protocol path. The Gen2 protocol
        still advances round by round (slot outcomes feed the
        Q-algorithm and the clock), but each round is classified in one
        pass by a :class:`~repro.rfid.engine.ProtocolEngine` — only
        successful singulations materialise — and all channel synthesis
        is batched through a precomputed
        :class:`~repro.rf.engine.ChannelBank`: per-round tag powering
        reuses a cached power vector while no tag moved and the antenna
        didn't change (the static-tag fast path), takes a scalar-shaped
        kernel when a single tag moves, and falls back to one batched
        call otherwise; phase and RSSI are synthesized once per *dwell*.
        Protocol draws and per-report noise draws happen at the exact
        RNG points the per-report reference
        (``tests/oracles/inventory.py``) consumes them, so both
        implementations produce matching logs for the same seed
        (``tests/test_rfid_reader.py`` cross-checks this).

        Args:
            tags: the tag population in the field.
            duration: wall-clock seconds of inventory.
            rng: randomness for ALOHA slots, losses and noise.
            start_time: clock value of the first slot.
            position_at: optional callback giving tag ``serial``'s position
                at a time — lets tags move *during* the inventory (the
                whole point of trajectory tracing). Defaults to each tag's
                static ``position``. Callbacks that accept a vector of
                times are evaluated batched; scalar-only callbacks are
                detected and looped over transparently.

        Returns:
            Chronological :class:`PhaseReport` records.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")

        bank = self._channel_bank()
        engine = ProtocolEngine(tags)
        epc_hex = {tag.epc.serial: tag.epc.to_hex() for tag in tags}

        # One preallocated positions buffer, refilled (moving tags) or
        # filled once (static tags) instead of re-stacked every round.
        positions = np.zeros((len(tags), 3))
        static = position_at is None
        if static:
            for index, tag in enumerate(tags):
                positions[index] = tag.position
        # Static tags against an unchanged antenna see identical powers
        # every round, so the kernel runs once per antenna, not per round.
        static_powers: dict[int, np.ndarray] = {}
        single_serial = tags[0].epc.serial if len(tags) == 1 else None

        reports: list[PhaseReport] = []
        q_algo = QAlgorithm(q_float=float(self.initial_q))
        clock = start_time
        end_time = start_time + duration
        port = 0

        while clock < end_time:
            antenna_index = port % len(self.antennas)
            antenna = self.antennas[antenna_index]
            dwell_end = min(clock + self.dwell_time, end_time)
            # One pending entry per successful singulation; the expensive
            # phase/RSSI synthesis happens once, after the dwell.
            pending: list[tuple[float, PassiveTag, float, float]] = []
            while clock < dwell_end:
                # Powering: evaluated at the start of the round; tags move
                # slowly relative to a ~10 ms round.
                if static:
                    powers = static_powers.get(antenna_index)
                    if powers is None:
                        powers = np.atleast_1d(
                            bank.tag_incident_power_dbm(
                                positions, antenna_index=antenna_index
                            )
                        )
                        static_powers[antenna_index] = powers
                elif single_serial is not None:
                    position = np.asarray(
                        position_at(single_serial, clock), dtype=float
                    )
                    powers = [
                        bank.incident_power_dbm_one(position, antenna_index)
                    ]
                else:
                    for index, tag in enumerate(tags):
                        positions[index] = position_at(tag.epc.serial, clock)
                    powers = np.atleast_1d(
                        bank.tag_incident_power_dbm(
                            positions, antenna_index=antenna_index
                        )
                    )
                successes, clock = engine.run_round(
                    powers, q_algo.q, rng, clock, q_algo
                )
                for slot in successes:
                    reply_time = slot.time + slot.duration
                    if reply_time > dwell_end:
                        continue  # reply straddles the port switch; dropped
                    # Draw the measurement noise *now* — the reference
                    # implementation consumes the RNG here, between this
                    # round's and the next round's protocol draws.
                    eps_phase = float(self.noise.phase_noise(rng))
                    eps_rssi = float(self.noise.rssi_noise(rng))
                    pending.append((reply_time, slot.tag, eps_phase, eps_rssi))
            if pending:
                reports.extend(
                    self._synthesize_dwell(
                        pending, antenna, antenna_index, bank, epc_hex,
                        position_at,
                    )
                )
            port += 1
        return reports

    def _synthesize_dwell(
        self,
        pending: list[tuple[float, PassiveTag, float, float]],
        antenna: Antenna,
        antenna_index: int,
        bank: ChannelBank,
        epc_hex: dict[int, str],
        position_at: PositionsAt | None,
    ) -> list[PhaseReport]:
        """Batch-synthesize every report of one dwell."""
        times = np.array([entry[0] for entry in pending])
        positions = np.empty((len(pending), 3))
        grouped: dict[int, list[int]] = {}
        for index, (_, tag, _, _) in enumerate(pending):
            grouped.setdefault(tag.epc.serial, []).append(index)
        tag_of = {entry[1].epc.serial: entry[1] for entry in pending}
        for serial, indices in grouped.items():
            positions[indices] = self._positions_of(
                tag_of[serial], times[indices], position_at
            )

        clean_phase, clean_rssi = bank.measure(
            positions, antenna_index=antenna_index
        )
        clean_phase = np.atleast_1d(clean_phase)
        clean_rssi = np.atleast_1d(clean_rssi)
        modulation = np.array([entry[1].modulation_phase for entry in pending])
        eps_phase = np.array([entry[2] for entry in pending])
        eps_rssi = np.array([entry[3] for entry in pending])
        # Same accumulation order as the reference: clean + modulation +
        # LO offset, then the additive noise, then quantise and wrap.
        phases = self.noise.finalize_phase(
            (clean_phase + modulation) + self.lo_offset + eps_phase
        )
        rssis = clean_rssi + eps_rssi
        return [
            PhaseReport(
                time=float(times[index]),
                epc_hex=epc_hex[pending[index][1].epc.serial],
                reader_id=self.reader_id,
                antenna_id=antenna.antenna_id,
                phase=float(phases[index]),
                rssi_dbm=float(rssis[index]),
            )
            for index in range(len(pending))
        ]

    def _positions_of(
        self,
        tag: PassiveTag,
        times: np.ndarray,
        position_at: PositionsAt | None,
    ) -> np.ndarray:
        """Tag positions at ``times`` — batched when the callback allows.

        A vectorized callback (like the scenario runner's, built on
        ``np.interp``) answers a whole time vector in one call and
        produces bit-identical values to per-time scalar calls; anything
        that raises or returns the wrong shape falls back to the scalar
        loop.
        """
        if position_at is None:
            return np.broadcast_to(tag.position, (times.shape[0], 3))
        try:
            block = np.asarray(position_at(tag.epc.serial, times), dtype=float)
            if block.shape == (times.shape[0], 3):
                if times.shape[0] != 3:
                    return block
                # (3, 3) is ambiguous: a coords-first callback returning
                # (3, N) would pass the shape check only on 3-report
                # dwells. Disambiguate with one scalar probe; a callback
                # that cannot answer a scalar gets the batch's benefit
                # of the doubt (the scalar fallback below could not run
                # for it either).
                try:
                    probe = np.asarray(
                        position_at(tag.epc.serial, float(times[0])),
                        dtype=float,
                    )
                except Exception:
                    return block
                if probe.shape == (3,) and np.array_equal(probe, block[0]):
                    return block
        except Exception:
            pass
        return np.stack(
            [
                np.asarray(position_at(tag.epc.serial, float(t)), dtype=float)
                for t in times
            ]
        )
