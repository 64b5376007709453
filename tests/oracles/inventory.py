"""Reference Gen2 inventory: the executable specification of the protocol
and reader engines.

* :class:`InventoryRound` — one framed-ALOHA round, walking all ``2^Q``
  slots in a Python loop; :class:`repro.rfid.engine.ProtocolEngine`
  must match it bit for bit (same successes, clocks, ``q_float`` and
  RNG state).
* :func:`inventory_reference` — a reader's continuous inventory, one
  round and one report at a time; :meth:`repro.rfid.reader.Reader.inventory`
  must produce the same log for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rfid.protocol import (
    COLLISION_SLOT_S,
    EMPTY_SLOT_S,
    SUCCESS_SLOT_S,
    QAlgorithm,
    SlotOutcome,
    SlotResult,
)
from repro.rfid.reader import PhaseReport, PositionsAt, Reader
from repro.rfid.tag import PassiveTag


@dataclass
class InventoryRound:
    """One framed-ALOHA inventory round over the powered tags.

    Args:
        q: the frame exponent; the frame has ``2^q`` slots.
        rng: randomness source (slot draws, reply losses).
    """

    q: int
    rng: np.random.Generator

    def run(
        self,
        tags: list[PassiveTag],
        incident_power_dbm: dict[int, float],
        start_time: float,
        q_algorithm: QAlgorithm | None = None,
    ) -> tuple[list[SlotResult], float]:
        """Simulate the round; returns (slot results, end time).

        Args:
            tags: candidate tags (with their EPC serial as the key into
                ``incident_power_dbm``).
            incident_power_dbm: per-tag incident power from the currently
                active antenna — decides which tags are awake at all.
            start_time: air-time clock at the start of the round.
            q_algorithm: optional adaptive Q state to update per slot.
        """
        if self.q < 0 or self.q > 15:
            raise ValueError("Q must be within [0, 15]")
        slot_count = 1 << self.q

        # Every powered tag that decodes the Query (one reply draw per
        # powered tag, none for the others) draws a slot.
        participants: list[tuple[PassiveTag, int]] = []
        for tag in tags:
            power = incident_power_dbm.get(tag.epc.serial, -np.inf)
            if (
                tag.is_powered(power)
                and self.rng.random() < tag.reply_probability
            ):
                slot = int(self.rng.integers(0, slot_count))
                participants.append((tag, slot))

        by_slot: dict[int, list[PassiveTag]] = {}
        for tag, slot in participants:
            by_slot.setdefault(slot, []).append(tag)

        results: list[SlotResult] = []
        clock = start_time
        for slot_index in range(slot_count):
            tags_here = by_slot.get(slot_index, [])
            if not tags_here:
                outcome, tag, duration = SlotOutcome.EMPTY, None, EMPTY_SLOT_S
            elif len(tags_here) == 1:
                outcome, tag, duration = (
                    SlotOutcome.SUCCESS,
                    tags_here[0],
                    SUCCESS_SLOT_S,
                )
            else:
                outcome, tag, duration = (
                    SlotOutcome.COLLISION,
                    None,
                    COLLISION_SLOT_S,
                )
            results.append(SlotResult(slot_index, outcome, tag, clock, duration))
            clock += duration
            if q_algorithm is not None:
                q_algorithm.record(outcome)
        return results, clock


def inventory_reference(
    reader: Reader,
    tags: list[PassiveTag],
    duration: float,
    rng: np.random.Generator,
    start_time: float = 0.0,
    position_at: PositionsAt | None = None,
) -> list[PhaseReport]:
    """The per-report reference of :meth:`repro.rfid.reader.Reader.inventory`.

    Runs ``reader``'s continuous inventory one :class:`InventoryRound`
    at a time and synthesizes one report at a time through the
    loop-based :class:`~repro.rf.channel.BackscatterChannel`. It
    consumes the RNG at the same points as the vectorized path, so both
    produce matching logs for the same seed.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")

    def locate(tag: PassiveTag, when: float) -> np.ndarray:
        if position_at is None:
            return tag.position
        return np.asarray(position_at(tag.epc.serial, when), dtype=float)

    reports: list[PhaseReport] = []
    q_algo = QAlgorithm(q_float=float(reader.initial_q))
    clock = start_time
    end_time = start_time + duration
    port = 0

    while clock < end_time:
        antenna = reader.antennas[port % len(reader.antennas)]
        dwell_end = min(clock + reader.dwell_time, end_time)
        while clock < dwell_end:
            # Powering: evaluated at the start of the round; tags move
            # slowly relative to a ~10 ms round.
            incident = {
                tag.epc.serial: float(
                    reader.channel.tag_incident_power_dbm(
                        antenna.position, locate(tag, clock)
                    )
                )
                for tag in tags
            }
            round_ = InventoryRound(q_algo.q, rng)
            slots, clock = round_.run(tags, incident, clock, q_algo)
            for slot in slots:
                if slot.outcome is not SlotOutcome.SUCCESS or slot.tag is None:
                    continue
                reply_time = slot.time + slot.duration
                if reply_time > dwell_end:
                    continue  # reply straddles the port switch; dropped
                position = locate(slot.tag, reply_time)
                clean_phase = float(
                    reader.channel.phase_at(antenna.position, position)
                )
                phase = reader.noise.corrupt_phase(
                    clean_phase + slot.tag.modulation_phase + reader.lo_offset,
                    rng,
                )
                rssi = float(
                    reader.noise.corrupt_rssi(
                        reader.channel.rssi_dbm(antenna.position, position), rng
                    )
                )
                reports.append(
                    PhaseReport(
                        time=reply_time,
                        epc_hex=slot.tag.epc.to_hex(),
                        reader_id=reader.reader_id,
                        antenna_id=antenna.antenna_id,
                        phase=float(phase),
                        rssi_dbm=rssi,
                    )
                )
        port += 1
    return reports
