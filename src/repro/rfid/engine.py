"""Vectorized Gen2 protocol engine.

The executable specification of a Gen2 round, the reference round in
``tests/oracles/inventory.py``, walks every one of a frame's ``2^Q``
slots in a Python loop, materialising a
:class:`~repro.rfid.protocol.SlotResult` per slot and feeding the
Q-algorithm one outcome at a time. Inventory is *mostly empty slots* —
a reader spends its air time issuing QueryReps into silence — so that
per-slot Python work dominated ``simulate_word`` once the channel
synthesis was vectorized.

:class:`ProtocolEngine` classifies a whole round in one pass:

* **Per-tag draws stay at the reference RNG points.** The reply draw
  (``rng.random()`` for every powered tag) and the slot draw
  (``rng.integers`` for every replying tag) happen tag by tag in list
  order, exactly where the reference round makes them — the two
  implementations consume the RNG identically, so every downstream
  protocol field matches bit for bit for the same seed.
* **Slot classification is one ``np.bincount``.** Counting the drawn
  slots yields the empty/success/collision partition of the whole frame
  without visiting empty slots individually.
* **Slot clocks are one cumulative sum.** ``np.cumsum`` (a strictly
  sequential accumulate) over the per-slot durations, seeded with the
  round's start time, reproduces the reference's running ``clock +=
  duration`` float-for-float.
* **The Q-algorithm update is a count-based run fold.** Successes leave
  ``q_float`` unchanged, so a frame reduces to runs of empty slots
  punctuated by the few occupied ones;
  :meth:`~repro.rfid.protocol.QAlgorithm.record_run` folds each run
  with bounded work and bit-identical results (the clamp saturates
  after at most ``⌈q/step⌉`` applications).
* **Only success slots materialise.** The reader only ever consumes
  successful singulations; empty and colliding slots exist solely as
  durations and Q-algorithm nudges.

Frames small enough that numpy dispatch would cost more than it saves
(the steady state of a well-adapted single-tag inventory is a one-slot
frame) take a plain-Python path that is the reference loop minus the
per-slot object churn. Both paths are cross-checked against the
reference round — same successes, same clocks, same ``q_float``, same
RNG state — in ``tests/test_rfid_protocol.py``.
"""

from __future__ import annotations

import numpy as np

from repro.rfid.protocol import (
    COLLISION_SLOT_S,
    EMPTY_SLOT_S,
    SUCCESS_SLOT_S,
    QAlgorithm,
    SlotOutcome,
    SlotResult,
)
from repro.rfid.tag import PassiveTag

__all__ = ["ProtocolEngine"]

#: Frames with at most this many slots classify via the plain-Python
#: walk: below this size the numpy path's fixed dispatch overhead
#: exceeds the per-slot loop it replaces.
_SMALL_FRAME_SLOTS = 16


class ProtocolEngine:
    """Batched inventory rounds over a fixed tag population.

    Hoists the per-tag protocol constants (wake-up sensitivity, reply
    probability) once so each round's participant selection is a tight
    threshold scan with draws for the powered tags only — per-round
    Python work is O(tags + participants), never O(``2^Q``).

    Args:
        tags: the tag population, in the order the reference
            implementation iterates it (which fixes the RNG draw order).
    """

    def __init__(self, tags: list[PassiveTag]) -> None:
        self.tags: list[PassiveTag] = list(tags)
        self.sensitivities = [
            float(tag.sensitivity_dbm) for tag in self.tags
        ]
        self.reply_probabilities = [
            float(tag.reply_probability) for tag in self.tags
        ]

    def run_round(
        self,
        powers_dbm: np.ndarray,
        q: int,
        rng: np.random.Generator,
        start_time: float,
        q_algorithm: QAlgorithm | None = None,
    ) -> tuple[list[SlotResult], float]:
        """One framed-ALOHA round; returns (success slots, end time).

        Equivalent to the reference round's ``run``
        (``tests/oracles/inventory.py``) over the same tags — same RNG
        consumption, bit-identical success ``SlotResult``\\ s (times
        included), end clock and Q-algorithm state — except that empty
        and collision slots are never materialised.

        Args:
            powers_dbm: ``(len(tags),)`` per-tag incident power from the
                active antenna — an array or plain sequence aligned with
                the constructor's tag order (the array form of the
                reference's serial→power dict).
            q: the frame exponent; the frame has ``2^q`` slots.
            rng: randomness source (reply losses, slot draws).
            start_time: air-time clock at the start of the round.
            q_algorithm: optional adaptive Q state to fold the frame's
                outcomes into.
        """
        if q < 0 or q > 15:
            raise ValueError("Q must be within [0, 15]")
        slot_count = 1 << q

        # Per-tag draws at the exact reference RNG points: one
        # ``random()`` per powered tag (the short-circuit skips the draw
        # for unpowered tags, like the reference round), one
        # ``integers()`` per reply.
        random = rng.random
        integers = rng.integers
        sensitivities = self.sensitivities
        probabilities = self.reply_probabilities
        participant_tags: list[int] = []
        participant_slots: list[int] = []
        for index in range(len(sensitivities)):
            if (
                powers_dbm[index] >= sensitivities[index]
                and random() < probabilities[index]
            ):
                participant_tags.append(index)
                participant_slots.append(int(integers(0, slot_count)))

        if slot_count <= _SMALL_FRAME_SLOTS:
            return self._classify_small(
                participant_tags,
                participant_slots,
                slot_count,
                start_time,
                q_algorithm,
            )
        return self._classify_large(
            participant_tags,
            participant_slots,
            slot_count,
            start_time,
            q_algorithm,
        )

    # ------------------------------------------------------------------
    def _classify_small(
        self,
        participant_tags: list[int],
        participant_slots: list[int],
        slot_count: int,
        start_time: float,
        q_algorithm: QAlgorithm | None,
    ) -> tuple[list[SlotResult], float]:
        """Tiny frames: the reference walk minus the per-slot objects."""
        counts = [0] * slot_count
        owner = [0] * slot_count
        for tag_index, slot in zip(participant_tags, participant_slots):
            counts[slot] += 1
            owner[slot] = tag_index
        results: list[SlotResult] = []
        clock = start_time
        tags = self.tags
        for slot_index in range(slot_count):
            here = counts[slot_index]
            if here == 0:
                outcome, duration = SlotOutcome.EMPTY, EMPTY_SLOT_S
            elif here == 1:
                outcome, duration = SlotOutcome.SUCCESS, SUCCESS_SLOT_S
                results.append(
                    SlotResult(
                        slot_index,
                        outcome,
                        tags[owner[slot_index]],
                        clock,
                        duration,
                    )
                )
            else:
                outcome, duration = SlotOutcome.COLLISION, COLLISION_SLOT_S
            clock += duration
            if q_algorithm is not None:
                q_algorithm.record(outcome)
        return results, clock

    def _classify_large(
        self,
        participant_tags: list[int],
        participant_slots: list[int],
        slot_count: int,
        start_time: float,
        q_algorithm: QAlgorithm | None,
    ) -> tuple[list[SlotResult], float]:
        """Large frames: bincount masks + cumulative clocks + run folds."""
        slots = np.asarray(participant_slots, dtype=np.intp)
        counts = np.bincount(slots, minlength=slot_count)
        occupied = np.flatnonzero(counts)
        occupied_counts = counts[occupied]
        success = occupied[occupied_counts == 1]
        collision = occupied[occupied_counts > 1]

        # Slot start clocks: cumsum is a strictly sequential accumulate,
        # so seeding it with the start time reproduces the reference's
        # running ``clock += duration`` bit for bit. ``clocks[i]`` is the
        # clock *before* slot ``i``; ``clocks[-1]`` is the round's end.
        durations = np.empty(slot_count + 1)
        durations[0] = start_time
        body = durations[1:]
        body[:] = EMPTY_SLOT_S
        body[collision] = COLLISION_SLOT_S
        body[success] = SUCCESS_SLOT_S
        clocks = np.cumsum(durations)

        # Success slots have exactly one participant, so a last-writer
        # scatter of tag indices over drawn slots resolves their owners.
        tags = self.tags
        results: list[SlotResult] = []
        if success.size:
            owner = np.empty(slot_count, dtype=np.intp)
            owner[slots] = np.asarray(participant_tags, dtype=np.intp)
            results = [
                SlotResult(
                    int(slot),
                    SlotOutcome.SUCCESS,
                    tags[owner[slot]],
                    float(clocks[slot]),
                    SUCCESS_SLOT_S,
                )
                for slot in success
            ]

        if q_algorithm is not None:
            # Successes are Q no-ops, so the frame folds as empty runs
            # punctuated by the occupied slots, in slot order.
            previous = -1
            for slot, here in zip(occupied.tolist(), occupied_counts.tolist()):
                gap = slot - previous - 1
                if gap:
                    q_algorithm.record_run(SlotOutcome.EMPTY, gap)
                if here > 1:
                    q_algorithm.record(SlotOutcome.COLLISION)
                previous = slot
            tail = slot_count - previous - 1
            if tail:
                q_algorithm.record_run(SlotOutcome.EMPTY, tail)

        return results, float(clocks[-1])
