"""EPC Gen2 inventory: slotted ALOHA with the Q-algorithm.

A Gen2 reader singulates tags with framed slotted ALOHA: a ``Query``
command announces a frame of ``2^Q`` slots; each tag draws a random slot;
slots with exactly one reply are successful singulations (the reader acks
the tag's RN16, the tag sends its PC + EPC + CRC, and the reader measures
RSSI and *phase* on that reply). Colliding and empty slots waste air time.
The Q-algorithm adapts ``Q`` to the tag population by nudging a floating
estimate up on collisions and down on empty slots.

The timing model uses representative Gen2 link timings so the simulated
read rate (a few hundred reads/s, shared across the active antenna) matches
a ThingMagic M6e class reader.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.rfid.tag import PassiveTag

__all__ = ["SlotOutcome", "SlotResult", "QAlgorithm"]


class SlotOutcome(enum.Enum):
    """What happened in one ALOHA slot."""

    EMPTY = "empty"
    SUCCESS = "success"
    COLLISION = "collision"


#: Representative slot durations (seconds) for common Gen2 link parameters
#: (Miller-4, ~250 kbps backscatter): an empty slot is just a QueryRep and a
#: timeout; a successful slot carries RN16 + ACK + PC/EPC/CRC16.
EMPTY_SLOT_S = 0.35e-3
COLLISION_SLOT_S = 1.1e-3
SUCCESS_SLOT_S = 2.4e-3


@dataclass(frozen=True)
class SlotResult:
    """One slot of an inventory round."""

    slot_index: int
    outcome: SlotOutcome
    tag: PassiveTag | None
    time: float
    duration: float


@dataclass
class QAlgorithm:
    """Gen2 Annex D Q-adaptation.

    ``q_float`` rises by ``step`` on collisions, falls by ``step`` on empty
    slots, and is clamped to ``[0, 15]``; the integer ``Q`` used for the
    next round is ``round(q_float)``.
    """

    q_float: float = 4.0
    step: float = 0.2
    minimum: float = 0.0
    maximum: float = 15.0

    @property
    def q(self) -> int:
        return int(round(self.q_float))

    def record(self, outcome: SlotOutcome) -> None:
        if outcome is SlotOutcome.COLLISION:
            self.q_float = min(self.maximum, self.q_float + self.step)
        elif outcome is SlotOutcome.EMPTY:
            self.q_float = max(self.minimum, self.q_float - self.step)
        # Successful slots leave q_float unchanged, per Annex D.

    def record_run(self, outcome: SlotOutcome, count: int) -> None:
        """Fold ``count`` consecutive identical outcomes into the state.

        Bit-identical to calling :meth:`record` in a loop — each update
        is a deterministic function of the current ``q_float`` alone —
        but bounded work: once one application leaves ``q_float``
        unchanged (the clamp saturated, or the step is too small to
        register in float arithmetic) every further application is a
        no-op and the remaining count is skipped. A frame of ``2^15``
        empty slots therefore folds in at most ``⌈q/step⌉`` iterations
        instead of 32768. ``tests/test_rfid_protocol.py`` property-tests
        the equivalence over random outcome sequences.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if outcome is SlotOutcome.SUCCESS:
            return
        if outcome is SlotOutcome.COLLISION:
            while count > 0:
                nxt = min(self.maximum, self.q_float + self.step)
                if nxt == self.q_float:
                    return
                self.q_float = nxt
                count -= 1
        else:
            while count > 0:
                nxt = max(self.minimum, self.q_float - self.step)
                if nxt == self.q_float:
                    return
                self.q_float = nxt
                count -= 1
