"""A passive UHF tag (the paper's Alien Squiggle / Omni-ID Exo 800).

A passive tag has no battery: it harvests energy from the reader's carrier
and only replies when the incident power exceeds its wake-up sensitivity.
That threshold is what limits the paper's prototype to ≈ 5 m ("the RFID
cannot harvest enough energy to wake up" beyond that — section 8).

The tag's backscatter modulation also applies a constant phase offset
(its reflection coefficient is not purely real). That offset is common to
every antenna observing the tag, so it cancels in the pair phase
differences the algorithms use — but it is modelled so the cancellation is
demonstrated rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.vectors import as_point
from repro.rfid.epc import Epc96

__all__ = ["PassiveTag"]


@dataclass
class PassiveTag:
    """A passive EPC Gen2 tag.

    Attributes:
        epc: the tag's 96-bit identity.
        position: current 3-D position (metres); move with :meth:`move_to`.
        sensitivity_dbm: minimum incident power needed to power up.
            −12.5 dBm gives a ≈ 6.8 m free-space range with a 36 dBm EIRP
            reader at 922 MHz — reads are solid at the paper's 5 m
            operating limit and impossible well beyond it; modern tags
            reach −18 dBm or better.
        modulation_phase: constant phase offset added by the tag's
            backscatter modulation (radians).
        reply_probability: probability a powered tag decodes the query and
            replies in its chosen slot (captures chip-level losses).
    """

    epc: Epc96
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sensitivity_dbm: float = -12.5
    modulation_phase: float = 0.0
    reply_probability: float = 0.98

    def __post_init__(self) -> None:
        self.position = as_point(self.position)
        if not 0.0 <= self.reply_probability <= 1.0:
            raise ValueError("reply_probability must be in [0, 1]")

    def move_to(self, position) -> None:
        """Teleport the tag (the simulator moves it along a trajectory)."""
        self.position = as_point(position)

    def is_powered(self, incident_power_dbm: float) -> bool:
        """Whether the harvested power suffices to wake the chip."""
        return incident_power_dbm >= self.sensitivity_dbm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        x, y, z = self.position
        return f"PassiveTag({self.epc.to_hex()[:8]}…, pos=({x:.2f},{y:.2f},{z:.2f}))"
