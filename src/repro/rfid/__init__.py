"""EPC Gen2 RFID substrate: tags, readers and the phase-report stream.

The paper's prototype "programs the readers to continuously query the RFIDs
… and return the signal phase for every RFID reply" (section 6). This
subpackage simulates that hardware stack end to end:

* :mod:`repro.rfid.crc` — the CRC-5 and CRC-16 used by the air protocol.
* :mod:`repro.rfid.epc` — EPC-96 (SGTIN-96) identity encode/decode.
* :mod:`repro.rfid.tag` — a passive tag with a power-up threshold.
* :mod:`repro.rfid.protocol` — the Gen2 slot outcomes, air-time slot
  durations and the Q-algorithm.
* :mod:`repro.rfid.engine` — the vectorized protocol engine: whole
  rounds classified in one pass, bit-identical to the slot-by-slot
  reference round in ``tests/oracles/inventory.py`` (the executable
  spec).
* :mod:`repro.rfid.reader` — a 4-port reader cycling its antennas and
  emitting :class:`~repro.rfid.reader.PhaseReport` records.
* :mod:`repro.rfid.sampling` — turns asynchronous per-antenna reports into
  the per-pair unwrapped phase-difference series the algorithms consume.
"""

from repro.rfid.crc import crc5, crc16
from repro.rfid.epc import Epc96
from repro.rfid.tag import PassiveTag
from repro.rfid.protocol import QAlgorithm, SlotOutcome
from repro.rfid.engine import ProtocolEngine
from repro.rfid.reader import PhaseReport, Reader
from repro.rfid.sampling import (
    MeasurementLog,
    PairSeries,
    PhaseSnapshot,
    build_pair_series,
    snapshot_at,
)

__all__ = [
    "crc5",
    "crc16",
    "Epc96",
    "PassiveTag",
    "ProtocolEngine",
    "QAlgorithm",
    "SlotOutcome",
    "PhaseReport",
    "Reader",
    "MeasurementLog",
    "PairSeries",
    "PhaseSnapshot",
    "build_pair_series",
    "snapshot_at",
]
