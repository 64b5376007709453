"""RF-IDraw's core algorithms (paper sections 3–5).

* :mod:`repro.core.engine` — the vectorized compute engine
  (:class:`PairBank` batched votes, :class:`BatchedTracer` batched
  lobe-locked tracing); the hot path everything below routes through.
* :mod:`repro.core.voting` — the antenna-pair vote of Eq. 6/7.
* :mod:`repro.core.positioning` — the two-stage multi-resolution
  positioning algorithm (section 5.1).
* :mod:`repro.core.tracing` — settings and per-candidate results of the
  grating-lobe trajectory tracing algorithm (section 5.2), which the
  engine's :class:`BatchedTracer` runs.
* :mod:`repro.core.pipeline` — :class:`RFIDrawSystem`, the end-to-end
  facade from phase series to a chosen trajectory.
"""

from repro.core.engine import BatchedTracer, PairBank, batched_lock_lobes
from repro.core.voting import VoteMap, pair_votes, total_votes
from repro.core.positioning import (
    MultiResolutionPositioner,
    PositionCandidate,
    PositionerConfig,
)
from repro.core.tracing import TraceResult, TracerConfig
from repro.core.pipeline import (
    ReconstructionResult,
    RFIDrawSystem,
    reconstruct_many,
)

__all__ = [
    "BatchedTracer",
    "PairBank",
    "batched_lock_lobes",
    "VoteMap",
    "pair_votes",
    "total_votes",
    "MultiResolutionPositioner",
    "PositionCandidate",
    "PositionerConfig",
    "TraceResult",
    "TracerConfig",
    "ReconstructionResult",
    "RFIDrawSystem",
    "reconstruct_many",
]
