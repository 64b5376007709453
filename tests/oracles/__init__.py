"""Reference implementations the production engine is checked against.

They are slow, literal transcriptions of the paper's algorithms, kept
as executable specifications for the tests and the ablation and engine
benchmarks; the shipped package carries only the vectorized engine.
"""

from tests.oracles.tracing import (
    GridTracer,
    TrajectoryTracer,
    lock_lobes,
    reconstruct_reference,
)
from tests.oracles.voting import total_votes_reference

__all__ = [
    "GridTracer",
    "TrajectoryTracer",
    "lock_lobes",
    "reconstruct_reference",
    "total_votes_reference",
]
