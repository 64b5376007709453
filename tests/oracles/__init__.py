"""Reference implementations the production engine is checked against.

They are slow, literal transcriptions of the paper's algorithms and of
the Gen2 air protocol, kept as executable specifications for the tests
and the ablation, engine, channel and protocol benchmarks; the shipped
package carries only the vectorized engines.
"""

from tests.oracles.inventory import InventoryRound, inventory_reference
from tests.oracles.positioning import ScipyPositioner
from tests.oracles.tracing import (
    GridTracer,
    TrajectoryTracer,
    lock_lobes,
    reconstruct_reference,
)
from tests.oracles.voting import total_votes_reference

__all__ = [
    "GridTracer",
    "InventoryRound",
    "ScipyPositioner",
    "TrajectoryTracer",
    "inventory_reference",
    "lock_lobes",
    "reconstruct_reference",
    "total_votes_reference",
]
