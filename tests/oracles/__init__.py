"""Reference implementations the production engine is checked against.

They are slow or whole-array transcriptions of the paper's algorithms,
of the Gen2 air protocol, of the Δφ timeline rule and of DTW (the scalar
loop, the row-by-row batched sweep and the character recogniser's
earlier adaptive-abandon loop), kept as executable specifications for
the tests and the ablation, engine, channel, protocol and recognition
benchmarks; the shipped package carries only the production engines.
"""

from tests.oracles.dtw import (
    character_scores_reference,
    dtw_distance,
    dtw_distance_many_reference,
)
from tests.oracles.inventory import InventoryRound, inventory_reference
from tests.oracles.positioning import ScipyPositioner
from tests.oracles.tracing import (
    GridTracer,
    TrajectoryTracer,
    lock_lobes,
    reconstruct_reference,
)
from tests.oracles.sampling import (
    build_antenna_streams_reference,
    build_pair_series_reference,
)
from tests.oracles.voting import pair_votes, total_votes_reference

__all__ = [
    "GridTracer",
    "InventoryRound",
    "ScipyPositioner",
    "TrajectoryTracer",
    "build_antenna_streams_reference",
    "build_pair_series_reference",
    "character_scores_reference",
    "dtw_distance",
    "dtw_distance_many_reference",
    "inventory_reference",
    "lock_lobes",
    "pair_votes",
    "reconstruct_reference",
    "total_votes_reference",
]
