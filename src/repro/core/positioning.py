"""Two-stage multi-resolution positioning (paper section 5.1).

Stage 1 — the coarse spatial filter. The tightly spaced pairs (one unique
wide beam each) vote on a coarse grid over the writing plane; cells within
a margin of the best total vote form the *candidate region* (paper
Fig. 6(b)). The remaining same-reader pairs of the filter reader (larger
separations, e.g. ``<5,7>``) then refine that region on a finer grid
(Fig. 6(c)).

Stage 2 — resolution. The widely spaced pairs add their votes on the fine
grid *within the candidate region only*, and the surviving local maxima are
the candidate positions (Fig. 6(d)). Each is polished by a lobe-locked
least-squares step so candidates are not quantised to the grid.

A warm-up does only the work that depends on the phases. The coarse grid
and the fine lattice (every coarse cell expanded into its fine sub-grid)
depend only on the plane, the antennas and the :class:`PositionerConfig`,
so their plane points and antenna distances are computed once and shared
process-wide (:func:`_grid_geometry`); each stage then gathers the rows of
the surviving cells and turns distances into votes with
:meth:`~repro.core.engine.PairBank.votes_from_distances`, the vote kernel
behind :meth:`~repro.core.engine.PairBank.total_votes`. The polish runs on
the engine: every pick of a round is refined in one
:class:`~repro.core.engine.BatchedTracer` Levenberg–Marquardt block (plain
least squares). The scipy positioner it replaced is the executable
specification in ``tests/oracles/positioning.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.engine import BatchedTracer, PairBank, batched_lock_lobes
from repro.core.tracing import TracerConfig
from repro.geometry.antennas import Deployment
from repro.geometry.layouts import TIGHT_READER, WIDE_READER
from repro.geometry.plane import WritingPlane
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rfid.sampling import PhaseSnapshot

__all__ = ["PositionCandidate", "PositionerConfig", "MultiResolutionPositioner"]


@dataclass(frozen=True)
class PositionCandidate:
    """A candidate tag position in plane coordinates, with its total vote."""

    position: np.ndarray
    vote: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=float)
        )
        if self.position.shape != (2,):
            raise ValueError("candidate positions are 2-D plane coordinates")


@dataclass(frozen=True)
class PositionerConfig:
    """Tunables of the two-stage voting algorithm.

    Margins are in total-vote units (cycles²): a cell survives a stage if
    its total vote is within the margin of that stage's best vote.
    """

    u_range: tuple[float, float] = (-0.7, 3.3)
    v_range: tuple[float, float] = (-0.3, 2.9)
    coarse_step: float = 0.04
    fine_step: float = 0.01
    coarse_margin: float = 0.04
    fine_margin: float = 0.09
    candidate_count: int = 4
    min_candidate_separation: float = 0.15
    refine_candidates: bool = True

    def __post_init__(self) -> None:
        if self.coarse_step <= 0 or self.fine_step <= 0:
            raise ValueError("grid steps must be positive")
        if self.fine_step > self.coarse_step:
            raise ValueError("the fine grid should be finer than the coarse grid")
        if self.candidate_count < 1:
            raise ValueError("need at least one candidate")


class _GridGeometry(NamedTuple):
    """The phase-independent half of a warm-up, for one geometry.

    Attributes:
        coarse_distances: ``(Nc, A)`` distances from every coarse grid
            point (row-major over ``(v, u)``, as
            :meth:`WritingPlane.grid` orders them) to every antenna.
        fine_uv: ``(Nc, R, 2)`` plane coordinates of each coarse cell's
            ``ratio × ratio`` fine sub-grid.
        fine_distances: ``(Nc, R, A)`` their distances to every antenna.
    """

    coarse_distances: np.ndarray
    fine_uv: np.ndarray
    fine_distances: np.ndarray


def _build_geometry(
    plane: WritingPlane, config: PositionerConfig, bank: PairBank
) -> _GridGeometry:
    coarse_points, us, vs = plane.grid(
        config.u_range, config.v_range, config.coarse_step
    )
    # Expand every coarse cell into its fine sub-grid.
    ratio = max(1, int(round(config.coarse_step / config.fine_step)))
    offsets = (np.arange(ratio) - (ratio - 1) / 2.0) * config.fine_step
    uu, vv = np.meshgrid(us, vs)
    centres = np.stack([uu.ravel(), vv.ravel()], axis=1)
    du, dv = np.meshgrid(offsets, offsets)
    cell = np.stack([du.ravel(), dv.ravel()], axis=1)
    fine_uv = centres[:, np.newaxis, :] + cell[np.newaxis, :, :]
    fine_distances = bank.distances(plane.to_world(fine_uv.reshape(-1, 2)))
    geometry = _GridGeometry(
        bank.distances(coarse_points),
        fine_uv,
        fine_distances.reshape(*fine_uv.shape[:2], -1),
    )
    for array in geometry:  # shared process-wide: read-only
        array.setflags(write=False)
    return geometry


#: Geometries kept process-wide, most recently used last. Callers that
#: build a fresh :class:`~repro.core.pipeline.RFIDrawSystem` per word on
#: the same plane share one entry.
_GEOMETRY_CACHE_SIZE = 4
_geometry_cache: dict[tuple, _GridGeometry] = {}


def _grid_geometry(
    plane: WritingPlane, config: PositionerConfig, bank: PairBank
) -> _GridGeometry:
    """The cached grid geometry of ``plane``, the grid tunables of
    ``config`` and the antennas of ``bank`` (in the bank's order)."""
    key = (
        plane.origin.tobytes(),
        plane.u_axis.tobytes(),
        plane.v_axis.tobytes(),
        config.u_range,
        config.v_range,
        config.coarse_step,
        config.fine_step,
        bank.positions.tobytes(),
    )
    geometry = _geometry_cache.pop(key, None)
    if geometry is None:
        geometry = _build_geometry(plane, config, bank)
        while len(_geometry_cache) >= _GEOMETRY_CACHE_SIZE:
            _geometry_cache.pop(next(iter(_geometry_cache)), None)
    _geometry_cache[key] = geometry
    return geometry


class MultiResolutionPositioner:
    """The paper's two-stage voting positioner.

    Args:
        deployment: the 8-antenna RF-IDraw deployment.
        plane: the writing plane positions are reported in.
        wavelength: carrier wavelength.
        round_trip: 2 for RFID backscatter.
        config: grid/threshold tunables.
        filter_reader: reader whose pairs form the coarse filter
            (default: the tightly spaced reader 2).
        resolution_reader: reader whose pairs provide resolution
            (default: the widely spaced reader 1).
    """

    def __init__(
        self,
        deployment: Deployment,
        plane: WritingPlane,
        wavelength: float = DEFAULT_WAVELENGTH,
        round_trip: float = 2.0,
        config: PositionerConfig | None = None,
        filter_reader: int = TIGHT_READER,
        resolution_reader: int = WIDE_READER,
    ) -> None:
        self.deployment = deployment
        self.plane = plane
        self.wavelength = wavelength
        self.round_trip = round_trip
        self.config = config or PositionerConfig()
        self.filter_reader = filter_reader
        self.resolution_reader = resolution_reader
        # The engine's LM step polishes the picks: plain least squares, no
        # step box and MINPACK's evaluation budget, like the unbounded
        # polish it replaced (a pick at the grid's edge may converge
        # outside it; one in the flat valley of a collinear constellation
        # needs more than a tracer step's 40 iterations).
        self._tracer = BatchedTracer(
            plane,
            wavelength,
            round_trip,
            TracerConfig(loss="linear", max_step=np.inf),
            max_iterations=200,
        )

    # ------------------------------------------------------------------
    # Pair classification
    # ------------------------------------------------------------------
    def split_pairs(
        self, snapshot: PhaseSnapshot
    ) -> tuple[list[int], list[int], list[int]]:
        """Indices of (unique-beam filter, other filter, resolution) pairs.

        A pair has a unique beam when ``round_trip · D ≤ λ/2 · (1 + ε)``.
        """
        unique_beam: list[int] = []
        other_filter: list[int] = []
        resolution: list[int] = []
        threshold = self.wavelength / 2.0 * 1.05 / self.round_trip
        for index, pair in enumerate(snapshot.pairs):
            if pair.reader_id == self.filter_reader:
                if pair.separation <= threshold:
                    unique_beam.append(index)
                else:
                    other_filter.append(index)
            elif pair.reader_id == self.resolution_reader:
                resolution.append(index)
        return unique_beam, other_filter, resolution

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _grid_votes(
        self, snapshot: PhaseSnapshot, bank: PairBank
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stages 1 and 2 on the cached lattice.

        ``bank`` is the :class:`PairBank` over all of ``snapshot.pairs``.
        Returns the ``(N, 2)`` plane points of the fine grid that survive
        both filter stages and their ``(N,)`` total votes.
        """
        cfg = self.config
        unique_beam, other_filter, resolution = self.split_pairs(snapshot)
        if not resolution:
            raise ValueError("no widely spaced pairs in snapshot")
        if not unique_beam:
            raise ValueError(
                "no unique-beam (tightly spaced) pairs in snapshot; "
                "the coarse filter needs them"
            )
        geometry = _grid_geometry(self.plane, cfg, bank)

        def votes(indices: list[int], distances: np.ndarray) -> np.ndarray:
            return bank.subset(indices).votes_from_distances(
                snapshot.delta_phi[indices],
                distances,
                self.wavelength,
                self.round_trip,
            )

        # Stage 1a: the wide beams pick the coarse cells worth expanding.
        coarse = votes(unique_beam, geometry.coarse_distances)
        cells = np.flatnonzero(coarse >= coarse.max() - cfg.coarse_margin)
        distances = geometry.fine_distances[cells].reshape(-1, len(bank.antennas))

        # Stage 1b: refine the region with the remaining filter pairs.
        filter_votes = votes(unique_beam + other_filter, distances)
        keep = np.flatnonzero(filter_votes >= filter_votes.max() - cfg.fine_margin)

        # Stage 2: add the high-resolution pairs' votes.
        total = filter_votes[keep] + votes(resolution, distances[keep])
        return geometry.fine_uv[cells].reshape(-1, 2)[keep], total

    def candidates(
        self, snapshot: PhaseSnapshot, count: int | None = None
    ) -> list[PositionCandidate]:
        """Run both stages and return candidate positions, best vote first.

        Grid points are taken in vote order; a point is skipped when it
        lies within ``min_candidate_separation`` of an already-picked
        (refined) candidate. Picks are refined in speculative rounds: the
        next grid points that look far enough apart are refined in one
        engine block, then accepted in vote order while each is still the
        first open point. The solve is row-separable, so the result equals
        refining one pick at a time.
        """
        cfg = self.config
        count = cfg.candidate_count if count is None else count
        bank = PairBank(snapshot.pairs)
        grid_uv, votes = self._grid_votes(snapshot, bank)
        order = np.argsort(votes)[::-1]
        grid_uv = grid_uv[order]
        votes = votes[order]
        us = np.ascontiguousarray(grid_uv[:, 0])
        vs = np.ascontiguousarray(grid_uv[:, 1])

        def outside(position: np.ndarray) -> np.ndarray:
            du = us - position[0]
            dv = vs - position[1]
            return np.sqrt(du * du + dv * dv) >= cfg.min_candidate_separation

        # open_[i]: the i-th grid point in vote order is not picked and
        # lies outside the separation radius of every picked candidate.
        open_ = np.ones(order.size, dtype=bool)
        picked: list[PositionCandidate] = []
        while len(picked) < count and open_.any():
            batch: list[int] = []
            guess = open_.copy()
            while len(batch) < count - len(picked) and guess.any():
                batch.append(int(guess.argmax()))
                guess &= outside(grid_uv[batch[-1]])
                guess[batch[-1]] = False
            if cfg.refine_candidates:
                refined, refined_votes = self._refine_many(
                    bank, snapshot.delta_phi, grid_uv[batch]
                )
            else:
                refined, refined_votes = grid_uv[batch], votes[batch]
            for index, position, vote in zip(batch, refined, refined_votes):
                if index != open_.argmax():
                    break  # a guess went wrong: the next round restarts here
                picked.append(PositionCandidate(position, float(vote)))
                open_[index] = False
                open_ &= outside(position)
        return picked

    def locate(self, snapshot: PhaseSnapshot) -> PositionCandidate:
        """Single best position estimate (no trajectory refinement)."""
        found = self.candidates(snapshot, count=1)
        return found[0]

    # ------------------------------------------------------------------
    # Sub-grid refinement
    # ------------------------------------------------------------------
    def _refine_many(
        self, bank: PairBank, delta_phis: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Polish ``(K, 2)`` grid picks by lobe-locked least squares.

        Each pick is locked to the grating lobe of every pair nearest its
        grid point, then all picks are solved in one engine LM block.
        Returns the ``(K, 2)`` refined positions and their ``(K,)`` Eq. 7
        votes.
        """
        locks = batched_lock_lobes(
            bank,
            delta_phis,
            self.plane.to_world(starts),
            self.wavelength,
            self.round_trip,
        )
        shift = np.asarray(delta_phis, dtype=float) / (2.0 * np.pi)
        targets = shift[np.newaxis, :] + locks
        tracer = self._tracer
        return tracer._solve_step(tracer._workspace(bank), targets, starts)
