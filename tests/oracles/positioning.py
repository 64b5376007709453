"""Reference positioner: the executable specification of the warm-up.

:class:`ScipyPositioner` is the two-stage positioner as it stood before
the warm-up moved onto cached grid geometry and the engine's LM step:
the coarse grid is rebuilt and voted on every call, and each pick is
polished by its own ``scipy.optimize.least_squares`` solve with
finite-difference Jacobians. :class:`repro.core.positioning.MultiResolutionPositioner`
must return the same candidates, in the same order, within the
engine-vs-scipy tracer bounds.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro.core.engine import PairBank, batched_lock_lobes
from repro.core.positioning import MultiResolutionPositioner, PositionCandidate
from repro.rfid.sampling import PhaseSnapshot

__all__ = ["ScipyPositioner"]


class ScipyPositioner(MultiResolutionPositioner):
    """Per-call grids and one scipy refine per pick (see the module doc)."""

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def coarse_region(self, snapshot: PhaseSnapshot) -> np.ndarray:
        """Stage 1a: fine-grid points surviving the wide-beam filter.

        Returns ``(N, 3)`` world points of the fine grid restricted to the
        coarse candidate region.
        """
        cfg = self.config
        unique_beam, _, _ = self.split_pairs(snapshot)
        if not unique_beam:
            raise ValueError(
                "no unique-beam (tightly spaced) pairs in snapshot; "
                "the coarse filter needs them"
            )
        pairs = [snapshot.pairs[i] for i in unique_beam]
        phis = snapshot.delta_phi[unique_beam]

        coarse_points, us, vs = self.plane.grid(
            cfg.u_range, cfg.v_range, cfg.coarse_step
        )
        votes = PairBank(pairs).total_votes(
            phis, coarse_points, self.wavelength, self.round_trip
        )
        keep = votes >= votes.max() - cfg.coarse_margin

        # Expand each surviving coarse cell into fine-grid points.
        ratio = max(1, int(round(cfg.coarse_step / cfg.fine_step)))
        offsets = (np.arange(ratio) - (ratio - 1) / 2.0) * cfg.fine_step
        uu, vv = np.meshgrid(us, vs)
        survivors = np.stack([uu.ravel()[keep], vv.ravel()[keep]], axis=1)
        du, dv = np.meshgrid(offsets, offsets)
        cell = np.stack([du.ravel(), dv.ravel()], axis=1)
        fine_uv = (survivors[:, np.newaxis, :] + cell[np.newaxis, :, :]).reshape(
            -1, 2
        )
        return self.plane.to_world(fine_uv)

    def candidates(
        self, snapshot: PhaseSnapshot, count: int | None = None
    ) -> list[PositionCandidate]:
        """Run both stages and return candidate positions, best vote first."""
        cfg = self.config
        count = cfg.candidate_count if count is None else count
        unique_beam, other_filter, resolution = self.split_pairs(snapshot)
        if not resolution:
            raise ValueError("no widely spaced pairs in snapshot")

        fine_points = self.coarse_region(snapshot)

        # Stage 1b: refine the region with the remaining filter pairs.
        filter_indices = unique_beam + other_filter
        filter_pairs = [snapshot.pairs[i] for i in filter_indices]
        filter_votes = PairBank(filter_pairs).total_votes(
            snapshot.delta_phi[filter_indices],
            fine_points,
            self.wavelength,
            self.round_trip,
        )
        keep = filter_votes >= filter_votes.max() - cfg.fine_margin
        fine_points = fine_points[keep]
        filter_votes = filter_votes[keep]

        # Stage 2: add the high-resolution pairs' votes.
        res_pairs = [snapshot.pairs[i] for i in resolution]
        votes = filter_votes + PairBank(res_pairs).total_votes(
            snapshot.delta_phi[resolution],
            fine_points,
            self.wavelength,
            self.round_trip,
        )

        order = np.argsort(votes)[::-1]
        picked: list[PositionCandidate] = []
        plane_uv = self.plane.to_plane(fine_points)
        # One bank over every pair, shared by all candidate refinements.
        refine_bank = PairBank(snapshot.pairs) if cfg.refine_candidates else None
        for index in order:
            point = plane_uv[index]
            if any(
                np.linalg.norm(point - chosen.position)
                < cfg.min_candidate_separation
                for chosen in picked
            ):
                continue
            candidate = PositionCandidate(point, float(votes[index]))
            if refine_bank is not None:
                candidate = self._refine(
                    candidate, refine_bank, snapshot.delta_phi
                )
            picked.append(candidate)
            if len(picked) >= count:
                break
        return picked

    # ------------------------------------------------------------------
    # Sub-grid refinement
    # ------------------------------------------------------------------
    def _refine(
        self,
        candidate: PositionCandidate,
        bank: PairBank,
        delta_phis: np.ndarray,
    ) -> PositionCandidate:
        """Polish a grid candidate by lobe-locked least squares.

        The residual vector is evaluated through the engine's
        :class:`PairBank` — one distance-matrix evaluation per solver
        callback instead of a per-pair Python list comprehension.
        """
        scale = self.round_trip / self.wavelength
        shift = np.asarray(delta_phis, dtype=float) / (2.0 * np.pi)
        start_world = self.plane.to_world(candidate.position)
        locks = batched_lock_lobes(
            bank, delta_phis, start_world, self.wavelength, self.round_trip
        )[0]
        targets = shift + locks

        def residuals(uv: np.ndarray) -> np.ndarray:
            world = self.plane.to_world(uv)
            return (
                scale * bank.path_differences(world[np.newaxis, :])[0] - targets
            )

        solution = least_squares(
            residuals,
            candidate.position,
            method="lm",
            xtol=1e-10,
            ftol=1e-10,
        )
        vote = float(-np.sum(np.square(solution.fun)))
        return PositionCandidate(solution.x, vote)
