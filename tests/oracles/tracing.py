"""Reference tracers: the executable specifications of the engine's tracer.

* :func:`lock_lobes` — the per-pair lobe lock that
  :func:`repro.core.engine.batched_lock_lobes` computes for many
  candidates at once.
* :class:`TrajectoryTracer` — one ``scipy.optimize.least_squares`` solve
  per time step; :class:`repro.core.engine.BatchedTracer` must match it
  to sub-0.1 mm.
* :class:`GridTracer` — the paper's literal "evaluate votes in the
  vicinity" local grid search, the slowest and most literal cross-check.
* :func:`reconstruct_reference` — the paper's section 5.2 pipeline on a
  reference tracer: positioner candidates, one trace per candidate, then
  the arg-max of the total vote.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro.core.engine import PairBank, check_series
from repro.core.pipeline import ReconstructionResult
from repro.core.tracing import TraceResult, TracerConfig
from repro.geometry.antennas import AntennaPair
from repro.geometry.plane import WritingPlane
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rfid.sampling import PairSeries, snapshot_at

_TWO_PI = 2.0 * np.pi


def lock_lobes(
    series: list[PairSeries],
    start_world: np.ndarray,
    wavelength: float,
    round_trip: float = 2.0,
    index: int = 0,
) -> dict[tuple[int, int], int]:
    """Choose, per pair, the grating lobe closest to ``start_world``.

    ``k = round(rt·Δd(P₀)/λ − Δφ₀/2π)`` — the integer that makes the
    locked residual smallest at the initial position (paper: "identifies
    the grating lobe of each antenna pair that is closest to this
    position").
    """
    locks: dict[tuple[int, int], int] = {}
    for entry in series:
        raw = (
            round_trip * entry.pair.path_difference(start_world) / wavelength
            - entry.delta_phi[index] / _TWO_PI
        )
        locks[entry.pair.ids] = int(np.round(raw))
    return locks


class TrajectoryTracer:
    """Lobe-locked tracer via per-step ``scipy.optimize.least_squares``.

    The executable specification of the per-step solve: the vectorized
    :class:`repro.core.engine.BatchedTracer` optimises the same
    objective without per-step scipy calls and must match this tracer
    to sub-0.1 mm.
    """

    def __init__(
        self,
        plane: WritingPlane,
        wavelength: float = DEFAULT_WAVELENGTH,
        round_trip: float = 2.0,
        config: TracerConfig | None = None,
    ) -> None:
        self.plane = plane
        self.wavelength = wavelength
        self.round_trip = round_trip
        self.config = config or TracerConfig()

    def trace(
        self, series: list[PairSeries], start_position: np.ndarray
    ) -> TraceResult:
        """Reconstruct the trajectory starting from ``start_position``.

        Args:
            series: per-pair unwrapped Δφ series on a shared timeline.
            start_position: candidate initial position (plane coords).

        Returns:
            A :class:`TraceResult`; ``positions[0]`` is the solver-refined
            start, not necessarily ``start_position`` exactly.
        """
        check_series(series)
        start_position = np.asarray(start_position, dtype=float)
        steps = len(series[0])

        start_world = self.plane.to_world(start_position)
        locks = lock_lobes(
            series, start_world, self.wavelength, self.round_trip, index=0
        )
        lock_values = np.array(
            [locks[entry.pair.ids] for entry in series], dtype=float
        )
        pairs = [entry.pair for entry in series]
        delta = np.stack([entry.delta_phi for entry in series])  # (P, T)
        targets = delta / _TWO_PI + lock_values[:, np.newaxis]

        positions = np.empty((steps, 2))
        votes = np.empty(steps)
        current = start_position
        for step in range(steps):
            current, vote = self._solve_step(pairs, targets[:, step], current)
            positions[step] = current
            votes[step] = vote

        # Locked residuals along the solved path, for the coherence vote.
        world = self.plane.to_world(positions)
        scale = self.round_trip / self.wavelength
        path_diffs = PairBank(pairs).path_differences(world)  # (T, P)
        residuals = scale * path_diffs.T - targets
        return TraceResult(
            positions, votes, locks, start_position.copy(), residuals
        )

    def trace_all(
        self, series: list[PairSeries], start_positions: np.ndarray
    ) -> list[TraceResult]:
        """Trace each candidate in turn (``BatchedTracer.trace_all``'s
        signature, by looping)."""
        starts = np.atleast_2d(np.asarray(start_positions, dtype=float))
        return [self.trace(series, start) for start in starts]

    # ------------------------------------------------------------------
    def _solve_step(
        self,
        pairs: list[AntennaPair],
        targets: np.ndarray,
        seed: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """One time step: find P minimising Σ (rt·Δd(P)/λ − target)²."""
        cfg = self.config
        scale = self.round_trip / self.wavelength
        firsts = np.stack([pair.first.position for pair in pairs])
        seconds = np.stack([pair.second.position for pair in pairs])
        plane = self.plane

        def residuals(uv: np.ndarray) -> np.ndarray:
            world = plane.to_world(uv)
            d_first = np.linalg.norm(world - firsts, axis=1)
            d_second = np.linalg.norm(world - seconds, axis=1)
            return scale * (d_first - d_second) - targets

        def jacobian(uv: np.ndarray) -> np.ndarray:
            world = plane.to_world(uv)
            to_first = world - firsts
            to_second = world - seconds
            d_first = np.linalg.norm(to_first, axis=1, keepdims=True)
            d_second = np.linalg.norm(to_second, axis=1, keepdims=True)
            grad_world = to_first / d_first - to_second / d_second
            axes = np.stack([plane.u_axis, plane.v_axis], axis=1)
            return scale * grad_world @ axes

        bounds = (seed - cfg.max_step, seed + cfg.max_step)
        solution = least_squares(
            residuals,
            seed,
            jac=jacobian,
            bounds=bounds,
            loss=cfg.loss,
            f_scale=cfg.loss_scale,
            xtol=1e-9,
            ftol=1e-9,
            gtol=1e-9,
        )
        # Vote is the plain Eq. 7 sum regardless of the solver's loss.
        vote = float(-np.sum(np.square(residuals(solution.x))))
        return solution.x, vote


class GridTracer:
    """Paper-literal tracer: exhaustive vote search in a local vicinity.

    Slower than :class:`TrajectoryTracer` but a direct transcription of
    section 5.2's "evaluates the votes for all points within the vicinity
    of the current position". Used to validate the least-squares tracer.
    """

    def __init__(
        self,
        plane: WritingPlane,
        wavelength: float = DEFAULT_WAVELENGTH,
        round_trip: float = 2.0,
        radius: float = 0.06,
        step: float = 0.005,
    ) -> None:
        if radius <= 0 or step <= 0 or step > radius:
            raise ValueError("need 0 < step ≤ radius")
        self.plane = plane
        self.wavelength = wavelength
        self.round_trip = round_trip
        self.radius = radius
        self.step = step

    def trace(
        self, series: list[PairSeries], start_position: np.ndarray
    ) -> TraceResult:
        check_series(series)
        start_position = np.asarray(start_position, dtype=float)
        steps = len(series[0])
        start_world = self.plane.to_world(start_position)
        locks = lock_lobes(
            series, start_world, self.wavelength, self.round_trip, index=0
        )
        bank = PairBank.from_series(series)  # built once, reused every step
        delta = np.stack([entry.delta_phi for entry in series])

        offsets = np.arange(-self.radius, self.radius + self.step / 2, self.step)
        du, dv = np.meshgrid(offsets, offsets)
        cell = np.stack([du.ravel(), dv.ravel()], axis=1)

        positions = np.empty((steps, 2))
        votes = np.empty(steps)
        current = start_position
        for step_index in range(steps):
            neighbourhood = current + cell
            world = self.plane.to_world(neighbourhood)
            vote_values = bank.total_votes(
                delta[:, step_index],
                world,
                self.wavelength,
                self.round_trip,
                locks=locks,
            )
            best = int(np.argmax(vote_values))
            current = neighbourhood[best]
            positions[step_index] = current
            votes[step_index] = float(vote_values[best])
        return TraceResult(positions, votes, locks, start_position.copy())

    # Uniform tracer interface (see TrajectoryTracer.trace_all).
    trace_all = TrajectoryTracer.trace_all


def reconstruct_reference(
    system, tracer, series: list[PairSeries], candidate_count: int | None = None
) -> ReconstructionResult:
    """Section 5.2 end to end on ``tracer``, with ``system``'s positioner.

    Candidate starts from the first snapshot, one reference trace per
    candidate, and the trajectory with the highest total vote wins.
    """
    snapshot = snapshot_at(series, index=0)
    candidates = system.positioner.candidates(snapshot, candidate_count)
    if not candidates:
        raise ValueError("the positioner produced no candidates")
    starts = np.stack([candidate.position for candidate in candidates])
    traces = tracer.trace_all(series, starts)
    chosen = int(np.argmax([trace.total_vote for trace in traces]))
    return ReconstructionResult(
        times=series[0].times.copy(),
        chosen_index=chosen,
        candidates=candidates,
        traces=traces,
    )
