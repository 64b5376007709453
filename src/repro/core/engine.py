"""Vectorized voting/tracing compute engine.

Everything in this module exists to remove Python-level loops from the
reconstruction hot path. The two pillars:

``PairBank`` — the precomputed pair geometry
    The 8-antenna RF-IDraw deployment yields ~12 same-reader pairs that
    share antennas, so the per-pair formulation of
    :func:`repro.core.voting.total_votes` recomputes every antenna's
    distance field about three times per call. A ``PairBank`` stacks the
    *unique* antenna positions once (an ``(A, 3)`` block) together with
    per-pair ``(first, second)`` index arrays. Any vote evaluation then
    computes a single ``(N, A)`` distance matrix — via the BLAS-friendly
    ``‖p−a‖² = ‖p‖² + ‖a‖² − 2·p·a`` expansion — and derives every
    pair's path difference by column indexing: ``D[:, first] −
    D[:, second]``. One matmul replaces ``2·P`` per-pair norm passes.

``BatchedTracer`` — all candidates at once, one LM kernel
    The per-step lobe-locked objective is a tiny 2-unknown least-squares
    problem with a known analytic Jacobian. The batched tracer advances
    **all** candidate trajectories simultaneously with a closed-form
    damped Gauss–Newton / IRLS loop: residuals and Jacobians for the
    whole ``(C, 2)`` position block are evaluated in one shot, the
    soft-L1 robust loss is applied as IRLS weights, and the
    2×2 normal equations are solved in closed form with per-candidate
    Levenberg damping. The same step (with the plain least-squares loss)
    polishes the positioner's grid picks, so the package carries one
    Levenberg–Marquardt solver and no scipy. It is the one production
    tracer; the scipy and grid-search reference tracers and the scipy
    positioner it was validated against live with the tests
    (``tests/oracles``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.antennas import Antenna, AntennaPair
from repro.geometry.plane import WritingPlane
from repro.geometry.vectors import points_view
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rf.noise import PhaseNoiseModel

__all__ = [
    "PairBank",
    "BatchedTracer",
    "TraceState",
    "batched_lock_lobes",
    "check_series",
]

_TWO_PI = 2.0 * np.pi

#: The LM step tolerance as a fraction of the path difference that one
#: reader phase quantum resolves (see :class:`BatchedTracer`).
_QUANTUM_FRACTION = 2.5e-5


class PairBank:
    """Stacked geometry of a fixed list of antenna pairs.

    Attributes:
        pairs: the pairs, in evaluation order.
        antennas: the unique antennas the pairs reference.
        positions: ``(A, 3)`` stacked positions of :attr:`antennas`.
        first_index, second_index: ``(P,)`` rows of :attr:`positions`
            holding each pair's first/second antenna.
    """

    def __init__(self, pairs: list[AntennaPair]) -> None:
        if not pairs:
            raise ValueError("a PairBank needs at least one pair")
        self.pairs: list[AntennaPair] = list(pairs)
        unique: dict[int, Antenna] = {}
        for pair in self.pairs:
            unique.setdefault(pair.first.antenna_id, pair.first)
            unique.setdefault(pair.second.antenna_id, pair.second)
        self.antennas: list[Antenna] = list(unique.values())
        row = {antenna_id: i for i, antenna_id in enumerate(unique)}
        self.positions = np.stack([a.position for a in self.antennas])
        self.first_index = np.array(
            [row[pair.first.antenna_id] for pair in self.pairs]
        )
        self.second_index = np.array(
            [row[pair.second.antenna_id] for pair in self.pairs]
        )
        # ‖a‖² per antenna and −2·positionsᵀ, for the BLAS distance
        # expansion ``‖p−a‖² = ‖p‖² + ‖a‖² − 2 p·a`` with no scaling pass.
        self._norms_sq = np.einsum("ij,ij->i", self.positions, self.positions)
        self._neg2_positions_t = np.ascontiguousarray(-2.0 * self.positions.T)
        # (A, P) ±1 gather matrix: distances @ matrix = path differences.
        # A matmul with exact ±1/0 entries reproduces the subtraction
        # bit-for-bit (multiplying by 0/±1 and adding zeros is exact)
        # while letting BLAS do the gather in one pass.
        signs = np.zeros((len(self.antennas), len(self.pairs)))
        columns = np.arange(len(self.pairs))
        signs[self.first_index, columns] = 1.0
        signs[self.second_index, columns] = -1.0
        self._pair_matrix = signs

    @classmethod
    def from_series(cls, series) -> "PairBank":
        """Bank over the pairs of a ``list[PairSeries]`` (same order)."""
        return cls([entry.pair for entry in series])

    def subset(self, indices: list[int]) -> "PairBank":
        """A bank over ``pairs[i] for i in indices`` on this bank's antenna
        table, so it reads the same :meth:`distances` columns."""
        if not indices:
            raise ValueError("a PairBank needs at least one pair")
        bank = copy.copy(self)
        bank.pairs = [self.pairs[i] for i in indices]
        bank.first_index = self.first_index[indices]
        bank.second_index = self.second_index[indices]
        bank._pair_matrix = self._pair_matrix[:, indices]
        return bank

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def ids(self) -> list[tuple[int, int]]:
        return [pair.ids for pair in self.pairs]

    def geometry_key(self) -> tuple:
        """Hashable key equal iff two banks share stacked geometry.

        Two banks with equal keys have identical ``positions`` /
        ``first_index`` / ``second_index`` arrays — the geometry part of
        :attr:`TraceState.merge_key`, which :meth:`BatchedTracer.begin`
        builds once per trace.
        """
        return (
            self.positions.shape,
            self.positions.tobytes(),
            self.first_index.tobytes(),
            self.second_index.tobytes(),
        )

    # ------------------------------------------------------------------
    # Geometry kernels
    # ------------------------------------------------------------------
    def distances(self, points: np.ndarray) -> np.ndarray:
        """``(N, A)`` distances from every point to every unique antenna.

        Uses ``‖p−a‖² = ‖p‖² + ‖a‖² − 2 p·a`` so the dominant cost is a
        single ``(N, 3) @ (3, A)`` matmul instead of ``A`` subtract-and-
        norm passes. Points and antennas live within a few metres of the
        origin, so the cancellation error is ≲ 1e-15 m — far below the
        1e-9 equivalence bound the tests enforce.
        """
        pts = points_view(points)
        d2 = pts @ self._neg2_positions_t
        d2 += np.einsum("ij,ij->i", pts, pts)[:, np.newaxis]
        d2 += self._norms_sq[np.newaxis, :]
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2, out=d2)

    def path_differences(self, points: np.ndarray) -> np.ndarray:
        """``(N, P)`` path differences ``d(P, first) − d(P, second)``."""
        return self.distances(points) @ self._pair_matrix

    # ------------------------------------------------------------------
    # Votes
    # ------------------------------------------------------------------
    #: Points per block of :meth:`total_votes`. Sized so the work
    #: buffers (distances, residuals, nearest-integer) stay a few MB —
    #: inside the L2/L3 working set instead of paying ~30 MB of fresh
    #: page faults per grid.
    _CHUNK = 16384

    def total_votes(
        self,
        delta_phis: np.ndarray,
        points: np.ndarray,
        wavelength: float,
        round_trip: float = 2.0,
    ) -> np.ndarray:
        """``(N,)`` summed Eq. 7 votes — the paper's ``V(P)``, batched.

        Two stages per block of points: :meth:`distances`, then
        :meth:`votes_from_distances` (the vote kernel the positioner also
        runs on its cached grid distances).
        """
        pts = points_view(points)
        votes = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], self._CHUNK):
            block = pts[start : start + self._CHUNK]
            votes[start : start + block.shape[0]] = self.votes_from_distances(
                delta_phis, self.distances(block), wavelength, round_trip
            )
        return votes

    def votes_from_distances(
        self,
        delta_phis: np.ndarray,
        distances: np.ndarray,
        wavelength: float,
        round_trip: float = 2.0,
    ) -> np.ndarray:
        """``(N,)`` summed Eq. 7 votes from ``(N, A)`` :meth:`distances`.

        The vote half of :meth:`total_votes`: one matmul with the cycles-
        scaled ±1 pair matrix gives every pair's path difference in
        cycles, then shift by Δφ/2π, wrap to the nearest integer with
        ``rint`` and sum the squares. ``rint`` (ties to even) wraps to
        ``[−0.5, 0.5]`` rather than
        :func:`repro.rf.phase.wrap_to_half_cycle`'s half-open
        ``[−0.5, 0.5)``: the two differ in sign only at an exact
        half-cycle tie, where the squared vote is identical anyway, and
        ``rint`` is several times cheaper than a modulo pass.
        """
        delta_phis = np.asarray(delta_phis, dtype=float)
        if len(self.pairs) != delta_phis.size:
            raise ValueError("need exactly one Δφ per pair")
        raw = distances @ (self._pair_matrix * (round_trip / wavelength))
        raw -= (delta_phis / _TWO_PI)[np.newaxis, :]
        raw -= np.rint(raw)
        votes = np.einsum("np,np->n", raw, raw)
        return np.negative(votes, out=votes)


def batched_lock_lobes(
    bank: PairBank,
    delta_phi0: np.ndarray,
    start_world: np.ndarray,
    wavelength: float,
    round_trip: float = 2.0,
) -> np.ndarray:
    """``(C, P)`` lobe locks for many candidate starts at once.

    Per candidate and pair, the grating lobe closest to the candidate
    start: ``k = round(rt·Δd(P₀)/λ − Δφ₀/2π)`` — the integer that makes
    the locked residual smallest at the initial position.
    """
    start_world = np.atleast_2d(np.asarray(start_world, dtype=float))
    raw = (
        round_trip * bank.path_differences(start_world) / wavelength
        - np.asarray(delta_phi0, dtype=float)[np.newaxis, :] / _TWO_PI
    )
    return np.round(raw)


# ----------------------------------------------------------------------
# Robust (IRLS) weights matching scipy.optimize.least_squares losses
# ----------------------------------------------------------------------
def _robust_cost_and_weights(
    residuals: np.ndarray, loss: str, f_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-candidate robust cost plus gradient and Hessian weights.

    scipy minimises ``Σ f² ρ((r/f)²)`` with ``z = (r/f)²``. The exact
    gradient of that cost is ``2 Jᵀ (ρ'(z)·r)``, and the Gauss–Newton
    Hessian model with the Triggs curvature correction (the one scipy's
    ``scale_for_robust_loss_function`` applies) is ``2 Jᵀ diag(s) J``
    with ``s = ρ'(z) + 2 z ρ''(z)``, clipped to a small positive floor.
    Plain IRLS (``s = ρ'``) only converges linearly once residuals
    saturate the loss; the corrected weights restore the superlinear
    convergence scipy's ``least_squares`` enjoys.

    Returns:
        ``(cost, gradient_weights, hessian_weights)`` — shapes
        ``(C,)``, ``(C, P)``, ``(C, P)``.
    """
    if loss == "linear":
        ones = np.ones_like(residuals)
        return np.einsum("cp,cp->c", residuals, residuals), ones, ones
    # soft_l1, the one robust loss TracerConfig admits.
    z = np.square(residuals / f_scale)
    one_plus_z = 1.0 + z
    root = np.sqrt(one_plus_z)
    rho = 2.0 * (root - 1.0)
    grad_w = 1.0 / root  # ρ' = (1+z)^{-1/2}
    hess_w = grad_w / one_plus_z  # ρ' + 2zρ'' = (1+z)^{-3/2}
    np.maximum(hess_w, 1e-10, out=hess_w)
    return f_scale**2 * rho.sum(axis=1), grad_w, hess_w


@dataclass
class _StepWorkspace:
    """Per-trace constants threaded through the Gauss–Newton steps.

    ``origin``/``u_axis``/``v_axis``/``axes`` carry the writing plane's
    frame: shared ``(3,)``/``(3, 2)`` arrays for a single trace, or —
    in a merged multi-trace step (:meth:`BatchedTracer.step_many`) —
    per-candidate-row ``(C, 3)``/``(C, 3, 2)`` stacks. Broadcasting
    makes the two shapes arithmetically identical row by row, which is
    what lets words written on *different* planes share one solve
    block. ``plane`` stays for the per-trace result building
    (:meth:`BatchedTracer.finish`); it is ``None`` on merged
    workspaces.
    """

    bank: PairBank
    plane: WritingPlane | None
    scale: float
    axes: np.ndarray  # (3, 2) plane axes as columns — or (C, 3, 2)
    origin: np.ndarray = None  # (3,) or (C, 3)
    u_axis: np.ndarray = None
    v_axis: np.ndarray = None

    def __post_init__(self) -> None:
        if self.origin is None:
            self.origin = self.plane.origin
            self.u_axis = self.plane.u_axis
            self.v_axis = self.plane.v_axis


@dataclass
class TraceState:
    """Incremental tracing state between :meth:`BatchedTracer.step` calls.

    Created by :meth:`BatchedTracer.begin` from the candidate starts and
    the Δφ vector of the first timeline instant (which fixes each
    candidate's lobe locks). Every :meth:`BatchedTracer.step` advances
    all candidates by one timeline instant and appends to the histories
    below; :meth:`BatchedTracer.finish` turns them into the same
    :class:`repro.core.tracing.TraceResult` list the batch
    :meth:`BatchedTracer.trace_all` produces — bit-for-bit, because
    ``trace_all`` itself is implemented as begin → step… → finish.

    With pruning enabled (``prune_margin``), candidates whose running
    vote sum falls more than the margin behind the leader are dropped
    from the per-step solve: the per-step ``positions``/``votes``
    entries then shrink to the surviving rows, with
    :attr:`active_history` recording which original candidates each
    step's rows belong to. See :meth:`BatchedTracer.begin` for why the
    winning trajectory is nevertheless always identical to the
    unpruned run.

    Attributes:
        workspace: the per-trace geometry constants.
        locks: ``(C, P)`` per-candidate lobe locks (fixed at begin).
        starts: the ``(C, 2)`` candidate initial positions, as given.
        current: the ``(A, 2)`` latest solved positions of the active
            candidates (``A == C`` until something is pruned).
        positions: per-step ``(A_t, 2)`` solved positions, in step order.
        votes: per-step ``(A_t,)`` Eq. 7 votes.
        deltas: per-step ``(P,)`` Δφ vectors, for resuming a pruned
            candidate (see :meth:`BatchedTracer.finish`).
        prune_margin: drop a candidate once its running vote sum trails
            the leader's by more than this (``None`` disables pruning).
        prune_burn_in: number of steps before pruning may begin.
        active: ``(A,)`` sorted original indices of the candidates still
            in the per-step solve.
        running: ``(C,)`` running vote sums; a pruned candidate's entry
            freezes at its drop-time value (an upper bound on its final
            total, since per-step votes are ≤ 0).
        active_history: per step, the ``active`` array that step's rows
            correspond to (shared references; changes only at prunes).
        pruned_at: ``{original index: steps participated}`` for every
            dropped candidate.
        result_indices: set by :meth:`BatchedTracer.finish` — the
            original candidate index of each returned trace, ascending.
        merge_key: set by :meth:`BatchedTracer.begin` — states with equal
            keys may share one :meth:`BatchedTracer.step_many` solve
            block: same tracer type and solve settings, same
            ``round_trip/wavelength`` scale, same stacked pair geometry
            (planes may differ).
    """

    workspace: _StepWorkspace
    locks: np.ndarray
    starts: np.ndarray
    current: np.ndarray
    positions: list = field(default_factory=list)
    votes: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    prune_margin: float | None = None
    prune_burn_in: int = 8
    active: np.ndarray = None
    running: np.ndarray = None
    active_history: list = field(default_factory=list)
    pruned_at: dict = field(default_factory=dict)
    result_indices: list | None = None
    #: Rows of :attr:`locks` for the active candidates — the full array
    #: until a prune shrinks it, so the per-step target build never pays
    #: a per-step gather.
    active_locks: np.ndarray = None
    merge_key: tuple = ()

    def __post_init__(self) -> None:
        if self.active is None:
            self.active = np.arange(self.starts.shape[0])
        if self.running is None:
            self.running = np.zeros(self.starts.shape[0])
        if self.active_locks is None:
            self.active_locks = self.locks

    @property
    def step_count(self) -> int:
        return len(self.positions)

    @property
    def candidate_count(self) -> int:
        return int(self.starts.shape[0])

    @property
    def active_count(self) -> int:
        return int(self.active.size)


def check_series(series) -> None:
    """Reject pair series that cannot be traced: none, empty, or not on
    one shared timeline (the precondition of :meth:`BatchedTracer.trace_all`
    and of a session's series mode, which the batch facade
    :func:`repro.core.pipeline.reconstruct_many` uses)."""
    if not series:
        raise ValueError("no pair series given")
    length = len(series[0])
    if length == 0:
        raise ValueError("pair series are empty")
    if not all(len(entry) == length for entry in series):
        raise ValueError("pair series do not share a timeline")


class BatchedTracer:
    """Lobe-locked tracer advancing all candidates simultaneously.

    :meth:`trace` follows one candidate; :meth:`trace_all` traces a
    whole ``(C, 2)`` block of candidate initial positions in one pass.
    Each time step runs a damped Gauss–Newton / IRLS loop on the 2×2
    normal equations — no scipy, no Python-level per-candidate loop.
    """

    #: Levenberg damping schedule (multiplicative decrease/increase).
    _DAMP_DOWN = 0.3
    _DAMP_UP = 10.0

    def __init__(
        self,
        plane: WritingPlane,
        wavelength: float = DEFAULT_WAVELENGTH,
        round_trip: float = 2.0,
        config=None,
        max_iterations: int = 40,
        step_tolerance: float | None = None,
    ) -> None:
        """
        Args:
            plane: the writing plane the candidates move on.
            wavelength: carrier wavelength in metres.
            round_trip: path multiplier (2 for backscatter).
            config: the :class:`~repro.core.tracing.TracerConfig` loss
                and step box (default ``TracerConfig()``).
            max_iterations: LM iterations allowed per time step.
            step_tolerance: a candidate stops iterating once its
                proposed move is shorter than this, in metres on the
                plane. ``None`` (default) sizes it from the data's
                precision: the reader reports phase in quanta of
                ``PhaseNoiseModel.quantization = 2π/4096``, i.e. 1/4096
                of a cycle of Δφ, and one cycle is ``λ / round_trip`` of
                path difference — so one quantum resolves
                ``λ / (round_trip · 4096)`` ≈ 40 µm at 922 MHz. The
                default is 1/40000 of that, ≈ 1.0e-9 m. A pair's path
                difference changes by at most twice the tag's move, so a
                step that short cannot move any residual by more than
                1/20000 of a quantum; iterating further polishes digits
                the measurement does not carry. A looser stop traces
                the winner just as well (a thousandth of a quantum,
                4e-8 m, moves no trajectory by more than 5 nm) but also
                ends the wrong-lobe candidates' slow crawl, which is the
                work incremental pruning exists to skip. The stream
                benchmark holds the pruned steady state to 1.25× cheaper
                than the unpruned one; it measured 1.1–1.2× at 1/1000
                and 1/10000 of a quantum, 1.22–1.37× at 1/20000 and
                1.44–1.49× at 1/40000 (2-core x86 VM).
        """
        from repro.core.tracing import TracerConfig

        self.plane = plane
        self.wavelength = wavelength
        self.round_trip = round_trip
        self.config = config or TracerConfig()
        self.max_iterations = max_iterations
        if step_tolerance is None:
            quantum_cycles = PhaseNoiseModel.quantization / _TWO_PI
            step_tolerance = (
                wavelength * quantum_cycles / round_trip * _QUANTUM_FRACTION
            )
        self.step_tolerance = step_tolerance

    # ------------------------------------------------------------------
    def trace(self, series, start_position: np.ndarray):
        """Trace one candidate start (see :meth:`trace_all`)."""
        start = np.asarray(start_position, dtype=float)
        return self.trace_all(series, start[np.newaxis, :])[0]

    def trace_all(self, series, start_positions: np.ndarray) -> list:
        """Trace every candidate start simultaneously.

        Implemented on top of the incremental :meth:`begin` /
        :meth:`step` / :meth:`finish` API, so a streaming session that
        feeds the same Δφ instants one at a time produces bit-identical
        trajectories and votes.

        Args:
            series: per-pair unwrapped Δφ series on a shared timeline.
            start_positions: ``(C, 2)`` candidate initial plane positions.

        Returns:
            One :class:`repro.core.tracing.TraceResult` per candidate,
            in input order.
        """
        check_series(series)
        steps = len(series[0])
        bank = PairBank.from_series(series)
        delta = np.stack([entry.delta_phi for entry in series])  # (P, T)
        state = self.begin(bank, delta[:, 0], start_positions)
        for step in range(steps):
            self.step(state, delta[:, step])
        return self.finish(state)

    # ------------------------------------------------------------------
    # Incremental API (what the streaming session drives)
    # ------------------------------------------------------------------
    def begin(
        self,
        pairs,
        delta_phi0: np.ndarray,
        start_positions: np.ndarray,
        prune_margin: float | None = None,
        prune_burn_in: int = 8,
    ) -> TraceState:
        """Open an incremental trace: fix lobe locks, seed all candidates.

        Args:
            pairs: a :class:`PairBank` or the ``list[AntennaPair]`` to
                build one from; its pair order fixes the Δφ vector order
                every subsequent :meth:`step` must use.
            delta_phi0: ``(P,)`` unwrapped Δφ at the *first* timeline
                instant — it anchors each candidate's grating-lobe locks
                exactly like the first column of a batch trace.
            start_positions: ``(C, 2)`` candidate initial plane positions.
            prune_margin: enable incremental candidate pruning — after
                ``prune_burn_in`` steps, a candidate whose running vote
                sum trails the current leader's by more than this margin
                is dropped from the per-step solve, shrinking the
                ``(C, 2)`` Gauss–Newton block as tracking proceeds.
                ``None`` (default) keeps every candidate to the end.
            prune_burn_in: steps to ingest before pruning may begin,
                letting the vote race settle past its noisy opening.

        Returns:
            A :class:`TraceState`; note ``begin`` does **not** consume
            the first instant — pass ``delta_phi0`` to :meth:`step` as
            well, exactly as the batch path solves step 0.

        **Why pruning cannot change the winning trajectory** (the
        safe-margin argument :meth:`finish` enforces):

        1. Every per-step vote is ``−Σ_p r_p² ≤ 0`` — the per-step vote
           bound. A candidate's running sum is therefore non-increasing,
           so the sum it holds when dropped is an *upper bound* on any
           total it could have finished with.
        2. The per-candidate solve is row-separable: dropping rows from
           the batched step changes nothing about the surviving rows'
           arithmetic, so survivors trace exactly the trajectories they
           would have traced unpruned.
        3. At :meth:`finish`, let ``W`` be the best surviving total. Any
           dropped candidate whose frozen sum is ``< W`` provably could
           not have beaten the surviving winner (by 1, its final total
           is below ``W``); any dropped candidate whose frozen sum is
           ``≥ W`` is *resumed* from its drop-time position over the
           recorded Δφ tail — reproducing, by 2, precisely its unpruned
           trajectory and true total — before the final arg-max.

        Hence the arg-max winner (and its trajectory and votes) is
        identical to the unpruned batch answer for **every** margin; the
        margin and burn-in only tune how much work is dropped versus
        occasionally resumed.
        """
        bank = pairs if isinstance(pairs, PairBank) else PairBank(list(pairs))
        starts = np.atleast_2d(np.asarray(start_positions, dtype=float))
        if starts.ndim != 2 or starts.shape[1] != 2:
            raise ValueError("start_positions must be (C, 2) plane coordinates")
        delta_phi0 = np.asarray(delta_phi0, dtype=float)
        if delta_phi0.shape != (len(bank),):
            raise ValueError("delta_phi0 must hold one Δφ per pair")
        if prune_margin is not None:
            prune_margin = float(prune_margin)
            if not prune_margin > 0:
                raise ValueError("prune_margin must be positive")
        prune_burn_in = int(prune_burn_in)
        if prune_burn_in < 1:
            raise ValueError("prune_burn_in must be at least 1")
        locks = batched_lock_lobes(
            bank,
            delta_phi0,
            self.plane.to_world(starts),
            self.wavelength,
            self.round_trip,
        )  # (C, P)
        workspace = self._workspace(bank)
        config = self.config
        merge_key = (
            type(self),
            config.loss,
            float(config.loss_scale),
            float(config.max_step),
            int(self.max_iterations),
            float(self.step_tolerance),
            float(workspace.scale),
            *bank.geometry_key(),
        )
        return TraceState(
            workspace=workspace,
            locks=locks,
            starts=starts.copy(),
            current=starts.copy(),
            prune_margin=prune_margin,
            prune_burn_in=prune_burn_in,
            merge_key=merge_key,
        )

    def _workspace(self, bank: PairBank) -> _StepWorkspace:
        """The solve constants of ``bank`` on this tracer's plane."""
        return _StepWorkspace(
            bank=bank,
            plane=self.plane,
            scale=self.round_trip / self.wavelength,
            axes=np.stack([self.plane.u_axis, self.plane.v_axis], axis=1),
        )

    def step(
        self, state: TraceState, delta_phi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance all candidates by one timeline instant.

        Args:
            state: the state from :meth:`begin`.
            delta_phi: ``(P,)`` unwrapped Δφ at this instant, in the
                state's pair order.

        Returns:
            ``(positions, votes)`` — the ``(A, 2)`` solved positions and
            ``(A,)`` Eq. 7 votes of this step over the *active*
            candidates (also appended to the state's histories); the
            rows correspond to ``state.active_history[-1]``.
        """
        delta_phi = np.asarray(delta_phi, dtype=float)
        if delta_phi.shape != (len(state.workspace.bank),):
            raise ValueError("delta_phi must hold one Δφ per pair")
        targets = delta_phi[np.newaxis, :] / _TWO_PI + state.active_locks
        current, vote = self._solve_step(state.workspace, targets, state.current)
        self._record(state, delta_phi, current, vote)
        return current, vote

    def step_many(
        self, items: list[tuple[TraceState, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Advance several independent traces in one batched solve.

        The per-candidate solve is row-separable (see :meth:`begin`), so
        stacking the active candidates of many words into a single
        ``(ΣC, 2)`` Gauss–Newton block changes nothing about any row's
        arithmetic — each state records exactly the positions and votes
        its own :meth:`step` would have produced, bit for bit, while the
        per-step numpy dispatch is paid once instead of once per word.
        This is the kernel under the grouped session stepper
        (:func:`repro.stream.session.step_sessions`).

        Args:
            items: ``(state, delta_phi)`` pairs, one per trace to
                advance at this instant (a word whose timeline already
                ended is simply left out). The states must share a
                :attr:`TraceState.merge_key`; their writing *planes* may
                differ — each candidate row carries its own plane frame
                through the merged solve.

        Returns:
            One ``(positions, votes)`` pair per item, exactly what
            :meth:`step` returns for that state; the state histories are
            updated (and pruned, where enabled) identically.
        """
        prepared = []
        for state, delta_phi in items:
            delta_phi = np.asarray(delta_phi, dtype=float)
            if delta_phi.shape != (len(state.workspace.bank),):
                raise ValueError("delta_phi must hold one Δφ per pair")
            prepared.append((state, delta_phi))
        if not prepared:
            return []
        if len(prepared) == 1:
            state, delta_phi = prepared[0]
            return [self.step(state, delta_phi)]
        key = prepared[0][0].merge_key
        for state, _ in prepared[1:]:
            if state.merge_key != key:
                raise ValueError(
                    "step_many needs states with identical antenna/pair "
                    "geometry, round_trip/wavelength scale and solve "
                    "settings"
                )
        seeds = np.concatenate([state.current for state, _ in prepared])
        targets = np.concatenate(
            [
                delta_phi[np.newaxis, :] / _TWO_PI + state.active_locks
                for state, delta_phi in prepared
            ]
        )
        workspace = self._merged_workspace([state for state, _ in prepared])
        current, vote = self._solve_step(workspace, targets, seeds)
        results: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for state, delta_phi in prepared:
            count = state.active_count
            positions = current[offset : offset + count].copy()
            votes = vote[offset : offset + count].copy()
            offset += count
            self._record(state, delta_phi, positions, votes)
            results.append((positions, votes))
        return results

    @staticmethod
    def _merged_workspace(states: list[TraceState]) -> _StepWorkspace:
        """One workspace spanning the stacked rows of many states.

        When every state traces on the same plane object the first
        workspace serves as-is (broadcast frames); otherwise each
        state's plane frame is repeated over its active rows so the
        merged block evaluates per-row frames — bit-identical to each
        state's own evaluation, since the frame arithmetic is
        elementwise per row.
        """
        first = states[0].workspace
        if all(state.workspace.plane is first.plane for state in states):
            return first
        counts = [state.active_count for state in states]

        def stacked(attribute: str, tail: tuple) -> np.ndarray:
            return np.concatenate(
                [
                    np.broadcast_to(
                        getattr(state.workspace, attribute), (count, *tail)
                    )
                    for state, count in zip(states, counts)
                ]
            )

        return _StepWorkspace(
            bank=first.bank,
            plane=None,
            scale=first.scale,
            axes=stacked("axes", (3, 2)),
            origin=stacked("origin", (3,)),
            u_axis=stacked("u_axis", (3,)),
            v_axis=stacked("v_axis", (3,)),
        )

    def _record(
        self,
        state: TraceState,
        delta_phi: np.ndarray,
        current: np.ndarray,
        vote: np.ndarray,
    ) -> None:
        """Fold one solved instant into a state's histories (and prune)."""
        active = state.active
        state.current = current
        state.positions.append(current)
        state.votes.append(vote)
        state.active_history.append(active)
        state.deltas.append(delta_phi)
        if active.size == state.running.size:
            state.running += vote
        elif active.size == 1:
            state.running[active[0]] += vote[0]
        else:
            state.running[active] += vote
        if (
            state.prune_margin is not None
            and active.size > 1
            and state.step_count >= state.prune_burn_in
        ):
            self._prune(state)

    @staticmethod
    def _prune(state: TraceState) -> None:
        """Drop active candidates trailing the leader by > the margin.

        Safe for any positive margin: see :meth:`begin` — the frozen
        running sum of a dropped candidate upper-bounds its reachable
        total (per-step votes are ≤ 0), and :meth:`finish` resumes any
        dropped candidate that bound does not disqualify.
        """
        running = state.running[state.active]
        keep = running >= running.max() - state.prune_margin
        if keep.all():
            return
        steps = state.step_count
        for index in state.active[~keep]:
            state.pruned_at[int(index)] = steps
        state.active = state.active[keep]
        state.current = state.current[keep]
        state.active_locks = state.active_locks[keep]

    def finish(self, state: TraceState) -> list:
        """Close an incremental trace and build the per-candidate results.

        Each result carries the candidate's per-step positions and votes
        exactly as :meth:`step` recorded them, so a stepwise trace and
        the batch :meth:`trace_all` agree bit for bit.

        With pruning, results are built for the *survivors* — plus any
        dropped candidate whose frozen running sum does not already
        prove it a loser, which is resumed over the recorded Δφ tail
        (see :meth:`begin` for the safety argument). The original index
        of each returned trace is recorded, ascending, in
        ``state.result_indices``; the arg-max over the returned totals
        always names the same winner as the unpruned batch run.
        """
        if not state.positions:
            raise ValueError("cannot finish a trace with no ingested steps")
        if state.pruned_at:
            return self._finish_pruned(state)
        positions = np.stack(state.positions, axis=1)  # (C, T, 2)
        votes = np.stack(state.votes, axis=1)  # (C, T)
        state.result_indices = list(range(state.candidate_count))
        return self._build_results(state, state.result_indices, positions, votes)

    @staticmethod
    def _build_results(
        state: TraceState,
        indices: list,
        positions: np.ndarray,
        votes: np.ndarray,
    ) -> list:
        """One :class:`TraceResult` per row of the ``(R, T, 2)`` positions
        and ``(R, T)`` votes blocks, whose rows belong to the original
        candidates ``indices``: the row's trajectory and votes, the
        candidate's lobe locks and its start."""
        from repro.core.tracing import TraceResult

        pairs = state.workspace.bank.pairs
        return [
            TraceResult(
                positions[row],
                votes[row],
                {
                    pair.ids: int(state.locks[index, p])
                    for p, pair in enumerate(pairs)
                },
                state.starts[index].copy(),
            )
            for row, index in enumerate(indices)
        ]

    def _finish_pruned(self, state: TraceState) -> list:
        """Finish a trace that dropped candidates along the way.

        Survivor histories are gathered from the variable-width per-step
        rows; a dropped candidate is certified a loser when its frozen
        running sum (an upper bound on its final total) is below the
        best surviving total, and *resumed* from its drop-time position
        over the recorded Δφ tail otherwise.
        """
        steps = state.step_count
        survivors = state.active
        winner_total = state.running[survivors].max()

        resumed: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for index, participated in sorted(state.pruned_at.items()):
            if state.running[index] >= winner_total:
                resumed[index] = self._resume(state, index, participated)

        indices = sorted([*survivors.tolist(), *resumed])
        positions = np.empty((len(indices), steps, 2))
        votes = np.empty((len(indices), steps))

        surv_rows = [row for row, i in enumerate(indices) if i not in resumed]
        surv = np.asarray([indices[row] for row in surv_rows])
        rows = None
        last = None
        for step in range(steps):
            active = state.active_history[step]
            if active is not last:
                rows = np.searchsorted(active, surv)
                last = active
            positions[surv_rows, step] = state.positions[step][rows]
            votes[surv_rows, step] = state.votes[step][rows]
        for row, index in enumerate(indices):
            if index in resumed:
                positions[row], votes[row] = resumed[index]

        state.result_indices = indices
        return self._build_results(state, indices, positions, votes)

    def _resume(
        self, state: TraceState, index: int, participated: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-trace a dropped candidate's tail, bit-identical to unpruned.

        The batched step is row-separable, so replaying the candidate's
        ``(1, 2)`` block from its drop-time position over the recorded
        Δφ vectors reproduces exactly the trajectory and votes it would
        have accumulated had it never been dropped.
        """
        steps = state.step_count
        positions = np.empty((steps, 2))
        votes = np.empty(steps)
        for step in range(participated):
            row = int(np.searchsorted(state.active_history[step], index))
            positions[step] = state.positions[step][row]
            votes[step] = state.votes[step][row]
        current = positions[participated - 1][np.newaxis, :].copy()
        locks = state.locks[index][np.newaxis, :]
        for step in range(participated, steps):
            targets = state.deltas[step][np.newaxis, :] / _TWO_PI + locks
            current, vote = self._solve_step(state.workspace, targets, current)
            positions[step] = current[0]
            votes[step] = vote[0]
        return positions, votes

    # ------------------------------------------------------------------
    def _residuals_and_jacobian(
        self, ws: _StepWorkspace, targets: np.ndarray, uv: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual ``(C, P)`` and Jacobian ``(C, P, 2)`` at ``uv``.

        The Jacobian is analytic:
        ``∂r/∂uv = scale · (unit(P−first) − unit(P−second)) · axes``.

        This runs several times per solver iteration per time step, so
        ``plane.to_world`` and ``np.linalg.norm`` are inlined as the
        exact float operations they perform (same ufuncs, same order —
        bit-identical results) minus their wrapper overhead.
        """
        world = (
            ws.origin
            + uv[:, 0:1] * ws.u_axis
            + uv[:, 1:2] * ws.v_axis
        )  # (C, 3)
        to_antenna = world[:, np.newaxis, :] - ws.bank.positions[np.newaxis, :, :]
        dists = np.sqrt(
            np.add.reduce(to_antenna * to_antenna, axis=2)
        )  # (C, A)
        units = to_antenna / dists[:, :, np.newaxis]  # (C, A, 3)
        path_diff = dists[:, ws.bank.first_index] - dists[:, ws.bank.second_index]
        residual = ws.scale * path_diff - targets
        grad_world = (
            units[:, ws.bank.first_index] - units[:, ws.bank.second_index]
        )  # (C, P, 3)
        jacobian = ws.scale * (grad_world @ ws.axes)  # (C, P, 2)
        return residual, jacobian

    def _solve_step(
        self, ws: _StepWorkspace, targets: np.ndarray, seed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One time step for all candidates: damped Gauss–Newton / IRLS.

        Levenberg–Marquardt on the robust objective ``Σ f² ρ((r/f)²)``
        with the 2×2 normal equations solved in closed form, a
        per-candidate damping parameter, and a ``seed ± max_step`` box
        constraint.
        """
        cfg = self.config
        lower = seed - cfg.max_step
        upper = seed + cfg.max_step
        uv = seed.copy()
        candidates = uv.shape[0]

        residual, jacobian = self._residuals_and_jacobian(ws, targets, uv)
        cost, grad_w, hess_w = _robust_cost_and_weights(
            residual, cfg.loss, cfg.loss_scale
        )
        damping = np.full(candidates, 1e-6)
        active = np.ones(candidates, dtype=bool)
        step = np.empty_like(uv)

        for _ in range(self.max_iterations):
            # Normal equations A δ = −g with the Triggs-corrected model:
            # A = Jᵀ diag(s) J (C, 2, 2), g = Jᵀ (ρ'·r).
            weighted_t = (jacobian * hess_w[:, :, np.newaxis]).transpose(
                0, 2, 1
            )  # (C, 2, P)
            normal = weighted_t @ jacobian  # (C, 2, 2)
            gradient = np.einsum(
                "cpi,cp->ci", jacobian, grad_w * residual
            )
            # Marquardt diagonal scaling keeps the damping unit-free.
            d00 = normal[:, 0, 0] * (1.0 + damping)
            d11 = normal[:, 1, 1] * (1.0 + damping)
            off = normal[:, 0, 1]
            det = d00 * d11 - off * off
            bad = np.abs(det) < 1e-300
            if bad.any():
                det = np.where(bad, 1e-300, det)
            step[:, 0] = -(d11 * gradient[:, 0] - off * gradient[:, 1]) / det
            step[:, 1] = -(d00 * gradient[:, 1] - off * gradient[:, 0]) / det

            proposal = np.minimum(np.maximum(uv + step, lower), upper)
            new_residual, new_jacobian = self._residuals_and_jacobian(
                ws, targets, proposal
            )
            new_cost, new_grad_w, new_hess_w = _robust_cost_and_weights(
                new_residual, cfg.loss, cfg.loss_scale
            )
            improved = active & (new_cost <= cost)
            # A tiny proposed step means the normal equations are at a
            # stationary point — converged whether or not the last
            # float-level comparison accepted it.
            tiny = (
                np.sqrt(np.add.reduce(step * step, axis=1))
                < self.step_tolerance
            )
            if improved.all():
                # Every candidate accepted its step — the common case in
                # healthy steady-state tracking. Adopting the proposal
                # arrays wholesale is value-identical to the masked
                # copies below but skips ~10 fancy-indexing passes.
                flat = cost - new_cost <= 1e-12 * np.maximum(cost, 1e-30)
                uv = proposal
                residual = new_residual
                jacobian = new_jacobian
                grad_w = new_grad_w
                hess_w = new_hess_w
                cost = new_cost
                damping *= self._DAMP_DOWN
            else:
                flat = improved & (
                    cost - new_cost <= 1e-12 * np.maximum(cost, 1e-30)
                )
                uv[improved] = proposal[improved]
                residual[improved] = new_residual[improved]
                jacobian[improved] = new_jacobian[improved]
                grad_w[improved] = new_grad_w[improved]
                hess_w[improved] = new_hess_w[improved]
                cost[improved] = new_cost[improved]
                damping[improved] *= self._DAMP_DOWN
                rejected = active & ~improved
                damping[rejected] *= self._DAMP_UP
            active &= ~(tiny | flat)
            # A rejected step with astronomic damping means we're pinned
            # (e.g. on the box boundary) — stop iterating that candidate.
            active &= damping < 1e12
            if not active.any():
                break

        # The reported vote is the plain Eq. 7 sum at the solution,
        # independent of the solver's robust loss (matches scipy path).
        vote = -np.einsum("cp,cp->c", residual, residual)
        return uv, vote
