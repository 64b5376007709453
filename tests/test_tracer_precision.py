"""The tracer's LM stops at the data's precision.

``BatchedTracer``'s default step tolerance is 1/40000 of the path
difference one reader phase quantum resolves (about 1e-9 m at 922 MHz).
These tests pin what that buys and what it must not cost:

* a deterministic count of LM evaluations per tracer step on the fig10
  "clear" reconstruction — a guard on the stopping rule with no timing;
* a Hypothesis property: at the default tolerance, ``trace_all`` stays
  within 1e-7 m of the same tracer run to a 1e-12 m tolerance, and its
  positions and votes are finite, for candidates seeded anywhere on the
  positioner's grid, its edges included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BatchedTracer
from repro.core.positioning import PositionerConfig
from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.sampling import PairSeries


def test_default_tolerance_is_a_fraction_of_a_phase_quantum():
    tracer = BatchedTracer(writing_plane(2.0), DEFAULT_WAVELENGTH)
    quantum_path = DEFAULT_WAVELENGTH / (2.0 * 4096)
    assert tracer.step_tolerance == pytest.approx(quantum_path / 40000, rel=1e-12)
    assert 0.95e-9 < tracer.step_tolerance < 1.05e-9
    explicit = BatchedTracer(writing_plane(2.0), step_tolerance=1e-10)
    assert explicit.step_tolerance == 1e-10


class TestIterationsPerStep:
    """LM evaluations per tracer step on fig10 "clear" (user 0, seed 7,
    2 m LOS, 164 steps). Each step evaluates the residuals once at its
    seed and once per LM iteration. At a 1e-10 m tolerance this read
    10.9 per step; at the default (1/40000 of a phase quantum) it reads
    8.1 (6.6 at 1/20000, 5.8 at 1/1000)."""

    def test_fig10_clear_mean_evaluations_below_nine(self, monkeypatch):
        counts = {"evaluations": 0, "steps": 0}
        depth = [0]  # > 0 inside step / step_many (step_many may call step)
        evaluate = BatchedTracer._residuals_and_jacobian
        solve = BatchedTracer._solve_step

        # The positioner polishes its picks through the same solve but
        # never through step/step_many: only the tracer's calls count.
        def counting_evaluate(self, *args):
            if depth[0]:
                counts["evaluations"] += 1
            return evaluate(self, *args)

        def counting_solve(self, *args):
            if depth[0]:
                counts["steps"] += 1
            return solve(self, *args)

        def entered(method):
            def wrapper(self, *args, **kwargs):
                depth[0] += 1
                try:
                    return method(self, *args, **kwargs)
                finally:
                    depth[0] -= 1

            return wrapper

        monkeypatch.setattr(
            BatchedTracer, "_residuals_and_jacobian", counting_evaluate
        )
        monkeypatch.setattr(BatchedTracer, "_solve_step", counting_solve)
        monkeypatch.setattr(BatchedTracer, "step", entered(BatchedTracer.step))
        monkeypatch.setattr(
            BatchedTracer, "step_many", entered(BatchedTracer.step_many)
        )
        run = simulate_word(
            "clear",
            user=0,
            seed=7,
            config=ScenarioConfig(distance=2.0, los=True),
            run_baseline=False,
        )
        run.rfidraw_result  # reconstructs, under the spies
        assert counts["steps"] == len(run.timeline) == 164
        mean = counts["evaluations"] / counts["steps"]
        assert mean < 9.0, f"{mean:.2f} LM evaluations per tracer step"


# ----------------------------------------------------------------------
# Property: the production tolerance traces what a tight one traces
# ----------------------------------------------------------------------
_DEPLOYMENT = rfidraw_layout(DEFAULT_WAVELENGTH)
_PAIRS = _DEPLOYMENT.pairs()
_GRID = PositionerConfig()
_U_EDGES = _GRID.u_range
_V_EDGES = _GRID.v_range


def _noisy_series(plane, points_uv, noise, seed):
    """Unwrapped pair series of a plane trajectory, each antenna's phase
    corrupted and quantised by ``noise`` as a reader reports it."""
    world = plane.to_world(points_uv)
    times = np.arange(len(points_uv)) / 20.0
    rng = np.random.default_rng(seed)
    phases = {}
    for antenna in _DEPLOYMENT.antennas:
        clean = -2.0 * np.pi * 2.0 * antenna.distance_to(world) / DEFAULT_WAVELENGTH
        phases[antenna.antenna_id] = np.unwrap(noise.corrupt_phase(clean, rng))
    return [
        PairSeries(
            pair,
            times,
            phases[pair.second.antenna_id] - phases[pair.first.antenna_id],
        )
        for pair in _PAIRS
    ]


_edge_seed = st.one_of(
    st.tuples(st.sampled_from(_U_EDGES), st.floats(*_V_EDGES)),
    st.tuples(st.floats(*_U_EDGES), st.sampled_from(_V_EDGES)),
)
_grid_seed = st.tuples(st.floats(*_U_EDGES), st.floats(*_V_EDGES))
_near_seed = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))


@settings(max_examples=60, deadline=None)
@given(
    start=st.tuples(st.floats(0.2, 2.4), st.floats(0.3, 1.9)),
    moves=st.lists(
        st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
        max_size=40,
    ),
    distance=st.floats(2.0, 5.0),
    noisy=st.booleans(),
    noise_seed=st.integers(0, 2**32 - 1),
    near=st.lists(_near_seed, min_size=1, max_size=2),
    far=st.lists(st.one_of(_edge_seed, _grid_seed), min_size=1, max_size=5),
)
def test_default_tolerance_traces_like_a_tight_one(
    start, moves, distance, noisy, noise_seed, near, far
):
    plane = writing_plane(distance)
    stroke = np.asarray(start) + np.cumsum([(0.0, 0.0), *moves], axis=0)
    noise = PhaseNoiseModel() if noisy else PhaseNoiseModel.noiseless()
    series = _noisy_series(plane, stroke, noise, noise_seed)
    seeds = np.array([stroke[0] + offset for offset in near] + list(far))

    production = BatchedTracer(plane, DEFAULT_WAVELENGTH)
    tight = BatchedTracer(plane, DEFAULT_WAVELENGTH, step_tolerance=1e-12)
    found = production.trace_all(series, seeds)
    expected = tight.trace_all(series, seeds)

    for mine, theirs in zip(found, expected):
        assert np.isfinite(mine.positions).all()
        assert np.isfinite(mine.votes).all()
        assert np.abs(mine.positions - theirs.positions).max() <= 1e-7
