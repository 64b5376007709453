"""Engine-vs-reference equivalence: the vectorized paths must reproduce
the literal per-pair / per-step implementations they replaced.

* ``PairBank.total_votes`` vs :func:`tests.oracles.total_votes_reference`
  to 1e-9 on random grids, and the tracer's lobe-locked per-step votes
  vs the reference under the trace's locks;
* ``BatchedTracer`` vs the scipy :class:`tests.oracles.TrajectoryTracer` within 1e-4 m
  across three scenarios — an ideal LOS word, a multipath channel, and
  noisy phases — plus a degenerate single-sample series.
"""

import numpy as np
import pytest

from repro.core.engine import BatchedTracer, PairBank, batched_lock_lobes
from repro.core.pipeline import RFIDrawSystem
from repro.core.tracing import TracerConfig
from repro.core.voting import total_votes
from repro.rfid.sampling import PairSeries

from tests.helpers import ideal_pair_series, ideal_snapshot
from tests.oracles import (
    TrajectoryTracer,
    lock_lobes,
    reconstruct_reference,
    total_votes_reference,
)


def word_like_uv(steps=70):
    t = np.linspace(0, 2 * np.pi, steps)
    return np.stack(
        [1.25 + 0.07 * np.cos(3 * t) + 0.025 * t, 1.15 + 0.06 * np.sin(2 * t)],
        axis=1,
    )


@pytest.fixture
def snapshot(deployment, plane, wavelength):
    return ideal_snapshot(deployment, plane, [1.2, 1.3], wavelength)


@pytest.fixture
def random_points(plane, rng):
    return plane.to_world(rng.uniform(-0.8, 3.2, size=(4000, 2)))


class TestPairBankGeometry:
    def test_distances_match_per_antenna(self, snapshot, random_points):
        bank = PairBank(snapshot.pairs)
        distances = bank.distances(random_points)
        for column, antenna in enumerate(bank.antennas):
            expected = antenna.distance_to(random_points)
            assert np.abs(distances[:, column] - expected).max() < 1e-9

    def test_path_differences_match_pairs(self, snapshot, random_points):
        bank = PairBank(snapshot.pairs)
        diffs = bank.path_differences(random_points)
        for column, pair in enumerate(bank.pairs):
            expected = pair.path_difference(random_points)
            assert np.abs(diffs[:, column] - expected).max() < 1e-9

    def test_dedupes_shared_antennas(self, deployment, snapshot):
        bank = PairBank(snapshot.pairs)
        # 12 same-reader pairs share the deployment's 8 antennas.
        assert len(bank.pairs) > len(bank.antennas)
        assert len(bank.antennas) == len(deployment)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            PairBank([])


class TestVoteEquivalence:
    def test_free_votes_match_reference(
        self, snapshot, random_points, wavelength
    ):
        reference = total_votes_reference(
            snapshot.pairs, snapshot.delta_phi, random_points, wavelength
        )
        engine = PairBank(snapshot.pairs).total_votes(
            snapshot.delta_phi, random_points, wavelength
        )
        assert np.abs(reference - engine).max() < 1e-9

    def test_locked_votes_match_reference(self, deployment, plane, wavelength):
        """The package's one lobe-locked vote is the tracer's per-step
        vote: at every solved position it is the literal per-pair Eq. 7
        sum under that trace's locks."""
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        pairs = [entry.pair for entry in series]
        delta = np.stack([entry.delta_phi for entry in series])
        starts = np.stack([uv[0], uv[0] + np.array([0.2, -0.1])])
        for trace in BatchedTracer(plane, wavelength).trace_all(series, starts):
            world = plane.to_world(trace.positions)
            reference = np.array(
                [
                    total_votes_reference(
                        pairs,
                        delta[:, step],
                        world[step],
                        wavelength,
                        locks=trace.locks,
                    )[0]
                    for step in range(len(trace))
                ]
            )
            assert np.abs(reference - trace.votes).max() < 1e-9

    def test_public_total_votes_is_engine_backed(
        self, snapshot, random_points, wavelength
    ):
        via_api = total_votes(
            snapshot.pairs, snapshot.delta_phi, random_points, wavelength
        )
        reference = total_votes_reference(
            snapshot.pairs, snapshot.delta_phi, random_points, wavelength
        )
        assert np.abs(via_api - reference).max() < 1e-9

    def test_round_trip_one(self, snapshot, random_points, wavelength):
        reference = total_votes_reference(
            snapshot.pairs, snapshot.delta_phi, random_points, wavelength,
            round_trip=1.0,
        )
        engine = PairBank(snapshot.pairs).total_votes(
            snapshot.delta_phi, random_points, wavelength, round_trip=1.0
        )
        assert np.abs(reference - engine).max() < 1e-9

    def test_single_point_and_chunk_boundary(
        self, snapshot, wavelength, plane, rng
    ):
        bank = PairBank(snapshot.pairs)
        for count in (1, PairBank._CHUNK, PairBank._CHUNK + 7):
            pts = plane.to_world(rng.uniform(0.0, 2.5, size=(count, 2)))
            reference = total_votes_reference(
                snapshot.pairs, snapshot.delta_phi, pts, wavelength
            )
            engine = bank.total_votes(snapshot.delta_phi, pts, wavelength)
            assert np.abs(reference - engine).max() < 1e-9

    def test_length_mismatch_rejected(self, snapshot, random_points, wavelength):
        with pytest.raises(ValueError):
            PairBank(snapshot.pairs).total_votes(
                snapshot.delta_phi[:-1], random_points, wavelength
            )


class TestBatchedLockLobes:
    def test_matches_scalar_lock_lobes(self, deployment, plane, wavelength):
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        bank = PairBank.from_series(series)
        starts = np.array([[1.25, 1.15], [1.42, 1.32], [1.0, 0.95]])
        delta0 = np.array([entry.delta_phi[0] for entry in series])
        batched = batched_lock_lobes(
            bank, delta0, plane.to_world(starts), wavelength
        )
        for row, start in enumerate(starts):
            scalar = lock_lobes(series, plane.to_world(start), wavelength)
            for column, pair in enumerate(bank.pairs):
                assert int(batched[row, column]) == scalar[pair.ids]


def _tracer_pair(plane, wavelength, **config_kwargs):
    config = TracerConfig(**config_kwargs) if config_kwargs else None
    return (
        TrajectoryTracer(plane, wavelength, config=config),
        BatchedTracer(plane, wavelength, config=config),
    )


def _assert_traces_match(reference, batched, tol=1e-4):
    __tracebackhide__ = True
    assert reference.locks == batched.locks
    gap = np.linalg.norm(reference.positions - batched.positions, axis=1).max()
    assert gap < tol, f"trajectory gap {gap:.2e} m"
    assert batched.votes.shape == reference.votes.shape
    np.testing.assert_allclose(batched.votes, reference.votes, atol=1e-5)


class TestTracerEquivalence:
    def make_los_series(self, deployment, plane, wavelength):
        """Scenario 1: ideal line-of-sight word."""
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        return ideal_pair_series(deployment, plane, uv, times, wavelength), uv

    def make_multipath_series(self, deployment, plane, wavelength):
        """Scenario 2: word observed through a multipath channel."""
        from repro.rf.channel import BackscatterChannel, Environment
        from repro.rf.multipath import PointScatterer, WallReflector

        environment = Environment(
            los_gain=1.0,
            scatterers=[PointScatterer(position=(-0.8, 1.4, 0.7), gain=0.25)],
            walls=[
                WallReflector(
                    point=(0.0, 0.0, 0.0),
                    normal=(0.0, 0.0, 1.0),
                    reflectivity=0.25,
                )
            ],
        )
        channel = BackscatterChannel(environment, wavelength)
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        world = plane.to_world(uv)
        series = []
        for pair in deployment.pairs():
            phases = [
                np.unwrap(
                    np.angle(
                        channel.round_trip_response(antenna.position, world)
                    )
                )
                for antenna in (pair.first, pair.second)
            ]
            series.append(PairSeries(pair, times, phases[1] - phases[0]))
        return series, uv

    def make_noisy_series(self, deployment, plane, wavelength, rng):
        """Scenario 3: ideal geometry plus Gaussian phase noise."""
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.1, size=entry.delta_phi.shape
            )
        return series, uv

    def test_los_word(self, deployment, plane, wavelength):
        series, uv = self.make_los_series(deployment, plane, wavelength)
        reference, batched = _tracer_pair(plane, wavelength)
        starts = [uv[0], uv[0] + np.array([0.17, 0.17])]
        batch = batched.trace_all(series, np.stack(starts))
        for start, result in zip(starts, batch):
            _assert_traces_match(reference.trace(series, start), result)

    def test_multipath_word(self, deployment, plane, wavelength):
        series, uv = self.make_multipath_series(deployment, plane, wavelength)
        reference, batched = _tracer_pair(plane, wavelength)
        starts = [uv[0], uv[0] + np.array([-0.15, 0.12])]
        batch = batched.trace_all(series, np.stack(starts))
        for start, result in zip(starts, batch):
            _assert_traces_match(reference.trace(series, start), result)

    def test_noisy_word(self, deployment, plane, wavelength, rng):
        series, uv = self.make_noisy_series(deployment, plane, wavelength, rng)
        reference, batched = _tracer_pair(plane, wavelength)
        starts = [
            uv[0],
            uv[0] + np.array([0.2, -0.1]),
            uv[0] + np.array([-0.25, 0.2]),
        ]
        batch = batched.trace_all(series, np.stack(starts))
        for start, result in zip(starts, batch):
            _assert_traces_match(reference.trace(series, start), result)

    @pytest.mark.parametrize("loss", ["linear", "soft_l1"])
    def test_all_losses(self, deployment, plane, wavelength, rng, loss):
        series, uv = self.make_noisy_series(deployment, plane, wavelength, rng)
        reference, batched = _tracer_pair(plane, wavelength, loss=loss)
        _assert_traces_match(
            reference.trace(series, uv[0]), batched.trace(series, uv[0])
        )

    def test_single_sample_series(self, deployment, plane, wavelength):
        """Degenerate one-sample timeline still traces (and matches)."""
        uv = np.array([[1.3, 1.2]])
        times = np.array([0.0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        reference, batched = _tracer_pair(plane, wavelength)
        ref_result = reference.trace(series, uv[0])
        bat_result = batched.trace(series, uv[0])
        assert len(bat_result) == 1
        _assert_traces_match(ref_result, bat_result)

    def test_trace_single_start_shape(self, deployment, plane, wavelength):
        series, uv = self.make_los_series(deployment, plane, wavelength)
        result = BatchedTracer(plane, wavelength).trace(series, uv[0])
        assert result.positions.shape == (uv.shape[0], 2)
        assert result.initial_position.shape == (2,)

    def test_bad_start_shape_rejected(self, deployment, plane, wavelength):
        series, _ = self.make_los_series(deployment, plane, wavelength)
        with pytest.raises(ValueError):
            BatchedTracer(plane, wavelength).trace_all(
                series, np.zeros((2, 3))
            )

    def test_empty_series_rejected(self, plane, wavelength):
        with pytest.raises(ValueError):
            BatchedTracer(plane, wavelength).trace_all([], np.zeros((1, 2)))


class TestPipelineUsesEngine:
    def test_reconstruct_matches_reference_tracer(
        self, deployment, plane, wavelength, rng
    ):
        """End to end: engine pipeline == the scipy oracle pipeline
        (positioner candidates, one scipy trace each, arg-max vote)."""
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.06, size=entry.delta_phi.shape
            )

        engine_system = RFIDrawSystem(deployment, plane, wavelength)
        assert isinstance(engine_system.tracer, BatchedTracer)
        engine_result = engine_system.reconstruct(series)

        reference_result = reconstruct_reference(
            engine_system, TrajectoryTracer(plane, wavelength), series
        )

        assert engine_result.chosen_index == reference_result.chosen_index
        gap = np.linalg.norm(
            engine_result.trajectory - reference_result.trajectory, axis=1
        ).max()
        assert gap < 1e-4


class TestIncrementalStepAPI:
    """begin()/step()/finish() must reproduce trace_all exactly.

    The streaming session leans on this: it drives the tracer one
    timeline instant at a time and still owes the caller the batch
    answer bit-for-bit.
    """

    def make_series(self, deployment, plane, wavelength, rng):
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.08, size=entry.delta_phi.shape
            )
        return series, uv

    def test_stepwise_equals_trace_all(
        self, deployment, plane, wavelength, rng
    ):
        series, uv = self.make_series(deployment, plane, wavelength, rng)
        starts = np.stack(
            [uv[0], uv[0] + np.array([0.18, -0.12]), uv[0] + 0.2]
        )
        tracer = BatchedTracer(plane, wavelength)
        batch = tracer.trace_all(series, starts)

        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series], delta[:, 0], starts
        )
        for step in range(delta.shape[1]):
            positions, votes = tracer.step(state, delta[:, step])
            assert positions.shape == (starts.shape[0], 2)
            assert votes.shape == (starts.shape[0],)
        stepwise = tracer.finish(state)

        for ours, theirs in zip(stepwise, batch):
            assert np.array_equal(ours.positions, theirs.positions)
            assert np.array_equal(ours.votes, theirs.votes)
            assert ours.locks == theirs.locks

    def test_running_votes_accumulate(
        self, deployment, plane, wavelength, rng
    ):
        series, uv = self.make_series(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series],
            delta[:, 0],
            uv[0][np.newaxis, :],
        )
        assert np.array_equal(state.running, np.zeros(1))
        total = 0.0
        for step in range(delta.shape[1]):
            _, votes = tracer.step(state, delta[:, step])
            total += float(votes[0])
        assert state.step_count == delta.shape[1]
        assert state.running[0] == pytest.approx(total)

    def test_begin_validates_inputs(self, deployment, plane, wavelength, rng):
        series, uv = self.make_series(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        pairs = [entry.pair for entry in series]
        with pytest.raises(ValueError, match="one Δφ per pair"):
            tracer.begin(pairs, np.zeros(3), uv[0][np.newaxis, :])
        with pytest.raises(ValueError, match="plane coordinates"):
            tracer.begin(pairs, np.zeros(len(pairs)), np.zeros((2, 3)))

    def test_step_validates_width(self, deployment, plane, wavelength, rng):
        series, uv = self.make_series(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series], delta[:, 0], uv[0][np.newaxis]
        )
        with pytest.raises(ValueError, match="one Δφ per pair"):
            tracer.step(state, np.zeros(delta.shape[0] + 1))

    def test_finish_requires_steps(self, deployment, plane, wavelength, rng):
        series, uv = self.make_series(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series], delta[:, 0], uv[0][np.newaxis]
        )
        with pytest.raises(ValueError, match="no ingested steps"):
            tracer.finish(state)


class TestCandidatePruning:
    """Incremental candidate pruning must never change the winner.

    The safety argument (see ``BatchedTracer.begin``): per-step votes
    are ≤ 0, so a dropped candidate's frozen running sum upper-bounds
    its final total; the solve is row-separable, so survivors are
    unaffected by the drop; and ``finish`` resumes any dropped candidate
    the bound does not certify as a loser. Hence for *every* margin the
    arg-max winner — and each returned trace — is bit-identical to the
    unpruned batch run.
    """

    def make_problem(self, deployment, plane, wavelength, rng):
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.08, size=entry.delta_phi.shape
            )
        starts = np.stack(
            [
                uv[0],
                uv[0] + np.array([0.18, -0.12]),
                uv[0] + np.array([-0.21, 0.16]),
                uv[0] + 0.2,
                uv[0] - 0.15,
            ]
        )
        return series, starts

    def run_pruned(self, tracer, series, starts, margin, burn_in):
        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series],
            delta[:, 0],
            starts,
            prune_margin=margin,
            prune_burn_in=burn_in,
        )
        for step in range(delta.shape[1]):
            positions, votes = tracer.step(state, delta[:, step])
            active = state.active_history[-1]
            assert positions.shape == (active.size, 2)
            assert votes.shape == (active.size,)
        return state, tracer.finish(state)

    @pytest.mark.parametrize("margin,burn_in", [(1e-6, 1), (0.5, 4), (5.0, 8)])
    def test_pruned_results_match_batch_rows(
        self, deployment, plane, wavelength, rng, margin, burn_in
    ):
        """Every returned trace equals its unpruned batch counterpart,
        and the arg-max winner is the batch winner — even for margins so
        tight that the resume path must rescue dropped candidates."""
        series, starts = self.make_problem(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        batch = tracer.trace_all(series, starts)
        batch_winner = int(np.argmax([t.total_vote for t in batch]))

        state, pruned = self.run_pruned(tracer, series, starts, margin, burn_in)
        indices = state.result_indices
        assert indices == sorted(indices)
        assert len(pruned) == len(indices) <= len(batch)
        for ours, index in zip(pruned, indices):
            theirs = batch[index]
            assert np.array_equal(ours.positions, theirs.positions)
            assert np.array_equal(ours.votes, theirs.votes)
            assert ours.locks == theirs.locks
        winner_row = int(np.argmax([t.total_vote for t in pruned]))
        assert indices[winner_row] == batch_winner

    def test_tight_margin_forces_resume(
        self, deployment, plane, wavelength, rng
    ):
        """A margin far below the winner's eventual total loss drops
        candidates whose frozen sums still beat it — finish must resume
        them rather than trust the prune."""
        series, starts = self.make_problem(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        state, pruned = self.run_pruned(tracer, series, starts, 1e-6, 1)
        assert state.pruned_at, "tight margin should have dropped candidates"
        resumed = [i for i in state.result_indices if i in state.pruned_at]
        assert resumed, "frozen sums near zero must trigger the resume path"

    def test_generous_margin_certifies_losers(
        self, deployment, plane, wavelength, rng
    ):
        """A sane margin + burn-in drops hopeless candidates for good:
        they are certified by the vote bound, not resumed."""
        series, starts = self.make_problem(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        state, pruned = self.run_pruned(tracer, series, starts, 3.0, 40)
        assert state.pruned_at, "wrong-lobe candidates should get dropped"
        certified = set(state.pruned_at) - set(state.result_indices)
        assert certified, "expected at least one certified loser"
        # Certified losers really are losers: their full batch totals
        # fall below the returned winner's.
        batch = tracer.trace_all(series, np.stack([state.starts[i] for i in sorted(certified)]))
        winner_total = max(t.total_vote for t in pruned)
        for trace in batch:
            assert trace.total_vote < winner_total

    def test_running_votes_freeze_at_drop(
        self, deployment, plane, wavelength, rng
    ):
        series, starts = self.make_problem(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        delta = np.stack([entry.delta_phi for entry in series])
        state = tracer.begin(
            [entry.pair for entry in series],
            delta[:, 0],
            starts,
            prune_margin=0.5,
            prune_burn_in=4,
        )
        frozen: dict[int, float] = {}
        for step in range(delta.shape[1]):
            tracer.step(state, delta[:, step])
            running = state.running
            for index in state.pruned_at:
                if index in frozen:
                    assert running[index] == frozen[index]
                else:
                    frozen[index] = running[index]
        assert frozen, "expected drops under a 0.5-vote margin"

    def test_prune_knob_validation(self, deployment, plane, wavelength, rng):
        series, starts = self.make_problem(deployment, plane, wavelength, rng)
        tracer = BatchedTracer(plane, wavelength)
        pairs = [entry.pair for entry in series]
        delta0 = series[0].delta_phi[:1].repeat(len(pairs))
        with pytest.raises(ValueError, match="prune_margin"):
            tracer.begin(pairs, delta0, starts, prune_margin=0.0)
        with pytest.raises(ValueError, match="prune_margin"):
            tracer.begin(pairs, delta0, starts, prune_margin=-1.0)
        with pytest.raises(ValueError, match="prune_burn_in"):
            tracer.begin(pairs, delta0, starts, prune_margin=1.0, prune_burn_in=0)


class TestStepMany:
    """Merged multi-trace stepping must equal independent stepping.

    ``step_many`` stacks the active candidates of several words into one
    solve block; row-separability means every state must record exactly
    what its own ``step`` would have — bit for bit — even when the words
    trace on different planes and end at different times.
    """

    def make_word(self, deployment, plane, wavelength, rng, steps, shift):
        uv = word_like_uv(steps) + shift
        times = np.linspace(0, 0.05 * steps, steps)
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.08, size=entry.delta_phi.shape
            )
        delta = np.stack([entry.delta_phi for entry in series])
        starts = np.stack([uv[0], uv[0] + np.array([0.15, -0.1])])
        return series, delta, starts

    def _run_independent(self, tracer, pairs, delta, starts, **begin_kwargs):
        state = tracer.begin(pairs, delta[:, 0], starts, **begin_kwargs)
        for step in range(delta.shape[1]):
            tracer.step(state, delta[:, step])
        return tracer.finish(state)

    def test_merged_equals_independent_across_planes(
        self, deployment, wavelength, rng
    ):
        from repro.geometry.plane import writing_plane

        planes = [writing_plane(2.0), writing_plane(2.0), writing_plane(3.1)]
        words = [
            self.make_word(
                deployment, planes[i], wavelength, rng, steps, 0.05 * i
            )
            for i, steps in enumerate((40, 25, 33))
        ]
        tracers = [BatchedTracer(plane, wavelength) for plane in planes]

        expected = [
            self._run_independent(
                tracers[i], [e.pair for e in words[i][0]], words[i][1],
                words[i][2],
            )
            for i in range(len(words))
        ]

        states = [
            tracers[i].begin(
                [e.pair for e in words[i][0]], words[i][1][:, 0], words[i][2]
            )
            for i in range(len(words))
        ]
        lengths = [words[i][1].shape[1] for i in range(len(words))]
        driver = tracers[0]
        for step in range(max(lengths)):
            batch = [
                (states[i], words[i][1][:, step])
                for i in range(len(words))
                if step < lengths[i]
            ]
            returned = driver.step_many(batch)
            assert len(returned) == len(batch)
        merged = [tracers[i].finish(states[i]) for i in range(len(words))]

        for exp_traces, got_traces in zip(expected, merged):
            for exp, got in zip(exp_traces, got_traces):
                assert np.array_equal(exp.positions, got.positions)
                assert np.array_equal(exp.votes, got.votes)
                assert exp.locks == got.locks

    def test_merged_preserves_pruning(self, deployment, plane, wavelength, rng):
        uv = word_like_uv()
        times = np.linspace(0, 3.5, uv.shape[0])
        series = ideal_pair_series(deployment, plane, uv, times, wavelength)
        for entry in series:
            entry.delta_phi = entry.delta_phi + rng.normal(
                0.0, 0.08, size=entry.delta_phi.shape
            )
        delta = np.stack([entry.delta_phi for entry in series])
        starts = np.stack(
            [
                uv[0],
                uv[0] + np.array([0.18, -0.12]),
                uv[0] + np.array([-0.21, 0.16]),
                uv[0] + 0.2,
            ]
        )
        tracer = BatchedTracer(plane, wavelength)
        pairs = [entry.pair for entry in series]

        expected = self._run_independent(
            tracer, pairs, delta, starts, prune_margin=0.5, prune_burn_in=4
        )
        pruned_state = tracer.begin(
            pairs, delta[:, 0], starts, prune_margin=0.5, prune_burn_in=4
        )
        other_state = tracer.begin(pairs, delta[:, 0], starts)
        for step in range(delta.shape[1]):
            tracer.step_many(
                [
                    (pruned_state, delta[:, step]),
                    (other_state, delta[:, step]),
                ]
            )
        assert pruned_state.pruned_at, "margin should drop the far candidate"
        merged = tracer.finish(pruned_state)
        for exp, got in zip(expected, merged):
            assert np.array_equal(exp.positions, got.positions)
            assert np.array_equal(exp.votes, got.votes)

    def test_single_item_delegates_to_step(
        self, deployment, plane, wavelength, rng
    ):
        series, delta, starts = self.make_word(
            deployment, plane, wavelength, rng, 10, 0.0
        )
        tracer = BatchedTracer(plane, wavelength)
        pairs = [entry.pair for entry in series]
        via_step = tracer.begin(pairs, delta[:, 0], starts)
        via_many = tracer.begin(pairs, delta[:, 0], starts)
        for step in range(delta.shape[1]):
            expected = tracer.step(via_step, delta[:, step])
            (got,) = tracer.step_many([(via_many, delta[:, step])])
            assert np.array_equal(expected[0], got[0])
            assert np.array_equal(expected[1], got[1])

    def test_empty_batch_is_noop(self, plane, wavelength):
        assert BatchedTracer(plane, wavelength).step_many([]) == []

    def test_mismatched_geometry_rejected(
        self, deployment, plane, wavelength, rng
    ):
        series, delta, starts = self.make_word(
            deployment, plane, wavelength, rng, 8, 0.0
        )
        pairs = [entry.pair for entry in series]
        tracer = BatchedTracer(plane, wavelength)
        state_a = tracer.begin(pairs, delta[:, 0], starts)
        # A different round-trip scale must not silently share a block.
        other = BatchedTracer(plane, wavelength, round_trip=1.0)
        state_b = other.begin(pairs, delta[:, 0], starts)
        with pytest.raises(ValueError, match="identical antenna/pair"):
            tracer.step_many(
                [(state_a, delta[:, 0]), (state_b, delta[:, 0])]
            )

    def test_width_validated_per_item(
        self, deployment, plane, wavelength, rng
    ):
        series, delta, starts = self.make_word(
            deployment, plane, wavelength, rng, 8, 0.0
        )
        pairs = [entry.pair for entry in series]
        tracer = BatchedTracer(plane, wavelength)
        state_a = tracer.begin(pairs, delta[:, 0], starts)
        state_b = tracer.begin(pairs, delta[:, 0], starts)
        with pytest.raises(ValueError, match="one Δφ per pair"):
            tracer.step_many(
                [(state_a, delta[:, 0]), (state_b, np.zeros(3))]
            )
