"""Batched multi-word reconstruction must equal per-word reconstruction.

``reconstruct_many`` merges the candidate trajectories of many
independent words into shared engine blocks; the engine's
row-separability argument says every word still receives exactly the
answer its own ``system.reconstruct`` computes. These tests enforce that
**bit-for-bit** across seeds, LOS/NLOS, mixed writing planes (different
user distances sharing one block) and the one-way WiFi
(``round_trip = 1``) configuration, plus which words share a solve
block and input validation.
"""

import numpy as np
import pytest

from repro.core.engine import BatchedTracer
from repro.core.pipeline import RFIDrawSystem, reconstruct_many
from repro.core.tracing import TracerConfig
from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.wifi.system import WifiTracker

from tests.helpers import ideal_pair_series


def _assert_results_identical(expected, got):
    assert got.chosen_index == expected.chosen_index
    assert np.array_equal(got.times, expected.times)
    assert np.array_equal(got.trajectory, expected.trajectory)
    assert len(got.traces) == len(expected.traces)
    for theirs, ours in zip(expected.traces, got.traces):
        assert np.array_equal(ours.positions, theirs.positions)
        assert np.array_equal(ours.votes, theirs.votes)
        assert np.array_equal(ours.residuals, theirs.residuals)
        assert ours.locks == theirs.locks
        assert np.array_equal(
            ours.initial_position, theirs.initial_position
        )
    for theirs, ours in zip(expected.candidates, got.candidates):
        assert np.array_equal(ours.position, theirs.position)


class TestAgainstSimulatedWords:
    @pytest.fixture(scope="class")
    def runs(self):
        jobs = [
            WordJob("on", user=0, seed=3, config=ScenarioConfig(distance=2.0)),
            WordJob("hi", user=1, seed=5, config=ScenarioConfig(distance=2.5)),
            WordJob(
                "on",
                user=2,
                seed=9,
                config=ScenarioConfig(distance=2.2, los=False),
            ),
        ]
        return simulate_words(jobs, run_baseline=False)

    def test_bit_identical_across_planes_and_los(self, runs):
        items = [(run.system, run.rfidraw_series) for run in runs]
        serial = [system.reconstruct(series) for system, series in items]
        batched = reconstruct_many(items)
        for expected, got in zip(serial, batched):
            _assert_results_identical(expected, got)

    def test_candidate_count_forwarded(self, runs):
        items = [(run.system, run.rfidraw_series) for run in runs[:2]]
        serial = [
            system.reconstruct(series, candidate_count=3)
            for system, series in items
        ]
        batched = reconstruct_many(items, candidate_count=3)
        for expected, got in zip(serial, batched):
            assert len(got.candidates) == len(expected.candidates)
            _assert_results_identical(expected, got)

    def test_method_form_matches_function(self, runs):
        run = runs[0]
        blocks = [run.rfidraw_series, run.rfidraw_series]
        via_method = run.system.reconstruct_many(blocks)
        via_function = reconstruct_many(
            [(run.system, block) for block in blocks]
        )
        for expected, got in zip(via_function, via_method):
            _assert_results_identical(expected, got)

    def test_simulate_words_batch_reconstruct_primes_results(self):
        jobs = [("on", 0, 3), ("hi", 1, 5)]
        batched_runs = simulate_words(
            jobs, run_baseline=False, batch_reconstruct=True
        )
        lazy_runs = simulate_words(jobs, run_baseline=False)
        for batched, lazy in zip(batched_runs, lazy_runs):
            assert "rfidraw_result" in batched.__dict__  # primed, not lazy
            _assert_results_identical(lazy.rfidraw_result, batched.rfidraw_result)


class TestWifi:
    def test_one_way_configuration(self):
        tracker = WifiTracker()
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 2.0, 120)
        angle = np.linspace(0.0, 2.0 * np.pi, 120)
        words = []
        for offset in (0.0, 0.05):
            points = np.stack(
                [
                    0.23 + offset + 0.04 * np.cos(angle),
                    0.21 + 0.04 * np.sin(angle),
                ],
                axis=1,
            )
            words.append(tracker.observe(points, times, rng))
        items = [(tracker.system, series) for series in words]
        serial = [tracker.system.reconstruct(series) for series in words]
        batched = reconstruct_many(items)
        for expected, got in zip(serial, batched):
            _assert_results_identical(expected, got)


def make_ideal_items(deployment, plane, wavelength, count=2, configs=None):
    """``count`` small ideal words, each on its own ``RFIDrawSystem``."""
    configs = configs or [None] * count
    items = []
    for index, config in zip(range(count), configs):
        t = np.linspace(0, 2 * np.pi, 30)
        uv = np.stack(
            [
                1.2 + 0.02 * index + 0.06 * np.cos(t),
                1.1 + 0.05 * np.sin(t),
            ],
            axis=1,
        )
        series = ideal_pair_series(
            deployment, plane, uv, np.linspace(0, 1.5, 30), wavelength
        )
        system = RFIDrawSystem(
            deployment, plane, wavelength, tracer_config=config
        )
        items.append((system, series))
    return items


class TestMergeKey:
    """Words share a ``step_many`` block exactly when their tracer
    settings, scale and pair geometry match — whatever system object
    each word comes from."""

    @pytest.fixture
    def recorded_blocks(self, monkeypatch):
        """Per ``step_many`` call, the tracer loss of every stacked state."""
        loss_of = {}
        blocks = []
        begin, step_many = BatchedTracer.begin, BatchedTracer.step_many

        def recording_begin(self, *args, **kwargs):
            state = begin(self, *args, **kwargs)
            loss_of[id(state)] = self.config.loss
            return state

        def recording_step_many(self, items):
            blocks.append([loss_of[id(state)] for state, _ in items])
            return step_many(self, items)

        monkeypatch.setattr(BatchedTracer, "begin", recording_begin)
        monkeypatch.setattr(BatchedTracer, "step_many", recording_step_many)
        return blocks

    def test_distinct_systems_share_blocks(
        self, deployment, plane, wavelength, recorded_blocks
    ):
        items = make_ideal_items(deployment, plane, wavelength, count=3)
        assert len({id(system) for system, _ in items}) == 3
        serial = [
            system.reconstruct(series, candidate_count=2)
            for system, series in items
        ]
        del recorded_blocks[:]
        batched = reconstruct_many(items, candidate_count=2)
        per_word_steps = sum(len(series[0]) for _, series in items)
        assert len(recorded_blocks) < per_word_steps
        assert max(len(block) for block in recorded_blocks) == len(items)
        for expected, got in zip(serial, batched):
            _assert_results_identical(expected, got)

    def test_different_loss_never_shares_a_block(
        self, deployment, plane, wavelength, recorded_blocks
    ):
        configs = [None, TracerConfig(loss="linear"), None]
        items = make_ideal_items(
            deployment, plane, wavelength, count=3, configs=configs
        )
        serial = [
            system.reconstruct(series, candidate_count=2)
            for system, series in items
        ]
        del recorded_blocks[:]
        batched = reconstruct_many(items, candidate_count=2)
        assert all(len(set(block)) == 1 for block in recorded_blocks)
        # The two soft-L1 words still merge with each other.
        assert ["soft_l1", "soft_l1"] in recorded_blocks
        assert ["linear"] in recorded_blocks
        for expected, got in zip(serial, batched):
            _assert_results_identical(expected, got)


class TestFallbacksAndValidation:
    def test_empty_items(self):
        assert reconstruct_many([]) == []

    def test_bad_series_rejected(self, deployment, plane, wavelength):
        system = RFIDrawSystem(deployment, plane, wavelength)
        with pytest.raises(ValueError, match="no pair series"):
            reconstruct_many([(system, [])])
        items = make_ideal_items(deployment, plane, wavelength, count=1)
        _, series = items[0]
        truncated = list(series)
        truncated[0] = type(series[0])(
            series[0].pair, series[0].times[:-1], series[0].delta_phi[:-1]
        )
        with pytest.raises(ValueError, match="share a timeline"):
            reconstruct_many([(system, truncated)])
