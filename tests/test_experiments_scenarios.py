"""Tests for the scenario layer (environment builders + simulate_word)."""

import numpy as np
import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    WordJob,
    office_lounge_environment,
    simulate_word,
    simulate_words,
    user_style,
    vicon_room_environment,
)


class TestEnvironments:
    def test_vicon_room_is_los(self):
        assert vicon_room_environment().los_gain == 1.0

    def test_lounge_attenuates_direct_path(self):
        lounge = office_lounge_environment()
        assert lounge.los_gain < 1.0
        assert len(lounge.scatterers) >= 3

    def test_both_have_multipath(self):
        assert vicon_room_environment().is_multipath
        assert office_lounge_environment().is_multipath


class TestScenarioConfig:
    def test_environment_switch(self):
        assert ScenarioConfig(los=True).environment().los_gain == 1.0
        assert ScenarioConfig(los=False).environment().los_gain < 1.0

    def test_distance_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(distance=12.0)


class TestUserStyle:
    def test_fixed_per_user(self):
        assert user_style(2).slant == user_style(2).slant

    def test_users_differ(self):
        slants = {round(user_style(u).slant, 6) for u in range(5)}
        assert len(slants) >= 4


class TestSimulateWord:
    @pytest.fixture(scope="class")
    def short_run(self):
        # A two-letter word keeps this integration fixture quick.
        return simulate_word("on", user=0, seed=3)

    def test_reproducible(self, short_run):
        again = simulate_word("on", user=0, seed=3)
        assert len(again.rfidraw_log) == len(short_run.rfidraw_log)
        first = short_run.rfidraw_log.reports[0]
        second = again.rfidraw_log.reports[0]
        assert first.phase == second.phase
        assert first.time == second.time

    def test_seed_changes_everything(self, short_run):
        other = simulate_word("on", user=0, seed=4)
        assert (
            other.rfidraw_log.reports[0].phase
            != short_run.rfidraw_log.reports[0].phase
        )

    def test_both_logs_populated(self, short_run):
        assert len(short_run.rfidraw_log) > 200
        assert len(short_run.baseline_log) > 200

    def test_read_rate_plausible(self, short_run):
        # An M6e-class reader sustains a few hundred reads/s; two readers
        # share the tag here.
        rate = short_run.rfidraw_log.read_rate()
        assert 100 < rate < 2000

    def test_series_share_timeline(self, short_run):
        series = short_run.rfidraw_series
        assert len(series) == 12
        assert all(
            np.allclose(entry.times, series[0].times) for entry in series
        )

    def test_ground_truth_covers_trace(self, short_run):
        truth = short_run.truth_on(short_run.timeline)
        assert truth.shape == (len(short_run.timeline), 2)

    def test_skip_baseline(self):
        run = simulate_word("on", user=0, seed=3, run_baseline=False)
        assert len(run.baseline_log) == 0

    def test_reconstruction_is_sane(self, short_run):
        result = short_run.rfidraw_result
        truth = short_run.truth_on(short_run.timeline)
        shifted = result.trajectory - (result.trajectory[0] - truth[0])
        shape_error = np.linalg.norm(shifted - truth, axis=1)
        # Shape preserved to a few cm even with noise and multipath.
        assert np.median(shape_error) < 0.06


class TestSimulateWords:
    JOBS = [
        ("on", 0, 3),
        WordJob("hi", user=1, seed=5),
        WordJob("on", user=2, seed=7, config=ScenarioConfig(distance=2.5)),
    ]

    @staticmethod
    def _assert_runs_match(batch, run_baseline=False):
        for job, run in zip(TestSimulateWords.JOBS, batch):
            job = job if isinstance(job, WordJob) else WordJob(*job)
            solo = simulate_word(
                job.word,
                user=job.user,
                seed=job.seed,
                config=job.config,
                run_baseline=run_baseline,
            )
            assert run.word == solo.word
            assert len(run.rfidraw_log) == len(solo.rfidraw_log)
            for a, b in zip(run.rfidraw_log.reports, solo.rfidraw_log.reports):
                assert a == b

    def test_serial_matches_simulate_word(self):
        batch = simulate_words(self.JOBS, run_baseline=False)
        assert len(batch) == len(self.JOBS)
        self._assert_runs_match(batch)

    def test_pooled_matches_serial(self):
        batch = simulate_words(self.JOBS, run_baseline=False, max_workers=2)
        assert len(batch) == len(self.JOBS)
        self._assert_runs_match(batch)

    def test_tuple_and_job_forms_agree(self):
        from_tuple = simulate_words([("hi", 1, 5)], run_baseline=False)[0]
        from_job = simulate_words(
            [WordJob("hi", user=1, seed=5)], run_baseline=False
        )[0]
        assert from_tuple.rfidraw_log.reports == from_job.rfidraw_log.reports

    def test_shared_substrate_is_reused(self):
        one, two = simulate_words(
            [("on", 0, 3), ("hi", 0, 4)], run_baseline=True
        )
        # Nominal deployments and channels are cached across jobs.
        assert one.rfidraw_deployment is two.rfidraw_deployment
        assert one.baseline_deployment is two.baseline_deployment
