"""End-to-end tests: matrix runner, score tables, and the accuracy gate.

A real (tiny) matrix runs once per module — simulate → inject → record
JSONL → replay → score — and every test reads off that shared run. The
gate script is exercised on synthetic score tables, so its failure modes
(crash, lost tag, error regression, missing scenario) are covered
without re-running simulations.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.testbed import (
    FaultSpec,
    ScenarioSpec,
    format_scores,
    load_scores,
    run_matrix,
    run_scenario,
    write_scores,
)
from repro.testbed import TestbedConfig as MatrixConfig  # pytest: not a test class

REPO = Path(__file__).resolve().parents[1]


def tiny_config():
    return MatrixConfig(
        name="tiny",
        scenarios=(
            ScenarioSpec(name="clean", word="hi", seed=0),
            ScenarioSpec(
                name="dirty",
                word="hi",
                seed=1,
                faults=FaultSpec(
                    drop_rate=0.15,
                    nonfinite_rate=0.05,
                    ghost_epcs=2,
                    ghost_reports_each=5,
                ),
            ),
        ),
    )


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    replay_dir = tmp_path_factory.mktemp("replay")
    scores = run_matrix(tiny_config(), replay_dir=replay_dir)
    return {s.scenario: s for s in scores}, replay_dir


class TestMatrixRun:
    def test_clean_cell_recovers_accurately(self, matrix):
        scores, _ = matrix
        clean = scores["clean"]
        assert clean.completed and clean.recovered
        assert clean.error is None
        assert clean.median_error_m is not None
        assert clean.median_error_m < 0.10  # paper-scale cm accuracy
        assert clean.p90_error_m >= clean.median_error_m
        assert clean.trajectory_points > 0
        assert clean.chars_total == 2  # "hi"
        assert clean.fault_counters == {}
        assert clean.faulted_report_count == clean.report_count

    def test_faulted_cell_degrades_gracefully(self, matrix):
        scores, _ = matrix
        dirty = scores["dirty"]
        assert dirty.completed and dirty.recovered
        counters = dirty.fault_counters
        assert counters["drop.dropped"] > 0
        assert counters["nonfinite.corrupted"] > 0
        assert counters["ghost_epc.ghosts"] == 2
        # drop removes reports, ghosts/duplicates add them back
        expected = (
            dirty.report_count
            - counters["drop.dropped"]
            + counters["ghost_epc.ghost_reports"]
        )
        assert dirty.faulted_report_count == expected

    def test_manager_stats_surface_fault_story(self, matrix):
        scores, _ = matrix
        dirty = scores["dirty"]
        stats = dirty.manager_stats
        assert stats["ingested_reports"] == dirty.faulted_report_count
        # the injected-fault tallies ride along in the stats snapshot
        assert stats["injected"] == dirty.fault_counters
        # corrupted phases were dropped by the resampler policy, not crashed
        assert stats["dropped_nonfinite"] > 0
        assert stats["skipped_log_lines"] == 0
        # ghost EPCs opened sessions but never produced the real tag's
        # trajectory; they land in finalized/failed, not in limbo
        assert stats["finalized_sessions"] + stats["failed_sessions"] >= 1

    def test_service_path_scores_identically(self, matrix):
        """service_shards=N replays the same cell through the sharded
        TrackingService; per-EPC bit-identity means identical scores."""
        scores, _ = matrix
        reference = scores["dirty"]
        spec = dataclasses.replace(
            tiny_config().scenarios[1],
            name="dirty-sharded",
            service_shards=2,
        )
        sharded = run_scenario(spec)
        assert sharded.completed, sharded.error
        assert sharded.recovered == reference.recovered
        assert sharded.median_error_m == reference.median_error_m
        assert sharded.p90_error_m == reference.p90_error_m
        assert sharded.trajectory_points == reference.trajectory_points
        assert sharded.char_accuracy == reference.char_accuracy
        assert (
            sharded.manager_stats["injected"]
            == reference.manager_stats["injected"]
        )
        assert (
            sharded.manager_stats["dropped_reports"]
            == reference.manager_stats["dropped_reports"]
        )

    def test_replay_logs_recorded(self, matrix):
        scores, replay_dir = matrix
        for name, score in scores.items():
            log_path = replay_dir / f"{name}.jsonl"
            assert log_path.is_file()
            lines = [
                line for line in
                log_path.read_text(encoding="utf-8").splitlines() if line
            ]
            assert len(lines) == score.faulted_report_count

    def test_crash_is_captured_not_raised(self, monkeypatch):
        import repro.testbed.runner as runner_module

        def boom(*args, **kwargs):
            raise RuntimeError("simulated meltdown")

        monkeypatch.setattr(runner_module, "simulate_word", boom)
        score = run_scenario(ScenarioSpec(name="crash", word="hi"))
        assert not score.completed
        assert not score.recovered
        assert "simulated meltdown" in score.error

    def test_per_spec_word_scoring(self):
        """A cell with ``score_words = true`` scores the word even when
        the run's global --score-words flag is off (the CI accuracy
        gate relies on this)."""
        score = run_scenario(
            ScenarioSpec(name="worded", word="hi", seed=0, score_words=True)
        )
        assert score.completed and score.recovered
        assert score.word_correct is not None
        assert score.recognition is not None
        assert score.recognition["shortlist_size"] > 0
        assert score.recognition["dtw_evals"] > 0

    def test_format_scores_table(self, matrix):
        scores, _ = matrix
        table = format_scores(list(scores.values()))
        assert "clean" in table and "dirty" in table
        assert "ok" in table
        assert "cm" in table

    def test_score_table_round_trip(self, matrix, tmp_path):
        scores, _ = matrix
        path = tmp_path / "scores.json"
        write_scores(list(scores.values()), path, config_name="tiny")
        loaded = load_scores(path)
        assert set(loaded) == set(scores)
        assert loaded["clean"]["median_error_m"] == pytest.approx(
            scores["clean"].median_error_m
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["config"] == "tiny"
        assert payload["platform"]["numpy"] == np.__version__
        assert set(payload["platform"]) == {"python", "numpy", "machine"}


# ----------------------------------------------------------------------
# The accuracy gate
# ----------------------------------------------------------------------
def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_accuracy_regression",
        REPO / "benchmarks" / "check_accuracy_regression.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def score_entry(name, median=0.02, acc=1.0, completed=True, recovered=True,
                error=None, word_correct=None):
    return {
        "scenario": name,
        "word": "sun",
        "completed": completed,
        "recovered": recovered,
        "error": error,
        "median_error_m": median if recovered else None,
        "p90_error_m": median * 1.5 if recovered else None,
        "trajectory_points": 50 if recovered else 0,
        "char_accuracy": acc if recovered else None,
        "chars_total": 3 if recovered else 0,
        "word_correct": word_correct,
        "report_count": 300,
        "faulted_report_count": 280,
        "fault_counters": {},
        "manager_stats": {},
    }


def write_table(path, entries, platform=None):
    payload = {
        "config": "gate-test",
        "generated_by": "test",
        "scenarios": entries,
    }
    if platform is not None:
        payload["platform"] = platform
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestAccuracyGate:
    @pytest.fixture()
    def gate(self):
        return load_gate()

    def run_gate(self, gate, tmp_path, baseline, fresh, extra=()):
        base = write_table(tmp_path / "base.json", baseline)
        new = write_table(tmp_path / "fresh.json", fresh)
        return gate.main(
            ["--baseline", str(base), "--fresh", str(new), *extra]
        )

    def test_identical_tables_pass(self, gate, tmp_path, capsys):
        entries = [score_entry("a"), score_entry("b", median=0.05, acc=2 / 3)]
        assert self.run_gate(gate, tmp_path, entries, entries) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_small_jitter_within_slack_passes(self, gate, tmp_path):
        baseline = [score_entry("a", median=0.020)]
        fresh = [score_entry("a", median=0.024)]  # +20% < 30% tolerance
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 0

    def test_error_regression_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a", median=0.020)]
        fresh = [score_entry("a", median=0.040)]  # +100% and > slack
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "median error" in capsys.readouterr().err

    def test_crashed_scenario_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a")]
        fresh = [score_entry("a", completed=False, recovered=False,
                             error="RuntimeError: boom")]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "boom" in capsys.readouterr().err

    def test_lost_tag_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a")]
        fresh = [score_entry("a", recovered=False)]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "no longer recovers" in capsys.readouterr().err

    def test_missing_scenario_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a"), score_entry("b")]
        fresh = [score_entry("a")]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "missing" in capsys.readouterr().err

    def test_new_scenario_allowed_unless_crashed(self, gate, tmp_path):
        baseline = [score_entry("a")]
        fresh = [score_entry("a"), score_entry("z")]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 0
        fresh_crashed = [
            score_entry("a"),
            score_entry("z", completed=False, recovered=False, error="die"),
        ]
        assert self.run_gate(gate, tmp_path, baseline, fresh_crashed) == 1

    def test_per_scenario_accuracy_drop_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a", acc=1.0)]
        fresh = [score_entry("a", acc=0.5)]  # -50% > 34% tolerance
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "char accuracy" in capsys.readouterr().err

    def test_aggregate_accuracy_drop_fails(self, gate, tmp_path, capsys):
        # each cell drops exactly one char (within the per-cell 34%
        # tolerance) but the aggregate falls 33% > the 12% aggregate bar
        baseline = [score_entry(n, acc=1.0) for n in "abc"]
        fresh = [score_entry(n, acc=2 / 3) for n in "abc"]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "aggregate" in capsys.readouterr().err

    def test_word_regression_fails(self, gate, tmp_path, capsys):
        baseline = [score_entry("a", word_correct=True)]
        fresh = [score_entry("a", word_correct=False)]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 1
        assert "word recognition" in capsys.readouterr().err
        # unscored cells (None) never trip the word check
        baseline = [score_entry("a", word_correct=True)]
        fresh = [score_entry("a", word_correct=None)]
        assert self.run_gate(gate, tmp_path, baseline, fresh) == 0

    def test_tolerances_adjustable(self, gate, tmp_path):
        baseline = [score_entry("a", median=0.020)]
        fresh = [score_entry("a", median=0.040)]
        assert self.run_gate(
            gate, tmp_path, baseline, fresh,
            extra=["--max-error-regression", "1.5"],
        ) == 0

    def test_platform_drift_is_reported_not_judged(self, gate, tmp_path, capsys):
        here = {"python": "3.11.9", "numpy": "2.1.0", "machine": "x86_64"}
        there = dict(here, machine="arm64")
        baseline = [score_entry("a", median=0.020)]
        fresh = [score_entry("a", median=0.020 * (1 + 2e-9))]

        def gate_output(base_platform, fresh_platform):
            base = write_table(tmp_path / "base.json", baseline, base_platform)
            new = write_table(tmp_path / "fresh.json", fresh, fresh_platform)
            assert gate.main(["--baseline", str(base), "--fresh", str(new)]) == 0
            return capsys.readouterr().out

        same = gate_output(here, here)
        assert "baseline platform: Python 3.11.9, numpy 2.1.0, x86_64" in same
        assert "largest relative median/p90 error change: 2e-09" in same
        assert "parent-commit run" not in same
        for base_platform, fresh_platform in ((here, there), (None, here)):
            out = gate_output(base_platform, fresh_platform)
            assert "parent-commit run" in out
        assert "baseline platform: unrecorded" in out

    def test_committed_baseline_is_gate_clean(self, gate, capsys):
        """The committed baseline passes the gate against itself."""
        baseline = REPO / "ACCURACY_baseline.json"
        rc = gate.main(
            ["--baseline", str(baseline), "--fresh", str(baseline)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gate passed" in out


class TestCli:
    def test_list_command(self, tmp_path, capsys):
        from repro.testbed.__main__ import main

        config = tmp_path / "demo.toml"
        config.write_text(
            'name = "demo"\n'
            '[[scenario]]\nname = "cell"\nword = "{{ W }}"\n'
            "[scenario.faults]\ndrop_rate = 0.5\n",
            encoding="utf-8",
        )
        rc = main(["list", str(config), "--env", "W=owl"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo: 1 scenario cell(s)" in out
        assert "word='owl'" in out and "[faults]" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        from repro.testbed.__main__ import main

        config = tmp_path / "bad.toml"
        config.write_text('name = "x"\n', encoding="utf-8")
        assert main(["list", str(config)]) == 2
        assert "config error" in capsys.readouterr().err
