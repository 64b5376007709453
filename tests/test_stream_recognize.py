"""Recognition at finalize: the stream/serve classification hook.

A ``SessionManager`` built with a ``recognizer`` classifies each
finalized trajectory: the result rides the FINALIZED event (and its
``detached()`` pickle form, so the serve tier ships it across process
boundaries), work counters surface through ``ManagerStats``, and a
recogniser crash degrades to a counter — never to a lost session.
"""

import dataclasses
import pickle

import pytest

from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.handwriting.recognizer import WordRecognizer
from repro.io.logs import save_phase_log
from repro.stream.config import SessionConfig
from repro.stream.manager import ManagerStats, SessionManager


@pytest.fixture(scope="module")
def word_run():
    return simulate_word(
        "dog",
        user=0,
        seed=1,
        config=ScenarioConfig(distance=2.0, los=True),
        run_baseline=False,
    )


@pytest.fixture(scope="module")
def word_log(word_run, tmp_path_factory):
    path = tmp_path_factory.mktemp("recognize") / "dog.jsonl"
    save_phase_log(word_run.rfidraw_log.reports, path)
    return path


@pytest.fixture(scope="module")
def corpus_recognizer():
    return WordRecognizer()


def _manager(word_run, recognizer):
    return SessionManager(
        word_run.system,
        config=SessionConfig(
            out_of_order="drop", sample_rate=word_run.config.sample_rate
        ),
        recognizer=recognizer,
    )


class TestFinalizeHook:
    def test_recognition_rides_the_finalized_event(
        self, word_run, word_log, corpus_recognizer
    ):
        manager = _manager(word_run, corpus_recognizer)
        finalized = []
        manager.on_session_finalized = lambda e: finalized.append(e.detached())
        results = manager.replay(word_log)

        assert len(finalized) == 1
        event = finalized[0]
        assert event.recognition is not None
        assert event.recognition.word == "dog"
        assert manager.recognitions[event.epc_hex] is event.recognition

        stats = results.stats
        assert stats.classified == 1
        assert stats.recognition_errors == 0
        assert stats.dtw_evals > 0
        assert stats.shortlist_hist == {
            str(event.recognition.shortlist_size): 1
        }

    def test_no_recognizer_means_no_recognition(self, word_run, word_log):
        manager = _manager(word_run, None)
        finalized = []
        manager.on_session_finalized = lambda e: finalized.append(e)
        results = manager.replay(word_log)
        assert finalized[0].recognition is None
        assert results.stats.classified == 0
        assert results.stats.shortlist_hist == {}

    def test_finalized_event_pickles_small(self, word_run, word_log):
        # The wire form carries each candidate's trajectory, votes and
        # locks, nothing per pair and step: 8 candidates × 125 steps of
        # "dog" pickle to ~28 KB.
        manager = _manager(word_run, None)
        finalized = []
        manager.on_session_finalized = lambda e: finalized.append(e.detached())
        manager.replay(word_log)
        assert len(finalized) == 1
        assert len(pickle.dumps(finalized[0])) < 64 * 1024

    def test_recognizer_crash_degrades_to_a_counter(
        self, word_run, word_log
    ):
        class Boom:
            def recognize(self, points):
                raise RuntimeError("boom")

        manager = _manager(word_run, Boom())
        finalized = []
        manager.on_session_finalized = lambda e: finalized.append(e)
        results = manager.replay(word_log)
        # The session result is intact; only the counter records it.
        assert results.stats.recognition_errors == 1
        assert results.stats.classified == 0
        assert finalized[0].recognition is None
        assert len(next(iter(results.values())).times) > 0


def _stats(**overrides):
    zeros = {
        f.name: 0
        for f in dataclasses.fields(ManagerStats)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    zeros.update(overrides)
    return ManagerStats(**zeros)


class TestStatsMerge:
    def test_recognition_counters_sum(self):
        merged = _stats(classified=1, recognition_errors=1, dtw_evals=10).merge(
            _stats(classified=2, dtw_evals=30)
        )
        assert merged.classified == 3
        assert merged.recognition_errors == 1
        assert merged.dtw_evals == 40

    def test_shortlist_hist_merges_over_key_union(self):
        merged = _stats(shortlist_hist={"110": 1}).merge(
            _stats(
                shortlist_hist={"110": 2, "256": 1}, injected={"drop": 3}
            )
        )
        assert merged.shortlist_hist == {"110": 3, "256": 1}
        assert merged.injected == {"drop": 3}

    def test_shortlist_percentiles(self):
        stats = _stats(shortlist_hist={"64": 5, "256": 4, "16": 1})
        p = stats.shortlist_percentiles()
        assert p["p50"] == 64.0
        assert p["p99"] == 256.0
        assert _stats().shortlist_percentiles() == {}


class TestServeFactoryPath:
    def test_sharded_replay_recognizes(self, word_run, word_log):
        from repro.lexicon import RecognizerFactory
        from repro.serve import replay_log

        replay = replay_log(
            word_run.system,
            word_log,
            shards=2,
            config=SessionConfig(
                out_of_order="drop", sample_rate=word_run.config.sample_rate
            ),
            emit_points=False,
            recognizer_factory=RecognizerFactory(),
        )
        assert replay.stats.classified == 1
        assert replay.stats.dtw_evals > 0
        assert sum(replay.stats.shortlist_hist.values()) == 1
        finalized = [
            e for e in replay.events if e.type.name == "FINALIZED"
        ]
        assert finalized[0].recognition.word == "dog"
