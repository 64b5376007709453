"""The matrix runner: expand a config, inject faults, replay, score.

One cell of the matrix runs the full production path end to end:

1. *simulate* — :func:`repro.experiments.scenarios.simulate_word`
   produces the clean recorded report stream plus ground truth;
2. *injure* — the cell's :class:`~repro.testbed.faults.FaultPipeline`
   perturbs the stream deterministically per seed;
3. *record* — the faulted stream is written as a JSONL replay log in
   arrival order (the artifact a real deployment would have captured);
4. *replay* — a :class:`~repro.stream.manager.SessionManager` with the
   robust ingest policy (``out_of_order="drop"``) streams the log, ghost
   EPCs and all;
5. *score* — the real tag's reconstruction is scored against ground
   truth: median/p90 trajectory error (the paper's offset convention)
   and character/word recognition rates, alongside the fault-injection
   and manager counters.

The contract the accuracy gate enforces: a declared fault scenario may
*degrade* (higher error, shorter trajectory, lower recognition) but must
never take down the run — any unhandled exception inside a cell is
captured as ``completed=False`` and fails CI.
"""

from __future__ import annotations

import dataclasses
import json
import traceback
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.analysis.metrics import trajectory_error_rfidraw
from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.handwriting.recognizer import CharacterRecognizer, WordRecognizer
from repro.io.logs import save_phase_log
from repro.lexicon import LexiconRecognizer, default_lexicon
from repro.stream.config import SessionConfig
from repro.stream.manager import SessionManager
from repro.testbed.config import ScenarioSpec, TestbedConfig
from repro.testbed.faults import FaultPipeline

__all__ = [
    "ScenarioScore",
    "run_scenario",
    "run_matrix",
    "format_scores",
    "write_scores",
    "load_scores",
]


@dataclass
class ScenarioScore:
    """One scored matrix cell (JSON-ready via :func:`write_scores`).

    ``completed`` means *no unhandled exception* — the graceful-
    degradation bar every declared fault scenario must clear.
    ``recovered`` means the real tag's trajectory was actually
    reconstructed; a fault heavy enough to lose the tag entirely leaves
    the accuracy fields ``None`` (the gate then compares against the
    baseline's expectation for that cell).
    """

    scenario: str
    word: str
    completed: bool
    recovered: bool
    error: str | None = None
    median_error_m: float | None = None
    p90_error_m: float | None = None
    trajectory_points: int = 0
    char_accuracy: float | None = None
    chars_total: int = 0
    word_correct: bool | None = None
    recognition: dict | None = None
    report_count: int = 0
    faulted_report_count: int = 0
    fault_counters: dict = field(default_factory=dict)
    manager_stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _slug(name: str) -> str:
    """Scenario name → safe replay-log filename stem."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


@lru_cache(maxsize=4)
def _lexicon_recognizer(size: int) -> WordRecognizer | LexiconRecognizer:
    """Shared per-size lexicon recogniser.

    Cells that set ``lexicon = N`` score against the deterministic
    shared lexicon through the indexed :class:`LexiconRecognizer`
    (``0`` = a ``WordRecognizer`` over the embedded corpus); caching per
    size keeps the (expensive) lexicon build and the template LRU warm
    across the matrix instead of rebuilding per cell.
    """
    if size == 0:
        return WordRecognizer()
    return LexiconRecognizer(default_lexicon(size))


def run_scenario(
    spec: ScenarioSpec,
    replay_dir=None,
    score_words: bool = False,
    recognizer: CharacterRecognizer | None = None,
    word_recognizer: WordRecognizer | None = None,
) -> ScenarioScore:
    """Run and score one matrix cell; never raises for in-cell failures.

    Args:
        spec: the expanded scenario cell.
        replay_dir: where to record the faulted JSONL replay log;
            ``None`` records into a throwaway temp dir.
        score_words: also run whole-word recognition (slower — a DTW
            sweep over the candidate shortlist per cell). A cell can
            force this on for itself with ``score_words = true`` in its
            spec; ``lexicon = N`` there scores against the N-word
            deterministic lexicon instead of the embedded corpus.
        recognizer / word_recognizer: share recognizers across cells
            (template setup is the expensive part).
    """
    score = ScenarioScore(
        scenario=spec.name, word=spec.word, completed=False, recovered=False
    )
    try:
        _run_scenario_body(
            spec, score, replay_dir, score_words, recognizer, word_recognizer
        )
        score.completed = True
    except Exception as error:  # the graceful-degradation contract:
        # a cell records its crash instead of taking down the matrix
        # (and the gate fails CI on any cell that got here).
        score.error = "".join(
            traceback.format_exception_only(type(error), error)
        ).strip()
    return score


def _run_scenario_body(
    spec: ScenarioSpec,
    score: ScenarioScore,
    replay_dir,
    score_words: bool,
    recognizer: CharacterRecognizer | None,
    word_recognizer: WordRecognizer | None,
) -> None:
    sim_config = ScenarioConfig(
        distance=spec.distance,
        los=spec.los,
        letter_height=spec.letter_height,
        phase_noise_sigma=spec.phase_noise_sigma,
        antenna_jitter_sigma=spec.antenna_jitter_sigma,
        reader_dwell=spec.reader_dwell,
        sample_rate=spec.sample_rate,
        candidate_count=spec.candidate_count,
    )
    run = simulate_word(
        spec.word,
        user=spec.user,
        seed=spec.seed,
        config=sim_config,
        run_baseline=False,
    )
    reports = run.rfidraw_log.reports
    score.report_count = len(reports)
    real_epc = reports[0].epc_hex if reports else None

    pipeline = FaultPipeline.from_spec(spec.faults, seed=spec.seed)
    faulted = pipeline.inject(reports)
    score.faulted_report_count = len(faulted)
    score.fault_counters = pipeline.flat_counters()

    if replay_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            log_path = Path(tmp) / f"{_slug(spec.name)}.jsonl"
            save_phase_log(faulted, log_path)
            results, stats = _replay(
                run, pipeline, log_path, shards=spec.service_shards
            )
    else:
        replay_dir = Path(replay_dir)
        replay_dir.mkdir(parents=True, exist_ok=True)
        log_path = replay_dir / f"{_slug(spec.name)}.jsonl"
        save_phase_log(faulted, log_path)
        results, stats = _replay(
            run, pipeline, log_path, shards=spec.service_shards
        )

    score.manager_stats = stats.as_dict()
    result = results.get(real_epc)
    if result is None or len(result.times) == 0:
        return  # faults lost the tag; completed, not recovered

    trajectory = result.trajectory
    truth = run.truth_on(result.times)
    errors = trajectory_error_rfidraw(trajectory, truth)
    score.recovered = True
    score.median_error_m = float(np.median(errors))
    score.p90_error_m = float(np.percentile(errors, 90))
    score.trajectory_points = int(len(errors))

    from repro.experiments.fig14_char_recognition import recognize_characters

    recognizer = recognizer or CharacterRecognizer()
    correct, total = recognize_characters(
        recognizer, trajectory, result.times, run.trace.letter_spans
    )
    score.chars_total = total
    score.char_accuracy = (correct / total) if total else None
    if score_words or spec.score_words:
        if spec.lexicon > 0:
            word_recognizer = _lexicon_recognizer(spec.lexicon)
        else:
            word_recognizer = word_recognizer or _lexicon_recognizer(0)
        recognition = word_recognizer.recognize(trajectory)
        score.word_correct = recognition.word == spec.word
        score.recognition = {
            "word": recognition.word,
            "lexicon": spec.lexicon or len(word_recognizer.dictionary),
            "shortlist_size": recognition.shortlist_size,
            "dtw_evals": recognition.dtw_evals,
        }


def _replay(run, pipeline: FaultPipeline, log_path: Path, shards: int = 0):
    """Stream the recorded faulted log through the robust ingest policy.

    ``shards == 0`` replays through a single in-process
    :class:`SessionManager` (the original path); ``shards >= 1`` routes
    the same log through the sharded
    :class:`repro.serve.TrackingService` — per-EPC results are
    bit-identical either way (``tests/test_serve.py``), so the accuracy
    gate scores the service tier against the very same baselines.
    """
    config = SessionConfig(
        out_of_order="drop", sample_rate=run.config.sample_rate
    )
    if shards > 0:
        from repro.serve import replay_log

        replay = replay_log(
            run.system, log_path, shards=shards, config=config,
            emit_points=False,
        )
        stats = dataclasses.replace(
            replay.stats, injected=pipeline.flat_counters()
        )
        return replay.results, stats
    manager = SessionManager(run.system, config=config)
    manager.note_injected(pipeline.flat_counters())
    results = manager.replay(log_path)
    return results, results.stats


def run_matrix(
    config: TestbedConfig,
    replay_dir=None,
    score_words: bool = False,
    progress=None,
) -> list[ScenarioScore]:
    """Run every expanded cell of a config; one score per scenario.

    Args:
        config: the expanded :class:`TestbedConfig`.
        replay_dir: directory collecting every cell's JSONL replay log
            (``None`` = throwaway temp files).
        score_words: also score whole-word recognition per cell.
        progress: optional callback receiving each finished
            :class:`ScenarioScore` (the CLI prints rows as they land).
    """
    recognizer = CharacterRecognizer()
    word_recognizer = WordRecognizer() if score_words else None
    scores = []
    for spec in config.scenarios:
        score = run_scenario(
            spec,
            replay_dir=replay_dir,
            score_words=score_words,
            recognizer=recognizer,
            word_recognizer=word_recognizer,
        )
        scores.append(score)
        if progress is not None:
            progress(score)
    return scores


# ----------------------------------------------------------------------
# Score tables
# ----------------------------------------------------------------------
def format_scores(scores: list[ScenarioScore]) -> str:
    """Aligned text table of a matrix run (the CLI's output)."""

    def fmt_err(value) -> str:
        return f"{value * 100:7.2f} cm" if value is not None else "      —   "

    def fmt_acc(value) -> str:
        return f"{value * 100:5.1f} %" if value is not None else "   —   "

    width = max([len(s.scenario) for s in scores] + [8])
    lines = [
        f"{'scenario':{width}s} {'median err':>10s} {'p90 err':>10s} "
        f"{'chars':>7s} {'points':>6s} {'reports':>9s}  status"
    ]
    lines.append("-" * len(lines[0]))
    for s in scores:
        if not s.completed:
            status = "CRASHED"
        elif not s.recovered:
            status = "lost tag"
        else:
            status = "ok"
        lines.append(
            f"{s.scenario:{width}s} {fmt_err(s.median_error_m)} "
            f"{fmt_err(s.p90_error_m)} {fmt_acc(s.char_accuracy)} "
            f"{s.trajectory_points:6d} "
            f"{s.faulted_report_count:4d}/{s.report_count:<4d} {status}"
        )
    return "\n".join(lines)


def write_scores(
    scores: list[ScenarioScore], path, config_name: str = ""
) -> None:
    """Write the machine-readable score table (the gate's input)."""
    payload = {
        "config": config_name,
        "generated_by": "python -m repro.testbed run",
        "scenarios": [score.as_dict() for score in scores],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_scores(path) -> dict[str, dict]:
    """Read a score table back as ``{scenario: score_dict}``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {entry["scenario"]: entry for entry in payload["scenarios"]}
