"""Performance regression harness for lexicon-scale word recognition.

Times the two hot operations of the recognition subsystem against
faithful replicas of the pre-subsystem code path — a Python loop of
scalar ``dtw_distance`` calls with the same adaptive early-abandon the
old ``WordRecognizer`` used — and merges machine-readable results into
``BENCH_engine.fresh.json`` alongside the engine/channel/stream entries:

- ``recognize_word_100k`` — one end-to-end warm recognition against the
  100 000-word deterministic lexicon: feature-index shortlist, cached
  templates, one chunked batched-DTW sweep; the legacy side scores the
  *same* shortlist with the scalar loop, so the ratio isolates the
  batched kernel + pruning machinery rather than template synthesis.
- ``dtw_batch_sweep`` — the raw kernel: ``dtw_distance_many`` over one
  fixed (T, N, 2) template stack versus T scalar ``dtw_distance`` calls,
  cross-checked element-wise to 1e-9 (no abandon on either side).
- ``recognize_word_cold_100k`` — the recognition a user waits for at
  pen-up in a fresh process: a new ``LexiconRecognizer`` per repeat, so
  every shortlist template is a cache miss. The legacy side renders the
  same shortlist one word at a time through the generator and
  ``normalize_trajectory`` and scores it with the same chunked batched
  DTW, so the ratio isolates batched template synthesis.

Asserted floors sit well below the measured speedups (≈10× end-to-end,
≈15× raw kernel, ≈2.5× cold on the dev box) so throttled CI hardware does not
flake, while still catching a regression to per-template Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.handwriting.dtw import dtw_distance
from repro.handwriting.generator import HandwritingGenerator, UserStyle
from repro.handwriting.recognizer import normalize_trajectory
from repro.lexicon import LexiconRecognizer, default_lexicon, dtw_distance_many
from repro.lexicon.recognizer import _ABANDON_SLACK, _SCORE_CHUNK

from bench_io import timed as _timed, timed_interleaved, update_bench


def _legacy_scalar_scores(query, templates, band):
    """The pre-subsystem scoring loop: one scalar DTW per template,
    early-abandoning against the running best — the exact per-word work
    the old ``WordRecognizer.scores`` did after its prefilter."""
    best = np.inf
    out = np.empty(len(templates))
    for index, template in enumerate(templates):
        bound = None if not np.isfinite(best) else best * _ABANDON_SLACK
        distance = dtw_distance(
            query, template, band=band, early_abandon=bound
        )
        out[index] = distance
        if distance < best:
            best = distance
    return out


def _legacy_cold_recognize(recognizer, trajectory):
    """Cold recognition with per-word template rendering: the shortlist,
    then one ``word_trace`` + ``normalize_trajectory`` per candidate,
    then the engine's chunked batched DTW with its adaptive bound."""
    picks = recognizer.index.shortlist(trajectory)
    words = [recognizer.lexicon.words[int(i)] for i in picks]
    query = normalize_trajectory(trajectory, recognizer.resample, deslant=True)
    generator = HandwritingGenerator(style=UserStyle.neutral(), font=recognizer.font)
    stack = np.stack(
        [
            normalize_trajectory(
                generator.word_trace(word).points, recognizer.resample, deslant=True
            )
            for word in words
        ]
    )
    distances = np.full(len(words), np.inf)
    best = np.inf
    for lo in range(0, len(words), _SCORE_CHUNK):
        bound = None if not np.isfinite(best) else best * _ABANDON_SLACK
        scored = dtw_distance_many(
            query, stack[lo : lo + _SCORE_CHUNK], band=recognizer.band, early_abandon=bound
        )
        distances[lo : lo + len(scored)] = scored
        finite = scored[np.isfinite(scored)]
        if len(finite):
            best = min(best, float(finite.min()))
    winner = int(np.argmin(distances))
    return words[winner], float(distances[winner])


def test_recognize_perf_regression():
    results = []

    # ------------------------------------------------------------------
    # Workload: the accuracy gate's lexicon cell ("water", 2 m, LOS)
    # recognised against the shared 100k lexicon.
    # ------------------------------------------------------------------
    run = simulate_word(
        "water",
        user=0,
        seed=4,
        config=ScenarioConfig(distance=2.0, los=True),
        run_baseline=False,
    )
    trajectory = run.rfidraw_result.trajectory
    recognizer = LexiconRecognizer(lexicon=default_lexicon(100_000))

    # Warm pass: fills the template LRU for the query's shortlist, so
    # both sides below score cached templates and the ratio measures
    # scoring, not synthesis.
    warm = recognizer.recognize(trajectory)
    assert warm.word == "water"

    engine_result, engine_s = _timed(
        lambda: recognizer.recognize(trajectory), repeats=3
    )
    picks = recognizer.index.shortlist(trajectory)
    words = [recognizer.lexicon.words[int(i)] for i in picks]
    templates = [recognizer.template(word) for word in words]
    query = normalize_trajectory(
        trajectory, recognizer.resample, deslant=True
    )
    legacy_scores, legacy_s = _timed(
        lambda: _legacy_scalar_scores(query, templates, recognizer.band),
        repeats=2,
    )
    # Same winner, same winning distance.
    legacy_best = int(np.argmin(legacy_scores))
    assert words[legacy_best] == engine_result.word
    assert abs(legacy_scores[legacy_best] - engine_result.distance) < 1e-9
    results.append(
        {
            "op": "recognize_word_100k",
            "lexicon_words": len(recognizer.lexicon),
            "shortlist": int(engine_result.shortlist_size),
            "dtw_evals": int(engine_result.dtw_evals),
            "wall_seconds": engine_s,
            "wall_seconds_legacy": legacy_s,
            "speedup": legacy_s / engine_s,
        }
    )

    # ------------------------------------------------------------------
    # Op 2: the raw batched kernel on a fixed stack, exact both sides.
    # ------------------------------------------------------------------
    stack = np.stack([t for t in templates[:256]])
    batch_out, batch_s = _timed(
        lambda: dtw_distance_many(query, stack, band=recognizer.band),
        repeats=3,
    )
    scalar_out, scalar_s = _timed(
        lambda: np.array(
            [
                dtw_distance(query, template, band=recognizer.band)
                for template in stack
            ]
        ),
    )
    assert np.abs(batch_out - scalar_out).max() < 1e-9
    results.append(
        {
            "op": "dtw_batch_sweep",
            "templates": int(stack.shape[0]),
            "points": int(stack.shape[1]),
            "wall_seconds": batch_s,
            "wall_seconds_legacy": scalar_s,
            "speedup": scalar_s / batch_s,
        }
    )

    # ------------------------------------------------------------------
    # Op 3: cold recognition — every shortlist template is synthesised.
    # ------------------------------------------------------------------
    lexicon = recognizer.lexicon
    (cold, cold_s), (legacy_cold, legacy_cold_s) = timed_interleaved(
        [
            lambda fresh: fresh.recognize(trajectory),
            lambda fresh: _legacy_cold_recognize(fresh, trajectory),
        ],
        repeats=5,
        setup=lambda: LexiconRecognizer(lexicon=lexicon),
    )
    assert cold.word == legacy_cold[0] == "water"
    assert abs(cold.distance - legacy_cold[1]) < 1e-9
    results.append(
        {
            "op": "recognize_word_cold_100k",
            "lexicon_words": len(lexicon),
            "shortlist": int(cold.shortlist_size),
            "wall_seconds": cold_s,
            "wall_seconds_legacy": legacy_cold_s,
            "speedup": legacy_cold_s / cold_s,
        }
    )

    update_bench(results)

    # Conservative floors — the acceptance bar is the recorded ≥5× on
    # recognize_word_100k; these only have to catch a collapse back to
    # per-template Python loops on a throttled runner.
    by_op = {entry["op"]: entry for entry in results}
    assert by_op["recognize_word_100k"]["speedup"] >= 3.0
    assert by_op["dtw_batch_sweep"]["speedup"] >= 3.0
    assert by_op["recognize_word_cold_100k"]["speedup"] >= 1.5
