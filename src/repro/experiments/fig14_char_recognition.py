"""Figure 14 — character recognition success rate vs distance.

The paper feeds reconstructed trajectories to a handwriting recognition
app and measures the per-character success rate at 2, 3 and 5 m: 98.0 %,
97.6 % and 97.3 % for RF-IDraw versus 4.2 %, 3.7 % and 0.4 % for the
antenna arrays — the latter "equivalent to a random guess" (1/26 ≈ 3.8 %).

Characters are segmented using the known per-letter time spans (the paper
segments words manually) and each segment is classified independently.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.handwriting.corpus import sample_words
from repro.handwriting.recognizer import CharacterRecognizer

__all__ = ["run", "PAPER", "character_segments", "recognize_characters"]

#: Figure 14's reported success rates (percent).
PAPER = {
    "distances_m": (2.0, 3.0, 5.0),
    "rfidraw_percent": (98.0, 97.6, 97.3),
    "arrays_percent": (4.2, 3.7, 0.4),
    "random_guess_percent": 100.0 / 26.0,
}


def character_segments(
    trajectory: np.ndarray,
    timeline: np.ndarray,
    letter_spans: list[tuple[str, float, float]],
    min_points: int = 4,
) -> list[tuple[str, np.ndarray]]:
    """Cut a reconstructed trajectory into per-letter segments by time."""
    segments = []
    for char, start, end in letter_spans:
        mask = (timeline >= start) & (timeline <= end)
        if mask.sum() >= min_points:
            segments.append((char, trajectory[mask]))
    return segments


def recognize_characters(
    recognizer: CharacterRecognizer,
    trajectory: np.ndarray,
    timeline: np.ndarray,
    letter_spans: list[tuple[str, float, float]],
) -> tuple[int, int]:
    """(correct, total) character recognitions on one trajectory."""
    correct = total = 0
    for char, segment in character_segments(trajectory, timeline, letter_spans):
        total += 1
        if recognizer.classify(segment) == char:
            correct += 1
    return correct, total


def run(
    words_per_distance: int = 8,
    distances: tuple[float, ...] = (2.0, 3.0, 5.0),
    seed: int = 14,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Measure per-character recognition for both systems vs distance."""
    result = ExperimentResult(
        "fig14",
        "Character recognition success rate vs user distance",
    )
    recognizer = CharacterRecognizer()
    rng = np.random.default_rng(seed)
    for d_index, distance in enumerate(distances):
        words = sample_words(
            words_per_distance, rng, min_length=3, max_length=7
        )
        rf_correct = rf_total = arr_correct = arr_total = 0
        jobs = [
            WordJob(
                word,
                user=w_index % 5,
                seed=seed * 100 + d_index * 10 + w_index,
                config=ScenarioConfig(distance=distance, los=True),
            )
            for w_index, word in enumerate(words)
        ]
        runs = simulate_words(
            jobs, max_workers=max_workers, batch_reconstruct=True
        )
        for run_ in runs:
            spans = run_.trace.letter_spans
            reconstruction = run_.rfidraw_result
            c, t = recognize_characters(
                recognizer, reconstruction.trajectory, run_.timeline, spans
            )
            rf_correct += c
            rf_total += t
            c, t = recognize_characters(
                recognizer,
                run_.baseline_trajectory,
                run_.baseline_timeline,
                spans,
            )
            arr_correct += c
            arr_total += t
        result.add_row(
            distance_m=distance,
            rfidraw_percent=100.0 * rf_correct / max(rf_total, 1),
            arrays_percent=100.0 * arr_correct / max(arr_total, 1),
            characters=rf_total,
            paper_rfidraw=PAPER["rfidraw_percent"][
                min(d_index, len(PAPER["rfidraw_percent"]) - 1)
            ],
            paper_arrays=PAPER["arrays_percent"][
                min(d_index, len(PAPER["arrays_percent"]) - 1)
            ],
        )
    rf = result.column("rfidraw_percent")
    arr = result.column("arrays_percent")
    result.add_note(
        f"RF-IDraw success stays high across distance ({min(rf):.0f}–"
        f"{max(rf):.0f} %); arrays stay near the 3.8 % random-guess floor "
        f"({min(arr):.1f}–{max(arr):.1f} %)"
    )
    return result
