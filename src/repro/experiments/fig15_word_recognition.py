"""Figure 15 — word recognition success rate vs word length.

The paper: 92 % of RF-IDraw's reconstructed word trajectories are
correctly recognised, staying ≥ 88 % even for words of 6+ letters, while
0 % of the antenna-array scheme's trajectories are recognised.

Paper's bars (letters → RF-IDraw %): 2 → 95, 3 → 94, 4 → 91, 5 → 90,
≥6 → 88; arrays: 0 % everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.handwriting.corpus import words_by_length
from repro.handwriting.recognizer import WordRecognizer

__all__ = ["run", "PAPER"]

#: Figure 15's reported success rates (percent) per word length.
PAPER = {
    "lengths": (2, 3, 4, 5, 6),
    "rfidraw_percent": (95.0, 94.0, 91.0, 90.0, 88.0),
    "arrays_percent": (0.0, 0.0, 0.0, 0.0, 0.0),
    "overall_rfidraw_percent": 92.0,
}


def run(
    words_per_length: int = 6,
    lengths: tuple[int, ...] = (2, 3, 4, 5, 6),
    seed: int = 15,
    include_baseline: bool = True,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Measure whole-word recognition for both systems vs word length.

    Args:
        words_per_length: sessions per word-length bucket.
        lengths: word lengths to test; the last bucket means "≥ that".
        seed: experiment seed.
        include_baseline: also feed the arrays' trajectories to the
            recogniser (slower; always 0–random in practice).
    """
    result = ExperimentResult(
        "fig15",
        "Word recognition success rate vs number of characters",
    )
    recognizer = WordRecognizer()
    rng = np.random.default_rng(seed)
    grouped = words_by_length()
    overall_correct = overall_total = 0
    for l_index, length in enumerate(lengths):
        if length == lengths[-1]:
            pool = [
                w
                for group_length, ws in grouped.items()
                if group_length >= length
                for w in ws
            ]
        else:
            pool = grouped.get(length, [])
        if not pool:
            continue
        chosen = [
            pool[int(i)]
            for i in rng.choice(
                len(pool), size=min(words_per_length, len(pool)), replace=False
            )
        ]
        rf_correct = arr_correct = 0
        jobs = [
            WordJob(
                word,
                user=w_index % 5,
                seed=seed * 100 + l_index * 10 + w_index,
                config=ScenarioConfig(
                    distance=2.0 + 0.5 * (w_index % 4), los=True
                ),
            )
            for w_index, word in enumerate(chosen)
        ]
        runs = simulate_words(
            jobs,
            run_baseline=include_baseline,
            max_workers=max_workers,
            batch_reconstruct=True,
        )
        for word, run_ in zip(chosen, runs):
            prediction = recognizer.classify(run_.rfidraw_result.trajectory)
            rf_correct += prediction == word
            if include_baseline:
                baseline_prediction = recognizer.classify(
                    run_.baseline_trajectory
                )
                arr_correct += baseline_prediction == word
        overall_correct += rf_correct
        overall_total += len(chosen)
        label = f"{length}" if length != lengths[-1] else f">={length}"
        row = dict(
            characters=label,
            words=len(chosen),
            rfidraw_percent=100.0 * rf_correct / len(chosen),
            paper_rfidraw=PAPER["rfidraw_percent"][
                min(l_index, len(PAPER["rfidraw_percent"]) - 1)
            ],
        )
        if include_baseline:
            row["arrays_percent"] = 100.0 * arr_correct / len(chosen)
            row["paper_arrays"] = 0.0
        result.add_row(**row)

    overall = 100.0 * overall_correct / max(overall_total, 1)
    result.add_note(
        f"overall RF-IDraw word success {overall:.0f} % "
        f"(paper: {PAPER['overall_rfidraw_percent']:.0f} %)"
    )
    return result
