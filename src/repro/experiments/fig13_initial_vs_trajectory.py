"""Figure 13 — trajectory accuracy vs initial-position accuracy.

The paper bins its traces by initial-position error and reports the
median trajectory error per bin: ≈ 3–4 cm for initial errors below
40 cm, rising to ≈ 7–8 cm beyond — because a far-away grating lobe's
form differs more, enlarging parts of the trajectory (section 8.3).

Paper's bars (initial error bin → median trajectory error, cm):
0–0.1 m → 2.86, 0.1–0.2 → 3.64, 0.2–0.3 → 3.9, 0.3–0.4 → 3.67,
0.4–0.5 → 7.62, >0.5 → 7.91.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult
from repro.experiments.fig11_trajectory_cdf import collect_runs

__all__ = ["run", "PAPER"]

#: Paper Fig. 13 bars: (bin upper edge in m, median trajectory error cm).
PAPER = {
    "bins_m": (0.1, 0.2, 0.3, 0.4, 0.5, np.inf),
    "median_trajectory_error_cm": (2.86, 3.64, 3.9, 3.67, 7.62, 7.91),
    "flat_below_m": 0.4,
}


def run(
    words: int = 40,
    seed: int = 13,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Bin traces by initial error; report median trajectory error per bin.

    Mixes LOS and NLOS runs (as the effect is about lobe distance, not
    setting) to populate the large-initial-error bins.
    """
    result = ExperimentResult(
        "fig13",
        "Initial position accuracy vs trajectory accuracy (RF-IDraw)",
    )
    collected = collect_runs(
        words, True, seed, run_baseline=False, max_workers=max_workers
    )
    collected += collect_runs(
        words, False, seed + 1, run_baseline=False, max_workers=max_workers
    )

    edges = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, np.inf]
    labels = ["0-0.1", "0.1-0.2", "0.2-0.3", "0.3-0.4", "0.4-0.5", ">0.5"]
    per_trace = [
        (entry["rfidraw_init"], float(np.median(entry["rfidraw_errors"])))
        for entry in collected
    ]
    for low, high, label, paper_cm in zip(
        edges[:-1], edges[1:], labels, PAPER["median_trajectory_error_cm"]
    ):
        in_bin = [err for init, err in per_trace if low <= init < high]
        result.add_row(
            initial_error_bin_m=label,
            traces=len(in_bin),
            median_trajectory_error_cm=(
                100.0 * float(np.median(in_bin)) if in_bin else float("nan")
            ),
            paper_cm=paper_cm,
        )

    small = [err for init, err in per_trace if init < 0.4]
    large = [err for init, err in per_trace if init >= 0.4]
    if small and large:
        result.add_note(
            f"median trajectory error: {100 * np.median(small):.1f} cm when "
            f"the initial error is < 40 cm vs {100 * np.median(large):.1f} cm "
            "beyond — the paper's flat-then-rising pattern"
        )
    return result
