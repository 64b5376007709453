"""Figure 12 — CDF of initial-position error, LOS and NLOS, both systems.

The paper: RF-IDraw's median initial-position error is 19 cm (LOS) and
32 cm (NLOS), 2.2×/2.3× better than the antenna-array baseline (42 cm /
74 cm) — the improvement "comes from RF-IDraw's use of trajectory tracing
votes to refine its initial position estimate" (section 8.2).

The shape that must hold: RF-IDraw's initial fix beats the baseline's by
roughly 2×, in both settings, and the mechanism (vote-based candidate
re-ranking) is what delivers it.
"""

from __future__ import annotations

from repro.analysis.cdf import EmpiricalCdf
from repro.experiments.harness import ExperimentResult
from repro.experiments.fig11_trajectory_cdf import collect_runs

__all__ = ["run", "PAPER"]

#: Figure 12's reported numbers (cm).
PAPER = {
    "los": {"rfidraw_median": 19.0, "rfidraw_p90": 38.0,
            "baseline_median": 42.0, "baseline_p90": 148.0,
            "improvement": 2.2},
    "nlos": {"rfidraw_median": 32.0, "rfidraw_p90": 47.0,
             "baseline_median": 74.0, "baseline_p90": 183.0,
             "improvement": 2.3},
}


def run(
    words: int = 30,
    seed: int = 12,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 12's CDF summaries for LOS and NLOS."""
    result = ExperimentResult(
        "fig12",
        "CDF of initial position error distance (LOS and NLOS)",
    )
    for los in (True, False):
        setting = "los" if los else "nlos"
        collected = collect_runs(words, los, seed, max_workers=max_workers)
        rfidraw = EmpiricalCdf([c["rfidraw_init"] for c in collected])
        baseline = EmpiricalCdf([c["baseline_init"] for c in collected])
        improvement = baseline.median / max(rfidraw.median, 1e-9)
        result.add_row(
            setting=setting.upper(),
            system="RF-IDraw",
            median_cm=100.0 * rfidraw.median,
            p90_cm=100.0 * rfidraw.percentile(90),
            paper_median_cm=PAPER[setting]["rfidraw_median"],
            paper_p90_cm=PAPER[setting]["rfidraw_p90"],
        )
        result.add_row(
            setting=setting.upper(),
            system="Antenna arrays",
            median_cm=100.0 * baseline.median,
            p90_cm=100.0 * baseline.percentile(90),
            paper_median_cm=PAPER[setting]["baseline_median"],
            paper_p90_cm=PAPER[setting]["baseline_p90"],
        )
        result.add_note(
            f"{setting.upper()}: RF-IDraw's initial fix beats the arrays by "
            f"{improvement:.1f}× (paper: {PAPER[setting]['improvement']}×)"
        )
    return result
