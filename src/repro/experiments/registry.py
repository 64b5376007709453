"""Registry of all paper-figure experiments, with fast/full presets."""

from __future__ import annotations

import inspect

from repro.experiments.harness import ExperimentResult
from repro.experiments import (
    fig02_beamwidth,
    fig03_grating_lobes,
    fig04_multires_filter,
    fig06_positioning,
    fig07_wrong_lobe,
    fig10_microbenchmark,
    fig11_trajectory_cdf,
    fig12_initial_position_cdf,
    fig13_initial_vs_trajectory,
    fig14_char_recognition,
    fig15_word_recognition,
    fig16_play_5m,
    noise_robustness,
)

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

#: experiment id → (module, fast kwargs, full kwargs).
EXPERIMENTS: dict[str, tuple[object, dict, dict]] = {
    "fig02": (fig02_beamwidth, {}, {}),
    "fig03": (fig03_grating_lobes, {}, {}),
    "fig04": (fig04_multires_filter, {}, {}),
    "fig06": (fig06_positioning, {}, {}),
    "fig07": (fig07_wrong_lobe, {"max_intersections": 8}, {}),
    "fig10": (fig10_microbenchmark, {}, {}),
    "fig11": (fig11_trajectory_cdf, {"words": 8}, {"words": 75}),
    "fig12": (fig12_initial_position_cdf, {"words": 8}, {"words": 75}),
    "fig13": (fig13_initial_vs_trajectory, {"words": 10}, {"words": 75}),
    "fig14": (fig14_char_recognition, {"words_per_distance": 3}, {"words_per_distance": 12}),
    "fig15": (fig15_word_recognition, {"words_per_length": 3}, {"words_per_length": 10}),
    "fig16": (fig16_play_5m, {}, {}),
    "noise": (noise_robustness, {}, {}),
}


def run_experiment(
    experiment_id: str,
    fast: bool = True,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Run one experiment by id (``fig11``, ``noise``, …).

    Args:
        experiment_id: registry key.
        fast: fast preset (default) or paper-scale workloads.
        max_workers: process-pool fan-out for experiments whose word
            simulations batch through
            :func:`repro.experiments.scenarios.simulate_words`
            (fig11–fig15); experiments without a batch stage ignore it.
    """
    try:
        module, fast_kwargs, full_kwargs = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    kwargs = dict(fast_kwargs if fast else full_kwargs)
    if max_workers and max_workers > 1:
        if "max_workers" in inspect.signature(module.run).parameters:
            kwargs["max_workers"] = max_workers
    return module.run(**kwargs)


def run_all(fast: bool = True) -> list[ExperimentResult]:
    """Run every experiment, in figure order."""
    return [run_experiment(experiment_id, fast) for experiment_id in EXPERIMENTS]
