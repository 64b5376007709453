"""Ablation benchmarks for RF-IDraw's design choices.

DESIGN.md calls out three design decisions; each ablation removes one and
shows the resulting failure mode:

* **No coarse filter** (wide pairs only): positioning keeps the
  resolution but drowns in grating-lobe ambiguity — many spurious
  candidates with votes as good as the truth's.
* **No wide pairs** (coarse filter only): unambiguous but low-resolution —
  the fix is far coarser than the full system's.
* **Grid tracer vs least-squares tracer**: the paper-literal local grid
  search and the production Gauss–Newton step optimise the same
  objective; the benchmark shows their agreement and the speed gap.
"""

import numpy as np
import pytest

from repro.core.positioning import MultiResolutionPositioner
from repro.core.voting import vote_map_on_grid
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.rf.constants import DEFAULT_WAVELENGTH

from repro.experiments.fig06_positioning import make_snapshot
from repro.experiments.fig07_wrong_lobe import ideal_series
from repro.handwriting.generator import HandwritingGenerator, UserStyle

from tests.oracles import GridTracer, TrajectoryTracer


TRUTH_UV = (1.45, 1.25)


@pytest.fixture(scope="module")
def snapshot():
    return make_snapshot(TRUTH_UV)[0]


@pytest.fixture(scope="module")
def rig():
    wavelength = DEFAULT_WAVELENGTH
    return rfidraw_layout(wavelength), writing_plane(2.0), wavelength


def test_ablation_no_coarse_filter(benchmark, snapshot, rig):
    """Wide pairs alone: high resolution, unresolved ambiguity."""
    deployment, plane, wavelength = rig

    def wide_only_vote_map():
        wide = snapshot.subset(deployment.pairs(reader_id=1))
        return vote_map_on_grid(
            wide.pairs, wide.delta_phi, plane,
            (0.4, 2.4), (0.4, 2.4), 0.01, wavelength,
        )

    vote_map = benchmark(wide_only_vote_map)
    peaks = vote_map.peaks(count=30, min_separation=0.12, margin=0.005)
    # Ambiguity: many near-perfect intersections besides the true one.
    assert len(peaks) >= 8
    best_positions = np.array([p for p, _ in peaks])
    distances = np.linalg.norm(best_positions - np.asarray(TRUTH_UV), axis=1)
    # The truth is among them … but indistinguishable by vote.
    assert distances.min() < 0.02


def test_ablation_coarse_filter_only(benchmark, snapshot, rig):
    """Tight pairs alone: unambiguous but low resolution."""
    deployment, plane, wavelength = rig

    def tight_only_vote_map():
        tight = snapshot.subset(
            [deployment.pair(5, 6), deployment.pair(7, 8)]
        )
        return vote_map_on_grid(
            tight.pairs, tight.delta_phi, plane,
            (0.4, 2.4), (0.4, 2.4), 0.02, wavelength,
        )

    vote_map = benchmark(tight_only_vote_map)
    # Unambiguous: the surviving region is one blob …
    mask = vote_map.threshold_mask(0.002)
    assert mask.any()
    # … but it is coarse: tens of centimetres across, versus the full
    # system's sub-centimetre fix.
    cells = mask.sum()
    area_m2 = cells * 0.02 * 0.02
    assert area_m2 > 0.02  # ≥ ~14 cm × 14 cm equivalent


def test_ablation_full_system_resolution(benchmark, snapshot, rig):
    """The full two-stage system: unambiguous *and* sharp."""
    deployment, plane, wavelength = rig
    positioner = MultiResolutionPositioner(deployment, plane, wavelength)

    candidate = benchmark(lambda: positioner.locate(snapshot))
    assert np.linalg.norm(candidate.position - np.asarray(TRUTH_UV)) < 0.01


def test_ablation_grid_vs_least_squares_tracer(benchmark, rig):
    """The paper-literal grid tracer agrees with the production tracer."""
    deployment, plane, wavelength = rig
    generator = HandwritingGenerator(style=UserStyle.neutral(),
                                     letter_height=0.15)
    trace = generator.letter_trace("e", origin=(1.3, 1.2))
    series = ideal_series(trace.points, trace.times)

    ls_tracer = TrajectoryTracer(plane, wavelength)
    grid_tracer = GridTracer(plane, wavelength, radius=0.03, step=0.003)

    ls_result = ls_tracer.trace(series, trace.points[0])
    grid_result = benchmark.pedantic(
        lambda: grid_tracer.trace(series, trace.points[0]),
        rounds=1, iterations=1,
    )
    gap = np.linalg.norm(
        ls_result.positions - grid_result.positions, axis=1
    )
    assert np.median(gap) < 0.008  # within grid quantisation
