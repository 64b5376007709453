"""Unit tests for the two-stage multi-resolution positioner."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import positioning
from repro.core.engine import PairBank
from repro.core.positioning import (
    MultiResolutionPositioner,
    PositionCandidate,
    PositionerConfig,
)
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.wifi import WifiTracker

from tests.helpers import ideal_snapshot
from tests.oracles import ScipyPositioner


@pytest.fixture
def positioner(deployment, plane, wavelength):
    return MultiResolutionPositioner(deployment, plane, wavelength)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PositionerConfig(coarse_step=0.0)
        with pytest.raises(ValueError):
            PositionerConfig(fine_step=0.1, coarse_step=0.05)
        with pytest.raises(ValueError):
            PositionerConfig(candidate_count=0)

    def test_frozen(self):
        """The grid geometry cache is keyed on the config's values, so a
        config must not change under a positioner."""
        config = PositionerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.coarse_step = 0.02


class TestSplitPairs:
    def test_partition(self, positioner, deployment, plane, wavelength):
        snap = ideal_snapshot(deployment, plane, [1.0, 1.0], wavelength)
        unique_beam, other_filter, resolution = positioner.split_pairs(snap)
        assert len(unique_beam) == 2  # <5,6> and <7,8>
        assert len(other_filter) == 4  # cross pairs of reader 2
        assert len(resolution) == 6  # reader 1's pairs
        ids = {snap.pairs[i].ids for i in unique_beam}
        assert ids == {(5, 6), (7, 8)}


class TestCandidates:
    def test_exact_fix_in_free_space(self, positioner, deployment, plane, wavelength):
        truth = np.array([1.35, 1.22])
        snap = ideal_snapshot(deployment, plane, truth, wavelength)
        best = positioner.locate(snap)
        assert np.linalg.norm(best.position - truth) < 1e-3
        assert best.vote == pytest.approx(0.0, abs=1e-6)

    def test_secondary_candidates_are_lobe_intersections(
        self, positioner, deployment, plane, wavelength
    ):
        truth = np.array([1.35, 1.22])
        snap = ideal_snapshot(deployment, plane, truth, wavelength)
        candidates = positioner.candidates(snap, count=4)
        assert len(candidates) >= 2
        # Sorted by vote: the true position wins.
        assert candidates[0].vote >= candidates[-1].vote
        # Others sit at nearby intersections, not random junk.
        for candidate in candidates[1:]:
            distance = np.linalg.norm(candidate.position - truth)
            assert 0.1 < distance < 1.0

    def test_count_respected(self, positioner, deployment, plane, wavelength):
        snap = ideal_snapshot(deployment, plane, [1.0, 1.4], wavelength)
        assert len(positioner.candidates(snap, count=2)) <= 2

    def test_works_across_the_plane(self, positioner, deployment, plane, wavelength):
        for truth in ([0.5, 0.8], [2.0, 1.8], [1.0, 2.2]):
            snap = ideal_snapshot(deployment, plane, truth, wavelength)
            best = positioner.locate(snap)
            assert np.linalg.norm(best.position - np.asarray(truth)) < 5e-3

    def test_robust_to_moderate_phase_noise(
        self, positioner, deployment, plane, wavelength, rng
    ):
        truth = np.array([1.35, 1.22])
        snap = ideal_snapshot(deployment, plane, truth, wavelength)
        snap.delta_phi += rng.normal(0.0, 0.1, size=snap.delta_phi.shape)
        best = positioner.locate(snap)
        assert np.linalg.norm(best.position - truth) < 0.08

    def test_missing_tight_pairs_raises(
        self, positioner, deployment, plane, wavelength
    ):
        snap = ideal_snapshot(deployment, plane, [1.0, 1.0], wavelength)
        wide_only = snap.subset(deployment.pairs(reader_id=1))
        with pytest.raises(ValueError, match="coarse filter"):
            positioner.candidates(wide_only)

    def test_missing_wide_pairs_raises(
        self, positioner, deployment, plane, wavelength
    ):
        snap = ideal_snapshot(deployment, plane, [1.0, 1.0], wavelength)
        tight_only = snap.subset(deployment.pairs(reader_id=2))
        with pytest.raises(ValueError, match="widely spaced"):
            positioner.candidates(tight_only)


class TestCandidateDataclass:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            PositionCandidate(np.zeros(3), 0.0)


def _sequential_picks(positioner, snapshot, count, refine):
    """The pick rule one grid point at a time: vote order, skip a point
    within ``min_candidate_separation`` of a picked (refined) candidate,
    refine each pick on its own with ``refine(bank, delta_phi, (1, 2))``."""
    bank = PairBank(snapshot.pairs)
    grid_uv, votes = positioner._grid_votes(snapshot, bank)
    separation = positioner.config.min_candidate_separation
    picked = []
    for index in np.argsort(votes)[::-1]:
        point = grid_uv[index]
        if any(
            np.linalg.norm(point - chosen.position) < separation
            for chosen in picked
        ):
            continue
        position, vote = refine(bank, snapshot.delta_phi, point[np.newaxis, :])
        picked.append(PositionCandidate(position[0], float(vote[0])))
        if len(picked) >= count:
            break
    return picked


def _assert_identical(found, expected):
    assert len(found) == len(expected)
    for mine, theirs in zip(found, expected):
        assert np.array_equal(mine.position, theirs.position)
        assert mine.vote == theirs.vote


class TestSpeculativePicks:
    def test_misguessed_batch_replays_the_pick_rule(
        self, positioner, deployment, plane, wavelength, monkeypatch
    ):
        """A refine that moves every pick 14 cm makes the batch's grid-point
        guesses wrong; the replay must still pick exactly what the
        one-at-a-time rule picks, over more than one round."""
        engine_refine = positioner._refine_many
        rounds = []

        def shifted(bank, delta_phi, starts):
            rounds.append(len(starts))
            position, vote = engine_refine(bank, delta_phi, starts)
            return position + np.array([0.14, 0.0]), vote

        snap = ideal_snapshot(deployment, plane, [0.8, 1.0], wavelength)
        monkeypatch.setattr(positioner, "_refine_many", shifted)
        found = positioner.candidates(snap, count=8)
        batched_rounds = len(rounds)
        expected = _sequential_picks(positioner, snap, 8, shifted)
        _assert_identical(found, expected)
        assert batched_rounds > 1
        assert batched_rounds < len(expected)

    def test_unrefined_picks_follow_the_rule(self, deployment, plane, wavelength):
        """Without refinement the picks are grid points with their grid
        votes, chosen by the same rule."""
        positioner = MultiResolutionPositioner(
            deployment,
            plane,
            wavelength,
            config=PositionerConfig(refine_candidates=False),
        )
        snap = ideal_snapshot(deployment, plane, [1.35, 1.22], wavelength)
        grid_uv, votes = positioner._grid_votes(snap, PairBank(snap.pairs))
        vote_of = {tuple(point): vote for point, vote in zip(grid_uv, votes)}

        def unrefined(bank, delta_phi, starts):
            return starts, np.array([vote_of[tuple(starts[0])]])

        expected = _sequential_picks(positioner, snap, 6, unrefined)
        assert len(expected) == 6
        _assert_identical(positioner.candidates(snap, count=6), expected)


class TestGeometryCache:
    def test_shared_across_positioners_and_bounded(self, deployment, wavelength):
        bank = PairBank(deployment.pairs())
        config = PositionerConfig()
        plane = writing_plane(2.0)
        first = positioning._grid_geometry(plane, config, bank)
        assert positioning._grid_geometry(writing_plane(2.0), config, bank) is first
        for distance in (2.5, 3.0, 3.5, 4.0, 4.5):
            positioning._grid_geometry(writing_plane(distance), config, bank)
        assert (
            len(positioning._geometry_cache) <= positioning._GEOMETRY_CACHE_SIZE
        )
        assert positioning._grid_geometry(plane, config, bank) is not first
        assert not first.fine_distances.flags.writeable


_WAVELENGTH = DEFAULT_WAVELENGTH
_DEPLOYMENT = rfidraw_layout(_WAVELENGTH)


def _oracle_of(positioner):
    """The scipy positioner on ``positioner``'s geometry and config."""
    return ScipyPositioner(
        positioner.deployment,
        positioner.plane,
        positioner.wavelength,
        positioner.round_trip,
        positioner.config,
    )


@st.composite
def warmups(draw):
    """A noise-free warm-up: a positioner and a snapshot of a static tag,
    with a random subset of pairs removed (at least one unique-beam pair
    and one resolution pair stay).

    The geometry is either the RFID constellation with a plane 2–5 m out,
    or the WiFi tracker's (one-way phases, a 2.5 mm fine grid, the
    constellation shrunk to 8λ ≈ 46 cm, a plane 1–2 m out).
    """
    if draw(st.booleans()):
        tracker = WifiTracker(plane_distance=draw(st.floats(1.0, 2.0)))
        positioner = tracker.system.positioner
        side = 8.0 * tracker.wavelength
        truth = [draw(st.floats(0.0, side)), draw(st.floats(0.0, side))]
    else:
        plane = writing_plane(draw(st.floats(min_value=2.0, max_value=5.0)))
        positioner = MultiResolutionPositioner(_DEPLOYMENT, plane, _WAVELENGTH)
        truth = [
            draw(st.floats(min_value=0.0, max_value=2.6)),
            draw(st.floats(min_value=0.2, max_value=2.4)),
        ]
    snapshot = ideal_snapshot(
        positioner.deployment,
        positioner.plane,
        truth,
        positioner.wavelength,
        positioner.round_trip,
    )
    unique_beam, _, resolution = positioner.split_pairs(snapshot)
    kept = {draw(st.sampled_from(unique_beam)), draw(st.sampled_from(resolution))}
    removed = draw(st.sets(st.integers(0, len(snapshot.pairs) - 1)))
    keep = [i for i in range(len(snapshot.pairs)) if i in kept or i not in removed]
    snapshot = snapshot.subset([snapshot.pairs[i] for i in keep])
    # Antennas all on one line (e.g. only the vertical pairs <1,4> and
    # <5,6> left) make the snapshot rotationally symmetric about it: every
    # fix has a mirror image, and least squares meets a valley so flat
    # that scipy's and the engine's LM may stop centimetres apart at
    # equally good points. TestCollinear pins that case by its votes.
    antennas = PairBank(snapshot.pairs).positions
    assume(np.linalg.svd(antennas - antennas.mean(axis=0), compute_uv=False)[1] > 1e-6)
    return positioner, snapshot, draw(st.integers(min_value=1, max_value=8))


class TestOracleEquivalence:
    """The engine positioner against the scipy positioner it replaced."""

    @given(warmups())
    @settings(max_examples=40, deadline=None, database=None)
    def test_matches_scipy_oracle(self, warmup):
        engine, snapshot, count = warmup
        oracle = _oracle_of(engine)
        found = engine.candidates(snapshot, count)
        expected = oracle.candidates(snapshot, count)
        # Same count and order, within the engine-vs-scipy tracer bounds.
        # Candidates whose votes tie (mirror images on a symmetric
        # snapshot) may come in either order: float rounding decides.
        assert len(found) == len(expected)
        for mine, theirs in zip(found, expected):
            tied = [t for t in expected if abs(t.vote - theirs.vote) < 1e-9]
            assert any(
                np.linalg.norm(mine.position - t.position) < 1e-4
                and abs(mine.vote - t.vote) < 1e-5
                for t in tied
            )

        # Batched rounds equal one-at-a-time engine refines, bit for bit.
        _assert_identical(
            found,
            _sequential_picks(engine, snapshot, count, engine._refine_many),
        )

        # The cached lattice keeps the oracle's fine points, and its votes
        # equal PairBank.total_votes on them.
        grid_uv, votes = engine._grid_votes(snapshot, PairBank(snapshot.pairs))
        unique_beam, other_filter, resolution = engine.split_pairs(snapshot)

        def total(indices, points):
            return PairBank([snapshot.pairs[i] for i in indices]).total_votes(
                snapshot.delta_phi[indices],
                points,
                engine.wavelength,
                engine.round_trip,
            )

        fine = oracle.coarse_region(snapshot)
        filter_votes = total(unique_beam + other_filter, fine)
        fine = fine[filter_votes >= filter_votes.max() - oracle.config.fine_margin]
        reference = total(unique_beam + other_filter, fine) + total(resolution, fine)
        assert grid_uv.shape == (fine.shape[0], 2)
        assert np.abs(grid_uv - engine.plane.to_plane(fine)).max() <= 1e-12
        assert np.abs(votes - reference).max() <= 1e-12


class TestCollinear:
    """Only the vertical pairs <1,4> and <5,6>: every antenna on one line.

    Least squares meets a nearly flat valley here. The engine's polish
    runs on MINPACK's evaluation budget, so it ends as deep in that valley
    as the scipy polish it replaced: the same number of candidates, each
    with the oracle's vote to within 1e-9 cycles².
    """

    @pytest.mark.parametrize(
        "distance, truth", [(2.0, [0.8, 1.0]), (3.0, [1.35, 1.22]), (4.0, [0.3, 2.2])]
    )
    def test_votes_match_oracle(self, distance, truth):
        engine = MultiResolutionPositioner(
            _DEPLOYMENT, writing_plane(distance), _WAVELENGTH
        )
        snapshot = ideal_snapshot(_DEPLOYMENT, engine.plane, truth, _WAVELENGTH)
        vertical = {(1, 4), (5, 6)}
        snapshot = snapshot.subset(
            [
                pair
                for pair in snapshot.pairs
                if (pair.first.antenna_id, pair.second.antenna_id) in vertical
            ]
        )
        found = engine.candidates(snapshot, 8)
        expected = _oracle_of(engine).candidates(snapshot, 8)
        assert len(found) == len(expected) == 8
        for mine, theirs in zip(found, expected):
            assert mine.vote >= theirs.vote - 1e-9
        # The true fix (or its mirror image) comes first.
        assert np.allclose(np.abs(found[0].position), truth, atol=1e-6)
