"""Unit tests for the Gen2 inventory protocol simulation."""

import itertools

import numpy as np
import pytest

from repro.rfid.engine import ProtocolEngine
from repro.rfid.epc import Epc96
from repro.rfid.protocol import (
    COLLISION_SLOT_S,
    EMPTY_SLOT_S,
    SUCCESS_SLOT_S,
    QAlgorithm,
    SlotOutcome,
)
from repro.rfid.tag import PassiveTag
from tests.oracles import InventoryRound


def make_tags(count):
    return [
        PassiveTag(Epc96.with_serial(serial), np.array([0.0, 1.0, 0.0]))
        for serial in range(1, count + 1)
    ]


def strong_power(tags):
    return {tag.epc.serial: 0.0 for tag in tags}  # 0 dBm ≫ sensitivity


class TestInventoryRound:
    def test_single_tag_singulated(self, rng):
        tags = make_tags(1)
        tags[0].reply_probability = 1.0
        round_ = InventoryRound(q=2, rng=rng)
        slots, end = round_.run(tags, strong_power(tags), 0.0)
        outcomes = [s.outcome for s in slots]
        assert outcomes.count(SlotOutcome.SUCCESS) == 1
        assert len(slots) == 4
        assert end > 0.0

    def test_unpowered_tag_silent(self, rng):
        tags = make_tags(1)
        round_ = InventoryRound(q=2, rng=rng)
        slots, _ = round_.run(tags, {tags[0].epc.serial: -50.0}, 0.0)
        assert all(s.outcome is SlotOutcome.EMPTY for s in slots)

    def test_collisions_happen_with_many_tags(self, rng):
        tags = make_tags(20)
        for tag in tags:
            tag.reply_probability = 1.0
        round_ = InventoryRound(q=2, rng=rng)  # 4 slots, 20 tags
        slots, _ = round_.run(tags, strong_power(tags), 0.0)
        assert any(s.outcome is SlotOutcome.COLLISION for s in slots)

    def test_timing_accumulates(self, rng):
        tags = make_tags(1)
        tags[0].reply_probability = 1.0
        round_ = InventoryRound(q=1, rng=rng)
        slots, end = round_.run(tags, strong_power(tags), 10.0)
        expected = sum(s.duration for s in slots)
        assert end == pytest.approx(10.0 + expected)
        durations = {
            SlotOutcome.EMPTY: EMPTY_SLOT_S,
            SlotOutcome.SUCCESS: SUCCESS_SLOT_S,
            SlotOutcome.COLLISION: COLLISION_SLOT_S,
        }
        for slot in slots:
            assert slot.duration == durations[slot.outcome]

    def test_q_bounds(self, rng):
        with pytest.raises(ValueError):
            InventoryRound(q=-1, rng=rng).run([], {}, 0.0)
        with pytest.raises(ValueError):
            InventoryRound(q=16, rng=rng).run([], {}, 0.0)

    def test_all_tags_eventually_read(self, rng):
        tags = make_tags(8)
        for tag in tags:
            tag.reply_probability = 1.0
        seen = set()
        clock = 0.0
        q_algo = QAlgorithm(q_float=3.0)
        for _ in range(50):
            slots, clock = InventoryRound(q_algo.q, rng).run(
                tags, strong_power(tags), clock, q_algo
            )
            seen.update(
                s.tag.epc.serial for s in slots if s.outcome is SlotOutcome.SUCCESS
            )
            if len(seen) == 8:
                break
        assert len(seen) == 8


class TestQAlgorithm:
    def test_rises_on_collisions(self):
        q = QAlgorithm(q_float=4.0, step=0.5)
        q.record(SlotOutcome.COLLISION)
        assert q.q_float == 4.5

    def test_falls_on_empty(self):
        q = QAlgorithm(q_float=4.0, step=0.5)
        q.record(SlotOutcome.EMPTY)
        assert q.q_float == 3.5

    def test_unchanged_on_success(self):
        q = QAlgorithm(q_float=4.0)
        q.record(SlotOutcome.SUCCESS)
        assert q.q_float == 4.0

    def test_clamped(self):
        q = QAlgorithm(q_float=0.1, step=0.5)
        q.record(SlotOutcome.EMPTY)
        assert q.q_float == 0.0
        q = QAlgorithm(q_float=14.9, step=0.5)
        q.record(SlotOutcome.COLLISION)
        assert q.q_float == 15.0

    def test_integer_q_rounds(self):
        assert QAlgorithm(q_float=3.4).q == 3
        assert QAlgorithm(q_float=3.6).q == 4


_OUTCOMES = (SlotOutcome.EMPTY, SlotOutcome.SUCCESS, SlotOutcome.COLLISION)


class TestRecordRun:
    """``record_run`` must fold exactly like per-slot ``record``."""

    def test_matches_per_slot_over_random_sequences(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            q0 = float(rng.uniform(0.0, 15.0))
            step = float(rng.choice([0.2, 0.5, rng.uniform(0.01, 2.0)]))
            outcomes = [
                _OUTCOMES[i]
                for i in rng.integers(0, 3, size=int(rng.integers(1, 300)))
            ]
            per_slot = QAlgorithm(q_float=q0, step=step)
            folded = QAlgorithm(q_float=q0, step=step)
            for outcome in outcomes:
                per_slot.record(outcome)
            for outcome, group in itertools.groupby(outcomes):
                folded.record_run(outcome, len(list(group)))
            # Bit-identical, not approximately equal: the fold replays
            # the same float operations until they reach a fixed point.
            assert folded.q_float == per_slot.q_float
            assert folded.q == per_slot.q

    def test_huge_runs_saturate_in_bounded_work(self):
        q = QAlgorithm(q_float=15.0, step=0.2)
        q.record_run(SlotOutcome.EMPTY, 10**9)  # would never finish per-slot
        assert q.q_float == 0.0
        q.record_run(SlotOutcome.COLLISION, 10**9)
        assert q.q_float == 15.0

    def test_tiny_step_fixed_point(self):
        # A step too small to register in float arithmetic: record()
        # leaves q_float unchanged, and record_run must detect the fixed
        # point instead of looping count times.
        reference = QAlgorithm(q_float=8.0, step=1e-20)
        reference.record(SlotOutcome.EMPTY)
        folded = QAlgorithm(q_float=8.0, step=1e-20)
        folded.record_run(SlotOutcome.EMPTY, 10**9)
        assert folded.q_float == reference.q_float

    def test_success_runs_are_noops(self):
        q = QAlgorithm(q_float=4.0)
        q.record_run(SlotOutcome.SUCCESS, 1000)
        assert q.q_float == 4.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            QAlgorithm().record_run(SlotOutcome.EMPTY, -1)


class TestProtocolEngine:
    """The vectorized round must reproduce ``InventoryRound.run``.

    Same RNG consumption, bit-identical success slots (tags, indices,
    clocks), end time and Q-algorithm state — across frame sizes that
    exercise both the plain-Python small-frame path and the
    bincount/cumsum large-frame path.
    """

    def _tags(self, count, reply_probability=0.98):
        tags = [
            PassiveTag(Epc96.with_serial(serial), np.array([0.0, 1.0, 0.0]))
            for serial in range(1, count + 1)
        ]
        for tag in tags:
            tag.reply_probability = reply_probability
        return tags

    def _powers(self, tags, rng=None):
        if rng is None:
            return {tag.epc.serial: 0.0 for tag in tags}
        # A mix of powered and unpowered tags (threshold is −12.5 dBm).
        return {
            tag.epc.serial: float(rng.uniform(-30.0, 0.0)) for tag in tags
        }

    def _assert_round_matches(self, tags, powers, q, seed, q_float, start=2.5):
        reference_rng = np.random.default_rng(seed)
        engine_rng = np.random.default_rng(seed)
        reference_q = QAlgorithm(q_float=q_float)
        engine_q = QAlgorithm(q_float=q_float)

        slots, reference_end = InventoryRound(q, reference_rng).run(
            tags, powers, start, reference_q
        )
        power_array = np.array(
            [powers.get(tag.epc.serial, -np.inf) for tag in tags]
        )
        engine = ProtocolEngine(tags)
        successes, engine_end = engine.run_round(
            power_array, q, engine_rng, start, engine_q
        )

        reference_successes = [
            slot for slot in slots if slot.outcome is SlotOutcome.SUCCESS
        ]
        assert len(successes) == len(reference_successes)
        for fast, slow in zip(successes, reference_successes):
            assert fast.slot_index == slow.slot_index
            assert fast.tag is slow.tag
            assert fast.time == slow.time  # bit-identical clocks
            assert fast.duration == slow.duration
            assert fast.outcome is SlotOutcome.SUCCESS
        assert engine_end == reference_end
        assert engine_q.q_float == reference_q.q_float
        # Both implementations must have consumed the RNG identically.
        assert (
            engine_rng.bit_generator.state == reference_rng.bit_generator.state
        )

    @pytest.mark.parametrize("q", [0, 1, 2, 4, 8, 12])
    @pytest.mark.parametrize("count", [0, 1, 3, 20])
    def test_single_rounds_match(self, q, count):
        tags = self._tags(count)
        self._assert_round_matches(tags, self._powers(tags), q, seed=q * 31 + count, q_float=float(q))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_power_rounds_match(self, seed):
        tags = self._tags(16)
        powers = self._powers(tags, np.random.default_rng(seed + 90))
        self._assert_round_matches(tags, powers, 5, seed=seed, q_float=5.3)

    def test_certain_repliers_match(self):
        tags = self._tags(6, reply_probability=1.0)
        self._assert_round_matches(tags, self._powers(tags), 3, seed=7, q_float=3.0)

    def test_missing_power_entry_means_unpowered(self):
        tags = self._tags(4)
        powers = {tags[0].epc.serial: 0.0}  # others default to -inf
        self._assert_round_matches(tags, powers, 4, seed=11, q_float=4.0)

    @pytest.mark.parametrize("count,q_float", [(1, 2.0), (12, 6.0)])
    def test_chained_rounds_match(self, count, q_float):
        """Many consecutive rounds threading clock + adaptive Q + RNG."""
        tags = self._tags(count)
        powers = self._powers(tags)
        power_array = np.array([powers[tag.epc.serial] for tag in tags])

        reference_rng = np.random.default_rng(99)
        engine_rng = np.random.default_rng(99)
        reference_q = QAlgorithm(q_float=q_float)
        engine_q = QAlgorithm(q_float=q_float)
        engine = ProtocolEngine(tags)
        reference_clock = engine_clock = 0.0
        reference_log = []
        engine_log = []
        for _ in range(60):
            slots, reference_clock = InventoryRound(
                reference_q.q, reference_rng
            ).run(tags, powers, reference_clock, reference_q)
            reference_log.extend(
                slot for slot in slots if slot.outcome is SlotOutcome.SUCCESS
            )
            successes, engine_clock = engine.run_round(
                power_array, engine_q.q, engine_rng, engine_clock, engine_q
            )
            engine_log.extend(successes)
            assert engine_clock == reference_clock
            assert engine_q.q_float == reference_q.q_float
        assert len(engine_log) == len(reference_log)
        for fast, slow in zip(engine_log, reference_log):
            assert fast.slot_index == slow.slot_index
            assert fast.tag is slow.tag
            assert fast.time == slow.time
        assert (
            engine_rng.bit_generator.state == reference_rng.bit_generator.state
        )

    def test_q_bounds(self):
        engine = ProtocolEngine([])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            engine.run_round(np.empty(0), -1, rng, 0.0)
        with pytest.raises(ValueError):
            engine.run_round(np.empty(0), 16, rng, 0.0)
