"""Unit tests for the reader simulation."""

import numpy as np
import pytest

from repro.geometry.antennas import Antenna
from repro.rf.noise import PhaseNoiseModel
from repro.rfid.epc import Epc96
from repro.rfid.reader import PhaseReport, Reader
from repro.rfid.tag import PassiveTag
from tests.oracles import inventory_reference


@pytest.fixture
def reader(deployment, free_channel):
    return Reader(
        1,
        deployment.antennas_of_reader(1),
        free_channel,
        PhaseNoiseModel.noiseless(),
        dwell_time=0.05,
    )


@pytest.fixture
def tag():
    return PassiveTag(Epc96.with_serial(9), np.array([1.3, 2.0, 1.2]))


class TestReaderValidation:
    def test_rejects_foreign_antennas(self, deployment, free_channel):
        with pytest.raises(ValueError, match="belongs to reader"):
            Reader(1, deployment.antennas_of_reader(2), free_channel)

    def test_rejects_empty(self, free_channel):
        with pytest.raises(ValueError):
            Reader(1, [], free_channel)

    def test_rejects_five_ports(self, free_channel):
        antennas = [Antenna(i, [i * 0.1, 0, 0], reader_id=1) for i in range(5)]
        with pytest.raises(ValueError, match="four antenna ports"):
            Reader(1, antennas, free_channel)


class TestInventory:
    def test_produces_reports_on_all_ports(self, reader, tag, rng):
        reports = reader.inventory([tag], 2.0, rng)
        assert len(reports) > 100
        assert {r.antenna_id for r in reports} == {1, 2, 3, 4}

    def test_reports_chronological_per_port_rotation(self, reader, tag, rng):
        reports = reader.inventory([tag], 1.0, rng)
        times = [r.time for r in reports]
        assert times == sorted(times)

    def test_phase_matches_channel_when_noiseless(
        self, reader, tag, rng, free_channel
    ):
        reports = reader.inventory([tag], 0.5, rng)
        for report in reports[:10]:
            antenna = next(
                a for a in reader.antennas if a.antenna_id == report.antenna_id
            )
            expected = float(free_channel.phase_at(antenna.position, tag.position))
            assert report.phase == pytest.approx(expected, abs=1e-9)

    def test_lo_offset_shifts_phase(self, deployment, free_channel, tag, rng):
        base = Reader(
            1, deployment.antennas_of_reader(1), free_channel,
            PhaseNoiseModel.noiseless(), lo_offset=0.0, dwell_time=0.05,
        )
        offset = Reader(
            1, deployment.antennas_of_reader(1), free_channel,
            PhaseNoiseModel.noiseless(), lo_offset=1.0, dwell_time=0.05,
        )
        r0 = base.inventory([tag], 0.3, np.random.default_rng(5))
        r1 = offset.inventory([tag], 0.3, np.random.default_rng(5))
        diff = (r1[0].phase - r0[0].phase) % (2 * np.pi)
        assert diff == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_tag_unread(self, reader, rng):
        far = PassiveTag(Epc96.with_serial(2), np.array([0.0, 30.0, 0.0]))
        assert reader.inventory([far], 1.0, rng) == []

    def test_moving_tag_uses_position_callback(self, reader, tag, rng):
        def position_at(serial, when):
            return np.array([1.0 + 0.1 * when, 2.0, 1.0])

        reports = reader.inventory([tag], 1.0, rng, position_at=position_at)
        early = [r for r in reports if r.antenna_id == 1][0]
        late = [r for r in reports if r.antenna_id == 1][-1]
        assert early.phase != pytest.approx(late.phase, abs=1e-6)

    def test_multiple_tags_distinguished_by_epc(self, reader, rng):
        tags = [
            PassiveTag(Epc96.with_serial(s), np.array([1.0 + s * 0.2, 2.0, 1.0]))
            for s in (1, 2, 3)
        ]
        reports = reader.inventory(tags, 2.0, rng)
        epcs = {r.epc_hex for r in reports}
        assert len(epcs) == 3

    def test_duration_respected(self, reader, tag, rng):
        reports = reader.inventory([tag], 0.5, rng, start_time=10.0)
        assert all(10.0 <= r.time <= 10.5 + 0.01 for r in reports)

    def test_rejects_nonpositive_duration(self, reader, tag, rng):
        with pytest.raises(ValueError):
            reader.inventory([tag], 0.0, rng)


class TestVectorizedMatchesReference:
    """The batched measurement path must reproduce the per-report spec.

    Both implementations consume the RNG identically (protocol draws and
    per-report noise draws happen at the same points), so for the same
    seed every protocol field is bit-identical and the synthesized
    phase/RSSI agree to the kernel's 1e-9 equivalence bound.
    """

    def _multipath_reader(self, deployment, wavelength, sigma=0.12):
        from repro.rf.channel import BackscatterChannel, Environment
        from repro.rf.multipath import PointScatterer, WallReflector

        channel = BackscatterChannel(
            Environment(
                los_gain=0.6,
                scatterers=[
                    PointScatterer(position=(-0.9, 1.7, 0.8), gain=0.30),
                    PointScatterer(position=(3.5, 2.4, 1.8), gain=0.26),
                ],
                walls=[
                    WallReflector(
                        point=(0, 0, 0), normal=(0, 0, 1.0), reflectivity=0.26
                    ),
                ],
            ),
            wavelength,
        )
        return Reader(
            1,
            deployment.antennas_of_reader(1),
            channel,
            PhaseNoiseModel(sigma=sigma),
            lo_offset=0.7,
            dwell_time=0.04,
        )

    def _assert_logs_match(self, fast, slow):
        assert len(fast) == len(slow)
        assert len(fast) > 0
        for a, b in zip(fast, slow):
            assert a.time == b.time
            assert a.epc_hex == b.epc_hex
            assert a.reader_id == b.reader_id
            assert a.antenna_id == b.antenna_id
            assert a.phase == pytest.approx(b.phase, abs=1e-9)
            assert a.rssi_dbm == pytest.approx(b.rssi_dbm, abs=1e-9)

    def test_static_tags(self, deployment, wavelength):
        tags = [
            PassiveTag(
                Epc96.with_serial(s),
                np.array([1.0 + 0.3 * s, 2.0, 1.0]),
                modulation_phase=0.1 * s,
            )
            for s in (1, 2, 3)
        ]
        fast = self._multipath_reader(deployment, wavelength).inventory(
            tags, 1.0, np.random.default_rng(42)
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            tags, 1.0, np.random.default_rng(42),
        )
        self._assert_logs_match(fast, slow)

    def test_moving_tag_vectorized_callback(self, deployment, wavelength):
        tag = PassiveTag(Epc96.with_serial(5), np.array([1.0, 2.0, 1.0]))

        def position_at(serial, when):
            when = np.asarray(when, dtype=float)
            x = 1.0 + 0.05 * when
            if when.ndim == 0:
                return np.array([float(x), 2.0, 1.0])
            block = np.empty((when.shape[0], 3))
            block[:, 0] = x
            block[:, 1] = 2.0
            block[:, 2] = 1.0
            return block

        fast = self._multipath_reader(deployment, wavelength).inventory(
            [tag], 1.5, np.random.default_rng(6), position_at=position_at
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            [tag], 1.5, np.random.default_rng(6), position_at=position_at,
        )
        self._assert_logs_match(fast, slow)

    def test_moving_tag_scalar_only_callback(self, deployment, wavelength):
        tag = PassiveTag(Epc96.with_serial(5), np.array([1.0, 2.0, 1.0]))

        def position_at(serial, when):
            return np.array([1.0 + 0.05 * float(when), 2.0, 1.0])

        fast = self._multipath_reader(deployment, wavelength).inventory(
            [tag], 1.0, np.random.default_rng(9), position_at=position_at
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            [tag], 1.0, np.random.default_rng(9), position_at=position_at,
        )
        self._assert_logs_match(fast, slow)

    def test_transposed_callback_on_three_report_dwell(
        self, deployment, free_channel
    ):
        """A coords-first callback returning (3, N) must not be trusted.

        ``(3, 3)`` passes the batched-shape check by accident; the
        scalar probe has to catch the transposition and fall back to
        per-time scalar calls.
        """
        reader = Reader(
            1,
            deployment.antennas_of_reader(1),
            free_channel,
            PhaseNoiseModel.noiseless(),
        )
        tag = PassiveTag(Epc96.with_serial(4), np.array([1.0, 2.0, 1.0]))

        def coords_first(serial, when):
            when = np.asarray(when, dtype=float)
            if when.ndim == 0:
                return np.array([1.0 + 0.05 * float(when), 2.0, 1.0])
            return np.stack(
                [1.0 + 0.05 * when, np.full(when.shape, 2.0),
                 np.full(when.shape, 1.0)]
            )  # (3, N) — transposed

        times = np.array([0.1, 0.2, 0.3])
        got = reader._positions_of(tag, times, coords_first)
        expected = np.stack([coords_first(4, float(t)) for t in times])
        np.testing.assert_array_equal(got, expected)

    def test_static_fast_path_long_inventory(self, deployment, wavelength):
        """Static tags: the cached-powers path across many antenna cycles.

        A long inventory revisits every antenna many times, so the
        powering kernel runs once per antenna while the reference
        recomputes it per round — the logs must still match exactly.
        """
        tags = [
            PassiveTag(
                Epc96.with_serial(s),
                np.array([0.8 + 0.4 * s, 2.2, 1.0]),
                modulation_phase=0.2 * s,
            )
            for s in (1, 2)
        ]
        fast = self._multipath_reader(deployment, wavelength).inventory(
            tags, 2.5, np.random.default_rng(17)
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            tags, 2.5, np.random.default_rng(17),
        )
        self._assert_logs_match(fast, slow)

    def test_static_mix_includes_out_of_range_tag(self, deployment, wavelength):
        """An unpowered tag in the population must stay silent identically."""
        tags = [
            PassiveTag(Epc96.with_serial(1), np.array([1.0, 2.0, 1.0])),
            PassiveTag(Epc96.with_serial(2), np.array([0.0, 40.0, 1.0])),
        ]
        fast = self._multipath_reader(deployment, wavelength).inventory(
            tags, 1.0, np.random.default_rng(23)
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            tags, 1.0, np.random.default_rng(23),
        )
        self._assert_logs_match(fast, slow)
        assert {report.epc_hex for report in fast} == {tags[0].epc.to_hex()}

    def test_single_moving_tag_crossing_wakeup_threshold(
        self, deployment, wavelength
    ):
        """The scalar power path must agree on wake-up decisions.

        The tag walks out of range mid-inventory, so the powered/silent
        transition (and with it every subsequent RNG draw) depends on
        the per-round power values the scalar kernel produces.
        """
        tag = PassiveTag(Epc96.with_serial(8), np.array([1.0, 2.0, 1.0]))

        def position_at(serial, when):
            when = np.asarray(when, dtype=float)
            y = 2.0 + 6.0 * when  # ~5 m/s walk-away: leaves range mid-run
            if when.ndim == 0:
                return np.array([1.0, float(y), 1.0])
            block = np.empty((when.shape[0], 3))
            block[:, 0] = 1.0
            block[:, 1] = y
            block[:, 2] = 1.0
            return block

        fast = self._multipath_reader(deployment, wavelength).inventory(
            [tag], 2.0, np.random.default_rng(31), position_at=position_at
        )
        slow = inventory_reference(
            self._multipath_reader(deployment, wavelength),
            [tag], 2.0, np.random.default_rng(31), position_at=position_at,
        )
        self._assert_logs_match(fast, slow)
        # The walk-away must actually exercise the transition: reads
        # exist early and stop well before the inventory ends.
        assert fast
        assert fast[-1].time < 1.5

    def test_noiseless_logs_bit_identical(self, deployment, free_channel):
        reader_args = dict(lo_offset=0.3, dwell_time=0.05)
        tag = PassiveTag(
            Epc96.with_serial(2),
            np.array([1.2, 2.0, 1.1]),
            modulation_phase=0.4,
        )
        fast = Reader(
            1, deployment.antennas_of_reader(1), free_channel,
            PhaseNoiseModel.noiseless(), **reader_args,
        ).inventory([tag], 1.0, np.random.default_rng(3))
        slow = inventory_reference(
            Reader(
                1, deployment.antennas_of_reader(1), free_channel,
                PhaseNoiseModel.noiseless(), **reader_args,
            ),
            [tag], 1.0, np.random.default_rng(3),
        )
        self._assert_logs_match(fast, slow)


class TestPhaseReport:
    def test_rejects_unwrapped_phase(self):
        with pytest.raises(ValueError):
            PhaseReport(0.0, "AA", 1, 1, 7.0, -60.0)
