"""WiFi-band RF-IDraw: one-way phases from a phone to AP antenna pairs.

A WiFi station transmits; access-point antenna pairs measure per-packet
phase differences (as CSI-capable APs expose). With ``round_trip = 1``,
tightly spaced pairs sit at the classic λ/2 and the widely spaced pairs
at 8λ — at 5.18 GHz that is a 46 cm square, desk-scale rather than
wall-scale.

The tracker here reuses :class:`repro.core.pipeline.RFIDrawSystem`
verbatim; only the deployment, wavelength and round-trip factor change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import ReconstructionResult, RFIDrawSystem
from repro.core.positioning import PositionerConfig
from repro.geometry.antennas import Deployment
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import WritingPlane, writing_plane
from repro.rf.channel import Environment
from repro.rf.constants import wavelength_of
from repro.rf.noise import PhaseNoiseModel
from repro.rf.phase import wrap_to_two_pi
from repro.rfid.reader import PhaseReport
from repro.rfid.sampling import MeasurementLog, PairSeries

__all__ = [
    "WIFI_5GHZ_FREQUENCY",
    "wifi_wavelength",
    "wifi_layout",
    "WifiTracker",
]

#: Channel 36 centre frequency, a common 5 GHz operating point.
WIFI_5GHZ_FREQUENCY = 5.18e9


def wifi_wavelength(frequency_hz: float = WIFI_5GHZ_FREQUENCY) -> float:
    """λ at a WiFi carrier (≈ 5.8 cm at channel 36)."""
    return wavelength_of(frequency_hz)


def wifi_layout(
    frequency_hz: float = WIFI_5GHZ_FREQUENCY,
    side_in_wavelengths: float = 8.0,
    origin: tuple[float, float] = (0.0, 0.0),
) -> Deployment:
    """The RF-IDraw constellation scaled to the WiFi band.

    One-way operation restores the paper's written spacings: tight pairs
    at **λ/2** (not λ/4). The 8λ square is ≈ 46 cm on a side at 5.18 GHz —
    small enough to build into a single AP faceplate.
    """
    return rfidraw_layout(
        wavelength_of(frequency_hz),
        side_in_wavelengths=side_in_wavelengths,
        tight_spacing_in_wavelengths=0.5,
        origin=origin,
    )


@dataclass
class WifiTracker:
    """Traces a WiFi transmitter with the unchanged RF-IDraw core.

    Attributes:
        frequency_hz: carrier frequency.
        plane_distance: distance of the tracking plane from the AP wall.
        environment: propagation environment (default free space).
        phase_noise: per-packet phase noise model (CSI phase is noisier
            than reader-grade RFID phase; default σ reflects that).
    """

    frequency_hz: float = WIFI_5GHZ_FREQUENCY
    plane_distance: float = 1.5
    environment: Environment | None = None
    phase_noise: PhaseNoiseModel | None = None

    def __post_init__(self) -> None:
        self.wavelength = wavelength_of(self.frequency_hz)
        self.deployment = wifi_layout(self.frequency_hz)
        self.plane: WritingPlane = writing_plane(self.plane_distance)
        self.environment = self.environment or Environment.free_space()
        self.phase_noise = self.phase_noise or PhaseNoiseModel(
            sigma=0.2, quantization=0.0
        )
        region = 8.5 * self.wavelength
        config = PositionerConfig(
            u_range=(-0.15, region),
            v_range=(-0.15, region),
            coarse_step=0.01,
            fine_step=0.0025,
            min_candidate_separation=0.04,
        )
        self.system = RFIDrawSystem(
            self.deployment,
            self.plane,
            self.wavelength,
            round_trip=1.0,
            positioner_config=config,
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        trajectory_uv: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        packet_rate: float = 100.0,
    ) -> list[PairSeries]:
        """Simulate per-packet phase measurements of a moving transmitter.

        Each packet yields one phase per AP antenna (CSI gives all chains
        simultaneously, unlike the RFID reader's port multiplexing).
        """
        packet_times, per_antenna = self._packet_phases(
            trajectory_uv, times, rng, packet_rate
        )
        series = []
        for pair in self.deployment.pairs():
            delta = (
                per_antenna[pair.second.antenna_id]
                - per_antenna[pair.first.antenna_id]
            )
            series.append(PairSeries(pair, packet_times, delta))
        return series

    def observe_log(
        self,
        trajectory_uv: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        packet_rate: float = 100.0,
        epc_hex: str = "wifi-station-01",
    ) -> MeasurementLog:
        """Simulate per-packet CSI phases as a *report stream*.

        The streaming counterpart of :meth:`observe`: each packet yields
        one wrapped per-antenna :class:`PhaseReport` (a CSI extractor
        reports phase modulo 2π just like an RFID reader does), merged
        into a time-sorted :class:`MeasurementLog` that can be replayed
        through either the batch series builder or a
        :class:`~repro.stream.session.TrackingSession` — feeding both
        from one log is how streaming↔batch equivalence is tested on the
        one-way (``round_trip=1``) configuration.
        """
        packet_times, per_antenna = self._packet_phases(
            trajectory_uv, times, rng, packet_rate
        )
        antenna_of = {a.antenna_id: a for a in self.deployment}
        reports: list[PhaseReport] = []
        for antenna_id, noisy in per_antenna.items():
            antenna = antenna_of[antenna_id]
            wrapped = wrap_to_two_pi(noisy)
            for when, phase in zip(packet_times, wrapped):
                reports.append(
                    PhaseReport(
                        time=float(when),
                        epc_hex=epc_hex,
                        reader_id=antenna.reader_id,
                        antenna_id=antenna.antenna_id,
                        phase=float(phase),
                        rssi_dbm=-45.0,
                    )
                )
        return MeasurementLog(reports)

    def _packet_phases(
        self,
        trajectory_uv: np.ndarray,
        times: np.ndarray,
        rng: np.random.Generator,
        packet_rate: float,
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Per-packet noisy one-way phase of every AP antenna.

        The CSI phase model shared by :meth:`observe` (which differences
        pairs directly) and :meth:`observe_log` (which wraps the same
        phases into reader-style reports): one packet timeline, then per
        antenna ``−2πd/λ`` plus per-packet Gaussian noise.
        """
        trajectory_uv = np.asarray(trajectory_uv, dtype=float)
        times = np.asarray(times, dtype=float)
        packet_count = max(2, int((times[-1] - times[0]) * packet_rate))
        packet_times = np.linspace(times[0], times[-1], packet_count)
        u = np.interp(packet_times, times, trajectory_uv[:, 0])
        v = np.interp(packet_times, times, trajectory_uv[:, 1])
        world = self.plane.to_world(np.stack([u, v], axis=1))

        per_antenna: dict[int, np.ndarray] = {}
        for antenna in self.deployment:
            distances = antenna.distance_to(world)
            clean = -2.0 * np.pi * distances / self.wavelength
            per_antenna[antenna.antenna_id] = clean + rng.normal(
                0.0, self.phase_noise.sigma, size=clean.shape
            )
        return packet_times, per_antenna

    def open_session(
        self, config=None, *, epc_hex: str | None = None, pairs=None
    ):
        """A streaming session over the WiFi-band deployment.

        Per-packet phase reports (e.g. from :meth:`observe_log`, or a
        live CSI extractor) stream straight in; the unchanged RF-IDraw
        core runs with ``round_trip=1`` and the WiFi wavelength. Takes
        the same :class:`repro.stream.SessionConfig` and identity
        arguments as :meth:`repro.core.pipeline.RFIDrawSystem.open_session`.
        """
        return self.system.open_session(config, epc_hex=epc_hex, pairs=pairs)

    def reconstruct(self, series: list[PairSeries]) -> ReconstructionResult:
        """Run the unchanged multi-resolution + tracing pipeline."""
        return self.system.reconstruct(series)

    def reconstruct_log(
        self, log: MeasurementLog, *, epc_hex: str | None = None, config=None
    ) -> ReconstructionResult:
        """Stream a recorded packet log through a session and finalize."""
        return self.system.reconstruct_log(log, epc_hex, config=config)
