"""Synthetic multi-tenant workloads for soak tests and benchmarks.

:func:`synthetic_fleet` models the service's target deployment — many
tags writing concurrently on one virtual touch screen, sessions opening
and closing as users come and go — as a deterministic, geometry-exact
report stream: each tag moves on its own small circular stroke, every
antenna reports the true phase of its distance to the tag
(:func:`repro.rf.phase.phase_from_distance`, the convention the whole
system decodes; no noise, so reconstructions are well-conditioned and
runs are reproducible bit for bit), and tag
start times stagger so the open-session population ramps and overlaps
the way a day-long trace does, compressed into seconds.

The same generator feeds the throughput bench
(``benchmarks/test_perf_serve.py``), the CLI's ``--demo`` mode, and the
shard-determinism tests — one workload definition, three consumers.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import RFIDrawSystem
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.rf.phase import phase_from_distance
from repro.rfid.reader import PhaseReport

__all__ = ["fleet_system", "synthetic_fleet"]

_WAVELENGTH = 0.326


def fleet_system(
    wavelength: float = _WAVELENGTH, plane_distance: float = 2.0
) -> RFIDrawSystem:
    """The paper-layout tracking system the fleet workload runs on."""
    deployment = rfidraw_layout(wavelength)
    plane = writing_plane(plane_distance)
    return RFIDrawSystem(deployment, plane, wavelength)


def synthetic_fleet(
    system: RFIDrawSystem,
    tags: int = 24,
    active_span: float = 0.6,
    stagger: float = 0.15,
    read_every: float = 0.02,
) -> list[PhaseReport]:
    """A merged, time-sorted multi-tag report stream.

    Args:
        system: the deployment/plane/wavelength the phases are exact
            for (use :func:`fleet_system`).
        tags: how many concurrent users to simulate; EPCs are
            ``f"{tag:024X}"``.
        active_span: seconds each tag keeps reporting.
        stagger: seconds between successive tags' first reports —
            together with ``active_span`` this sets how many sessions
            overlap at any instant.
        read_every: seconds between a tag's read cycles (every antenna
            reports each cycle, offset by ``1e-4·antenna_id`` so
            per-cycle reports have distinct, ordered timestamps).

    Returns:
        All reports merged and sorted by time — the stream a single
        reader aggregating the whole fleet would hand to
        :meth:`SessionManager.ingest` or
        :meth:`TrackingService.ingest`.
    """
    plane = system.plane
    wavelength = system.wavelength
    reports: list[PhaseReport] = []
    for tag in range(tags):
        epc = f"{tag:024X}"
        start = tag * stagger
        times = np.arange(start, start + active_span, read_every)
        center_u = 0.55 + 0.04 * (tag % 5)
        center_v = 0.65 + 0.03 * (tag % 7)
        for t in times:
            u = center_u + 0.08 * np.cos(2.0 * np.pi * 0.4 * (t - start))
            v = center_v + 0.08 * np.sin(2.0 * np.pi * 0.4 * (t - start))
            world = plane.to_world(np.array([[u, v]]))[0]
            for antenna in system.deployment:
                distance = antenna.distance_to(world[None, :])[0]
                phase = phase_from_distance(
                    distance, wavelength, system.round_trip
                )
                reports.append(
                    PhaseReport(
                        time=float(t + 1e-4 * antenna.antenna_id),
                        epc_hex=epc,
                        reader_id=antenna.reader_id,
                        antenna_id=antenna.antenna_id,
                        phase=float(phase),
                        rssi_dbm=-50.0,
                    )
                )
    reports.sort(key=lambda report: report.time)
    return reports
