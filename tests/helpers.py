"""Shared helpers for building ideal (noise-free) algorithm inputs."""

import numpy as np


def ideal_pair_series(deployment, plane, points_uv, times, wavelength):
    """Noise-free unwrapped pair series for a plane trajectory (helper)."""
    from repro.rfid.sampling import PairSeries

    world = plane.to_world(points_uv)
    series = []
    for pair in deployment.pairs():
        d_first = pair.first.distance_to(world)
        d_second = pair.second.distance_to(world)
        phi_first = -2.0 * np.pi * 2.0 * d_first / wavelength
        phi_second = -2.0 * np.pi * 2.0 * d_second / wavelength
        series.append(PairSeries(pair, times, phi_second - phi_first))
    return series


def ideal_snapshot(deployment, plane, point_uv, wavelength, round_trip=2.0):
    """Noise-free wrapped phase snapshot of a static source (helper).

    ``round_trip`` is 2 for backscatter and 1 for a one-way transmitter.
    """
    from repro.rf.phase import wrap_to_pi
    from repro.rfid.sampling import PhaseSnapshot

    world = plane.to_world(np.asarray(point_uv, dtype=float))
    pairs = deployment.pairs()
    delta = []
    for pair in pairs:
        d_first = pair.first.distance_to(world)
        d_second = pair.second.distance_to(world)
        delta.append(
            wrap_to_pi(
                -2.0 * np.pi * round_trip * (d_second - d_first) / wavelength
            )
        )
    return PhaseSnapshot(pairs, np.array(delta))
