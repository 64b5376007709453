"""RF-IDraw reproduction: a virtual touch screen in the air using RF signals.

This package reproduces *RF-IDraw: Virtual Touch Screen in the Air Using RF
Signals* (Wang, Vasisht, Katabi — SIGCOMM 2014) as a pure-Python library.

The package is organised as the paper's system is:

``repro.geometry``
    Antenna placement, antenna pairs, deployment layouts and writing planes.
``repro.rf``
    RF phase arithmetic, beam patterns and grating lobes, and a complex
    baseband backscatter channel with multipath and noise.
``repro.rfid``
    An EPC Gen2 reader/tag simulator that produces the timestamped phase
    reports a commercial UHF reader (e.g. ThingMagic M6e) returns.
``repro.core``
    The paper's contribution: Eq. 6/7 voting, the two-stage multi-resolution
    positioner (paper section 5.1) and the grating-lobe trajectory tracer
    (section 5.2), plus an end-to-end pipeline facade.
``repro.baseline``
    The compared scheme: classic antenna-array AoA positioning (section 6).
``repro.handwriting``
    Air-writing synthesis (stroke font, corpus, per-user style) and a DTW
    recognizer standing in for the MyScript Stylus app.
``repro.motion``
    VICON-style ground-truth capture and scripted gestures.
``repro.stream``
    The streaming session API: per-tag :class:`TrackingSession`\\ s that
    ingest phase reports one at a time, and the multi-tag
    :class:`SessionManager`. The batch pipeline is a facade over this.
``repro.analysis``
    The paper's error metrics (section 8.1), CDFs and shape similarity.
``repro.experiments``
    One module per paper figure; each regenerates the figure's data.

Quickstart::

    from repro.experiments.scenarios import simulate_word

    run = simulate_word("clear", seed=7)
    result = run.reconstruct_rfidraw()
    print(result.trajectory.shape, result.total_vote)
"""

from repro.version import __version__

from repro.geometry import (
    Antenna,
    AntennaPair,
    Deployment,
    WritingPlane,
    aoa_baseline_layout,
    rfidraw_layout,
    writing_plane,
)
from repro.rf import (
    BackscatterChannel,
    Environment,
    PhaseNoiseModel,
    wavelength_of,
)
from repro.core import (
    BatchedTracer,
    MultiResolutionPositioner,
    PairBank,
    PositionCandidate,
    RFIDrawSystem,
    TraceResult,
)
from repro.baseline import ArrayIntersectionTracker, BeamScanAoA
from repro.stream import SessionManager, TrackingSession

__all__ = [
    "__version__",
    "Antenna",
    "AntennaPair",
    "Deployment",
    "WritingPlane",
    "aoa_baseline_layout",
    "rfidraw_layout",
    "writing_plane",
    "BackscatterChannel",
    "Environment",
    "PhaseNoiseModel",
    "wavelength_of",
    "BatchedTracer",
    "MultiResolutionPositioner",
    "PairBank",
    "PositionCandidate",
    "RFIDrawSystem",
    "TraceResult",
    "ArrayIntersectionTracker",
    "BeamScanAoA",
    "SessionManager",
    "TrackingSession",
]
