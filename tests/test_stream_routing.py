"""Property: how a stream is split between ``ingest`` and ``ingest_burst``
never changes what the manager answers.

Both entry points route through one routing function; only the stepping
differs (sample by sample, or merged rounds). For small fleets under
every combination of idle eviction, capacity eviction and pruning, any
split of the stream into chunks — each fed report by report or as one
burst — must reproduce the all-sequential run bit for bit: per-EPC
``POINT`` sequences, final ``times``/``trajectory`` and
:class:`~repro.stream.manager.ManagerStats`.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.workload import fleet_system, synthetic_fleet
from repro.stream import SessionConfig, SessionManager

SYSTEM = fleet_system()


@functools.lru_cache(maxsize=None)
def _stream(tags, stagger):
    return tuple(
        synthetic_fleet(SYSTEM, tags=tags, active_span=0.4, stagger=stagger)
    )


def _run(reports, config, plan):
    """Feed ``plan``'s ``((lo, hi), burst)`` chunks; return the answer."""
    manager = SessionManager(SYSTEM, config=config)
    points = {}

    def on_point(event):
        point = event.point
        points.setdefault(event.epc_hex, []).append(
            (
                point.index,
                point.time,
                point.position.tobytes(),
                point.candidate_index,
                point.vote,
            )
        )

    manager.on_point = on_point
    for (lo, hi), burst in plan:
        if burst:
            manager.ingest_burst(reports[lo:hi])
        else:
            for report in reports[lo:hi]:
                manager.ingest(report)
    results = manager.finalize_all()
    finals = {
        epc: (result.times.tobytes(), result.trajectory.tobytes())
        for epc, result in results.items()
    }
    return points, finals, manager.stats()


@functools.lru_cache(maxsize=None)
def _sequential(tags, stagger, config):
    reports = _stream(tags, stagger)
    return _run(reports, config, [((0, len(reports)), False)])


@st.composite
def scenarios(draw):
    tags = draw(st.integers(min_value=2, max_value=6))
    stagger = draw(st.sampled_from((0.0, 0.1, 0.25)))
    config = SessionConfig(
        out_of_order="drop",
        idle_timeout=draw(st.sampled_from((None, 0.15))),
        max_sessions=draw(st.sampled_from((None, 2))),
        prune_margin=draw(st.sampled_from((None, 2.0))),
        prune_burn_in=2,
    )
    count = len(_stream(tags, stagger))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=count), max_size=6))
    bounds = [0, *sorted(set(cuts)), count]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    bursts = draw(
        st.lists(st.booleans(), min_size=len(chunks), max_size=len(chunks))
    )
    return tags, stagger, config, list(zip(chunks, bursts))


@given(scenarios())
@settings(max_examples=25, deadline=None, database=None)
def test_any_split_matches_sequential(scenario):
    tags, stagger, config, plan = scenario
    expected_points, expected_finals, expected_stats = _sequential(
        tags, stagger, config
    )
    points, finals, stats = _run(_stream(tags, stagger), config, plan)
    assert points == expected_points
    assert finals == expected_finals
    assert stats == expected_stats


def test_raising_on_point_leaves_ingest_in_sync():
    """A raising ``on_point`` callback must not strand the samples a
    report unlocked: every sample is stepped before any callback fires."""
    reports = _stream(2, 0.0)
    config = SessionConfig(out_of_order="drop")
    reference = SessionManager(SYSTEM, config=config)
    multi = [len(reference.ingest(report)) for report in reports]
    assert max(multi) >= 2  # some report unlocks several samples

    manager = SessionManager(SYSTEM, config=config)

    def on_point(event):
        raise RuntimeError("callback failed")

    manager.on_point = on_point
    for report in reports:
        try:
            manager.ingest(report)
        except RuntimeError:
            pass
    expected = reference.finalize_all()
    results = manager.finalize_all()
    assert results.keys() == expected.keys()
    for epc, result in results.items():
        assert result.times.tobytes() == expected[epc].times.tobytes()
        assert result.trajectory.tobytes() == expected[epc].trajectory.tobytes()
