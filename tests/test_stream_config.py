"""SessionConfig: the one validated config surface of every tier."""

import dataclasses

import pytest

from repro.core.pipeline import RFIDrawSystem
from repro.stream import (
    ManagerStats,
    SessionConfig,
    SessionManager,
    TrackingSession,
)


@pytest.fixture
def system(deployment, plane, wavelength):
    return RFIDrawSystem(deployment, plane, wavelength)


class TestSessionConfig:
    def test_defaults_round_trip(self, system):
        config = SessionConfig()
        assert config.sample_rate == 20.0
        assert config.out_of_order == "raise"
        # Every tier defaults to the same policy value.
        assert TrackingSession(system).config == config
        assert SessionManager(system).config == config
        assert system.open_session().config == config

    def test_none_means_default(self, system):
        # Every tier reads config=None as SessionConfig(), so a manager
        # built that way routes reports instead of failing on the first.
        assert TrackingSession(system, config=None).config == SessionConfig()
        manager = SessionManager(system, config=None)
        assert manager.config == SessionConfig()
        assert manager.session_for("30AA").config == SessionConfig()

    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sample_rate = 10.0

    def test_with_updates_revalidates(self):
        config = SessionConfig().with_updates(idle_timeout=5.0)
        assert config.idle_timeout == 5.0
        with pytest.raises(ValueError):
            config.with_updates(idle_timeout=-1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"sample_rate": 0.0},
            {"min_reads_per_antenna": 0},
            {"candidate_count": 0},
            {"out_of_order": "ignore"},
            {"prune_margin": -2.0},
            {"prune_burn_in": 0},
            {"idle_timeout": 0.0},
            {"max_sessions": 0},
            {"retain_results": -1},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SessionConfig(**bad)


class TestManagerShim:
    """The manager and the facades take tunables only as a config."""

    def test_config_accepted_silently(self, recwarn, system):
        config = SessionConfig(
            out_of_order="drop", idle_timeout=2.0, max_sessions=3
        )
        manager = SessionManager(system, config=config)
        assert manager.config is config
        assert manager.session_for("30AA").config is config
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_config_plus_legacy_is_an_error(self, system):
        # Loose tunables are no longer keywords at all.
        with pytest.raises(TypeError):
            SessionManager(
                system, config=SessionConfig(), idle_timeout=2.0
            )


class TestFacadeShims:
    def test_open_session_config(self, recwarn, system):
        config = SessionConfig(candidate_count=2, out_of_order="drop")
        session = system.open_session(config=config, epc_hex="30AA")
        assert session.config is config
        assert session.epc_hex == "30AA"
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_open_session_conflict(self, system):
        with pytest.raises(TypeError):
            system.open_session(
                config=SessionConfig(), candidate_count=2
            )

    def test_wifi_facade_is_silent(self, recwarn):
        from repro.wifi.system import WifiTracker

        tracker = WifiTracker()
        config = SessionConfig(sample_rate=40.0, candidate_count=2)
        session = tracker.open_session(config=config)
        assert session.config is config
        # The session really runs at the configured rate.
        assert session.resampler.sample_rate == 40.0
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        with pytest.raises(TypeError):
            tracker.open_session(sample_rate=40.0, config=config)

    def test_wifi_reconstruct_log_epc_is_keyword_only(self):
        from repro.wifi.system import WifiTracker

        # A stale positional sample rate fails loudly rather than
        # pinning the session to a bogus EPC.
        with pytest.raises(TypeError):
            WifiTracker().reconstruct_log([], 20.0)


class TestManagerStatsMerge:
    def _stats(self, **overrides):
        base = dict(
            open_sessions=0,
            finalized_sessions=0,
            failed_sessions=0,
            evicted_sessions=0,
            shed_sessions=0,
            stragglers=0,
            ingested_reports=0,
            dropped_reports=0,
            dropped_nonfinite=0,
            skipped_foreign_reports=0,
            skipped_log_lines=0,
        )
        base.update(overrides)
        return ManagerStats(**base)

    def test_counters_sum(self):
        a = self._stats(ingested_reports=10, stragglers=2)
        b = self._stats(ingested_reports=5, finalized_sessions=3)
        merged = a.merge(b)
        assert merged.ingested_reports == 15
        assert merged.stragglers == 2
        assert merged.finalized_sessions == 3

    def test_injected_union_sums(self):
        a = self._stats(injected={"drop.dropped": 3, "ghost.reports": 1})
        b = self._stats(injected={"drop.dropped": 2, "reorder.shifted": 7})
        merged = a + b
        assert merged.injected == {
            "drop.dropped": 5,
            "ghost.reports": 1,
            "reorder.shifted": 7,
        }
        # Inputs untouched (merge is pure).
        assert a.injected == {"drop.dropped": 3, "ghost.reports": 1}

    def test_merge_is_commutative(self):
        a = self._stats(ingested_reports=4, injected={"x": 1})
        b = self._stats(dropped_reports=2, injected={"y": 2})
        assert (a + b) == (b + a)

    def test_non_stats_rejected(self):
        with pytest.raises(TypeError):
            self._stats() + 3
