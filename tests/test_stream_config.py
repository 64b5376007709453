"""SessionConfig: one validated config surface + legacy-kwarg shims."""

import dataclasses

import pytest

from repro.core.pipeline import RFIDrawSystem
from repro.stream import (
    ManagerStats,
    SessionConfig,
    SessionManager,
    TrackingSession,
)
from repro.stream.config import CONFIG_FIELDS, fold_legacy_kwargs


@pytest.fixture
def system(deployment, plane, wavelength):
    return RFIDrawSystem(deployment, plane, wavelength)


class TestSessionConfig:
    def test_defaults_round_trip(self):
        config = SessionConfig()
        kwargs = config.session_kwargs()
        assert kwargs["sample_rate"] == 20.0
        assert kwargs["out_of_order"] == "raise"
        assert set(kwargs) < CONFIG_FIELDS
        # Manager-level policy stays out of the session subset.
        assert "idle_timeout" not in kwargs
        assert "max_sessions" not in kwargs
        assert "retain_results" not in kwargs

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


class TestFoldLegacyKwargs:
    def test_no_tunables_passthrough(self):
        config, rest = fold_legacy_kwargs(None, {"epc_hex": "30AA"}, "X")
        assert config == SessionConfig()
        assert rest == {"epc_hex": "30AA"}

    def test_explicit_config_wins(self):
        given = SessionConfig(out_of_order="drop")
        config, rest = fold_legacy_kwargs(given, {}, "X")
        assert config is given
        assert rest == {}

    def test_legacy_tunables_warn_and_fold(self):
        with pytest.warns(DeprecationWarning, match="X: passing"):
            config, rest = fold_legacy_kwargs(
                None, {"idle_timeout": 3.0, "epc_hex": "30AA"}, "X"
            )
        assert config.idle_timeout == 3.0
        assert rest == {"epc_hex": "30AA"}

    def test_config_plus_tunables_is_an_error(self):
        with pytest.raises(ValueError, match="not alongside"):
            fold_legacy_kwargs(
                SessionConfig(), {"idle_timeout": 3.0}, "X"
            )


class TestManagerShim:
    def test_config_accepted_silently(self, recwarn, system):
        config = SessionConfig(
            out_of_order="drop", idle_timeout=2.0, max_sessions=3
        )
        manager = SessionManager(system, config=config)
        assert manager.config is config
        assert manager.idle_timeout == 2.0
        assert manager.max_sessions == 3
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_legacy_kwargs_warn_but_work(self, system):
        with pytest.warns(DeprecationWarning, match="SessionManager"):
            manager = SessionManager(
                system, idle_timeout=2.0, candidate_count=2
            )
        assert manager.idle_timeout == 2.0
        assert manager.config.candidate_count == 2
        session = manager.session_for("30AA")
        assert session.candidate_count == 2

    def test_config_plus_legacy_is_an_error(self, system):
        with pytest.raises(ValueError, match="not alongside"):
            SessionManager(
                system, config=SessionConfig(), idle_timeout=2.0
            )

    def test_custom_factory_plus_tunables_is_an_error(self, system):
        def factory(epc_hex):
            return TrackingSession(system, epc_hex=epc_hex)

        with pytest.raises(ValueError, match="session_factory"):
            SessionManager(
                system,
                session_factory=factory,
                config=SessionConfig(candidate_count=2),
            )

    def test_custom_factory_with_manager_policy_ok(self, system):
        # Manager-level policy is not a session tunable — a custom
        # factory composes with it.
        def factory(epc_hex):
            return TrackingSession(system, epc_hex=epc_hex)

        manager = SessionManager(
            system,
            session_factory=factory,
            config=SessionConfig(idle_timeout=5.0),
        )
        assert manager.idle_timeout == 5.0


class TestFacadeShims:
    def test_open_session_config(self, recwarn, system):
        config = SessionConfig(candidate_count=2, out_of_order="drop")
        session = system.open_session(config=config, epc_hex="30AA")
        assert session.candidate_count == 2
        assert session.epc_hex == "30AA"
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_open_session_legacy_warns(self, system):
        with pytest.warns(DeprecationWarning, match="open_session"):
            session = system.open_session(candidate_count=2)
        assert session.candidate_count == 2

    def test_reconstruct_log_legacy_warning_names_caller(self):
        """The shim's warning is attributed to the code that called
        reconstruct_log, not to the library forwarding the arguments."""
        from repro.serve.workload import fleet_system, synthetic_fleet

        fleet = fleet_system()
        reports = synthetic_fleet(fleet, tags=1)
        with pytest.warns(DeprecationWarning, match="reconstruct_log") as record:
            result = fleet.reconstruct_log(reports, sample_rate=20.0)
        assert [w.filename for w in record] == [__file__]
        assert len(result.times) > 0

    def test_open_session_conflict(self, system):
        with pytest.raises(ValueError, match="not alongside"):
            system.open_session(
                config=SessionConfig(), candidate_count=2
            )

    def test_wifi_facade_is_silent(self, recwarn):
        from repro.wifi.system import WifiTracker

        tracker = WifiTracker()
        session = tracker.open_session(sample_rate=40.0, candidate_count=2)
        assert session.candidate_count == 2
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        with pytest.raises(ValueError, match="not alongside"):
            tracker.open_session(
                config=SessionConfig(), candidate_count=2
            )


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
