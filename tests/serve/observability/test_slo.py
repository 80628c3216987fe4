"""SLO engine: objectives, burn-rate rules, AlertManager, TOML parsing."""

from __future__ import annotations

import pytest

from repro.serve import (
    SLO,
    AlertManager,
    AvailabilityObjective,
    BurnRateRule,
    LatencyObjective,
    SLOConfigError,
    WindowedSeriesStore,
    register_slo,
    registered_slos,
    slo_from_spec,
)
from repro.serve.observability.slo import default_rules


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock(start=0.0)


@pytest.fixture
def store(clock: FakeClock) -> WindowedSeriesStore:
    return WindowedSeriesStore(interval=1.0, buckets=600, clock=clock)


def feed_latency(store, clock, seconds: int, value: float, per_second: int = 20) -> None:
    for _ in range(seconds):
        clock.advance(1.0)
        for _ in range(per_second):
            store.record_observation("gateway.latency_ms", value)


def feed_traffic(store, clock, seconds: int, ok: int, errors: int) -> None:
    for _ in range(seconds):
        clock.advance(1.0)
        store.record_counter_delta("gateway.requests", ok + errors)
        store.record_counter_delta("gateway.errors", errors)


class TestObjectives:
    def test_latency_budget_is_one_minus_quantile(self):
        objective = LatencyObjective("gateway.latency_ms", target_ms=50.0, quantile=0.95)
        assert objective.budget == pytest.approx(0.05)

    def test_latency_bad_fraction_is_the_share_above_target(self, store, clock):
        objective = LatencyObjective("gateway.latency_ms", target_ms=50.0)
        assert objective.bad_fraction(store, 60.0) is None  # no data yet
        feed_latency(store, clock, seconds=5, value=10.0, per_second=30)
        feed_latency(store, clock, seconds=5, value=100.0, per_second=10)
        fraction = objective.bad_fraction(store, 10.0)
        assert fraction == pytest.approx(0.25, abs=0.03)

    def test_availability_bad_fraction_is_the_error_ratio(self, store, clock):
        objective = AvailabilityObjective("gateway.requests", "gateway.errors", 0.999)
        assert objective.bad_fraction(store, 60.0) is None  # no traffic
        feed_traffic(store, clock, seconds=10, ok=95, errors=5)
        assert objective.bad_fraction(store, 10.0) == pytest.approx(0.05)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            LatencyObjective("s", target_ms=0.0)
        with pytest.raises(ValueError):
            LatencyObjective("s", target_ms=1.0, quantile=1.0)
        with pytest.raises(ValueError):
            AvailabilityObjective("t", "e", objective=1.0)


class TestBurnRateRule:
    def test_fires_only_when_both_windows_agree(self):
        rule = BurnRateRule(short_window=300, long_window=3600, factor=14.4)
        assert rule.evaluate(20.0, 1.0) is None  # spike, long window calm
        assert rule.evaluate(1.0, 20.0) is None  # stale burn, bleeding stopped
        assert rule.evaluate(20.0, 20.0) == "firing"
        assert rule.firing

    def test_no_data_neither_fires_nor_resolves(self):
        rule = BurnRateRule(300, 3600, 1.0)
        assert rule.evaluate(None, 5.0) is None
        rule.evaluate(5.0, 5.0)
        assert rule.firing
        assert rule.evaluate(None, 0.0) is None
        assert rule.firing  # silence is not evidence of health

    def test_hysteresis_band_prevents_flapping(self):
        rule = BurnRateRule(300, 3600, factor=10.0, resolve_fraction=0.9)
        rule.evaluate(11.0, 11.0)
        assert rule.firing
        # Dropping just below the firing threshold is NOT enough to resolve.
        assert rule.evaluate(9.5, 9.5) is None
        assert rule.firing
        # ... and re-crossing while firing emits nothing (no duplicate fire).
        assert rule.evaluate(11.0, 11.0) is None
        # Only below factor × resolve_fraction does it clear.
        assert rule.evaluate(8.9, 8.9) == "resolved"
        assert not rule.firing

    def test_default_rules_scale_for_tests(self):
        page, ticket = default_rules(scale=1 / 300)
        assert page.short_window == pytest.approx(1.0)
        assert page.factor == 14.4 and page.severity == "page"
        assert ticket.factor == 1.0 and ticket.severity == "ticket"

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            BurnRateRule(10.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            BurnRateRule(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            BurnRateRule(1.0, 2.0, 1.0, resolve_fraction=0.0)


class TestAlertManager:
    def make_manager(self, store, clock) -> AlertManager:
        manager = AlertManager(store, clock=clock)
        manager.add_slo(
            SLO(
                "gateway-latency",
                LatencyObjective("gateway.latency_ms", target_ms=50.0, quantile=0.95),
                rules=[BurnRateRule(5.0, 10.0, factor=2.0, severity="page")],
                clock=clock,
            )
        )
        return manager

    def test_full_fire_resolve_cycle_with_typed_events(self, store, clock):
        manager = self.make_manager(store, clock)
        received = []
        manager.add_listener(received.append)

        feed_latency(store, clock, seconds=12, value=10.0)
        assert manager.evaluate() == []

        feed_latency(store, clock, seconds=12, value=200.0)
        [fired] = manager.evaluate()
        assert (fired.slo, fired.state, fired.severity) == ("gateway-latency", "firing", "page")
        assert fired.burn_rate > 2.0
        assert fired.timestamp == clock.now

        feed_latency(store, clock, seconds=12, value=10.0)
        [resolved] = manager.evaluate()
        assert resolved.state == "resolved"
        assert received == [fired, resolved]
        assert manager.active() == []
        history = manager.history()
        assert [entry["state"] for entry in history] == ["firing", "resolved"]
        stats = manager.stats()
        assert stats["fired"] == 1 and stats["resolved"] == 1 and stats["active"] == 0

    def test_active_lists_firing_rules(self, store, clock):
        manager = self.make_manager(store, clock)
        feed_latency(store, clock, seconds=12, value=200.0)
        manager.evaluate()
        [active] = manager.active()
        assert active["slo"] == "gateway-latency" and active["severity"] == "page"

    def test_listener_errors_are_swallowed_and_counted(self, store, clock):
        manager = self.make_manager(store, clock)

        def bad_listener(event):
            raise RuntimeError("pager service down")

        manager.add_listener(bad_listener)
        feed_latency(store, clock, seconds=12, value=200.0)
        events = manager.evaluate()  # must not raise
        assert len(events) == 1
        assert manager.stats()["listener_errors"] == 1

    def test_duplicate_slo_names_are_rejected(self, store, clock):
        manager = self.make_manager(store, clock)
        with pytest.raises(ValueError):
            manager.add_slo(
                SLO("gateway-latency", LatencyObjective("x", 1.0), rules=default_rules())
            )

    def test_event_to_dict_is_json_shaped(self, store, clock):
        manager = self.make_manager(store, clock)
        feed_latency(store, clock, seconds=12, value=200.0)
        [event] = manager.evaluate()
        payload = event.to_dict()
        assert payload["slo"] == "gateway-latency"
        assert payload["state"] == "firing"
        assert set(payload) == {
            "slo",
            "severity",
            "state",
            "burn_rate",
            "budget_remaining",
            "short_window",
            "long_window",
            "timestamp",
        }

    def test_background_evaluator_thread_fires(self, store, clock):
        import time as _time

        manager = self.make_manager(store, clock)
        feed_latency(store, clock, seconds=12, value=200.0)
        with manager.start(interval=0.01):
            deadline = _time.monotonic() + 5.0
            while not manager.active() and _time.monotonic() < deadline:
                _time.sleep(0.01)
        assert manager.active(), "the daemon should have evaluated and fired"


class TestSpecParsing:
    def spec(self, **overrides):
        table = {
            "window_scale": 1.0,
            "objectives": [
                {
                    "name": "gateway-latency",
                    "type": "latency",
                    "series": "gateway.latency_ms",
                    "target_ms": 50.0,
                    "quantile": 0.95,
                },
                {
                    "name": "gateway-availability",
                    "type": "availability",
                    "total": "gateway.requests",
                    "errors": "gateway.errors",
                    "objective": 0.999,
                },
            ],
        }
        table.update(overrides)
        return table

    def test_builds_a_manager_from_the_toml_shape(self, store, clock):
        manager = slo_from_spec(self.spec(), store, clock=clock)
        described = {entry["name"]: entry for entry in manager.describe()}
        assert set(described) == {"gateway-latency", "gateway-availability"}
        assert described["gateway-latency"]["objective"]["type"] == "latency"
        assert described["gateway-availability"]["objective"]["objective"] == 0.999
        # Each SLO gets the SRE-workbook rule pair.
        assert [rule["severity"] for rule in described["gateway-latency"]["rules"]] == [
            "page",
            "ticket",
        ]

    def test_window_scale_shrinks_rule_windows(self, store, clock):
        manager = slo_from_spec(self.spec(window_scale=1 / 300), store, clock=clock)
        rules = manager.describe()[0]["rules"]
        assert rules[0]["short_window"] == pytest.approx(1.0)

    def test_unwraps_the_observability_block(self, store, clock):
        wrapped = {"sample_rate": 1.0, "slo": self.spec()}
        manager = slo_from_spec(wrapped, store, clock=clock)
        assert len(manager.describe()) == 2

    def test_absent_block_is_none(self, store):
        assert slo_from_spec(None, store) is None
        assert slo_from_spec({}, store) is None

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.update(bogus=1), "unknown"),
            (lambda t: t.update(window_scale=-1.0), "window_scale"),
            (lambda t: t.update(objectives=[]), "objectives"),
            (lambda t: t.update(objectives="nope"), "objectives"),
            (lambda t: t["objectives"][0].pop("name"), "name"),
            (lambda t: t["objectives"][0].pop("series"), "series"),
            (lambda t: t["objectives"][0].update(type="bogus"), "unknown type"),
            (lambda t: t["objectives"][0].update(target_ms="fast"), "target_ms"),
            (lambda t: t["objectives"][1].pop("total"), "total"),
            (lambda t: t["objectives"][0].update(quantil=0.99), "quantil"),
        ],
    )
    def test_shape_errors_are_typed_and_eager(self, store, mutate, fragment):
        table = self.spec()
        mutate(table)
        with pytest.raises(SLOConfigError, match=fragment):
            slo_from_spec(table, store)

    def test_duplicate_objective_names_are_config_errors(self, store):
        table = self.spec()
        table["objectives"][1]["name"] = table["objectives"][0]["name"]
        with pytest.raises(SLOConfigError, match="already registered"):
            slo_from_spec(table, store)


class TestRegisterSlo:
    def test_user_registered_type_builds_from_spec(self, store, clock):
        name = "always-bad-test-type"
        if name not in registered_slos():

            @register_slo(name)
            class AlwaysBad:
                def __init__(self, level: float = 1.0) -> None:
                    self.level = level
                    self.budget = 0.01

                def bad_fraction(self, store, window):
                    return self.level

                def describe(self):
                    return {"type": name, "level": self.level}

        table = {
            "objectives": [{"name": "custom", "type": name, "level": 0.5}],
        }
        manager = slo_from_spec(table, store, clock=clock)
        [described] = manager.describe()
        assert described["objective"]["level"] == 0.5

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_slo("latency", lambda: None)

    def test_builtins_are_registered(self):
        assert {"latency", "availability"} <= set(registered_slos())
