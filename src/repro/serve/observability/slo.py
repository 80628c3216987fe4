"""Declarative SLOs with error budgets and multi-window burn-rate alerting.

An *SLO* turns a raw time series into a promise ("p95 gateway latency stays
under 50 ms", "99.9% of requests succeed") plus an *error budget* — the
fraction of events allowed to break that promise.  The alerting layer here
follows the Google SRE workbook recipe: instead of paging on a single
threshold crossing (noisy) or on budget exhaustion (too late), each
:class:`BurnRateRule` watches the *rate* at which budget is being spent over
**two** windows at once and fires only when both agree:

* a **page** rule over short windows (5m / 1h, factor 14.4 — at that pace
  the whole 30-day budget dies in two days), and
* a **ticket** rule over long windows (6h / 3d, factor 1.0 — a slow leak).

The long window keeps a spike from paging; the short window makes the alert
*resolve* quickly once the bleeding stops.  Resolution additionally applies
hysteresis (``resolve_fraction``): an alert clears only when both burns fall
below ``factor × resolve_fraction``, so a series oscillating around the
threshold cannot flap — the property the hypothesis suite pins.

Everything reads from a :class:`~repro.serve.observability.timeseries.
WindowedSeriesStore` (windows scale with its clock, so tests use second-long
"days"), and :class:`AlertManager` turns evaluations into typed
:class:`AlertEvent` objects fanned out to listeners — the gateway's event
plane pushes them to subscribed remote clients.  SLO types extend through
``@register_slo`` and build from the ``[observability.slo]`` TOML block via
:func:`slo_from_spec`, through the same :class:`~repro.serve.plugins.Registry`
as middleware and exporters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..plugins import Registry
from .config import ObservabilityConfigError
from .timeseries import WindowedSeriesStore


class SLOConfigError(ObservabilityConfigError):
    """A malformed ``[observability.slo]`` block, raised eagerly at build."""


# ----------------------------------------------------------------------
# Objectives: reduce a window of history to a bad-event fraction
# ----------------------------------------------------------------------
class LatencyObjective:
    """``quantile`` of ``series`` must stay at or below ``target_ms``.

    "pX ≤ target" is equivalently "at most (1−X) of events exceed target",
    so the error budget is ``1 − quantile`` and the bad fraction is the
    windowed share of observations above the target.
    """

    def __init__(self, series: str, target_ms: float, quantile: float = 0.95) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if target_ms <= 0:
            raise ValueError("target_ms must be > 0")
        self.series = series
        self.target_ms = float(target_ms)
        self.quantile = float(quantile)

    @property
    def budget(self) -> float:
        return 1.0 - self.quantile

    def bad_fraction(self, store: WindowedSeriesStore, window: float) -> Optional[float]:
        return store.fraction_above(self.series, self.target_ms, window=window)

    def describe(self) -> Dict[str, object]:
        return {
            "type": "latency",
            "series": self.series,
            "target_ms": self.target_ms,
            "quantile": self.quantile,
        }


class AvailabilityObjective:
    """``errors / total`` must stay at or below ``1 − objective``."""

    def __init__(self, total: str, errors: str, objective: float = 0.999) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        self.total = total
        self.errors = errors
        self.objective = float(objective)

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def bad_fraction(self, store: WindowedSeriesStore, window: float) -> Optional[float]:
        total = store.increase(self.total, window=window)
        if total <= 0:
            return None  # no traffic: no evidence either way
        errors = store.increase(self.errors, window=window)
        return min(max(errors / total, 0.0), 1.0)

    def describe(self) -> Dict[str, object]:
        return {
            "type": "availability",
            "total": self.total,
            "errors": self.errors,
            "objective": self.objective,
        }


# ----------------------------------------------------------------------
# Burn-rate rules and alert events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertEvent:
    """One alert transition, JSON-shaped for listeners and the wire."""

    slo: str
    severity: str
    state: str  # "firing" | "resolved"
    burn_rate: float
    budget_remaining: float
    short_window: float
    long_window: float
    timestamp: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "state": self.state,
            "burn_rate": round(self.burn_rate, 6),
            "budget_remaining": round(self.budget_remaining, 6),
            "short_window": self.short_window,
            "long_window": self.long_window,
            "timestamp": self.timestamp,
        }


@dataclass
class BurnRateRule:
    """Fire when budget burns faster than ``factor`` over *both* windows.

    ``burn = bad_fraction / budget`` — 1.0 means spending exactly the
    budget over the window; 14.4 means a 30-day budget gone in ~2 days.
    ``resolve_fraction`` is the hysteresis band: once firing, the rule
    resolves only when both burns drop below ``factor × resolve_fraction``.
    """

    short_window: float
    long_window: float
    factor: float
    severity: str = "page"
    resolve_fraction: float = 0.9
    firing: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ValueError("windows must satisfy 0 < short <= long")
        if self.factor <= 0:
            raise ValueError("factor must be > 0")
        if not 0.0 < self.resolve_fraction <= 1.0:
            raise ValueError("resolve_fraction must be in (0, 1]")

    def evaluate(self, short_burn: Optional[float], long_burn: Optional[float]) -> Optional[str]:
        """Advance the rule; returns "firing"/"resolved" on a transition.

        A window with no data (None) can neither fire nor resolve the rule —
        silence is not evidence of health.
        """
        if short_burn is None or long_burn is None:
            return None
        if not self.firing:
            if short_burn > self.factor and long_burn > self.factor:
                self.firing = True
                return "firing"
            return None
        clear = self.factor * self.resolve_fraction
        if short_burn < clear and long_burn < clear:
            self.firing = False
            return "resolved"
        return None


def default_rules(scale: float = 1.0) -> List[BurnRateRule]:
    """The SRE-workbook pair; ``scale`` shrinks wall-clock windows for tests
    (``scale=1/300`` turns the 5m page window into one second)."""
    return [
        BurnRateRule(300.0 * scale, 3600.0 * scale, 14.4, severity="page"),
        BurnRateRule(21600.0 * scale, 259200.0 * scale, 1.0, severity="ticket"),
    ]


class SLO:
    """One objective plus its burn-rate rules and budget accounting."""

    def __init__(
        self,
        name: str,
        objective,
        rules: Optional[Iterable[BurnRateRule]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not name:
            raise ValueError("an SLO needs a name")
        self.name = name
        self.objective = objective
        self.rules = list(rules) if rules is not None else default_rules()
        if not self.rules:
            raise ValueError("an SLO needs at least one burn-rate rule")
        self._clock = clock

    def burn_rate(self, store: WindowedSeriesStore, window: float) -> Optional[float]:
        bad = self.objective.bad_fraction(store, window)
        if bad is None:
            return None
        return bad / self.objective.budget

    def budget_remaining(self, store: WindowedSeriesStore, window: float) -> float:
        """1.0 = untouched budget over the window, 0.0 = fully spent."""
        burn = self.burn_rate(store, window)
        if burn is None:
            return 1.0
        return max(0.0, 1.0 - burn)

    def evaluate(self, store: WindowedSeriesStore) -> List[AlertEvent]:
        """Run every rule against current history; returns transitions only."""
        events: List[AlertEvent] = []
        for rule in self.rules:
            short_burn = self.burn_rate(store, rule.short_window)
            long_burn = self.burn_rate(store, rule.long_window)
            transition = rule.evaluate(short_burn, long_burn)
            if transition is None:
                continue
            events.append(
                AlertEvent(
                    slo=self.name,
                    severity=rule.severity,
                    state=transition,
                    burn_rate=max(short_burn or 0.0, long_burn or 0.0),
                    budget_remaining=self.budget_remaining(store, rule.long_window),
                    short_window=rule.short_window,
                    long_window=rule.long_window,
                    timestamp=self._clock(),
                )
            )
        return events

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective.describe(),
            "rules": [
                {
                    "severity": rule.severity,
                    "short_window": rule.short_window,
                    "long_window": rule.long_window,
                    "factor": rule.factor,
                    "firing": rule.firing,
                }
                for rule in self.rules
            ],
        }


# ----------------------------------------------------------------------
# AlertManager: evaluation + listener fan-out
# ----------------------------------------------------------------------
class AlertManager:
    """Thread-safe SLO evaluator with listener fan-out.

    :meth:`evaluate` runs every registered SLO against the store and hands
    each transition to every listener (exceptions swallowed — alerting must
    not take down serving).  Call it from your own cadence, or
    :meth:`start`/:meth:`stop` a daemon thread that evaluates every
    ``interval`` seconds.
    """

    def __init__(
        self,
        store: WindowedSeriesStore,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self._clock = clock
        self._slos: Dict[str, SLO] = {}
        self._listeners: List[Callable[[AlertEvent], None]] = []
        self._history: List[AlertEvent] = []
        self._lock = threading.Lock()
        self._counters = {"evaluations": 0, "fired": 0, "resolved": 0, "listener_errors": 0}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def add_slo(self, slo: SLO) -> SLO:
        with self._lock:
            if slo.name in self._slos:
                raise ValueError(f"SLO '{slo.name}' is already registered")
            self._slos[slo.name] = slo
        return slo

    def add_listener(self, listener: Callable[[AlertEvent], None]) -> Callable[[AlertEvent], None]:
        with self._lock:
            self._listeners.append(listener)
        return listener

    def evaluate(self) -> List[AlertEvent]:
        """One evaluation pass over every SLO; returns (and fans out) the
        transitions it produced."""
        with self._lock:
            slos = list(self._slos.values())
            listeners = list(self._listeners)
            self._counters["evaluations"] += 1
        events: List[AlertEvent] = []
        for slo in slos:
            events.extend(slo.evaluate(self.store))
        if not events:
            return events
        with self._lock:
            for event in events:
                self._history.append(event)
                self._counters["fired" if event.state == "firing" else "resolved"] += 1
            del self._history[:-256]
        for event in events:
            for listener in listeners:
                try:
                    listener(event)
                except Exception:  # noqa: BLE001 - alerting must not fail serving
                    with self._lock:
                        self._counters["listener_errors"] += 1
        return events

    def active(self) -> List[Dict[str, object]]:
        """Every currently-firing (slo, rule) pair."""
        with self._lock:
            slos = list(self._slos.values())
        firing = []
        for slo in slos:
            for rule in slo.rules:
                if rule.firing:
                    firing.append(
                        {
                            "slo": slo.name,
                            "severity": rule.severity,
                            "short_window": rule.short_window,
                            "long_window": rule.long_window,
                        }
                    )
        return firing

    def history(self, limit: int = 64) -> List[Dict[str, object]]:
        with self._lock:
            return [event.to_dict() for event in self._history[-max(limit, 0) :]]

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            slos = list(self._slos.values())
        return [slo.describe() for slo in slos]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                **self._counters,
                "slos": sorted(self._slos),
                "active": len([1 for slo in self._slos.values() for r in slo.rules if r.firing]),
                "listeners": len(self._listeners),
            }

    # ------------------------------------------------------------------
    # Optional evaluation daemon
    # ------------------------------------------------------------------
    def start(self, interval: float = 1.0) -> "AlertManager":
        if interval <= 0:
            raise ValueError("interval must be > 0")
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, args=(interval,), name="slo-alerts", daemon=True
            )
            self._thread.start()
        return self

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.evaluate()
            except Exception:  # noqa: BLE001 - the daemon must survive bad providers
                pass

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)

    def __enter__(self) -> "AlertManager":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Registry + TOML parsing
# ----------------------------------------------------------------------
# "type" is the kind so unknown names read "unknown type 'x'", the TOML key.
SLO_TYPES: Registry[object] = Registry("type", object, "register_slo")
register_slo = SLO_TYPES.register
registered_slos = SLO_TYPES.names


def slo_from_spec(
    table: Optional[Mapping[str, object]],
    store: WindowedSeriesStore,
    clock: Callable[[], float] = time.monotonic,
) -> Optional[AlertManager]:
    """Interpret an ``[observability.slo]`` table into an :class:`AlertManager`.

    Accepts the raw ``slo`` mapping, the full ``[observability]`` mapping, or
    a parsed ``StackSpec`` (both are unwrapped).  Shape::

        [observability.slo]
        window_scale = 1.0                    # optional: shrink rule windows

        [[observability.slo.objectives]]
        name = "gateway-latency"
        type = "latency"
        series = "gateway.latency_ms"
        target_ms = 50.0
        quantile = 0.95

        [[observability.slo.objectives]]
        name = "gateway-availability"
        type = "availability"
        total = "gateway.requests"
        errors = "gateway.errors"
        objective = 0.999

    Returns ``None`` for an absent/empty block.  All shape errors raise
    :class:`SLOConfigError` eagerly.
    """
    table = getattr(table, "observability", table)
    if isinstance(table, Mapping) and "slo" in table:
        table = table["slo"]
    if not table:
        return None
    if not isinstance(table, Mapping):
        raise SLOConfigError(f"[observability.slo] must be a table, got {type(table).__name__}")
    known = {"window_scale", "objectives"}
    unknown = set(table) - known
    if unknown:
        raise SLOConfigError(
            f"unknown [observability.slo] keys {sorted(unknown)}; known: {sorted(known)}"
        )
    scale_raw = table.get("window_scale", 1.0)
    if isinstance(scale_raw, bool) or not isinstance(scale_raw, (int, float)) or scale_raw <= 0:
        raise SLOConfigError(f"'window_scale' must be a positive number, got {scale_raw!r}")
    scale = float(scale_raw)
    objectives = table.get("objectives")
    if not isinstance(objectives, (list, tuple)) or not objectives:
        raise SLOConfigError("[observability.slo] needs a non-empty 'objectives' array of tables")
    manager = AlertManager(store, clock=clock)
    for index, entry in enumerate(objectives):
        if not isinstance(entry, Mapping):
            raise SLOConfigError(
                f"objectives[{index}]: expected a table, got {type(entry).__name__}"
            )
        for key in ("name", "type"):
            if not isinstance(entry.get(key), str) or not entry.get(key):
                raise SLOConfigError(f"objectives[{index}]: '{key}' must be a non-empty string")
        kwargs = {k: v for k, v in entry.items() if k not in ("name", "type")}
        try:
            objective = SLO_TYPES.build(entry["type"], kwargs)
            manager.add_slo(SLO(entry["name"], objective, rules=default_rules(scale), clock=clock))
        except ValueError as error:  # every ConfigError is a ValueError
            raise SLOConfigError(f"objectives[{index}]: {error}") from None
    return manager


register_slo("latency", LatencyObjective)
register_slo("availability", AvailabilityObjective)


__all__ = [
    "AlertEvent",
    "AlertManager",
    "AvailabilityObjective",
    "BurnRateRule",
    "LatencyObjective",
    "SLO",
    "SLOConfigError",
    "default_rules",
    "register_slo",
    "registered_slos",
    "slo_from_spec",
]
