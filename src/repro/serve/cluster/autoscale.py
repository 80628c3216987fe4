"""Policy-driven elastic topology: autoscaling with live shard migration.

The router can already change membership (``add_replica`` / ``remove_replica``
exist, and the consistent-hash ring pins minimal key movement) — this module
adds the thing that *decides* to, as a monitor → decide → act loop with every
policy decision in a pluggable object, never hard-coded in the executor:

* :class:`Observation` — one snapshot of the signals a policy may watch:
  admission backlog, per-replica in-flight load, worst per-model p95,
  batch-fill, failover/shed counters;
* :class:`ScalingPolicy` — the strategy interface: ``decide(observation)``
  returns a :class:`ScalingDecision` (``scale_up`` / ``scale_down`` /
  ``noop`` plus a human-readable reason).  Built-ins
  :class:`QueueDepthPolicy` and :class:`LatencyTargetPolicy` share a
  hysteresis band (distinct high/low watermarks, ``breach_count``
  consecutive observations to act) and a post-action cooldown, both driven
  by an injectable clock so tests never sleep;
* :class:`Autoscaler` — the executor.  ``step()`` runs one cycle; ``start()``
  runs cycles on a daemon thread every ``interval`` seconds.

**Warm-up before cutover** is the executor's core guarantee.  Scale-up builds
the new :class:`~repro.serve.cluster.replica.ReplicaWorker` from the
``replica_factory``, asks the placement policy (via
:meth:`~repro.serve.cluster.placement.PlacementPolicy.preview_owners`) which
model bundles the post-join shard map will assign it, publishes those bundles
into the replica's registry, loads each instance into the LRU cache and runs
one priming forward per bundle — all *before* ``router.add_replica`` makes
the replica placeable.  No request ever lands on a cold shard.  Scale-down is
the mirror image: pick the least-loaded replica, pre-publish (and warm) every
bundle whose post-leave owners do not hold it yet, then
``remove_replica(drain=True)`` — placement stops immediately, in-flight work
finishes, and only then does the replica deregister.  Zero in-flight requests
are lost across either transition (the spike scenario in
``tests/serve/cluster/test_autoscale.py`` pins this).

Policies can also be declared in the TOML ``[cluster.autoscale]`` table (see
``docs/configuration.md``); :func:`autoscaler_from_spec` builds the running
object from a parsed spec, resolving policy names through the shared plugin
registry (:func:`register_scaling_policy`, a :class:`~repro.serve.plugins.
Registry` like middleware's).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..middleware.config import coerce_spec
from ..plugins import Registry, UnknownNameError
from .replica import ReplicaWorker
from .router import ClusterRouter

SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
NOOP = "noop"


# ----------------------------------------------------------------------
# What a policy sees and what it answers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Observation:
    """One monitor-phase snapshot of the cluster's load signals."""

    replica_count: int
    queue_depth: int  #: requests waiting in the admission queue
    in_flight: int  #: requests queued or executing on replicas
    p95_ms: float  #: worst per-model windowed p95 latency (0 once the window empties)
    batch_fill: float  #: mean batch-fill ratio across models (0 when idle)
    failovers: int  #: cumulative router failover count
    shed: int  #: cumulative deadline-shed count
    timestamp: float

    @property
    def backlog(self) -> int:
        """Total outstanding work: admission backlog plus replica in-flight."""
        return self.queue_depth + self.in_flight

    @property
    def backlog_per_replica(self) -> float:
        return self.backlog / self.replica_count if self.replica_count else float("inf")


@dataclass(frozen=True)
class ScalingDecision:
    """A policy's verdict for one cycle; ``reason`` is for humans and stats."""

    action: str  # SCALE_UP | SCALE_DOWN | NOOP
    reason: str
    amount: int = 1


class ScalingPolicy:
    """Strategy interface: observe the running system, emit a decision.

    Policies are deliberately *objects*, not callbacks baked into the
    executor: they may carry hysteresis state, cooldown clocks, learned
    baselines — anything — and are swappable on a live autoscaler.
    """

    name = "policy"

    def decide(self, observation: Observation) -> ScalingDecision:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Config knobs for ``stats()``; override to add policy-specifics."""
        return {"name": self.name}


class HysteresisPolicy(ScalingPolicy):
    """Shared machinery: watermark band + consecutive-breach + cooldown.

    A scalar :meth:`signal` is compared against a band: above ``high`` for
    ``breach_count`` consecutive observations requests scale-up, below
    ``low`` for as many requests scale-down, and anything inside the band
    resets both streaks.  ``high > low`` is required — the dead zone between
    them is what prevents flapping (a scale-up that lands the signal just
    under the up-threshold must not immediately qualify for scale-down).
    After any non-noop decision the policy holds ``cooldown`` seconds of
    ``noop`` so the cluster observes the *effect* of one action before
    taking another.  The clock is injectable.
    """

    signal_name = "signal"

    def __init__(
        self,
        high: float,
        low: float,
        breach_count: int = 2,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if high <= low:
            raise ValueError("high watermark must be > low watermark (hysteresis band)")
        if breach_count < 1:
            raise ValueError("breach_count must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0 seconds")
        self.high = float(high)
        self.low = float(low)
        self.breach_count = breach_count
        self.cooldown = float(cooldown)
        self._clock = clock
        self._streak_high = 0
        self._streak_low = 0
        self._last_action_at = float("-inf")

    def signal(self, observation: Observation) -> float:
        raise NotImplementedError

    def decide(self, observation: Observation) -> ScalingDecision:
        value = self.signal(observation)
        # Streaks accumulate even during cooldown: a breach that persists
        # through the hold acts on the first post-cooldown cycle.
        if value > self.high:
            self._streak_high += 1
            self._streak_low = 0
        elif value < self.low:
            self._streak_low += 1
            self._streak_high = 0
        else:
            self._streak_high = 0
            self._streak_low = 0
        now = self._clock()
        held = self.cooldown - (now - self._last_action_at)
        if held > 0:
            return ScalingDecision(NOOP, f"cooldown: {held:.2f}s before the next action")
        label = f"{self.signal_name}={value:.2f}"
        if self._streak_high >= self.breach_count:
            self._streak_high = 0
            self._last_action_at = now
            return ScalingDecision(
                SCALE_UP, f"{label} > {self.high} for {self.breach_count} observation(s)"
            )
        if self._streak_low >= self.breach_count:
            self._streak_low = 0
            self._last_action_at = now
            return ScalingDecision(
                SCALE_DOWN, f"{label} < {self.low} for {self.breach_count} observation(s)"
            )
        return ScalingDecision(NOOP, f"{label} within [{self.low}, {self.high}]")

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "signal": self.signal_name,
            "high": self.high,
            "low": self.low,
            "breach_count": self.breach_count,
            "cooldown": self.cooldown,
        }


class QueueDepthPolicy(HysteresisPolicy):
    """Scale on outstanding work per replica (admission backlog + in-flight).

    The classic feedback signal: it rises the instant offered load exceeds
    service capacity (no latency window has to fill first) and falls to zero
    when the spike ends, which makes it the default choice for bursty
    traffic.  Watermarks are *per replica*, so the thresholds keep meaning
    the same thing as the cluster grows.
    """

    name = "queue_depth"
    signal_name = "backlog_per_replica"

    def __init__(
        self,
        high: float = 8.0,
        low: float = 1.0,
        breach_count: int = 2,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(high, low, breach_count=breach_count, cooldown=cooldown, clock=clock)

    def signal(self, observation: Observation) -> float:
        return observation.backlog_per_replica


class LatencyTargetPolicy(HysteresisPolicy):
    """Scale to hold the worst per-model p95 under an SLA target.

    Scale-up triggers when p95 exceeds ``target_p95_ms``; scale-down when it
    sits below ``target_p95_ms * scale_down_fraction``.  The p95 is the
    router's, read over a wall-clock window
    (:data:`~repro.serve.stats.LATENCY_WINDOW`): once a spike's samples age
    out of it, or an idle cluster's window empties to 0, the topology
    drains back instead of pinning at its peak.
    """

    name = "latency_target"
    signal_name = "p95_ms"

    def __init__(
        self,
        target_p95_ms: float,
        scale_down_fraction: float = 0.5,
        breach_count: int = 2,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if target_p95_ms <= 0:
            raise ValueError("target_p95_ms must be > 0")
        if not 0.0 < scale_down_fraction < 1.0:
            raise ValueError("scale_down_fraction must be in (0, 1)")
        self.target_p95_ms = float(target_p95_ms)
        self.scale_down_fraction = float(scale_down_fraction)
        super().__init__(
            high=target_p95_ms,
            low=target_p95_ms * scale_down_fraction,
            breach_count=breach_count,
            cooldown=cooldown,
            clock=clock,
        )

    def signal(self, observation: Observation) -> float:
        return observation.p95_ms

    def describe(self) -> Dict[str, object]:
        described = super().describe()
        described["target_p95_ms"] = self.target_p95_ms
        described["scale_down_fraction"] = self.scale_down_fraction
        return described


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class Autoscaler:
    """Drives :class:`ClusterRouter` membership from a scaling policy.

    ``replica_factory(replica_id) -> ReplicaWorker`` builds fresh members;
    the executor owns their warm-up (bundle publish + instance load + one
    priming forward per bundle) before placement ever sees them, and the
    migrate-then-drain sequencing on the way down.  ``step()`` is fully
    synchronous and serialized by an internal lock, so tests (and the bench)
    can drive the loop deterministically; ``start()`` runs the same cycle on
    a daemon thread every ``interval`` seconds.
    """

    def __init__(
        self,
        router: ClusterRouter,
        policy: ScalingPolicy,
        replica_factory: Callable[[str], ReplicaWorker],
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        replica_prefix: str = "auto",
        priming: bool = True,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if interval <= 0:
            raise ValueError("interval must be > 0 seconds")
        self.router = router
        self.policy = policy
        self.replica_factory = replica_factory
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.interval = interval
        self.priming = priming
        self._clock = clock
        self._prefix = replica_prefix
        self._sequence = itertools.count()
        self._lock = threading.Lock()  # serializes step()/scale_up()/scale_down()
        self._counters = {
            "cycles": 0,
            "scale_up": 0,
            "scale_down": 0,
            "noop": 0,
            "clamped": 0,
            "warmed_bundles": 0,
            "primed_forwards": 0,
            "priming_errors": 0,
        }
        self._counters_lock = threading.Lock()
        self._events: deque = deque(maxlen=64)
        self._last_decision: Optional[ScalingDecision] = None
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        router.autoscaler = self  # stats()["autoscaler"] picks this up

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def observe(self) -> Observation:
        """Build one :class:`Observation` from the router's live signals."""
        router = self.router
        replica_ids = router.replica_ids()
        in_flight = 0
        for replica_id in replica_ids:
            try:
                in_flight += router.replica(replica_id).load()
            except KeyError:  # removed between listing and probing
                continue
        worst_p95 = 0.0
        fills: List[float] = []
        for model_id in router.model_ids():
            snapshot = router.stats(model_id)
            worst_p95 = max(worst_p95, float(snapshot["p95_latency_ms"]))
            if snapshot["requests"]:
                fills.append(float(snapshot["batch_fill_ratio"]))
        admission = router.admission.stats()
        return Observation(
            replica_count=len(replica_ids),
            queue_depth=int(admission["pending"]),
            in_flight=in_flight,
            p95_ms=worst_p95,
            batch_fill=float(np.mean(fills)) if fills else 0.0,
            failovers=int(router.counter("failovers")),
            shed=int(admission["shed"]),
            timestamp=self._clock(),
        )

    # ------------------------------------------------------------------
    # Decide + act
    # ------------------------------------------------------------------
    def step(self) -> ScalingDecision:
        """One monitor → decide → act cycle; returns the decision *applied*.

        A policy verdict the topology bounds reject (already at
        ``max_replicas`` / ``min_replicas``) is downgraded to a ``noop``
        with the clamp recorded in the reason, so callers always see what
        actually happened.
        """
        with self._lock:
            observation = self.observe()
            decision = self.policy.decide(observation)
            applied = self._apply(decision)
        self._count("cycles")
        self._count(applied.action if applied.action != NOOP else "noop")
        self._record_event(applied, observation)
        return applied

    def _apply(self, decision: ScalingDecision) -> ScalingDecision:
        if decision.action == SCALE_UP:
            room = self.max_replicas - len(self.router)
            if room <= 0:
                self._count("clamped")
                return ScalingDecision(NOOP, f"clamped: at max_replicas={self.max_replicas}")
            for _ in range(min(decision.amount, room)):
                self._scale_up_locked()
            return decision
        if decision.action == SCALE_DOWN:
            room = len(self.router) - self.min_replicas
            if room <= 0:
                self._count("clamped")
                return ScalingDecision(NOOP, f"clamped: at min_replicas={self.min_replicas}")
            for _ in range(min(decision.amount, room)):
                self._scale_down_locked()
            return decision
        return decision

    def scale_up(self, amount: int = 1) -> List[str]:
        """Manually add ``amount`` warmed replicas; returns their ids."""
        with self._lock:
            return [self._scale_up_locked() for _ in range(amount)]

    def scale_down(self, replica_id: Optional[str] = None) -> str:
        """Manually drain one replica (least-loaded by default); returns its id."""
        with self._lock:
            return self._scale_down_locked(replica_id)

    # -- scale-up: warm before placement -------------------------------
    def _scale_up_locked(self) -> str:
        router = self.router
        replica_id = f"{self._prefix}-{next(self._sequence)}"
        while replica_id in router.replica_ids():  # user factory ids may collide
            replica_id = f"{self._prefix}-{next(self._sequence)}"
        replica = self.replica_factory(replica_id)
        future_ids = router.replica_ids() + [replica.replica_id]
        plan = router.placement.preview_owners(router.model_ids(), future_ids)
        assigned = [
            model_id for model_id, owner_ids in plan.items() if replica.replica_id in owner_ids
        ]
        replica.start()  # priming needs a running server
        for model_id in assigned:
            self._publish_and_warm(replica, model_id)
        # Only now does the replica become placeable: every bundle the ring
        # will route to it is registered, instantiated and primed.
        router.add_replica(replica)
        return replica.replica_id

    # -- scale-down: migrate, then drain -------------------------------
    def _scale_down_locked(self, replica_id: Optional[str] = None) -> str:
        router = self.router
        victim = replica_id if replica_id is not None else self._least_loaded()
        survivors = [rid for rid in router.replica_ids() if rid != victim]
        if not survivors:
            raise ValueError("refusing to remove the last replica")
        # Live migration: any bundle whose post-leave owners do not hold it
        # yet (in particular one the victim was the only owner of) is
        # published and warmed on them *before* the victim starts draining,
        # so ownership cuts over warm-to-warm.
        plan = router.placement.preview_owners(router.model_ids(), survivors)
        for model_id, owner_ids in plan.items():
            for owner_id in owner_ids:
                try:
                    owner = router.replica(owner_id)
                except KeyError:  # left between preview and publish
                    continue
                if model_id not in owner.registry:
                    self._publish_and_warm(owner, model_id)
        router.remove_replica(victim, drain=True)
        return victim

    def _least_loaded(self) -> str:
        loads = []
        for rid in self.router.replica_ids():
            try:
                loads.append((self.router.replica(rid).load(), rid))
            except KeyError:
                continue
        if not loads:
            raise ValueError("cluster has no replicas to remove")
        return min(loads)[1]

    # -- warm-up --------------------------------------------------------
    def _publish_and_warm(self, replica: ReplicaWorker, model_id: str) -> None:
        """Register ``model_id``'s bundle on ``replica`` and make it hot.

        Three stages, each strictly stronger: the bundle lands in the
        replica's registry (requests stop being catalogue misses), the
        instance is loaded into the LRU cache (requests stop paying the
        factory + parameter unpack), and — when the entry's published
        ``input_shape`` allows — one priming forward runs through the full
        serving path (BLAS buffers, batcher, middleware all touched).
        """
        try:
            entry = self.router.entry(model_id)
        except KeyError:  # unregistered since the plan was computed
            return
        replica.registry.register(
            model_id, entry.bundle, entry.factory, metadata=entry.metadata, replace=True
        )
        self._count("warmed_bundles")
        try:
            replica.registry.get(model_id)  # instantiate into the LRU cache
        except Exception:  # noqa: BLE001 - a broken bundle must not halt scaling
            self._count("priming_errors")
            return
        if not self.priming:
            return
        sample = self._priming_sample(entry.metadata)
        if sample is None:
            return
        try:
            replica.predict(model_id, sample)
            self._count("primed_forwards")
        except Exception:  # noqa: BLE001 - priming is best-effort by design
            self._count("priming_errors")

    @staticmethod
    def _priming_sample(metadata: Mapping[str, object]) -> Optional[np.ndarray]:
        shape = metadata.get("input_shape")
        if not isinstance(shape, (list, tuple)) or not shape:
            return None
        try:
            dims = tuple(int(dim) for dim in shape)
        except (TypeError, ValueError):
            return None
        dtype = str(metadata.get("input_dtype", "float32"))
        try:
            return np.zeros(dims, dtype=np.dtype(dtype))
        except TypeError:
            return np.zeros(dims, dtype=np.float32)

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "Autoscaler":
        if self._running:
            return self
        self._running = True
        self._wake.clear()
        self._thread = threading.Thread(target=self._loop, name="autoscaler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join()

    def _loop(self) -> None:
        while self._running:
            try:
                self.step()
            except Exception:  # noqa: BLE001 - the loop must survive transient races
                self._count("cycle_errors")
            self._wake.wait(self.interval)
            self._wake.clear()

    def __enter__(self) -> "Autoscaler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _count(self, key: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def _record_event(self, decision: ScalingDecision, observation: Observation) -> None:
        self._last_decision = decision
        if decision.action == NOOP:
            return  # the event log keeps actions, not every idle cycle
        with self._counters_lock:
            self._events.append(
                {
                    "action": decision.action,
                    "reason": decision.reason,
                    "replicas": len(self.router),
                    "backlog": observation.backlog,
                    "p95_ms": observation.p95_ms,
                    "at": observation.timestamp,
                }
            )

    def stats(self) -> Dict[str, object]:
        """The ``stats()["autoscaler"]`` section: counters, bounds, last word."""
        with self._counters_lock:
            counters = dict(self._counters)
            events = list(self._events)
        last = self._last_decision
        return {
            **counters,
            "replicas": len(self.router),
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "running": self._running,
            "policy": self.policy.describe(),
            "last_decision": None
            if last is None
            else {"action": last.action, "reason": last.reason},
            "events": events,
        }


# ----------------------------------------------------------------------
# Declarative configuration: the [cluster.autoscale] table
# ----------------------------------------------------------------------
UnknownScalingPolicyError = UnknownNameError

POLICIES: Registry[ScalingPolicy] = Registry(
    "scaling policy", ScalingPolicy, "register_scaling_policy"
)
register_scaling_policy = POLICIES.register
registered_scaling_policies = POLICIES.names


def build_scaling_policy(
    name: str,
    kwargs: Optional[Mapping[str, object]] = None,
    clock: Callable[[], float] = time.monotonic,
) -> ScalingPolicy:
    """Instantiate one registered policy; the clock is injected when accepted."""
    return POLICIES.build(name, kwargs, {"clock": clock})


_EXECUTOR_KEYS = ("min_replicas", "max_replicas", "interval", "replica_prefix", "priming")


def autoscaler_from_spec(
    router: ClusterRouter,
    spec,
    replica_factory: Callable[[str], ReplicaWorker],
    clock: Callable[[], float] = time.monotonic,
) -> Optional[Autoscaler]:
    """Build an :class:`Autoscaler` from a spec's ``[cluster.autoscale]`` table.

    ``spec`` may be a :class:`~repro.serve.middleware.config.StackSpec`, a
    raw mapping, or TOML text (same coercion as the middleware builders).
    Returns ``None`` when the spec declares no autoscale table.  Table keys:
    ``policy`` (required name), the executor knobs ``min_replicas`` /
    ``max_replicas`` / ``interval`` / ``replica_prefix`` / ``priming``, and
    everything else is passed to the policy factory as keyword arguments.
    """
    table = dict(coerce_spec(spec).autoscale)
    if not table:
        return None
    policy_name = table.pop("policy")
    executor_kwargs = {key: table.pop(key) for key in _EXECUTOR_KEYS if key in table}
    policy = build_scaling_policy(policy_name, table, clock=clock)
    return Autoscaler(router, policy, replica_factory, clock=clock, **executor_kwargs)


register_scaling_policy("queue_depth", QueueDepthPolicy)
register_scaling_policy("latency_target", LatencyTargetPolicy)


__all__ = [
    "NOOP",
    "SCALE_DOWN",
    "SCALE_UP",
    "Autoscaler",
    "HysteresisPolicy",
    "LatencyTargetPolicy",
    "Observation",
    "QueueDepthPolicy",
    "ScalingDecision",
    "ScalingPolicy",
    "UnknownScalingPolicyError",
    "autoscaler_from_spec",
    "build_scaling_policy",
    "register_scaling_policy",
    "registered_scaling_policies",
]
