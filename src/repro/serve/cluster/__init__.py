"""Cluster serving: sharded multi-replica routing above the single server.

The single-process stack (registry → batcher → server → middleware) caps
throughput at one worker loop and one instance cache.  This package scales it
out while keeping every policy decision swappable:

* :class:`~repro.serve.cluster.replica.ReplicaWorker` — one member: an
  :class:`~repro.serve.server.InferenceServer` with its own registry shard
  and middleware stack, plus typed in-flight failure on kill;
* :class:`~repro.serve.cluster.hashring.ConsistentHashRing` — stable
  model-id sharding with minimal movement on membership changes;
* :class:`~repro.serve.cluster.placement.PlacementPolicy` and its
  consistent-hash built-in — which replicas own each model; the router
  dispatches among the owners by load with one rule of its own;
* :class:`~repro.serve.cluster.health.HealthMonitor` — heartbeats, draining,
  consecutive-failure tracking;
* :class:`~repro.serve.cluster.admission.AdmissionScheduler` — tenant
  priority + earliest-deadline ordering with dequeue-time load shedding;
* :class:`~repro.serve.cluster.router.ClusterRouter` — the façade tying it
  together: the same serving surface as one ``InferenceServer``, with
  bounded-retry failover and cross-replica stats merging;
* :class:`~repro.serve.cluster.autoscale.Autoscaler` — elastic topology:
  pluggable :class:`~repro.serve.cluster.autoscale.ScalingPolicy` objects
  (queue-depth, latency-target) drive live membership, with every new shard
  owner warmed (bundles published, instances loaded, one priming forward)
  before placement can route to it.

The obfuscation trust boundary is unchanged: every replica is a server-side
component holding only augmented artefacts, and the client-side
:class:`~repro.serve.proxy.ExtractionProxy` works against a
:class:`ClusterRouter` exactly as against a single server.
"""

from .admission import AdmissionScheduler, AdmissionTicket
from .autoscale import (
    Autoscaler,
    HysteresisPolicy,
    LatencyTargetPolicy,
    Observation,
    QueueDepthPolicy,
    ScalingDecision,
    ScalingPolicy,
    UnknownScalingPolicyError,
    autoscaler_from_spec,
    build_scaling_policy,
    register_scaling_policy,
    registered_scaling_policies,
)
from .errors import (
    ClusterError,
    DeadlineExceeded,
    FailoverExhausted,
    NoHealthyReplica,
    ReplicaUnavailable,
)
from .hashring import ConsistentHashRing, stable_hash
from .health import DRAINING, HEALTHY, STOPPED, UNHEALTHY, HealthMonitor, ReplicaHealth
from .placement import ConsistentHashPolicy, PlacementPolicy
from .replica import ReplicaWorker
from .router import ClusterRouter

__all__ = [
    "DRAINING",
    "HEALTHY",
    "STOPPED",
    "UNHEALTHY",
    "AdmissionScheduler",
    "AdmissionTicket",
    "Autoscaler",
    "ClusterError",
    "ClusterRouter",
    "ConsistentHashPolicy",
    "ConsistentHashRing",
    "DeadlineExceeded",
    "FailoverExhausted",
    "HealthMonitor",
    "HysteresisPolicy",
    "LatencyTargetPolicy",
    "NoHealthyReplica",
    "Observation",
    "PlacementPolicy",
    "QueueDepthPolicy",
    "ReplicaHealth",
    "ReplicaUnavailable",
    "ReplicaWorker",
    "ScalingDecision",
    "ScalingPolicy",
    "UnknownScalingPolicyError",
    "autoscaler_from_spec",
    "build_scaling_policy",
    "register_scaling_policy",
    "registered_scaling_policies",
    "stable_hash",
]
