"""Obfuscated inference serving: registry, batching scheduler, server, proxy.

This package turns a trained augmented model into a multi-client service:

* :class:`~repro.serve.registry.ModelRegistry` — catalogues uploaded
  :class:`~repro.cloud.serialization.ModelBundle`\\ s and LRU-caches live
  instances;
* :class:`~repro.serve.batcher.Batcher` — coalesces single-sample requests
  into padded batches run under ``nn.no_grad()``;
* :class:`~repro.serve.server.InferenceServer` — queue-and-worker serving
  (``predict`` runs the same path on the caller's thread) with per-model
  latency/fill statistics;
* :class:`~repro.serve.middleware.MiddlewareChain` — the composable
  interception pipeline (cache, rate limiting, validation, telemetry, the
  obfuscation guard) every request path runs through;
* :class:`~repro.serve.proxy.ExtractionProxy` — the client-side trust
  boundary that augments inputs and selects the original sub-network's
  output, so the server only ever sees augmented artefacts;
* :mod:`repro.serve.cluster` — the scale-out layer: sharded multi-replica
  routing (:class:`~repro.serve.cluster.ClusterRouter`) with pluggable
  placement, health-aware failover and SLA-aware admission, behind the same
  serving surface as a single server;
* :mod:`repro.serve.gateway` — the network edge: an asyncio TCP gateway
  (:class:`~repro.serve.gateway.GatewayServer`) speaking a compact binary
  wire protocol, with a :class:`~repro.serve.gateway.RemoteClient` that
  plugs in wherever the in-process surface is used — including under the
  proxy, for obfuscated extraction over the network;
* :mod:`repro.serve.observability` — end-to-end request tracing
  (:class:`~repro.serve.observability.Tracer` spans at every hop, propagated
  over the wire) and the unified
  :class:`~repro.serve.observability.MetricsRegistry` every component's
  ``stats()`` registers into, pullable cluster-wide via the gateway's
  ``OBSERVE`` frame — plus the watching layer on top: windowed time-series
  (:class:`~repro.serve.observability.WindowedSeriesStore`), declarative
  SLOs with burn-rate alerting
  (:class:`~repro.serve.observability.AlertManager`, pushed to subscribed
  clients over the gateway's EVENT frames) and a continuous
  :class:`~repro.serve.observability.StageProfiler`;
* :mod:`repro.serve.faults` — the resilience layer and its proof harness:
  deterministic seeded fault injection (:class:`~repro.serve.faults.FaultPlan`
  / :class:`~repro.serve.faults.FaultInjector`) threaded into replica,
  gateway and client hook points, plus :class:`~repro.serve.faults.RetryPolicy`
  backoff and per-replica :class:`~repro.serve.faults.CircuitBreaker`\\ s.
"""

from .batcher import PADDING_MODES, Batcher, bucket_size
from .cluster import (
    AdmissionScheduler,
    Autoscaler,
    ClusterError,
    ClusterRouter,
    ConsistentHashPolicy,
    ConsistentHashRing,
    DeadlineExceeded,
    FailoverExhausted,
    HealthMonitor,
    LatencyTargetPolicy,
    NoHealthyReplica,
    PlacementPolicy,
    QueueDepthPolicy,
    ReplicaUnavailable,
    ReplicaWorker,
    ScalingDecision,
    ScalingPolicy,
    autoscaler_from_spec,
    register_scaling_policy,
)
from .faults import (
    BackoffSession,
    CircuitBreaker,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from .gateway import (
    AsyncRemoteClient,
    Backpressure,
    ConnectionClosed,
    GatewayError,
    GatewayServer,
    ProtocolError,
    RemoteClient,
    RemoteRegistration,
)
from .middleware import (
    BatchContext,
    ConfigError,
    MiddlewareChain,
    MiddlewareError,
    MiddlewareKwargsError,
    ObfuscationGuard,
    ObfuscationViolation,
    PrivacyBudget,
    PrivacyBudgetExceeded,
    RateLimitExceeded,
    RateLimiter,
    RequestContext,
    ResponseCache,
    ServeMiddleware,
    StackDefinitionError,
    StackDispatcher,
    StackSpec,
    Telemetry,
    UnknownMiddlewareError,
    UnknownStackError,
    ValidationError,
    Validator,
    apply_to_cluster,
    build_chain,
    build_dispatcher,
    build_middleware,
    load_spec,
    parse_stack_spec,
    register_middleware,
    registered_middleware,
    sample_fingerprint,
    spec_from_toml,
)
from .observability import (
    SLO,
    ActiveSpan,
    AlertEvent,
    AlertManager,
    AvailabilityObjective,
    BurnRateRule,
    InMemoryExporter,
    JsonlExporter,
    LatencyHistogram,
    LatencyObjective,
    MetricsRegistry,
    ObservabilityConfigError,
    PrometheusExporter,
    SLOConfigError,
    Span,
    SpanExporter,
    StageProfiler,
    TraceContext,
    Tracer,
    WindowedSeriesStore,
    register_exporter,
    register_slo,
    registered_exporters,
    registered_slos,
    slo_from_spec,
    tracer_from_spec,
)
from .proxy import ExtractionProxy
from .registry import ModelRegistry, RegistryEntry
from .server import InferenceServer, ServerOverloaded, ServerStopped
from .stats import ModelStats

__all__ = [
    "PADDING_MODES",
    "ActiveSpan",
    "AdmissionScheduler",
    "AlertEvent",
    "AlertManager",
    "AvailabilityObjective",
    "BurnRateRule",
    "AsyncRemoteClient",
    "Autoscaler",
    "BackoffSession",
    "Backpressure",
    "BatchContext",
    "Batcher",
    "bucket_size",
    "CircuitBreaker",
    "ClusterError",
    "ClusterRouter",
    "ConfigError",
    "ConnectionClosed",
    "ConsistentHashPolicy",
    "ConsistentHashRing",
    "DeadlineExceeded",
    "ExtractionProxy",
    "FailoverExhausted",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "GatewayError",
    "GatewayServer",
    "HealthMonitor",
    "InMemoryExporter",
    "InferenceServer",
    "JsonlExporter",
    "LatencyHistogram",
    "LatencyTargetPolicy",
    "MetricsRegistry",
    "MiddlewareChain",
    "MiddlewareError",
    "MiddlewareKwargsError",
    "ModelRegistry",
    "ModelStats",
    "NoHealthyReplica",
    "ObfuscationGuard",
    "ObfuscationViolation",
    "ObservabilityConfigError",
    "PlacementPolicy",
    "PrivacyBudget",
    "PrivacyBudgetExceeded",
    "PrometheusExporter",
    "ProtocolError",
    "QueueDepthPolicy",
    "RateLimitExceeded",
    "RateLimiter",
    "RegistryEntry",
    "RemoteClient",
    "RemoteRegistration",
    "ReplicaUnavailable",
    "ReplicaWorker",
    "RequestContext",
    "ResponseCache",
    "RetryPolicy",
    "SLO",
    "SLOConfigError",
    "ScalingDecision",
    "ScalingPolicy",
    "ServeMiddleware",
    "ServerOverloaded",
    "ServerStopped",
    "Span",
    "SpanExporter",
    "StackDefinitionError",
    "StageProfiler",
    "StackDispatcher",
    "StackSpec",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "UnknownMiddlewareError",
    "UnknownStackError",
    "ValidationError",
    "Validator",
    "WindowedSeriesStore",
    "apply_to_cluster",
    "autoscaler_from_spec",
    "build_chain",
    "build_dispatcher",
    "build_middleware",
    "load_spec",
    "parse_stack_spec",
    "register_exporter",
    "register_middleware",
    "register_scaling_policy",
    "register_slo",
    "registered_exporters",
    "registered_middleware",
    "registered_slos",
    "sample_fingerprint",
    "slo_from_spec",
    "spec_from_toml",
    "tracer_from_spec",
]
