"""Middleware primitives: the request context and the interceptor base class.

A middleware observes (and may answer) every request flowing through the
serving stack.  The design follows the interception-chain idiom of FastMCP's
``MCPMiddleware`` / wags' fine-grained hooks: an ordered chain of objects,
each exposing lifecycle hooks around a shared mutable context.

Hook lifecycle for one request (driven by
:class:`~repro.serve.middleware.chain.MiddlewareChain`):

``on_request`` runs in registration order ("descent").  A middleware may
**short-circuit** by setting ``context.response`` — inner middlewares and the
model never run — or **reject** by raising; the chain stores the exception in
``context.error``.  ``on_batch`` runs once per coalesced model batch, in
registration order, over the requests that still need the model.  After model
execution the chain "unwinds": ``on_error`` (only when ``context.error`` is
set — it may recover by clearing the error and setting a response) and then
``on_response`` run in *reverse* registration order, for exactly the
middlewares whose ``on_request`` completed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class MiddlewareError(RuntimeError):
    """Base class for typed rejections raised by serving middleware."""


class RateLimitExceeded(MiddlewareError):
    """Admission control rejected the request: the token bucket is empty."""

    def __init__(self, tenant: str, model_id: str, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded for tenant '{tenant}' on model '{model_id}'; "
            f"retry in {retry_after:.3f}s"
        )
        self.tenant = tenant
        self.model_id = model_id
        self.retry_after = retry_after


class ValidationError(MiddlewareError):
    """The sample violates the registered model's input shape/dtype contract."""


class ObfuscationViolation(MiddlewareError):
    """A sample that does not match the augmentation plan's width was about to
    cross the client/cloud trust boundary."""


@dataclass
class RequestContext:
    """Mutable per-request state shared by every middleware in the chain.

    ``timings`` accumulates per-stage wall-clock seconds: the chain records
    one ``"<middleware>.<hook>"`` entry per hook invocation, ``"model"`` for
    the forward pass, and ``"total"`` end-to-end at unwind time.  ``metadata``
    is a free-form scratchpad middlewares use to communicate (e.g. the cache
    marks ``metadata["cache"]`` as ``"hit"``/``"miss"``).
    """

    model_id: str
    sample: np.ndarray
    tenant: str = "default"
    source: str = "server"  # "server" | "client" | "cluster"
    #: Absolute SLA deadline (router clock) when the request carries one.
    #: Populated by the cluster router from its admission terms — which a
    #: network gateway in turn fills from the connection handshake — so
    #: middleware can observe how much budget a request arrived with.
    deadline: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    response: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    stats: Optional[object] = None  # ModelStats the chain records into, host-attached
    #: The request's live :class:`~repro.serve.observability.ActiveSpan`,
    #: attached by whichever host runs a tracer.  ``None`` is the tracing-off
    #: fast path: the chain's one ``is not None`` test per hook is the entire
    #: cost, so an untraced stack allocates no span objects.
    trace: Optional[object] = None
    created_at: float = field(default_factory=time.perf_counter)

    @property
    def answered(self) -> bool:
        """True once the request has an outcome (a response or an error)."""
        return self.response is not None or self.error is not None


@dataclass
class BatchContext:
    """One coalesced batch headed into the model: the still-pending contexts."""

    model_id: str
    contexts: List[RequestContext]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.contexts)


class ServeMiddleware:
    """Base interceptor: subclass and override any subset of the hooks.

    All hooks default to no-ops, so a middleware only pays for what it
    observes.  Middlewares shared across server modes (and the built-ins are)
    must be thread-safe: worker threads call hooks concurrently.
    """

    @property
    def name(self) -> str:
        return type(self).__name__

    def on_request(self, context: RequestContext) -> None:
        """Descend hook: inspect/annotate, answer (set ``response``) or raise."""

    def on_batch(self, batch: BatchContext) -> None:
        """Runs once around each coalesced model batch, before execution."""

    def on_response(self, context: RequestContext) -> None:
        """Unwind hook: observe the outcome (response *or* error) on the way out."""

    def on_error(self, context: RequestContext) -> None:
        """Unwind hook, only when ``context.error`` is set; may recover."""
