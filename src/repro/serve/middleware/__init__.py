"""Composable middleware interception chain for the serving stack.

Cross-cutting serving concerns — caching, admission control, validation,
telemetry, the obfuscation trust boundary — are expressed as interceptors
(:class:`ServeMiddleware`) composed by a :class:`MiddlewareChain` that wraps
every request path: the server's one execution path (hooks run around the
*coalesced* batch), the cluster router and the client-side proxy.

Built-ins:

* :class:`ResponseCache` — LRU content-hash memoization of identical samples;
* :class:`RateLimiter` — per-(tenant, model) token-bucket admission control;
* :class:`Validator` — shape/dtype contract against registry bundle metadata;
* :class:`Telemetry` — a no-op kept so specs that list it still resolve (the
  chain itself records each request's timings into
  :class:`~repro.serve.stats.ModelStats`);
* :class:`ObfuscationGuard` — asserts outgoing samples carry the augmentation
  plan's expected input width (the paper's client-side trust boundary);
* :class:`PrivacyBudget` — per-tenant cumulative epsilon ledger priced by the
  paper's privacy-loss model.

Stacks are also buildable *declaratively*: :mod:`repro.serve.middleware.config`
turns a TOML/dict spec of named stacks into a :class:`StackDispatcher` that
selects a chain per request from the model's published tags and the request's
tenant.  Register user middlewares for spec resolution with
:func:`register_middleware`.
"""

from .base import (
    BatchContext,
    MiddlewareError,
    ObfuscationViolation,
    RateLimitExceeded,
    RequestContext,
    ServeMiddleware,
    ValidationError,
)
from .cache import ResponseCache, sample_fingerprint
from .chain import MiddlewareChain
from .config import (
    ConfigError,
    MiddlewareKwargsError,
    StackDefinitionError,
    StackDispatcher,
    StackSpec,
    UnknownMiddlewareError,
    UnknownStackError,
    apply_to_cluster,
    build_chain,
    build_dispatcher,
    build_middleware,
    load_spec,
    parse_stack_spec,
    register_middleware,
    registered_middleware,
    spec_from_toml,
)
from .guard import ObfuscationGuard
from .limiter import RateLimiter
from .privacy_budget import PrivacyBudget, PrivacyBudgetExceeded
from .telemetry import Telemetry
from .validator import Validator

__all__ = [
    "BatchContext",
    "ConfigError",
    "MiddlewareChain",
    "MiddlewareError",
    "MiddlewareKwargsError",
    "ObfuscationGuard",
    "ObfuscationViolation",
    "PrivacyBudget",
    "PrivacyBudgetExceeded",
    "RateLimitExceeded",
    "RateLimiter",
    "RequestContext",
    "ResponseCache",
    "ServeMiddleware",
    "StackDefinitionError",
    "StackDispatcher",
    "StackSpec",
    "Telemetry",
    "UnknownMiddlewareError",
    "UnknownStackError",
    "ValidationError",
    "Validator",
    "apply_to_cluster",
    "build_chain",
    "build_dispatcher",
    "build_middleware",
    "load_spec",
    "parse_stack_spec",
    "register_middleware",
    "registered_middleware",
    "sample_fingerprint",
    "spec_from_toml",
]
