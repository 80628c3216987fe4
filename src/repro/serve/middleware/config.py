"""Declarative middleware configuration: TOML/dict specs into running chains.

The paper's subject is *configurable* middleware, and this module is where
configuration stops being Python: a spec (a TOML document or the equivalent
dict) declares named middleware stacks, and a :class:`StackDispatcher` —
itself a :class:`~repro.serve.middleware.chain.MiddlewareChain`, so it plugs
into every existing host unchanged — selects a stack per request from the
model's published tags and the request's tenant.

Spec shape (see ``docs/configuration.md`` for the full reference)::

    default_stack = "standard"

    [stacks.standard]
    middleware = [
        { name = "telemetry" },
        { name = "cache", capacity = 256 },
    ]

    [stacks.premium]
    extends = "standard"
    middleware = [ { name = "privacy_budget", budget = 2.5 } ]

    [tenants]
    acme = "premium"

    [models]
    lenet = "standard"

Middleware names resolve through :data:`MIDDLEWARE`, one
:class:`~repro.serve.plugins.Registry`: the built-ins are pre-registered
below, and user classes join with the :func:`register_middleware`
decorator.  Constructor arguments that are runtime objects rather than
config values — a ``registry``, an augmentation ``plan_or_secrets`` — are
injected by parameter name from the ``resources`` mapping passed at build
time, so specs stay purely declarative.

Every malformed spec fails *eagerly* at build time with a typed
:class:`ConfigError` subclass naming the offending stack/middleware — never
at request time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:
    import tomllib  # Python >= 3.11
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from ..plugins import (
    ConfigError,
    PluginArgumentsError,
    Registry,
    UnknownNameError,
    parse_entries,
)
from .base import RequestContext, ServeMiddleware
from .cache import ResponseCache
from .chain import MiddlewareChain, RunModel
from .guard import ObfuscationGuard
from .limiter import RateLimiter
from .privacy_budget import PrivacyBudget
from .telemetry import Telemetry
from .validator import Validator


# ----------------------------------------------------------------------
# Typed configuration errors and the middleware registry
# ----------------------------------------------------------------------
UnknownMiddlewareError = UnknownNameError
MiddlewareKwargsError = PluginArgumentsError


class StackDefinitionError(ConfigError):
    """A stack definition is structurally invalid (duplicate, cycle, ...)."""


class UnknownStackError(ConfigError):
    """The spec routes to a stack it never defines."""

    def __init__(self, name: str, known: Sequence[str], where: str) -> None:
        super().__init__(
            f"{where} references unknown stack '{name}'; defined: {sorted(known)}"
        )
        self.name = name
        self.known = tuple(sorted(known))


MIDDLEWARE: Registry[ServeMiddleware] = Registry(
    "middleware", ServeMiddleware, "register_middleware"
)
register_middleware = MIDDLEWARE.register
registered_middleware = MIDDLEWARE.names
resolve_middleware = MIDDLEWARE.resolve
build_middleware = MIDDLEWARE.build


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StackSpec:
    """A parsed, structurally-validated stack specification.

    ``stacks`` maps each stack name to its fully-resolved middleware entries
    (``extends`` chains already flattened, parents first).  Selection tables
    and the ``[cluster]`` scopes carry over verbatim; every referenced stack
    name is known to exist.
    """

    stacks: Dict[str, Tuple[Tuple[str, Dict[str, object]], ...]]
    default_stack: Optional[str] = None
    tenants: Dict[str, str] = field(default_factory=dict)
    models: Dict[str, str] = field(default_factory=dict)
    cluster: Dict[str, str] = field(default_factory=dict)
    #: The ``[cluster.autoscale]`` table, carried as pure data: a ``policy``
    #: name plus policy/executor knobs.  This module never interprets it —
    #: :func:`repro.serve.cluster.autoscale.autoscaler_from_spec` does (the
    #: import points that way to keep middleware free of cluster imports).
    autoscale: Dict[str, object] = field(default_factory=dict)
    #: The top-level ``[observability]`` table, carried as pure data:
    #: ``sample_rate`` / ``max_spans`` / ``exporters`` knobs.  Interpreted by
    #: :func:`repro.serve.observability.tracer_from_spec`, same direction of
    #: import as ``autoscale`` to keep middleware free of tracer imports.
    observability: Dict[str, object] = field(default_factory=dict)


def parse_stack_spec(spec: Mapping[str, object]) -> StackSpec:
    """Validate a raw spec mapping into a :class:`StackSpec`.

    Raises :class:`StackDefinitionError` for duplicate stack names (the list
    form ``[[stacks]]`` makes duplicates expressible), unknown or cyclic
    ``extends``, and malformed entries; :class:`UnknownStackError` when
    ``default_stack`` or a selection table routes to an undefined stack;
    :class:`UnknownMiddlewareError` for names nobody registered.
    """
    if not isinstance(spec, Mapping):
        raise ConfigError(f"spec must be a mapping, got {type(spec).__name__}")
    raw_stacks = spec.get("stacks", {})
    definitions: Dict[str, Mapping[str, object]] = {}
    if isinstance(raw_stacks, Mapping):
        for name, definition in raw_stacks.items():
            definitions[str(name)] = definition
    elif isinstance(raw_stacks, (list, tuple)):
        for definition in raw_stacks:
            if not isinstance(definition, Mapping) or "name" not in definition:
                raise StackDefinitionError(
                    "list-form stacks need a 'name' key in every entry"
                )
            name = str(definition["name"])
            if name in definitions:
                raise StackDefinitionError(f"duplicate stack name '{name}'")
            definitions[name] = definition
    else:
        raise StackDefinitionError(
            f"'stacks' must be a table or array, got {type(raw_stacks).__name__}"
        )

    for name, definition in definitions.items():
        if not isinstance(definition, Mapping):
            raise StackDefinitionError(
                f"stack '{name}' must be a table, got {type(definition).__name__}"
            )

    # Flatten `extends` with explicit cycle detection: parents first, so a
    # child appends to (and may shadow the behaviour of) its base stack.
    resolved: Dict[str, Tuple[Tuple[str, Dict[str, object]], ...]] = {}

    def _resolve(name: str, trail: Tuple[str, ...]):
        if name in resolved:
            return resolved[name]
        if name in trail:
            cycle = " -> ".join(trail + (name,))
            raise StackDefinitionError(f"stack inheritance cycle: {cycle}")
        definition = definitions[name]
        parent = definition.get("extends")
        entries: List[Tuple[str, Dict[str, object]]] = []
        if parent is not None:
            if not isinstance(parent, str) or parent not in definitions:
                raise StackDefinitionError(
                    f"stack '{name}' extends unknown stack '{parent}'"
                )
            entries.extend(_resolve(parent, trail + (name,)))
        entries.extend(
            parse_entries(
                definition.get("middleware", []),
                f"stack '{name}' middleware",
                "middleware",
                StackDefinitionError,
            )
        )
        resolved[name] = tuple(entries)
        return resolved[name]

    for name in definitions:
        _resolve(name, ())

    for entries in resolved.values():
        for middleware_name, _ in entries:
            resolve_middleware(middleware_name)

    def _selection(table_key: str) -> Dict[str, str]:
        table = spec.get(table_key, {})
        if not isinstance(table, Mapping):
            raise StackDefinitionError(f"'{table_key}' must be a table of name = stack")
        selection = {}
        for key, stack in table.items():
            if stack not in resolved:
                raise UnknownStackError(str(stack), tuple(resolved), f"[{table_key}] '{key}'")
            selection[str(key)] = str(stack)
        return selection

    default_stack = spec.get("default_stack")
    if default_stack is not None and default_stack not in resolved:
        raise UnknownStackError(str(default_stack), tuple(resolved), "default_stack")

    cluster = spec.get("cluster", {})
    if not isinstance(cluster, Mapping):
        raise StackDefinitionError("'cluster' must be a table")
    cluster = dict(cluster)
    # [cluster.autoscale] is a sub-table of knobs, not a stack reference —
    # split it out before validating the remaining values as stack names.
    autoscale = cluster.pop("autoscale", {})
    if not isinstance(autoscale, Mapping):
        raise StackDefinitionError("'cluster.autoscale' must be a table")
    autoscale = dict(autoscale)
    if autoscale:
        policy = autoscale.get("policy")
        if not isinstance(policy, str) or not policy:
            raise StackDefinitionError(
                "'cluster.autoscale' needs a non-empty string 'policy' naming a "
                "registered scaling policy"
            )
        for key, value in autoscale.items():
            if not isinstance(value, (str, int, float, bool)):
                raise StackDefinitionError(
                    f"'cluster.autoscale' key '{key}' must be a scalar, "
                    f"got {type(value).__name__}"
                )
    for scope in cluster.values():
        if scope not in resolved:
            raise UnknownStackError(str(scope), tuple(resolved), "[cluster]")

    observability = spec.get("observability", {})
    if not isinstance(observability, Mapping):
        raise StackDefinitionError("'observability' must be a table")
    observability = dict(observability)
    for key, value in observability.items():
        if key == "exporters":
            parse_entries(value, "'observability.exporters'", "exporter", StackDefinitionError)
        elif key == "slo":
            # Shape is validated in depth by slo_from_spec (it owns the typed
            # errors); here only the table-ness is pinned.
            if not isinstance(value, Mapping):
                raise StackDefinitionError("'observability.slo' must be a table")
        elif not isinstance(value, (str, int, float, bool)):
            raise StackDefinitionError(
                f"'observability' key '{key}' must be a scalar, got {type(value).__name__}"
            )

    return StackSpec(
        stacks=resolved,
        default_stack=None if default_stack is None else str(default_stack),
        tenants=_selection("tenants"),
        models=_selection("models"),
        cluster={str(k): str(v) for k, v in cluster.items()},
        autoscale=autoscale,
        observability=observability,
    )


def spec_from_toml(text: str) -> StackSpec:
    """Parse a TOML document into a validated :class:`StackSpec`."""
    if tomllib is None:  # pragma: no cover - 3.10 without tomli
        raise ConfigError(
            "TOML parsing needs tomllib (Python >= 3.11) or tomli; "
            "build the spec from a dict instead"
        )
    try:
        raw = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"invalid TOML: {error}") from None
    return parse_stack_spec(raw)


def load_spec(path) -> StackSpec:
    """Read and parse a TOML spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return spec_from_toml(handle.read())


def coerce_spec(spec) -> StackSpec:
    """A :class:`StackSpec` from TOML text, a raw mapping, or a parsed spec."""
    if isinstance(spec, StackSpec):
        return spec
    if isinstance(spec, str):
        return spec_from_toml(spec)
    return parse_stack_spec(spec)


# ----------------------------------------------------------------------
# Building chains and dispatchers
# ----------------------------------------------------------------------
def build_chain(
    entries: Sequence[Tuple[str, Mapping[str, object]]],
    resources: Optional[Mapping[str, object]] = None,
) -> MiddlewareChain:
    """Instantiate one resolved entry list into a plain chain."""
    chain = MiddlewareChain()
    for name, kwargs in entries:
        chain.add(build_middleware(name, kwargs, resources))
    return chain


class StackDispatcher(MiddlewareChain):
    """A chain-of-chains: selects a named stack per request, then delegates.

    Selection precedence for a request:

    1. the spec's ``[models]`` table, by ``context.model_id``;
    2. the model's published ``stack`` tag (``CloudSession.publish(...,
       metadata={"stack": ...})``), read through the ``registry`` resource;
    3. the spec's ``[tenants]`` table, by ``context.tenant``;
    4. the spec's ``default_stack`` (an empty chain when unset).

    Stacks are built once, so two tenants routed to the same stack share its
    stateful middlewares (one cache, one ledger) — exactly as if the chain
    had been built imperatively and handed to both.  The dispatcher *is* a
    :class:`MiddlewareChain`, so every host (server, router, replica, proxy)
    accepts it unchanged; its inherited ``exit`` unwinds whatever ``entered``
    list the selected stack produced, which keeps hot-swap safe mid-request.
    """

    def __init__(
        self,
        stacks: Mapping[str, MiddlewareChain],
        default_stack: Optional[str] = None,
        tenants: Optional[Mapping[str, str]] = None,
        models: Optional[Mapping[str, str]] = None,
        registry=None,
    ) -> None:
        super().__init__()
        self._stacks: Dict[str, MiddlewareChain] = dict(stacks)
        self._empty = MiddlewareChain()
        self._tenants = dict(tenants or {})
        self._models = dict(models or {})
        self.registry = registry
        for where, table in (("tenants", self._tenants), ("models", self._models)):
            for key, name in table.items():
                if name not in self._stacks:
                    raise UnknownStackError(name, tuple(self._stacks), f"[{where}] '{key}'")
        if default_stack is not None and default_stack not in self._stacks:
            raise UnknownStackError(default_stack, tuple(self._stacks), "default_stack")
        self.default_stack = default_stack

    # -- introspection -------------------------------------------------
    def stack_names(self) -> Tuple[str, ...]:
        return tuple(self._stacks)

    def stack(self, name: str) -> MiddlewareChain:
        try:
            return self._stacks[name]
        except KeyError:
            raise UnknownStackError(name, tuple(self._stacks), "stack()") from None

    def add(self, middleware: ServeMiddleware) -> "MiddlewareChain":
        raise TypeError(
            "StackDispatcher routes to named stacks; add middleware to one of "
            f"{sorted(self._stacks)} via stack(name).add(...) instead"
        )

    def __len__(self) -> int:
        return sum(len(chain) for chain in self._stacks.values())

    def __iter__(self):
        for chain in self._stacks.values():
            yield from chain

    def __bool__(self) -> bool:
        return any(self._stacks.values())

    # -- selection -----------------------------------------------------
    def select(self, context: RequestContext) -> Tuple[Optional[str], MiddlewareChain]:
        """The (stack name, chain) this request routes to."""
        name = self._models.get(context.model_id)
        if name is None and self.registry is not None:
            try:
                entry = self.registry.entry(context.model_id)
            except KeyError:
                pass
            else:
                tagged = entry.metadata.get("stack")
                if tagged is not None:
                    if tagged not in self._stacks:
                        raise UnknownStackError(
                            str(tagged), tuple(self._stacks), f"model '{context.model_id}' tag"
                        )
                    name = str(tagged)
        if name is None:
            name = self._tenants.get(context.tenant, self.default_stack)
        if name is None:
            return None, self._empty
        return name, self._stacks[name]

    def chain_for(self, context: RequestContext) -> MiddlewareChain:
        return self.select(context)[1]

    # -- delegation ----------------------------------------------------
    def enter(self, context: RequestContext) -> List[ServeMiddleware]:
        name, chain = self.select(context)
        if name is not None:
            context.metadata.setdefault("stack", name)
        return chain.enter(context)

    def execute_batch(
        self, contexts: Sequence[RequestContext], run_model: RunModel
    ) -> Sequence[RequestContext]:
        # One coalesced batch may mix tenants routed to different stacks;
        # each group runs through its own chain.  Results stay byte-stable
        # because the batcher's full-padding mode is composition-invariant.
        groups: Dict[int, Tuple[MiddlewareChain, List[RequestContext]]] = {}
        for context in contexts:
            name, chain = self.select(context)
            if name is not None:
                context.metadata.setdefault("stack", name)
            key = id(chain)
            if key not in groups:
                groups[key] = (chain, [])
            groups[key][1].append(context)
        for chain, group in groups.values():
            chain.execute_batch(group, run_model)
        return contexts


def build_dispatcher(
    spec,
    resources: Optional[Mapping[str, object]] = None,
    default_stack: Optional[str] = None,
) -> StackDispatcher:
    """Build a :class:`StackDispatcher` from a spec (dict, TOML text, or
    :class:`StackSpec`).

    ``default_stack`` overrides the spec's own default — the hook
    :func:`apply_to_cluster` uses to re-root the same spec at its
    ``[cluster]`` scopes.
    """
    spec = coerce_spec(spec)
    resources = dict(resources or {})
    chains = {
        name: build_chain(entries, resources) for name, entries in spec.stacks.items()
    }
    return StackDispatcher(
        chains,
        default_stack=default_stack if default_stack is not None else spec.default_stack,
        tenants=spec.tenants,
        models=spec.models,
        registry=resources.get("registry"),
    )


def apply_to_cluster(router, spec, resources: Optional[Mapping[str, object]] = None):
    """Install a spec's two cluster scopes on a running (or cold) router.

    The router-wide chain becomes a full dispatcher (tenant/model routing
    intact), re-rooted at ``[cluster] cluster_stack`` when the spec names
    one.  Each replica gets a *fresh* build of ``[cluster] replica_stack``
    (when named), so per-replica state — caches, ledgers — stays per-replica
    instead of accidentally shared through one chain instance.  Both swaps
    go through the hosts' ``swap_middleware``, so applying a spec to a
    cluster under load drops nothing.

    Returns ``(cluster_dispatcher, {replica_id: replica_chain})``.
    """
    spec = coerce_spec(spec)
    dispatcher = build_dispatcher(
        spec, resources, default_stack=spec.cluster.get("cluster_stack")
    )
    router.swap_middleware(dispatcher)
    replica_chains: Dict[str, MiddlewareChain] = {}
    replica_stack = spec.cluster.get("replica_stack")
    if replica_stack is not None:
        entries = spec.stacks[replica_stack]
        for replica_id in router.replica_ids():
            chain = build_chain(entries, resources)
            router.replica(replica_id).swap_middleware(chain)
            replica_chains[replica_id] = chain
    return dispatcher, replica_chains


# ----------------------------------------------------------------------
# Built-in registrations — the names specs reference out of the box
# ----------------------------------------------------------------------
register_middleware("telemetry", Telemetry)
register_middleware("cache", ResponseCache)
register_middleware("response_cache", ResponseCache)
register_middleware("rate_limiter", RateLimiter)
register_middleware("validator", Validator)
register_middleware("obfuscation_guard", ObfuscationGuard)
register_middleware("privacy_budget", PrivacyBudget)
