"""Declarative stack configuration: parsing, registry, typed error paths.

Pins the config subsystem in isolation — the spec parser's structural
validation (duplicates, cycles, unknown references), the middleware factory
registry and its ``@register_middleware`` decorator, resource injection, the
:class:`StackDispatcher`'s selection precedence, and the
:class:`PrivacyBudget` ledger arithmetic.  Host integration (byte parity,
hot-swap under load) lives in ``test_stack_hosts.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.privacy import privacy_loss
from repro.serve import (
    ConfigError,
    MiddlewareChain,
    MiddlewareKwargsError,
    PrivacyBudget,
    PrivacyBudgetExceeded,
    RequestContext,
    ResponseCache,
    ServeMiddleware,
    StackDefinitionError,
    Telemetry,
    UnknownMiddlewareError,
    UnknownStackError,
    WindowedSeriesStore,
    build_dispatcher,
    build_middleware,
    parse_stack_spec,
    register_middleware,
    registered_middleware,
    slo_from_spec,
    spec_from_toml,
)
from repro.serve.cluster import build_scaling_policy
from repro.serve.middleware import config as config_module
from repro.serve.observability import build_exporter

from .conftest import lenet_bundle

pytestmark = pytest.mark.skipif(
    config_module.tomllib is None, reason="no TOML parser on this interpreter"
)


def context(model_id: str = "lenet", tenant: str = "default") -> RequestContext:
    return RequestContext(model_id=model_id, sample=np.zeros(4, dtype=np.float32), tenant=tenant)


BASIC = """
default_stack = "standard"

[stacks.standard]
middleware = [
    { name = "telemetry" },
    { name = "cache", capacity = 64 },
]

[stacks.premium]
extends = "standard"
middleware = [ { name = "privacy_budget", budget = 2.5, amount = 3.0 } ]

[tenants]
acme = "premium"

[models]
audited = "premium"
"""


class TestParsing:
    def test_toml_spec_builds_named_chains(self):
        dispatcher = build_dispatcher(BASIC)
        assert dispatcher.stack_names() == ("standard", "premium")
        standard = dispatcher.stack("standard")
        assert [type(m) for m in standard] == [Telemetry, ResponseCache]
        assert standard.middlewares[1].capacity == 64

    def test_extends_prepends_parent_entries(self):
        premium = build_dispatcher(BASIC).stack("premium")
        assert [type(m) for m in premium] == [Telemetry, ResponseCache, PrivacyBudget]

    def test_dict_spec_equivalent_to_toml(self):
        spec = {
            "default_stack": "s",
            "stacks": {"s": {"middleware": [{"name": "telemetry"}]}},
        }
        dispatcher = build_dispatcher(spec)
        assert [type(m) for m in dispatcher.stack("s")] == [Telemetry]

    def test_bare_name_shorthand(self):
        spec = {"stacks": {"s": {"middleware": ["telemetry"]}}}
        assert [type(m) for m in build_dispatcher(spec).stack("s")] == [Telemetry]

    def test_invalid_toml_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            spec_from_toml("default_stack = ")

    def test_non_mapping_spec_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_stack_spec(["not", "a", "table"])


class TestErrorPaths:
    def test_unknown_middleware_name(self):
        with pytest.raises(UnknownMiddlewareError, match="'nope'") as info:
            build_dispatcher('[stacks.s]\nmiddleware = [ { name = "nope" } ]')
        assert "telemetry" in info.value.known

    def test_bad_kwarg_type(self):
        with pytest.raises(MiddlewareKwargsError, match="capacity"):
            build_dispatcher(
                '[stacks.s]\nmiddleware = [ { name = "cache", capacity = "huge" } ]'
            )

    def test_unknown_kwarg_name(self):
        with pytest.raises(MiddlewareKwargsError, match="verbosity"):
            build_middleware("telemetry", {"verbosity": 3})

    def test_constructor_rejection_is_wrapped(self):
        with pytest.raises(MiddlewareKwargsError, match="rate"):
            build_middleware("rate_limiter", {"rate": -1.0})

    def test_duplicate_stack_name_in_list_form(self):
        spec = {"stacks": [{"name": "s", "middleware": []}, {"name": "s", "middleware": []}]}
        with pytest.raises(StackDefinitionError, match="duplicate stack name 's'"):
            parse_stack_spec(spec)

    def test_extends_cycle(self):
        toml = """
        [stacks.a]
        extends = "b"
        middleware = []
        [stacks.b]
        extends = "a"
        middleware = []
        """
        with pytest.raises(StackDefinitionError, match="cycle"):
            spec_from_toml(toml)

    def test_extends_unknown_parent(self):
        with pytest.raises(StackDefinitionError, match="unknown stack 'ghost'"):
            spec_from_toml('[stacks.a]\nextends = "ghost"\nmiddleware = []')

    def test_default_stack_must_exist(self):
        with pytest.raises(UnknownStackError, match="default_stack"):
            spec_from_toml('default_stack = "missing"\n[stacks.s]\nmiddleware = []')

    def test_tenant_route_must_exist(self):
        toml = '[stacks.s]\nmiddleware = []\n[tenants]\nacme = "missing"'
        with pytest.raises(UnknownStackError, match=r"\[tenants\] 'acme'"):
            spec_from_toml(toml)

    def test_middleware_entry_without_name(self):
        spec = {"stacks": {"s": {"middleware": [{"capacity": 3}]}}}
        with pytest.raises(StackDefinitionError, match="missing middleware 'name'"):
            parse_stack_spec(spec)


class TestRegistry:
    def test_decorator_registers_and_specs_resolve(self):
        name = "test-audit-middleware"

        @register_middleware(name)
        class Audit(ServeMiddleware):
            def __init__(self, level: int = 1) -> None:
                self.level = level

        try:
            assert name in registered_middleware()
            chain = build_dispatcher(
                {"stacks": {"s": {"middleware": [{"name": name, "level": 3}]}}}
            ).stack("s")
            assert isinstance(chain.middlewares[0], Audit)
            assert chain.middlewares[0].level == 3
        finally:
            config_module.MIDDLEWARE.unregister(name)

    def test_duplicate_registration_needs_replace(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_middleware("telemetry", Telemetry)
        register_middleware("telemetry", Telemetry, replace=True)  # no-op re-pin

    def test_factory_must_return_a_middleware(self):
        name = "test-bad-factory"
        register_middleware(name, lambda: object())
        try:
            with pytest.raises(MiddlewareKwargsError, match="not a ServeMiddleware"):
                build_middleware(name)
        finally:
            config_module.MIDDLEWARE.unregister(name)

    def test_resources_injected_by_parameter_name(self, registry):
        validator = build_middleware("validator", resources={"registry": registry})
        assert validator.registry is registry
        # A middleware that declares no such parameter never sees the resource.
        telemetry = build_middleware("telemetry", resources={"registry": registry})
        assert not hasattr(telemetry, "registry")


def build_slo(**objective):
    entry = {"name": "p95", "type": "latency", "series": "lat", "target_ms": 50.0}
    return slo_from_spec({"objectives": [{**entry, **objective}]}, WindowedSeriesStore())


class TestOneConfigRoot:
    """Every plugin kind builds through one registry and fails as a ConfigError."""

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda: build_middleware("cache", {"capacity": "huge"}), "capacity"),
            (lambda: build_scaling_policy("queue_depth", {"high": True, "low": 0.5}), "high"),
            (lambda: build_exporter("statsd-ghost"), "statsd-ghost"),
            (lambda: build_slo(quantil=0.99), "quantil"),
        ],
        ids=["middleware-kwarg", "policy-kwarg", "exporter-name", "slo-key"],
    )
    def test_malformed_input_of_every_kind_is_a_config_error(self, build, fragment):
        with pytest.raises(ConfigError, match=fragment):
            build()

    @pytest.mark.parametrize(
        "build, decorator",
        [
            (lambda: build_middleware("ghost"), "@register_middleware"),
            (lambda: build_scaling_policy("ghost"), "@register_scaling_policy"),
            (lambda: build_exporter("ghost"), "@register_exporter"),
            (lambda: build_slo(type="ghost"), "@register_slo"),
        ],
        ids=["middleware", "policy", "exporter", "slo"],
    )
    def test_unknown_names_point_at_the_real_decorator(self, build, decorator):
        with pytest.raises(ConfigError, match=decorator):
            build()


class TestDispatcherSelection:
    def test_tenant_routing_and_default_fallback(self):
        dispatcher = build_dispatcher(BASIC)
        assert dispatcher.select(context(tenant="acme"))[0] == "premium"
        # A tenant with no [tenants] row falls back to the default stack.
        assert dispatcher.select(context(tenant="stranger"))[0] == "standard"

    def test_models_table_beats_tenant(self):
        dispatcher = build_dispatcher(BASIC)
        name, _ = dispatcher.select(context(model_id="audited", tenant="stranger"))
        assert name == "premium"

    def test_publish_stack_tag_beats_tenant(self, registry):
        registry.register(
            "tagged", lenet_bundle(), lambda: None, metadata={"stack": "premium"}
        )
        dispatcher = build_dispatcher(BASIC, resources={"registry": registry})
        assert dispatcher.select(context(model_id="tagged", tenant="stranger"))[0] == "premium"
        # [models] still wins over the published tag.
        registry.register(
            "audited", lenet_bundle(), lambda: None, metadata={"stack": "standard"}
        )
        assert dispatcher.select(context(model_id="audited"))[0] == "premium"

    def test_no_default_no_match_is_empty_chain(self):
        dispatcher = build_dispatcher('[stacks.s]\nmiddleware = [ { name = "telemetry" } ]')
        name, chain = dispatcher.select(context())
        assert name is None
        assert len(chain) == 0

    def test_shared_stack_shares_state(self):
        spec = {
            "stacks": {"s": {"middleware": [{"name": "cache", "capacity": 8}]}},
            "tenants": {"a": "s", "b": "s"},
        }
        dispatcher = build_dispatcher(spec)
        assert dispatcher.chain_for(context(tenant="a")) is dispatcher.chain_for(
            context(tenant="b")
        )

    def test_dispatcher_refuses_direct_add(self):
        dispatcher = build_dispatcher(BASIC)
        with pytest.raises(TypeError, match="named stacks"):
            dispatcher.add(Telemetry())
        dispatcher.stack("standard")  # the supported mutation surface
        with pytest.raises(UnknownStackError):
            dispatcher.stack("ghost")

    def test_dispatcher_is_a_chain_and_truthiness(self):
        dispatcher = build_dispatcher(BASIC)
        assert isinstance(dispatcher, MiddlewareChain)
        assert bool(dispatcher)
        assert not bool(build_dispatcher({"stacks": {"s": {"middleware": []}}}))


class TestPrivacyBudget:
    def test_charges_epsilon_per_answered_query(self):
        budget = PrivacyBudget(budget=1.0, amount=3.0)
        chain = MiddlewareChain([budget])
        cost = privacy_loss(3.0)  # 0.25
        for _ in range(4):
            ctx = context(tenant="acme")
            chain.execute(ctx, lambda pending: [setattr(c, "response", c.sample) for c in pending])
            assert ctx.error is None
        assert budget.spent("acme") == pytest.approx(4 * cost)
        fifth = context(tenant="acme")
        chain.execute(fifth, lambda pending: None)
        assert isinstance(fifth.error, PrivacyBudgetExceeded)
        assert fifth.error.tenant == "acme"
        assert fifth.error.budget == 1.0

    def test_failed_queries_are_refunded(self):
        budget = PrivacyBudget(budget=1.0, amount=3.0)
        chain = MiddlewareChain([budget])
        ctx = context(tenant="acme")

        def explode(pending):
            raise RuntimeError("model fell over")

        chain.execute(ctx, explode)
        assert isinstance(ctx.error, RuntimeError)
        assert budget.spent("acme") == 0.0
        assert budget.stats()["refunded"] == 1

    def test_cost_follows_published_augmentation_amount(self, registry):
        registry.register(
            "amount-tagged",
            lenet_bundle(),
            lambda: None,
            metadata={"augmentation_amount": 4.0},
        )
        budget = PrivacyBudget(budget=1.0, amount=1.0, registry=registry)
        assert budget.query_cost(context(model_id="amount-tagged")) == privacy_loss(4.0)
        # Untagged models fall back to the configured amount.
        assert budget.query_cost(context(model_id="lenet")) == privacy_loss(1.0)

    def test_worst_case_without_any_amount(self):
        budget = PrivacyBudget(budget=5.0)
        assert budget.query_cost(context()) == 1.0  # epsilon of an un-augmented model

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(budget=0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(budget=1.0, amount=-2.0)
