"""One plugin registry for every name a stack spec can reference.

Middleware, scaling policies, span exporters and SLO objective types are all
a name in a TOML file that builds a Python object from keyword arguments.
:class:`Registry` is that mechanism once: it checks a spec's kwargs against
the factory's signature before calling it and types every failure as a
:class:`ConfigError`, so a typo or a wrongly-typed knob fails at build time,
never at request time.  This module imports nothing from the package, so
every layer can share it without import cycles.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Generic, List, Mapping, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


class ConfigError(ValueError):
    """Root of every malformed-configuration error, raised eagerly at build time."""


class UnknownNameError(ConfigError, KeyError):
    """A spec names a plugin no one registered."""

    # KeyError's __str__ would repr-quote the message.
    __str__ = ConfigError.__str__

    def __init__(self, kind: str, name: str, known: Sequence[str], decorator: str) -> None:
        super().__init__(
            f"unknown {kind} '{name}'; registered: {sorted(known)} "
            f"(add yours with @{decorator})"
        )
        self.name = name
        self.known = tuple(sorted(known))


class PluginArgumentsError(ConfigError):
    """A spec entry carries arguments its factory cannot accept."""

    def __init__(self, kind: str, name: str, reason: str) -> None:
        super().__init__(f"bad arguments for {kind} '{name}': {reason}")
        self.name = name
        self.reason = reason


# Scalar annotations we can check before calling the factory; everything
# subtler is left to the constructor's own validation (wrapped in build).
_SCALAR_CHECKS: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


class Registry(Generic[T]):
    """Named factories of ``base`` instances, built from spec kwargs.

    ``kind`` and ``decorator`` word the errors: ``unknown middleware 'x';
    ... (add yours with @register_middleware)``.
    """

    def __init__(self, kind: str, base: type, decorator: str) -> None:
        self.kind = kind
        self.base = base
        self.decorator = decorator
        self._factories: Dict[str, Callable[..., T]] = {}

    def register(
        self, name: str, factory: Optional[Callable[..., T]] = None, replace: bool = False
    ):
        """Register ``factory`` under ``name`` so specs can reference it.

        Usable as a decorator (``@register_middleware("audit")`` on a class)
        or called directly with a factory.  Re-registering an existing name
        needs ``replace=True``.
        """
        if not name:
            raise ConfigError(f"a {self.kind} needs a non-empty name")

        def _register(target: Callable[..., T]) -> Callable[..., T]:
            if not callable(target):
                raise TypeError(f"{self.kind} factory for '{name}' must be callable")
            if name in self._factories and not replace:
                raise ConfigError(f"{self.kind} '{name}' is already registered (pass replace=True)")
            self._factories[name] = target
            return target

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Forget ``name``; a no-op when it is not registered."""
        self._factories.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        """The names specs may currently reference, sorted."""
        return tuple(sorted(self._factories))

    def resolve(self, name: str) -> Callable[..., T]:
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownNameError(
                self.kind, name, tuple(self._factories), self.decorator
            ) from None

    def build(
        self,
        name: str,
        kwargs: Optional[Mapping[str, object]] = None,
        resources: Optional[Mapping[str, object]] = None,
    ) -> T:
        """Instantiate ``name`` from spec ``kwargs`` plus ``resources``.

        A resource is injected only where the factory declares a same-named
        parameter the spec did not fill, so one mapping serves a whole spec
        (the ``registry`` reaches the validator, a ``clock`` the policies).
        Bad arguments, constructor rejections and a result that is not a
        ``base`` raise :class:`PluginArgumentsError`.
        """
        factory = self.resolve(name)
        merged = dict(kwargs or {})
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):  # pragma: no cover - builtins without sigs
            signature = None
        if signature is not None:
            for key, value in (resources or {}).items():
                if key in signature.parameters and key not in merged:
                    merged[key] = value
            try:
                signature.bind(**merged)
            except TypeError as error:
                raise PluginArgumentsError(self.kind, name, str(error)) from None
            for key, value in merged.items():
                parameter = signature.parameters.get(key)
                if parameter is None:  # swallowed by **kwargs
                    continue
                annotation = parameter.annotation
                expected = _SCALAR_CHECKS.get(
                    annotation
                    if isinstance(annotation, str)
                    else getattr(annotation, "__name__", "")
                )
                if expected is None:
                    continue
                if not isinstance(value, expected) or (
                    isinstance(value, bool) and bool not in expected
                ):
                    raise PluginArgumentsError(
                        self.kind,
                        name,
                        f"'{key}' expects {annotation}, got {type(value).__name__} {value!r}",
                    )
        try:
            built = factory(**merged)
        except ConfigError:
            raise
        except (TypeError, ValueError) as error:
            raise PluginArgumentsError(self.kind, name, str(error)) from None
        if not isinstance(built, self.base):
            raise PluginArgumentsError(
                self.kind,
                name,
                f"factory returned {type(built).__name__}, not a {self.base.__name__}",
            )
        return built


def parse_entries(
    raw: object, where: str, kind: str, error: Callable[[str], ConfigError]
) -> List[Tuple[str, Dict[str, object]]]:
    """``(name, kwargs)`` pairs from an array of names or ``{ name = ..., ... }`` tables.

    ``where`` prefixes every message, ``kind`` names the entries, and
    ``error`` is the :class:`ConfigError` subclass raised.
    """
    if not isinstance(raw, (list, tuple)):
        raise error(f"{where} must be an array of names or tables, got {type(raw).__name__}")
    entries: List[Tuple[str, Dict[str, object]]] = []
    for index, entry in enumerate(raw):
        if isinstance(entry, str):  # bare name shorthand
            entries.append((entry, {}))
            continue
        if not isinstance(entry, Mapping):
            raise error(
                f"{where} entry {index}: expected a name or a table, got {type(entry).__name__}"
            )
        kwargs = dict(entry)
        name = kwargs.pop("name", None)
        if not isinstance(name, str) or not name:
            raise error(f"{where} entry {index}: missing {kind} 'name'")
        entries.append((name, kwargs))
    return entries


__all__ = [
    "ConfigError",
    "PluginArgumentsError",
    "Registry",
    "UnknownNameError",
    "parse_entries",
]
