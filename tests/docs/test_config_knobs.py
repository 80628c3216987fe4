"""The knob gate: every TOML-settable kwarg of a built-in plugin is documented.

``docs/configuration.md`` lists each built-in middleware's knobs in its
table row and each built-in scaling policy's knobs in the "Built-in
policies" bullet.  A constructor parameter a spec can set from TOML — one
annotated with a TOML scalar type, optionally ``Optional`` — must appear in
its name's row or bullet, so a new knob cannot ship undocumented.  Resource
and code-only parameters (a ``registry``, a ``clock``, a bucket ``key``)
carry no scalar annotation and are exempt.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path
from typing import List

import pytest

from repro.serve.cluster.autoscale import POLICIES
from repro.serve.middleware.config import MIDDLEWARE

DOC = (Path(__file__).resolve().parents[2] / "docs" / "configuration.md").read_text()

_TOML_SCALAR = re.compile(r"^(typing\.)?(Optional\[)?(int|float|str|bool)\]?$")

BUILTINS = [
    (name, registry.resolve(name))
    for registry in (MIDDLEWARE, POLICIES)
    for name in registry.names()
    if registry.resolve(name).__module__.startswith("repro.")
]


def toml_knobs(factory) -> List[str]:
    knobs = []
    for name, parameter in inspect.signature(factory).parameters.items():
        annotation = parameter.annotation
        if not isinstance(annotation, str):
            annotation = getattr(annotation, "__name__", str(annotation))
        if _TOML_SCALAR.match(annotation):
            knobs.append(name)
    return knobs


def doc_entry(name: str) -> str:
    """The table row, or the ``name`` (knobs...) bullet text, documenting ``name``."""
    for line in DOC.splitlines():
        if line.startswith("| ") and f"`{name}`" in line.split("|")[1]:
            return line
    match = re.search(rf"`{re.escape(name)}` \(([^)]*)\)", DOC)
    assert match, f"docs/configuration.md documents no built-in named {name!r}"
    return match.group(1)


def test_builtins_are_found():
    names = {name for name, _ in BUILTINS}
    assert {"rate_limiter", "privacy_budget", "queue_depth", "latency_target"} <= names


@pytest.mark.parametrize("name, factory", BUILTINS, ids=[name for name, _ in BUILTINS])
def test_every_toml_knob_is_documented(name, factory):
    entry = doc_entry(name)
    missing = [knob for knob in toml_knobs(factory) if f"`{knob}`" not in entry]
    assert not missing, f"docs/configuration.md: '{name}' does not list {missing}"
