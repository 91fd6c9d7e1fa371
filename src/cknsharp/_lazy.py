"""SciPy entry points bound at import time, imported on their first call."""

from __future__ import annotations

import importlib


def lazy(module: str, name: str):
    """A callable standing for ``module.name`` that imports ``module`` on its first call.

    The resolved function is cached in the closure, never in the caller's
    module globals, so a binding swapped in from outside (a tracer, a test's
    monkeypatch) stays in place.
    """
    resolved = None

    def call(*args, **kwargs):
        nonlocal resolved
        if resolved is None:
            resolved = getattr(importlib.import_module(module), name)
        return resolved(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call
