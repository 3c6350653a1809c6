"""Lazy package re-exports (PEP 562).

A package lists the names it re-exports from a heavy submodule; the
submodule is imported on the first access to one of them, and every name
it resolves is cached in the package globals so later lookups are plain
attribute reads.  ``__all__`` still lists them, so ``from pkg import *``
resolves them too.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable


def lazy_exports(package: str, namespace: dict,
                 sources: Dict[str, Iterable[str]]) -> Callable[[str], object]:
    """A module ``__getattr__`` resolving ``sources`` (relative module →
    names) on first use and caching each value in ``namespace``."""
    where = {name: module for module, names in sources.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__
