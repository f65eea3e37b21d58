"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` lists where each public name lives instead of
importing it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.gpu.engine": ("DeadlockError", "Engine"),
    })

A name's module is imported on the first lookup of that name, so
importing one light submodule (``repro.gpu.config``) no longer drags in
its siblings through the package ``__init__`` (docs/harness.md, "What a
run imports").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    resolve each name in ``exports`` (module -> names) on first use, and
    the sorted names, for ``__all__``."""
    home = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, sorted(home)
