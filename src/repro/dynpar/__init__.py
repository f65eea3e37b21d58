"""Dynamic-parallelism launch models (CDP and DTBL)."""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.dynpar.launch import DynamicParallelismModel

#: the module of each launch model by name; a model's class is its name
#: in capitals (``"cdp"`` -> ``CDP``)
MODELS = {"cdp": "repro.dynpar.cdp", "dtbl": "repro.dynpar.dtbl"}

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        **{module: (name.upper(),) for name, module in MODELS.items()},
        "repro.dynpar.launch": ("DynamicParallelismModel", "clamp_priority"),
    },
)
__all__ += ["MODELS", "make_model"]


def make_model(name: str) -> DynamicParallelismModel:
    """Construct a dynamic-parallelism model by name ('cdp' or 'dtbl')."""
    try:
        module = MODELS[name]
    except KeyError:
        raise ValueError(f"unknown dynamic parallelism model {name!r}") from None
    return getattr(importlib.import_module(module), name.upper())()
