"""Re-importing the package leaves none of the discarded modules alive."""

from __future__ import annotations

import gc
import importlib
import sys
import weakref
from types import ModuleType


def polyclust_modules() -> dict[str, ModuleType]:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "polyclust" or name.startswith("polyclust.")
    }


def test_discarded_modules_are_freed():
    """A fresh import after dropping the old modules, as a benchmark times it, leaks nothing.

    Reference cycles between the modules are fine: ``gc.collect`` frees
    them. A module-level ``typing`` subscript over a polyclust class is
    not, because ``typing``'s cache then pins every re-imported copy.
    """
    in_use = polyclust_modules()
    discarded: list[weakref.ref[ModuleType]] = []
    try:
        for _ in range(3):
            for name in polyclust_modules():
                del sys.modules[name]
            importlib.import_module("polyclust")
            discarded.extend(map(weakref.ref, polyclust_modules().values()))
    finally:
        for name in polyclust_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    gc.collect()
    alive = [module.__name__ for module in (ref() for ref in discarded) if module is not None]
    assert discarded and not alive, alive
