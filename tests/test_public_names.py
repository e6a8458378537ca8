"""Every name in the ``__all__`` of a ``tdlf`` module resolves, so that
``from tdlf.<module> import *`` works for each of them."""

import importlib
import pkgutil

import tdlf

MODULES = ["tdlf", *(f"tdlf.{m.name}" for m in pkgutil.iter_modules(tdlf.__path__))]


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    for name in MODULES:
        exec(f"from {name} import *", {})
