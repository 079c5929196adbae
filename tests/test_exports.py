"""Every name a quatnev module exports in ``__all__`` exists."""

import importlib
import pkgutil

import quatnev


def test_all_exports_resolve():
    importlib.import_module("quatnev")
    missing = []
    for info in pkgutil.iter_modules(quatnev.__path__):
        mod = importlib.import_module(f"quatnev.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
