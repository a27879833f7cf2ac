"""Exact cone geometry, concave-function calculus, and heights on the adelic line."""

__all__ = ["divisorial_core", "convex_calculus", "adelic_curve"]


def _lazy_exports(namespace: dict, homes: dict[str, str]):
    """A layer's module __getattr__ (PEP 562): a name in `homes` imports its
    home submodule on first use and is then cached in the layer's namespace,
    so importing the layer loads none of its submodules."""
    layer = namespace["__name__"]

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {layer!r} has no attribute {name!r}")
        from importlib import import_module

        namespace[name] = value = getattr(import_module(f"{layer}.{homes[name]}"), name)
        return value

    return __getattr__
