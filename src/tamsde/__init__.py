"""Adaptive tamed Milstein integration for scalar SDEs.

The package simulates dX = mu(X) dt + sigma(X) dW for coefficients with
superlinear growth and limited smoothness, using a tamed Milstein step on
a state-adaptive clock, and measures its strong convergence against a
fixed-step tamed Milstein baseline.

Layers, bottom up: errors (exception types), model (coefficient functions
and regularity constants), scheme (one-step maps and single-path
simulation), driver (coupled two-resolution paths on one Brownian
motion), montecarlo (estimators over many paths), analysis (rate
regression and scheme comparison), cli (experiment runner).

The package exports each layer's __all__ below cli, but imports a layer
only on first use (PEP 562), so `import tamsde; tamsde.get_model(...)`
loads errors and model alone.  A layer's name imports that layer;
__all__ imports every layer and joins their own __all__ lists; any other
public name imports the layers bottom up until one exports it, and is
then bound here, so its next lookup is a plain one.  Other names, every
name with a leading underscore and the names cli and kernel (the compiled
kernel) raise AttributeError without importing a layer, so the last two
are imported by name as submodules: `from tamsde import cli`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAYERS = ("errors", "model", "scheme", "driver", "montecarlo", "analysis")
# submodules the package does not export: their names raise at once, so
# `from . import kernel` in a layer imports no layer above it
_SUBMODULES = ("cli", "kernel")


def __getattr__(name):
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        names = ["__version__", *(n for layer in _LAYERS
                                  for n in __getattr__(layer).__all__)]
        globals()[name] = names
        return names
    if not name.startswith("_") and name not in _SUBMODULES:
        for layer in _LAYERS:
            module = __getattr__(layer)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    names = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *names})
