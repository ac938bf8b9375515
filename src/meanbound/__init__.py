"""meanbound: bivariate means, trigonometric kernels, and certified sharp bounds.

The package evaluates eight means of two positive reals, the four
monotone kernel functions h1..h4 that the sharp-bounds reductions rest
on (with cancellation-safe series branches near 0), and the seven named
double inequalities with their best-possible convex-combination
constants, taken exactly from the means' end values, re-derived
numerically, and certified on large deterministic samples.

Each public name lives in one module's ``__all__`` and is imported on
first access (PEP 562), so a CLI call that never touches ``bounds``
does not load it.
"""

import importlib

__version__ = "1.0.0"

# lowest layer first: a name is looked up in this order
_MODULES = ("errors", "bernoulli", "kernels", "means", "bounds")


def __getattr__(name: str):
    # `from meanbound import cli` asks for the attribute before it imports
    # the submodule; a search of the modules would load bounds
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = [public for module in _MODULES for public in __getattr__(module).__all__]
        value.append("__version__")
    else:
        for module_name in _MODULES:
            module = __getattr__(module_name)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
