"""Sharp constants, extremal profiles and symmetry diagnostics for weighted
interpolation inequalities reformulated on the cylinder R x S^(N-1).

``constants``, ``region-map`` and ``verify lambdacond`` run without NumPy: the
package loads ``schrodinger``, ``sphere`` and ``cylinder`` on first use of one
of their names (PEP 562), and no function in it loads SciPy.  The package
exports the ``__all__`` of each module, the one list of its public names.
"""

from importlib import import_module as _import_module

from . import closed_forms, errors, params
from .closed_forms import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403

__version__ = "0.1.0"
_ARRAY_MODULES = ("schrodinger", "sphere", "cylinder")


def __getattr__(name):
    if name in _ARRAY_MODULES:  # `from . import sphere` loads sphere, and nothing else
        return _import_module(f".{name}", __name__)
    modules = [errors, params, closed_forms, *(_import_module(f".{m}", __name__) for m in _ARRAY_MODULES)]
    if name == "__all__":
        return [n for m in modules for n in m.__all__]
    for m in modules:
        if name in m.__all__:
            return getattr(m, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})  # the array modules load before globals() is read
