"""Sharp constants, extremal profiles and symmetry diagnostics for weighted
interpolation inequalities reformulated on the cylinder R x S^(N-1).

Importing the package loads NumPy only, and no function in it loads SciPy.
The package exports the ``__all__`` of each module below; each module's
``__all__`` is the one list of its public names.
"""

from .errors import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .closed_forms import *  # noqa: F401,F403
from .schrodinger import *  # noqa: F401,F403
from .sphere import *  # noqa: F401,F403
from .cylinder import *  # noqa: F401,F403

__version__ = "0.1.0"
