"""stiefelopt: feasible first-order minimization over the Stiefel manifold.

Public surface: dense helpers (:mod:`stiefelopt.linalg`), the feasible-set
machinery (:mod:`stiefelopt.manifold`), search directions
(:mod:`stiefelopt.directions`), step-size rules (:mod:`stiefelopt.linesearch`),
the solver (:mod:`stiefelopt.solver`), benchmark problems
(:mod:`stiefelopt.problems`), and the ``stiefel-bench`` CLI
(:mod:`stiefelopt.cli`).  Each module's ``__all__`` declares its public names;
the package re-exports exactly those.
"""

from . import directions, linalg, linesearch, manifold, problems, solver
from .directions import *  # noqa: F403
from .linalg import *  # noqa: F403
from .linesearch import *  # noqa: F403
from .manifold import *  # noqa: F403
from .problems import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += linalg.__all__
__all__ += manifold.__all__
__all__ += directions.__all__
__all__ += linesearch.__all__
__all__ += solver.__all__
__all__ += problems.__all__
