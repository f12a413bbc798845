"""fraclab: numerical laboratory for the two fractional Laplacians of a bounded domain.

Builds the spectral ("Navier") and restricted ("Dirichlet") fractional
operators on box grids, verifies their comparison properties at matrix
level, solves the weighted extension problem that realizes both forms, and
estimates critical Sobolev constants against the closed-form value.
The package's public names are those of its five layers, each listed once
in its module's ``__all__``.
"""

__version__ = "0.1.0"

from . import analysis, domain, extension, linalg, operators
from .analysis import *  # noqa: F401,F403
from .domain import *  # noqa: F401,F403
from .extension import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403

__all__ = ["__version__", *domain.__all__, *linalg.__all__, *operators.__all__,
           *extension.__all__, *analysis.__all__]
