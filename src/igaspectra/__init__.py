"""Spectral approximation of the Dirichlet Laplacian on unit boxes.

Maximal-continuity B-spline discretisations whose stiffness and mass
matrices are built with an optimally blended Gauss-Legendre /
Gauss-Lobatto quadrature and an endpoint derivative penalty.  Compared
with the fully integrated Galerkin baseline this combination

* superconvergences eigenvalues at rate h^(2p+2) instead of h^(2p),
* removes the spurious outlier branch from the upper spectrum, and
* shrinks the stiffness-to-mass condition number by up to ~75%.

See the ``demos/`` scripts for guided tours and the ``igaspectra``
command line tool for scripted experiments.

Each module lists its public names once, in its own ``__all__``; the
package exports the union of those lists and ``__version__``.
"""

from . import analysis, assembly, bspline, eigsolve, errors, pipeline, quadrature
from .analysis import *
from .assembly import *
from .bspline import *
from .eigsolve import *
from .errors import *
from .pipeline import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = [name for module in (analysis, assembly, bspline, eigsolve, errors,
                               pipeline, quadrature)
           for name in module.__all__] + ["__version__"]
