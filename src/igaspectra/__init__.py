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
"""

from .analysis import (ConditionReport, ErrorReport, ExactSpectrum,
                       FunctionErrors, OutlierMetric, condition_report,
                       convergence_rates, eigenfunction_errors,
                       eigenvalue_errors, outlier_metric)
from .assembly import SymBandMatrix, assemble_1d, assemble_1d_reference_gauss
from .bspline import BSplineSpace, KnotVector, boundary_derivatives, eval_basis
from .eigsolve import Spectrum, solve_generalized
from .errors import (ConfigurationError, DefinitenessError, NumericError,
                     ResourceError)
from .pipeline import (build_1d, condition_summary, convergence_table,
                       solve_1d, solve_nd, spectrum_rows)
from .quadrature import (BlendedRule, ElementRule, QuadratureRule,
                         blending_weight, gauss_legendre, gauss_lobatto,
                         map_to_element, optimal_blending)
from .tensor import spectral_sum

__version__ = "0.1.0"

__all__ = [
    "BSplineSpace", "KnotVector", "eval_basis", "boundary_derivatives",
    "QuadratureRule", "BlendedRule", "ElementRule", "gauss_legendre",
    "gauss_lobatto", "optimal_blending", "blending_weight", "map_to_element",
    "SymBandMatrix", "assemble_1d", "assemble_1d_reference_gauss",
    "spectral_sum",
    "Spectrum", "solve_generalized",
    "ExactSpectrum", "ErrorReport", "FunctionErrors", "ConditionReport",
    "OutlierMetric", "eigenvalue_errors", "eigenfunction_errors",
    "convergence_rates", "condition_report", "outlier_metric",
    "build_1d", "solve_1d", "solve_nd", "spectrum_rows", "convergence_table",
    "condition_summary",
    "ConfigurationError", "NumericError", "DefinitenessError", "ResourceError",
    "__version__",
]
