"""hopfpbw: exact PBW-deformation analysis for smash products B # H.

Given a finite-dimensional Hopf algebra H (structure constants over a
cyclotomic field) acting on a quadratic algebra B = T(V)/(I), this package
decides whether a filtered quotient of T(V) # H by inhomogeneous relations
r - kappa(r) is a PBW deformation of B # H, and solves for the full family
of admissible deformation maps kappa.
"""

from .scalar import Scalar, scalar_make, zeta, parse_scalar, format_scalar
from .exactla import Matrix, Subspace, rref, kernel, intersect, solve, membership
from .hopf import HopfAlgebra, ValidationReport, validate_hopf, adjoint_on_H, group_algebra
from .modalg import ModuleAlgebra, validate_action, act_on_tensor, graded_dim, koszul_component
from .smash import straighten, adjoint_on_VH
from .deform import Kappa, ConditionReport, KappaFamily, check_invariance, check_overlap, check_pbw, overlap_maps, solve_kappa
from .oracle import FilteredDimReport, filtered_dims, pbw_probe
from .presets import preset_hopf

__all__ = [
    "Scalar", "scalar_make", "zeta", "parse_scalar", "format_scalar",
    "Matrix", "Subspace", "rref", "kernel", "intersect", "solve", "membership",
    "HopfAlgebra", "ValidationReport", "validate_hopf", "adjoint_on_H", "group_algebra",
    "ModuleAlgebra", "validate_action", "act_on_tensor", "graded_dim", "koszul_component",
    "straighten", "adjoint_on_VH",
    "Kappa", "ConditionReport", "KappaFamily", "check_invariance", "check_overlap",
    "check_pbw", "overlap_maps", "solve_kappa",
    "FilteredDimReport", "filtered_dims", "pbw_probe",
    "preset_hopf",
]
