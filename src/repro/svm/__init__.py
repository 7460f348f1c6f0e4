"""From-scratch One-class SVM (paper Section 5.2, Schoelkopf et al. [18]).

The library implements the nu-parameterised one-class SVM dual

    min_alpha  1/2 alpha^T Q alpha
    s.t.       sum(alpha) = 1,   0 <= alpha_i <= 1/(nu*n)

with an SMO solver (maximal-violating-pair working-set selection), RBF /
linear / polynomial kernels and standard feature scalers.  No external ML
dependency is used.
"""

from repro.svm.kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    resolve_kernel,
)
from repro.svm.gram_cache import GramCache
from repro.svm.scaling import StandardScaler
from repro.svm.smo import SMOResult, project_feasible, solve_one_class_smo
from repro.svm.one_class import OneClassSVM
from repro.svm.svdd import SVDD

__all__ = [
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "resolve_kernel",
    "GramCache",
    "StandardScaler",
    "SMOResult",
    "project_feasible",
    "solve_one_class_smo",
    "OneClassSVM",
    "SVDD",
]
