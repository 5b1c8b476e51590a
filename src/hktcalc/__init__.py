"""Exact hypercomplex exterior calculus on flat quaternionic space.

The package verifies the calculus of hyper-Kaehler-with-torsion (HKT)
geometry on R^(4n) with constant structures as machine-checked exact
identities, and constructs 4-dimensional HKT potentials numerically.
"""

from .scalars import Polynomial, random_polynomial
from .forms import KForm, hessian
from .structures import (
    HypercomplexModel,
    StructureOperator,
    complex_type_part,
)
from .salamon import (
    DegreeError,
    FiberSubspace,
    ProjectorTable,
    bundle_B,
    a11_subspace,
    is_salamon_11,
    salamon_D,
    salamon_DI,
)

__all__ = [
    "Polynomial",
    "random_polynomial",
    "KForm",
    "hessian",
    "HypercomplexModel",
    "StructureOperator",
    "complex_type_part",
    "DegreeError",
    "FiberSubspace",
    "ProjectorTable",
    "bundle_B",
    "a11_subspace",
    "is_salamon_11",
    "salamon_D",
    "salamon_DI",
]
