"""quadralab: exact verification toolkit for two families of quadratic algebras.

Constructs the four-generator, six-relation algebras A(alpha,beta,gamma) and
R(a,b,c,d), and mechanically checks the finite facts about them: Hilbert
function prefixes, central elements, the 20-point scheme and its bijection,
minor factorizations, the Heisenberg-type automorphism groups, isomorphism
invariants, and the parameter correspondence between the two families.

All arithmetic is exact: big rationals, Q(i), polynomial and rational
function coefficients, formal root adjunctions, or prime fields p = 1 mod 4
for modular rank evidence.  No floating point anywhere.
"""

__version__ = "0.1.0"

from .scalars import GaussianRational, PrimeField, QQi, gaussian, parse_scalar
from .poly import FunctionField, MultiPoly, PolyRing, RationalFunction
from .extension import ExtensionField
from .freealg import FreeElement, anticommutator, apply_linear, commutator, generators
from .presentations import (
    CHLParams,
    RelationSpace,
    angle_invariant,
    chl_relations,
    chl_to_sklyanin_params,
    chl_z_relations,
    classify_chl,
    commutative_quotient_deg2,
    invariant_table,
    scaled_basis_matches_sklyanin_form,
    sklyanin_relations,
)
from .graded import GradedQuotient, HilbertProfile
from .geometry import (
    PointTable,
    ProjectivePoint,
    verify_gamma,
)
from .symmetry import ChlPsi, LinearAutomorphism, gamma_maps, psi_maps

__all__ = [
    "GaussianRational",
    "PrimeField",
    "QQi",
    "gaussian",
    "parse_scalar",
    "FunctionField",
    "MultiPoly",
    "PolyRing",
    "RationalFunction",
    "ExtensionField",
    "FreeElement",
    "anticommutator",
    "apply_linear",
    "commutator",
    "generators",
    "CHLParams",
    "RelationSpace",
    "angle_invariant",
    "chl_relations",
    "chl_to_sklyanin_params",
    "chl_z_relations",
    "classify_chl",
    "commutative_quotient_deg2",
    "invariant_table",
    "scaled_basis_matches_sklyanin_form",
    "sklyanin_relations",
    "GradedQuotient",
    "HilbertProfile",
    "PointTable",
    "ProjectivePoint",
    "verify_gamma",
    "ChlPsi",
    "LinearAutomorphism",
    "gamma_maps",
    "psi_maps",
    "__version__",
]
