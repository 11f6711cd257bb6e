"""Jacobi-elliptic solitary waves of the combined KdV-mKdV equation.

The toolkit derives the traveling-wave algebraic system symbolically, solves
it in closed form, verifies the solutions by exact back-substitution and by
pseudo-spectral simulation, and handles the time-dependent-coefficient
variant of the equation through its velocity law.
"""

from .ansatz import AlgebraicSystem, AnsatzSpec, PdeParams, build_ansatz, derive_system
from .elliptic import EllipticTriple, complete_K, jacobi
from .solver import SolutionFamily, solve_closed_form, solve_numeric
from .symexpr import EllipticMonomial, ParamPoly
from .waves import VelocityLaw, evaluate, velocity_at, velocity_paper_form

__all__ = [
    "AlgebraicSystem",
    "AnsatzSpec",
    "EllipticMonomial",
    "EllipticTriple",
    "ParamPoly",
    "PdeParams",
    "SolutionFamily",
    "VelocityLaw",
    "build_ansatz",
    "complete_K",
    "derive_system",
    "evaluate",
    "jacobi",
    "solve_closed_form",
    "solve_numeric",
    "velocity_at",
    "velocity_paper_form",
]

__version__ = "0.1.0"
