"""Exact Chevalley maps of finite reflection groups and numerical
certification of their geometry: Jacobian factorization, rank on chamber
strata, constrained critical points on invariant fibers, fiber connectivity,
and empirical Whitney 1-regularity of images of closed balls."""

__version__ = "0.1.0"

from .coxeter import CoxeterType, RootSystem, Stratum, build_root_system, coxeter_type
from .errors import (
    CapabilityError,
    CheckFailure,
    ChevalleyError,
    ConvergenceError,
    IntegrityError,
    UsageError,
)
from .field import Scalar
from .invariants import InvariantBasis, basic_invariants
from .poly import PolyMatrix, SparsePoly

__all__ = [
    "CoxeterType",
    "RootSystem",
    "Stratum",
    "build_root_system",
    "coxeter_type",
    "Scalar",
    "SparsePoly",
    "PolyMatrix",
    "InvariantBasis",
    "basic_invariants",
    "ChevalleyError",
    "UsageError",
    "CapabilityError",
    "IntegrityError",
    "ConvergenceError",
    "CheckFailure",
    "__version__",
]
