"""qdeg: minimal degrees in quantum products of Schubert classes on G/P.

Computes curve neighborhoods z_d^P, the distance fronts delta_P(w) and
delta_P(u, v), Kostant's cascade of orthogonal roots and the closed d_X
formulas, and exhaustively verifies the structural theorems on small-rank
root systems.

``import qdeg`` loads the engine alone: ``rootsystem``, ``weylgroup``,
``degreelattice``, ``cascade`` and ``curveneighborhood``.  The verification
layer, ``qdeg.distance``, loads on first access to it or to one of the names
re-exported from it here (``DegreeFront``, ``delta_uv``, ``delta_w``,
``exceptional_roots``, ``verify_suite``).  Those names are looked up in
``qdeg.distance`` on every access and never copied into this module, so a
name rebound there (as a tracer does) is the one seen here.
"""

import importlib

from .cascade import (
    Cascade,
    ChainCascade,
    alpha_beta_phi,
    cascade,
    chain_cascade,
    d_gpbeta,
    d_x,
    delta_circ,
    is_locally_high,
    is_strongly_orthogonal,
    w_o_of,
)
from .curveneighborhood import (
    CurveNbhdResult,
    curve_neighborhood,
    equalwx_criterion,
    is_cosmall,
    is_very_cosmall,
    z,
    z_lift_check,
)
from .degreelattice import (
    ChernVector,
    Degree,
    c1,
    d_of_root,
    extended_support,
    greedy_decomposition,
    induce,
    maximal_roots,
    minimal_elements,
    naive_support,
    restrict,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolationError,
    QdegError,
    ResourceError,
    VerificationError,
)
from .rootsystem import RootSystem, build_root_system, subsystem
from .weylgroup import CosetRep, Parabolic, WeylGroup, weyl_group

__version__ = "0.1.0"

#: names served from ``qdeg.distance`` on access (PEP 562)
_DISTANCE_NAMES = ("DegreeFront", "delta_uv", "delta_w", "exceptional_roots", "verify_suite")

__all__ = [
    "Cascade", "ChainCascade", "alpha_beta_phi", "cascade", "chain_cascade", "d_gpbeta",
    "d_x", "delta_circ", "is_locally_high", "is_strongly_orthogonal", "w_o_of",
    "CurveNbhdResult", "curve_neighborhood", "equalwx_criterion", "is_cosmall",
    "is_very_cosmall", "z", "z_lift_check",
    "ChernVector", "Degree", "c1", "d_of_root", "extended_support", "greedy_decomposition",
    "induce", "maximal_roots", "minimal_elements", "naive_support", "restrict",
    "ConfigurationError", "DomainError", "InvariantViolationError", "QdegError",
    "ResourceError", "VerificationError",
    "RootSystem", "build_root_system", "subsystem",
    "CosetRep", "Parabolic", "WeylGroup", "weyl_group",
    "distance", *_DISTANCE_NAMES,
]


def __getattr__(name):
    if name == "distance" or name in _DISTANCE_NAMES:
        # Once loaded, the import system binds ``distance`` here.  Loading goes
        # through import_module: ``from . import distance`` reads the
        # attribute of this package first, and so calls back in here.
        distance = globals().get("distance") or importlib.import_module(".distance", __name__)
        return distance if name == "distance" else getattr(distance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
