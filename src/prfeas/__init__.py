"""Oracle-driven projection-and-rescaling feasibility solver.

Decides strict homogeneous feasibility (find y with a_t^T y > 0 for every
constraint in a possibly infinite family), produces verified dual
certificates (positive combinations of constraint columns summing to zero),
or declares that the feasible region is thinner than a requested epsilon.
Constraint families are presented through separation oracles; finite LP,
semidefinite, and second-order cone families are built in.
"""

# each module's __all__ names what the package exports from it
from . import certify, oracle, solver
from .certify import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = certify.__all__ + oracle.__all__ + solver.__all__
