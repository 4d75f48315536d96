"""Oracle-driven projection-and-rescaling feasibility solver.

Decides strict homogeneous feasibility (find y with a_t^T y > 0 for every
constraint in a possibly infinite family), produces verified dual
certificates (positive combinations of constraint columns summing to zero),
or declares that the feasible region is thinner than a requested epsilon.
Constraint families are presented through separation oracles; finite LP,
semidefinite, and second-order cone families are built in.
"""

from .certify import (
    Certificate,
    VerificationReport,
    generate_planted,
    verify_d_solution,
    verify_p_certificate,
)
from .oracle import (
    ConfigError,
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    OracleContractViolation,
    ProblemInstance,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    Witness,
    WitnessedColumn,
    query,
)
from .solver import (
    InvariantViolated,
    RescalingState,
    SolveCounters,
    SolveOutcome,
    basic_procedure,
    main_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "VerificationReport",
    "generate_planted",
    "verify_d_solution",
    "verify_p_certificate",
    "ConfigError",
    "CustomOracle",
    "CustomWitness",
    "FiniteLp",
    "LpIndex",
    "OracleContractViolation",
    "ProblemInstance",
    "Sdp",
    "SdpVector",
    "Socp",
    "SocpVector",
    "Witness",
    "WitnessedColumn",
    "query",
    "InvariantViolated",
    "RescalingState",
    "SolveCounters",
    "SolveOutcome",
    "basic_procedure",
    "main_algorithm",
]
