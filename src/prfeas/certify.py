"""Certificate verification, planted instance generation, and diagnostics.

Nothing here trusts the solver: feasible directions are re-queried through
the oracle, dual weights are re-combined from the instance's own columns,
and planted generators emit certificates verifiable by the same code paths
used on external input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .oracle import (
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    ProblemInstance,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    Witness,
    WitnessedColumn,
    query,
)

__all__ = [
    "UnresolvableWitness",
    "VerificationReport",
    "Certificate",
    "verify_d_solution",
    "verify_p_certificate",
    "resolve_witness_column",
    "generate_planted",
    "dstar_lower_bound",
    "DUAL_RESIDUAL_TOL",
    "PLANTED_MARGIN",
]

#: Relative residual at or below which a positive combination is accepted.
DUAL_RESIDUAL_TOL = 1e-9

#: Interior margin planted into generated feasible instances.
PLANTED_MARGIN = 0.1

#: Subset budget multiplier for the determinant lower bound.
DSTAR_SUBSET_BUDGET = 10


class UnresolvableWitness(ValueError):
    """A certificate witness does not belong to the given instance."""


@dataclass
class VerificationReport:
    """Outcome of re-checking a solution or certificate.

    ``kind`` is ``"d"`` (direction) or ``"p"`` (positive combination).
    For kind ``"d"`` the ``residual`` is the worst constraint margin found
    (acceptance means strictly positive); for kind ``"p"`` it is the
    relative combination residual (acceptance means <= 1e-9).
    """

    kind: str
    accepted: bool
    residual: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "accepted": self.accepted,
            "residual": self.residual,
            "details": self.details,
        }


@dataclass
class Certificate:
    """A planted or parsed certificate: a direction or weighted witnesses."""

    kind: str
    y: np.ndarray | None = None
    weights: list[tuple[Union[Witness, WitnessedColumn], float]] | None = None


def _accepted_margin(instance: ProblemInstance, y: np.ndarray) -> float | None:
    """Strict margin of an accepted direction, where cheaply computable."""
    if isinstance(instance, FiniteLp):
        return float(np.min(y @ instance.columns))
    if isinstance(instance, Sdp):
        X = np.tensordot(y, instance.matrices, axes=(0, 0))
        return float(np.min(np.linalg.eigvalsh(X)))
    if isinstance(instance, Socp):
        x = instance.A.T @ y
        b = int(np.argmin(x[instance.starts] - instance.tail_norms(x)))
        # the reported margin takes the block's tail norm from
        # np.linalg.norm, as the oracle's witness does, so reports keep
        # their bits whatever order the array pass sums in
        sl = instance.block_slice(b)
        return float(x[sl.start] - np.linalg.norm(x[sl.start + 1 : sl.stop]))
    return None


def verify_d_solution(instance: ProblemInstance, y: np.ndarray) -> VerificationReport:
    """Re-query the oracle at ``y``; accept only strict feasibility.

    A margin of exactly zero counts as a violation.
    """
    w = query(instance, y)
    if w is None:
        margin = _accepted_margin(instance, y)
        details: dict = {}
        if margin is not None:
            details["min_margin"] = margin
        return VerificationReport(
            kind="d",
            accepted=True,
            residual=0.0 if margin is None else margin,
            details=details,
        )
    violation = float(w.column @ np.asarray(y, dtype=float))
    return VerificationReport(
        kind="d",
        accepted=False,
        residual=violation,
        details={"violation": violation},
    )


def resolve_witness_column(
    instance: ProblemInstance,
    witness: Union[Witness, WitnessedColumn],
) -> tuple[Witness, np.ndarray]:
    """Map a certificate witness to its constraint column on the instance.

    Raises
    ------
    UnresolvableWitness
        If the witness does not belong to the instance (wrong kind, index
        out of range, malformed cone vector, missing custom column).
    """
    stored: np.ndarray | None = None
    if isinstance(witness, WitnessedColumn):
        stored = witness.column
        witness = witness.witness
    if isinstance(witness, LpIndex):
        if not isinstance(instance, FiniteLp):
            raise UnresolvableWitness("lp_index witness on a non-LP instance")
        if not 0 <= witness.i < instance.n:
            raise UnresolvableWitness(f"column index {witness.i} out of range")
        return witness, instance.columns[:, witness.i].copy()
    if isinstance(witness, SdpVector):
        if not isinstance(instance, Sdp):
            raise UnresolvableWitness("sdp_vector witness on a non-SDP instance")
        v = np.asarray(witness.v, dtype=float)
        if v.shape != (instance.n,):
            raise UnresolvableWitness("sdp witness has the wrong dimension")
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise UnresolvableWitness("sdp witness must be a unit vector")
        return witness, np.einsum("ijk,j,k->i", instance.matrices, v, v)
    if isinstance(witness, SocpVector):
        if not isinstance(instance, Socp):
            raise UnresolvableWitness("socp_vector witness on a non-SOCP instance")
        v = np.asarray(witness.v, dtype=float)
        if v.shape != (instance.n,):
            raise UnresolvableWitness("socp witness has the wrong dimension")
        active = np.logical_or.reduceat(v != 0.0, instance.starts)
        if not np.any(active):
            raise UnresolvableWitness("socp witness is identically zero")
        if np.any(np.abs(v[instance.starts][active] - 1.0) > 1e-12) or \
                np.any(instance.tail_norms(v)[active] > 1.0 + 1e-12):
            raise UnresolvableWitness(
                "socp witness block must be (1, u) with ||u|| <= 1"
            )
        return witness, instance.A @ v
    if isinstance(witness, CustomWitness):
        if not isinstance(instance, CustomOracle):
            raise UnresolvableWitness("custom witness on a built-in instance")
        if stored is None:
            raise UnresolvableWitness("custom witness carries no column")
        if stored.shape != (instance.m,):
            raise UnresolvableWitness("custom witness column has wrong shape")
        return witness, stored
    raise UnresolvableWitness(f"unknown witness type {type(witness).__name__}")


def verify_p_certificate(
    instance: ProblemInstance,
    weights: Sequence[tuple[Union[Witness, WitnessedColumn], float]],
) -> VerificationReport:
    """Check that positive weights combine instance columns to near zero.

    The residual is relative: ``||sum x_t a_t|| / sum x_t ||a_t||``;
    acceptance means residual <= 1e-9.

    Raises
    ------
    ValueError
        If weights are empty, non-positive, or more than m+1 of them.
    UnresolvableWitness
        If any witness cannot be mapped to a column of the instance.
    """
    if len(weights) == 0:
        raise ValueError("certificate has no weights")
    if len(weights) > instance.m + 1:
        raise ValueError(
            f"certificate has {len(weights)} atoms; at most m+1 = "
            f"{instance.m + 1} allowed"
        )
    num = np.zeros(instance.m)
    den = 0.0
    for witness, x in weights:
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError("certificate weights must be positive and finite")
        _, column = resolve_witness_column(instance, witness)
        num += x * column
        den += x * float(np.linalg.norm(column))
    residual = float(np.linalg.norm(num)) / den if den > 0.0 else math.inf
    return VerificationReport(
        kind="p",
        accepted=residual <= DUAL_RESIDUAL_TOL,
        residual=residual,
        details={
            "absolute_residual": float(np.linalg.norm(num)),
            "scale": den,
            "support": len(weights),
        },
    )


# ---------------------------------------------------------------------------
# planted generators


def _random_unit(rng: np.random.Generator, m: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(m)
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            return v / nrm


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def _planted_lp(rng, m, n, target):
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        cols = np.empty((m, n))
        for j in range(n):
            g = rng.standard_normal(m)
            tangential = g - (g @ y_star) * y_star
            margin = PLANTED_MARGIN + abs(rng.standard_normal())
            cols[:, j] = tangential + margin * y_star
        return FiniteLp(cols), Certificate("d", y=y_star)
    if n < 2:
        raise ValueError("feasible_p needs at least two columns")
    support = min(m, n - 1)
    cols = np.empty((m, n))
    for j in range(n - 1):
        cols[:, j] = _random_unit(rng, m) * (0.5 + rng.random())
    lam = 0.5 + rng.random(support)
    cols[:, n - 1] = -cols[:, :support] @ lam
    if not np.any(cols[:, n - 1] != 0.0):  # astronomically unlikely
        cols[0, n - 1] = -1.0
    pairs = [(LpIndex(j), float(lam[j])) for j in range(support)]
    pairs.append((LpIndex(n - 1), 1.0))
    return FiniteLp(cols), Certificate("p", weights=pairs)


def _planted_sdp(rng, m, n, target):
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        j_star = int(np.argmax(np.abs(y_star)))
        mats = np.array([_random_symmetric(rng, n) for _ in range(m)])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = PLANTED_MARGIN + rng.random(n)
        X_star = Q @ np.diag(d) @ Q.T
        X_star = 0.5 * (X_star + X_star.T)
        rest = np.tensordot(y_star, mats, axes=(0, 0)) \
            - y_star[j_star] * mats[j_star]
        mats[j_star] = (X_star - rest) / y_star[j_star]
        mats[j_star] = 0.5 * (mats[j_star] + mats[j_star].T)
        return Sdp(mats), Certificate("d", y=y_star)
    k = m + 1
    vs = [_random_unit(rng, n) for _ in range(k)]
    xs = 0.5 + rng.random(k)
    C = np.zeros((n, n))
    for v, x in zip(vs, xs):
        C += x * np.outer(v, v)
    c_norm2 = float(np.sum(C * C))
    mats = np.empty((m, n, n))
    for i in range(m):
        B = _random_symmetric(rng, n)
        mats[i] = B - (float(np.sum(B * C)) / c_norm2) * C
    pairs = [(SdpVector(tuple(v.tolist())), float(x))
             for v, x in zip(vs, xs)]
    return Sdp(mats), Certificate("p", weights=pairs)


def _random_blocks(rng, n: int) -> tuple[int, ...]:
    blocks, left = [], n
    while left > 0:
        size = int(rng.integers(1, min(4, left) + 1))
        blocks.append(size)
        left -= size
    return tuple(blocks)


def _planted_socp(rng, m, n, target):
    blocks = _random_blocks(rng, n)
    starts = np.cumsum([0] + list(blocks))[:-1]
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        A = np.empty((m, n))
        for start, size in zip(starts, blocks):
            for j in range(start + 1, start + size):
                A[:, j] = rng.standard_normal(m)
            tail = A[:, start + 1 : start + size].T @ y_star
            g = rng.standard_normal(m)
            tangential = g - (g @ y_star) * y_star
            margin = PLANTED_MARGIN + abs(rng.standard_normal())
            A[:, start] = tangential + \
                (float(np.linalg.norm(tail)) + margin) * y_star
        return Socp(A, blocks), Certificate("d", y=y_star)
    k = min(m + 1, 3) if m > 1 else 2
    vs = []
    for j in range(k):
        b = j % len(blocks)
        v = np.zeros(n)
        v[starts[b]] = 1.0
        size = blocks[b]
        if size > 1:
            u = rng.standard_normal(size - 1)
            nrm = np.linalg.norm(u)
            if nrm > 0:
                u *= 0.9 * rng.random() / nrm
            v[starts[b] + 1 : starts[b] + size] = u
        vs.append(v)
    xs = 0.5 + rng.random(k)
    w = np.zeros(n)
    for v, x in zip(vs, xs):
        w += x * v
    A = rng.standard_normal((m, n))
    A -= np.outer(A @ w, w) / float(w @ w)
    pairs = [(SocpVector(tuple(v.tolist())), float(x))
             for v, x in zip(vs, xs)]
    return Socp(A, blocks), Certificate("p", weights=pairs)


def generate_planted(
    kind: str,
    m: int,
    n: int,
    seed: int,
    target: str = "feasible_d",
) -> tuple[ProblemInstance, Certificate]:
    """Generate a seed-deterministic instance with a known certificate.

    Parameters
    ----------
    kind : {"lp", "sdp", "socp"}
        ``n`` counts columns (lp), the matrix dimension (sdp), or the total
        cone dimension (socp; the block partition is drawn from the seed).
    m : int
        Dimension of the direction variable.
    n : int
    seed : int
    target : {"feasible_d", "feasible_p"}
        Plant a strictly feasible direction (margin 0.1) or a positive
        combination summing to zero.

    Returns
    -------
    (instance, certificate)
        The certificate always verifies on the instance.
    """
    if kind not in ("lp", "sdp", "socp"):
        raise ValueError(f"unknown kind {kind!r}")
    if target not in ("feasible_d", "feasible_p"):
        raise ValueError(f"unknown target {target!r}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if target == "feasible_p" and kind in ("sdp", "socp") and n < 2:
        # with a one-dimensional cone every witness yields the same
        # column, so no positive combination can vanish
        raise ValueError(f"{kind} feasible_p requires n >= 2")
    rng = np.random.default_rng(seed)
    if kind == "lp":
        return _planted_lp(rng, m, n, target)
    if kind == "sdp":
        return _planted_sdp(rng, m, n, target)
    return _planted_socp(rng, m, n, target)


# ---------------------------------------------------------------------------
# feasible-region thickness diagnostic


def _greedy_volume_subset(S: np.ndarray, m: int) -> list[int]:
    """Indices of an m-subset picked by largest orthogonal residual."""
    residual = S.copy()
    chosen: list[int] = []
    available = list(range(S.shape[0]))
    for _ in range(m):
        norms = [float(np.linalg.norm(residual[i])) for i in available]
        best = int(np.argmax(norms))
        idx = available.pop(best)
        chosen.append(idx)
        u = residual[idx]
        nrm = np.linalg.norm(u)
        if nrm > 0:
            u = u / nrm
            for i in available:
                residual[i] = residual[i] - (residual[i] @ u) * u
    return chosen


def dstar_lower_bound(samples: Sequence[np.ndarray], m: int) -> float:
    """Empirical lower bound on the max |det| over m-tuples of samples.

    Callers supply verified feasible directions with norm at most 1.  When
    the number of m-subsets fits within ``10 m^2`` they are all evaluated;
    otherwise a greedy volume-pivoting pass plus ``10 m^2`` seeded random
    subsets are used.  Deterministic for a fixed sample list.
    """
    S = np.array([np.asarray(s, dtype=float) for s in samples], dtype=float)
    if S.shape[0] < m:
        return 0.0
    k = S.shape[0]
    budget = DSTAR_SUBSET_BUDGET * m * m
    best = 0.0
    if math.comb(k, m) <= budget:
        subsets = itertools.combinations(range(k), m)
        for idx in subsets:
            best = max(best, abs(float(np.linalg.det(S[list(idx)]))))
        return best
    greedy = _greedy_volume_subset(S, m)
    best = abs(float(np.linalg.det(S[greedy])))
    rng = np.random.default_rng(0)
    for _ in range(budget):
        idx = rng.choice(k, size=m, replace=False)
        best = max(best, abs(float(np.linalg.det(S[idx]))))
    return best
