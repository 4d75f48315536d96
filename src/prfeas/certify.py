"""Certificate verification and planted instance generation.

Nothing here trusts the solver: feasible directions are re-queried through
the oracle, dual weights are re-combined from the instance's own columns,
each re-formed from its witness and the instance alone, and planted
generators emit certificates verifiable by the same code paths used on
external input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence, Union

import numpy as np

from .oracle import (
    ConfigError,
    CustomOracle,
    CustomWitness,
    FiniteLp,
    LpIndex,
    ProblemInstance,
    RANGE_EXPONENT,
    Sdp,
    SdpVector,
    Socp,
    SocpVector,
    Witness,
    WitnessedColumn,
    query,
    range_exponents,
    real_array,
    strict_int,
    unit_direction,
    vector_norm,
)

# the names prfeas re-exports; the rest are reached as prfeas.certify.<name>
__all__ = [
    "generate_planted",
    "verify_d_solution",
    "verify_p_certificate",
]

#: Relative residual at or below which a positive combination is accepted.
DUAL_RESIDUAL_TOL = 1e-9

#: Interior margin planted into generated feasible instances.
PLANTED_MARGIN = 0.1


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
        return {"schema": 1, **asdict(self)}


@dataclass
class Certificate:
    """A planted or parsed certificate: a direction or weighted witnesses."""

    kind: str
    y: np.ndarray | None = None
    weights: list[tuple[Union[Witness, WitnessedColumn], float]] | None = None


def _finite_at(margin, y: np.ndarray, m: int) -> float:
    """``margin(y)``, a margin of the data as given, which takes ``y`` at
    its unit direction (:func:`prfeas.oracle.unit_direction`); when it is
    not finite, taken at that direction times ``2^-RANGE_EXPONENT``, not
    at ``2^-RANGE_EXPONENT y``, which near the float maximum overflows
    again.

    Every margin is homogeneous in ``y``, and a power of two scales it
    exactly.  At the unit direction, which brings ``max|y_i|`` into [1/2,
    1), it is at most ``sqrt(m)`` times a column norm of the data as
    given, which can exceed the float maximum only for data near it; the
    factor brings that bound far inside the range.
    """
    value = margin(y)
    if not math.isfinite(value):
        value = margin(np.ldexp(unit_direction(y, m)[0], -RANGE_EXPONENT))
    return value


def verify_d_solution(instance: ProblemInstance, y: np.ndarray) -> VerificationReport:
    """Re-query the oracle at ``y``; accept only strict feasibility.

    A margin of exactly zero, or one that is not a number, counts as a
    violation.  Margins and violations are those of the data as given,
    mapped back from the stored data by its exponents, each taken at the
    unit direction of ``y`` (:func:`prfeas.oracle.unit_direction`) and
    mapped back by its power of two.  A reported margin that overflows is
    taken at that direction times ``2^-RANGE_EXPONENT`` instead
    (:func:`_finite_at`).  The violation of a rejected ``y`` is reported
    as at most 0: a margin that comes out positive is rounding (or inside
    the oracle's tolerance band) on a true margin of about 0, and reads as
    0.
    """
    # a margin mapped back to a y from outside may overflow: one that is
    # not finite is taken again below
    with np.errstate(over="ignore", invalid="ignore"):
        w = query(instance, y)
        if w is None:
            margin = None if isinstance(instance, CustomOracle) \
                else _finite_at(instance.min_margin, y, instance.m)
            return VerificationReport(
                kind="d", accepted=True,
                residual=0.0 if margin is None else margin,
                details={} if margin is None else {"min_margin": margin})

        def violation_at(z):
            u, e = unit_direction(z, instance.m)
            return float(np.ldexp(w.column @ u, w.exponent + e))

        violation = _finite_at(violation_at, y, instance.m)
    violation = min(violation, 0.0)
    return VerificationReport(kind="d", accepted=False, residual=violation,
                              details={"violation": violation})


def resolve_witness_column(
    instance: ProblemInstance,
    witness: Union[Witness, WitnessedColumn],
) -> tuple[Witness, np.ndarray, int]:
    """Map a certificate witness to its constraint column on the instance.

    Returns the witness, its column in range and an exponent ``e``: the
    column of the data as given is that one times ``2^e``.  A built-in
    instance's column is taken from its stored data
    (:func:`prfeas.oracle.in_range`) by the product the query forms it
    with, from the instance and the witness alone: an LP's stored column,
    an Sdp's :meth:`prfeas.oracle.Sdp.column`, and a cone vector's ``A[:,
    sl] @ v[sl]`` over the blocks from its first nonzero one to its last
    (:meth:`prfeas.oracle.Socp.block_slice`).  So a column a query hands
    out and the one re-formed from its witness are the same bits.  A cone
    vector on blocks stored at different exponents gets the largest, its
    other blocks' parts scaled down to match (exactly, by powers of two).
    The range of a vector is checked before anything is squared: an Sdp
    vector's norm is :func:`prfeas.oracle.vector_norm`, and a cone vector
    with an entry above ``1 + 1e-12`` in magnitude is no ``(1, u)`` block.
    A custom column is checked and brought into range as a query does
    both (:meth:`prfeas.oracle.WitnessedColumn.in_range`).

    Raises
    ------
    ValueError
        If the witness does not belong to the instance (wrong kind, index
        out of range, non-finite or malformed vector, missing or
        malformed custom column).
    """
    given: WitnessedColumn | None = None
    if isinstance(witness, WitnessedColumn):
        given, witness = witness, witness.witness
    if isinstance(witness, (SdpVector, SocpVector)):
        v = real_array(witness.v, "witness vector")
        if not np.isfinite(v).all():
            raise ValueError("witness vector must be finite")
    if isinstance(witness, LpIndex):
        if not isinstance(instance, FiniteLp):
            raise ValueError("lp_index witness on a non-LP instance")
        i = witness.i
        if not 0 <= i < instance.n:
            raise ValueError(f"column index {i} out of range")
        return (witness, instance.columns[:, i].copy(),
                int(instance.exponents[i]))
    if isinstance(witness, SdpVector):
        if not isinstance(instance, Sdp):
            raise ValueError("sdp_vector witness on a non-SDP instance")
        if v.shape != (instance.n,):
            raise ValueError("sdp witness has the wrong dimension")
        if abs(vector_norm(v) - 1.0) > 1e-6:
            raise ValueError("sdp witness must be a unit vector")
        return witness, instance.column(v), instance.exponent
    if isinstance(witness, SocpVector):
        if not isinstance(instance, Socp):
            raise ValueError("socp_vector witness on a non-SOCP instance")
        if v.shape != (instance.n,):
            raise ValueError("socp witness has the wrong dimension")
        active = np.logical_or.reduceat(v != 0.0, instance.starts)
        if not active.any():
            raise ValueError("socp witness is identically zero")
        # no entry of a valid (1, u) block exceeds 1 + 1e-12, and none
        # that does is squared
        if abs(v).max() > 1.0 + 1e-12 or \
                (abs(v[instance.starts][active] - 1.0) > 1e-12).any() or \
                (instance.tail_norms(v)[active] > 1.0 + 1e-12).any():
            raise ValueError(
                "socp witness block must be (1, u) with ||u|| <= 1"
            )
        # the blocks from the first nonzero one to the last, each scaled
        # to the top exponent
        sl = instance.block_slice(*active.nonzero()[0][[0, -1]].tolist())
        top = int(instance.exponents[active].max())
        v = np.ldexp(v[sl], instance.exponents[instance._owner[sl]] - top)
        return witness, instance.A[:, sl] @ v, top
    if isinstance(witness, CustomWitness):
        if not isinstance(instance, CustomOracle):
            raise ValueError("custom witness on a built-in instance")
        if given is None:
            raise ValueError("custom witness carries no column")
        given = given.in_range(instance.m)
        return witness, given.column, given.exponent
    raise ValueError(f"unknown witness type {type(witness).__name__}")


def verify_p_certificate(
    instance: ProblemInstance,
    weights: Sequence[tuple[Union[Witness, WitnessedColumn], float]],
) -> VerificationReport:
    """Check that positive weights combine instance columns to near zero.

    The residual is relative: ``||sum x_t a_t|| / sum x_t ||a_t||``;
    acceptance means residual <= 1e-9.  When every column is exactly the
    zero vector, which a valid nonzero cone witness of a built-in
    instance can map to, the combination is exactly zero and the residual
    is 0: no ``y`` satisfies ``0^T y > 0``.  A custom witness's column is
    never zero (:meth:`prfeas.oracle.WitnessedColumn.in_range`).

    The weights are those of the data as given.  The sums are taken over
    the columns ``c_t`` in range (:func:`resolve_witness_column`), each
    weight multiplied by ``2^e_t`` of its column.  When the largest term
    ``x_t 2^e_t ||c_t||`` so mapped lies outside the range, every weight
    is multiplied by one more power of two ``2^-E``, the one that the
    range rule gives that term (:func:`prfeas.oracle.range_exponents`), so
    no square of the combination overflows and only a weight on a term
    below about ``2^-250`` times the largest can underflow, far below
    what the residual resolves.  The mapping is done in exponent arithmetic,
    so no weight overflows on the way.  Powers of two scale exactly, so
    the residual is that of the weights as given; the report's
    ``absolute_residual`` and ``scale`` are those of the terms ``x_t 2^-E
    a_t`` of the data as given, and ``scale_exponent`` holds ``E`` when it
    is not 0.

    Raises
    ------
    ValueError
        If weights are empty, non-positive, or more than m+1 of them, or
        any witness cannot be mapped to a column of the instance.
    """
    if len(weights) == 0:
        raise ValueError("certificate has no weights")
    if len(weights) > instance.m + 1:
        raise ValueError(
            f"certificate has {len(weights)} atoms; at most m+1 = "
            f"{instance.m + 1} allowed"
        )
    terms = []
    vanishing = True
    for witness, x in weights:
        # one weight at a time: numpy reads [True, 0.5] as two floats
        x = real_array(x, "certificate weights")
        if x.shape or not 0.0 < x < math.inf:
            raise ValueError("certificate weights must be positive and finite")
        _, column, e = resolve_witness_column(instance, witness)
        terms.append((float(x), column, e))
        vanishing = vanishing and not column.any()
    norms = [vector_norm(c) for _, c, _ in terms]
    mants, exps = np.frexp([x for x, _, _ in terms])
    exps += [e for _, _, e in terms]
    top = int(range_exponents(np.max(exps + np.frexp(norms)[1])))
    xs = np.ldexp(mants, exps - top).tolist()
    num = sum(x * c for x, (_, c, _) in zip(xs, terms))
    den = sum(x * nrm for x, nrm in zip(xs, norms))
    absolute = vector_norm(num)
    if den > 0.0:
        residual = absolute / den
    else:
        residual = 0.0 if vanishing else math.inf
    details = {"absolute_residual": absolute, "scale": den,
               "support": len(weights)}
    if top:
        details["scale_exponent"] = top
    return VerificationReport(
        kind="p",
        accepted=residual <= DUAL_RESIDUAL_TOL,
        residual=residual,
        details=details,
    )


# ---------------------------------------------------------------------------
# planted generators
#
# An LP's or SDP's array is drawn by one call, in the order in which a
# loop over its columns or matrices would draw it, and built by array
# operations that give that loop's bits (tests/test_certify.py keeps the
# loops and compares).  A SOCP is drawn by one call per block: one draw
# for all blocks, and the copy that takes its margins out, would hold
# three arrays of A's size at once where the loop holds one.  An LP's
# feasible_p columns, which interleave normal and uniform draws, are
# built one at a time.


def _random_unit(rng: np.random.Generator, m: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(m)
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            return v / nrm


def _planted_direction(rows: np.ndarray, y_star: np.ndarray,
                       lift: np.ndarray | float = 0.0) -> np.ndarray:
    """Columns ``g - (g^T y*) y* + (PLANTED_MARGIN + |r| + lift) y*``, one
    per row ``(g, r)`` of ``rows``, as an ``(m, k)`` C-ordered array.

    ``np.vecdot`` takes each ``g^T y*`` as ``g @ y_star`` does, bit for
    bit; ``rows[:, :-1] @ y_star``, one matrix product, does not.
    """
    G, r = rows[:, :-1], rows[:, -1]
    out = np.multiply.outer(y_star, np.vecdot(G, y_star))
    np.subtract(G.T, out, out=out)
    out += y_star[:, None] * (PLANTED_MARGIN + abs(r) + lift)
    return out


def _planted_lp(rng, m, n, target):
    if target == "feasible_d":
        y_star = _random_unit(rng, m)
        # column j draws its m entries, then its margin: row j
        cols = _planted_direction(rng.standard_normal((n, m + 1)), y_star)
        return FiniteLp(cols), Certificate("d", y=y_star)
    if n < 2:
        raise ConfigError("feasible_p needs at least two columns")
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
        B = rng.standard_normal((m, n, n))
        mats = 0.5 * (B + B.transpose(0, 2, 1))
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
    B = rng.standard_normal((m, n, n))
    B = 0.5 * (B + B.transpose(0, 2, 1))
    # one pairwise sum per matrix, as np.sum(B_i * C) takes it
    along = np.sum((B * C).reshape(m, -1), axis=1) / c_norm2
    mats = B - along[:, None, None] * C
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
        # block b draws m entries per tail column, then m for a column g
        # and one for its margin, a row (g, r) of lead; its tail product
        # is taken alone, as a batched one changes the bits
        lead = np.empty((len(blocks), m + 1))
        lift = np.empty(len(blocks))
        for b, (start, size) in enumerate(zip(starts.tolist(), blocks)):
            draws = rng.standard_normal(size * m + 1)
            tail = A[:, start + 1 : start + size]
            tail[...] = draws[: -m - 1].reshape(size - 1, m).T
            lift[b] = np.linalg.norm(tail.T @ y_star)
            lead[b] = draws[-m - 1 :]
        A[:, starts] = _planted_direction(lead, y_star, lift)
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

    Raises
    ------
    ConfigError
        If ``kind`` or ``target`` is unknown, ``m`` or ``n`` is below 1,
        ``seed`` is negative, or a ``feasible_p`` target has ``n < 2``.
    TypeError
        If ``m``, ``n`` or ``seed`` is not an integer (an integral float
        counts as one; a bool does not).
    """
    if kind not in ("lp", "sdp", "socp"):
        raise ConfigError(f"unknown kind {kind!r}")
    if target not in ("feasible_d", "feasible_p"):
        raise ConfigError(f"unknown target {target!r}")
    m, n, seed = map(strict_int, (m, n, seed), ("m", "n", "seed"))
    if m < 1 or n < 1:
        raise ConfigError("m and n must be positive")
    if seed < 0:
        raise ConfigError("seed must be at least 0")
    if target == "feasible_p" and kind in ("sdp", "socp") and n < 2:
        # with a one-dimensional cone every witness yields the same
        # column, so no positive combination can vanish
        raise ConfigError(f"{kind} feasible_p requires n >= 2")
    rng = np.random.default_rng(seed)
    if kind == "lp":
        return _planted_lp(rng, m, n, target)
    if kind == "sdp":
        return _planted_sdp(rng, m, n, target)
    return _planted_socp(rng, m, n, target)
