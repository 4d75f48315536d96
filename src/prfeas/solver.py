"""Projection-and-rescaling solver for homogeneous feasibility systems.

The solver decides, for a constraint family presented through a separation
oracle, between three outcomes:

* ``feasible`` -- a direction ``y`` with ``a_t^T y > 0`` for every
  constraint, verified by a final oracle query inside the inner run that
  found it;
* ``dual_certificate`` -- finitely many positive weights on violated
  constraints whose columns combine to (numerically) zero, verified once,
  by ``certify.verify_p_certificate``, inside the inner run that found
  them;
* ``epsilon_declared`` -- a certified bound: the set of feasible directions
  inside the unit box is so thin that every m-tuple drawn from it has
  absolute determinant at most epsilon.

The inner loop maintains a convex combination z of rescaled, normalized
constraint columns and drives ||z|| down.  Each oracle step only promises
that 1/||z||^2 grows by 1.  The support never exceeds m+1 columns
(Caratheodory): an insertion past that is undone by one step along a null
vector g of [A; 1^T] over the m+2 columns, x <- x - theta g, which keeps z
and empties the weight that blocks the step.  With the inverse G of the
basis [A; 1^T] over m+1 columns at hand, g costs one product with G and G
follows the exchange by one rank-one update; when those columns are
affinely dependent, g comes from an SVD.  The support is kept as aligned
arrays: the columns [a_t; 1] in one Fortran-ordered buffer, with the
weights x and the norms ||M^T c_t|| in two more, so the null step, the
update of G, the minor cycle and the certificate test read slices of
them, and an insertion writes into them.

Once the support is a full basis with G at hand, Wolfe's minor cycle
shrinks z further without an oracle call: G e_{m+1} gives the affine
weights that make the basis vanish, and the weights move toward them until
one reaches zero; the next insertion takes that empty slot.  The cycle
runs only while the shrunk ||z|| stays above MINOR_CYCLE_GUARD = 2 times
the threshold mu/(m+1), so it never reaches that exit itself; a guard
of 1 or less would let cycles reach it and change which direction a run
contracts along.  The floor 2 mu/(m+1) lies below 1 >= ||z|| for every
m >= 1, so a cycle can run at every size.

A run ends with a small aggregate at ||z|| <= mu/(m+1) or, once the map
holds a contraction (s > 0, so an earlier run found no certificate), at
||z|| <= mu x_h for its heaviest weight x_h.  Either exit bounds the slab
the contraction needs: every feasible y has x_h a_h^T y <= z^T y <=
||z|| ||y||, so a_h^T y <= mu ||y||; the first is the second at its worst
case, x_h = 1/(m+1).  The second can lie above the cycle's floor, so
after a contraction a cycle may end a run (two runs of a nearly degenerate
LP, m = 10 and n = 200, end so).

The first run starts at M 1.  Each later run starts from the support
the previous run ended on, mapped through the new map: every term keeps
its column and its weight on that column, and only the unit columns and
the normalized weights change.  That support's aggregate is still a
convex combination of unit columns, so ||z|| <= 1 and the run's
iteration bound holds as for a run from M 1; it only starts lower.  A
warm run queries at the mapped aggregate and takes one oracle step
before its first exit test.

An inner run that ends with a small aggregate first asks whether its
support already holds a dual certificate: one least-squares solve gives
the exact weights that make the support's columns vanish, and when the
support is affinely dependent, so that the solve has many solutions, a
nonnegative least-squares solve looks for one without a negative
weight.  When they do not certify, an Sdp run looks on the face its
witnesses span (the face step, :func:`prfeas.oracle.face_atoms`): the
support's weighted witnesses ``sum_t x_t v_t v_t^T``, projected in the
span's coordinates onto the matrices orthogonal to every ``A_i``, are a
certificate when the projection stays positive definite, and its
eigenvectors are the atoms.
Either way the atoms become the answer only once
``certify.verify_p_certificate`` accepts them.  If nothing certifies, the
run supplies a direction along which the space is contracted by one
half, which inflates the (rescaled) feasible cone until either outcome
becomes easy to find or the budget of contractions certifies the epsilon
declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import certify
from .oracle import (
    ConfigError,
    CustomWitness,
    OracleContractViolation,
    ProblemInstance,
    Witness,
    WitnessedColumn,
    face_atoms,
    query,
    range_exponents,
    rescaled_scales,
    vector_norm,
)

# the names prfeas re-exports; the rest are reached as prfeas.solver.<name>
__all__ = [
    "InvariantViolated",
    "main_algorithm",
]

#: ||z|| at or below this is treated as the exact-zero aggregate.
ZERO_AGGREGATE_TOL = 1e-12

#: Minimum distance between the aggregate and an incoming unit column.
COINCIDENT_TOL = 1e-14

#: Scaled column norms below this cannot be normalized meaningfully.
DEGENERATE_COLUMN_TOL = 1e-300

#: Tolerance on ||G B - I||_inf for the maintained basis inverse.
G_RESIDUAL_TOL = 1e-8

#: How many reductions between basis-inverse residual re-checks.
G_RECHECK_INTERVAL = 64

#: A rank-one update of ``G`` whose pivot is this many times smaller than
#: the largest entry of the null vector triggers a residual check.
REFILL_PIVOT_RATIO = 100.0

#: Relative threshold on the rank-one update denominator.
SMW_TOL = 1e-10

#: Smallest pivot accepted, relative to the largest absolute entry of the
#: matrix; an inverse with ``max|G| >= 1 / (LU_PIVOT_TOL max|B|)`` is refused.
LU_PIVOT_TOL = 1e-13

#: A minor cycle runs only while the cycled ``||z||`` stays above this
#: multiple of the small-aggregate threshold ``mu/(m+1)``.  It must exceed
#: 1, so that no cycle takes a run to that exit, and keep the floor below
#: ``||z|| <= 1`` at every m, which 2 does: ``2 mu/(m+1) <= 1/sqrt(3)``.
MINOR_CYCLE_GUARD = 2.0


class InvariantViolated(RuntimeError):
    """A bound the analysis proves failed at run time: an inner run
    exceeded its iteration bound, a step target coincides with the
    aggregate, or a nonzero rescaled column has vanishing norm."""


# ---------------------------------------------------------------------------
# rescaling map


class RescalingState:
    """The cumulative rescaling map M = D_1 D_2 ... D_s as a dense matrix.

    Each factor is ``D = I - (1/2) a a^T`` for a unit vector ``a``, so
    ``det M = 2^-s`` and every product costs O(m^2).  ``s`` is at most the
    contraction budget (72 at epsilon = 1e-6).
    """

    def __init__(self, m: int):
        if m < 1:
            raise ConfigError("dimension m must be at least 1")
        self.m = m
        self.M = np.eye(m)
        self.s = 0

    def rescale(self, a_scaled: np.ndarray) -> None:
        """Right-multiply by ``I - (1/2) a a^T`` for the unit vector given."""
        a = np.asarray(a_scaled, dtype=float)
        self.M = self.M - 0.5 * np.outer(self.M @ a, a)
        self.s += 1

    # ndarray.dot takes the same BLAS gemv as @, without the ufunc's
    # dispatch; at m = 1, where @ takes a dot, the two differ only in the
    # sign of a zero result, which no nonzero z or column gives
    def apply(self, z: np.ndarray) -> np.ndarray:
        """Return ``M z``."""
        return self.M.dot(z)

    def apply_transpose(self, a_col: np.ndarray) -> np.ndarray:
        """Return ``M^T a``."""
        return self.M.T.dot(a_col)

    def normalize(self, a_col: np.ndarray) -> tuple[np.ndarray, float]:
        """Return ``(M^T a / ||M^T a||, ||M^T a||)`` for a column ``a`` as
        :func:`prfeas.oracle.query` hands it out.

        Such a column has entries below ``2^448``, and ``||M|| <= 1``, so
        every entry of ``v = M^T a`` lies below ``sqrt(m) 2^448`` and no
        square overflows: the norm is ``sqrt(v^T v)``, which is
        ``vector_norm``'s bit for bit whenever that sum is a normal float,
        and ``vector_norm`` itself, which scales before squaring, for a
        subnormal sum.

        Raises
        ------
        InvariantViolated
            If ``||M^T a||`` is below ``DEGENERATE_COLUMN_TOL``.
        """
        v = self.apply_transpose(a_col)
        sq = float(v.dot(v))
        nrm = math.sqrt(sq) if sq >= 2.0**-1022 else vector_norm(v)
        if nrm < DEGENERATE_COLUMN_TOL:
            raise InvariantViolated("rescaled column norm underflowed")
        return v / nrm, nrm


def rescale_budget(epsilon: float) -> int:
    """Number of contractions after which d* <= epsilon is certified.

    Each failed inner run shrinks the determinant measure by sqrt(e)/2, so
    the budget is ``ceil(ln(1/eps) / ln(2/sqrt(e)))`` (at least 1),
    whatever the dimension.  ``ln(1/eps)`` is taken as ``-ln(eps)``, which
    stays finite where ``1/eps`` overflows, for a subnormal ``eps``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigError("epsilon must lie strictly between 0 and 1")
    return max(1, math.ceil(-math.log(epsilon) / (math.log(2.0) - 0.5)))


def step_alpha(z: np.ndarray, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum-norm point on the segment from ``a`` to ``z``.

    For a unit column ``a`` with ``a^T z <= 0`` the minimizing coefficient

        alpha = a^T (a - z) / ||a - z||^2
              = (1 - a^T z) / (1 - 2 a^T z + ||z||^2)

    lies in [0, 1] and the new point ``alpha z + (1 - alpha) a`` satisfies
    ``1/||z_new||^2 >= 1/||z||^2 + 1``.  When ``||z|| <= 1``, as for every
    convex combination of unit columns, and ``a^T z < ||z||^2``, alpha lies
    in [1/2, 1].  That covers the columns inside an oracle's tolerance
    band, ``0 < a^T z < ||z||^2``, which the solver still steps toward; such
    a step may raise ``1/||z||^2`` by less than 1.

    Returns
    -------
    (alpha, z_new)

    Raises
    ------
    InvariantViolated
        If ``||a - z|| < COINCIDENT_TOL``; cannot occur when ``a^T z <= 0``
        and ``||a|| = 1``.
    """
    diff = a - z
    denom = float(diff.dot(diff))
    if denom < COINCIDENT_TOL**2:
        raise InvariantViolated("incoming column coincides with the aggregate")
    alpha = float(a.dot(diff)) / denom
    # alpha z + (1 - alpha) a, the second product taking diff's buffer
    z_new = z * alpha
    z_new += np.multiply(a, 1.0 - alpha, out=diff)
    return alpha, z_new


# ---------------------------------------------------------------------------
# convex combination with bounded support


def smw_inverse_update(G: np.ndarray, u: np.ndarray,
                       e_idx: int) -> np.ndarray | None:
    """Update an inverse after adding ``u`` to one column of the base matrix.

    Given ``G = inv(B)``, returns ``inv(B + u e^T)`` where ``e`` is the
    ``e_idx``-th standard basis vector, via the rank-one identity

        inv(B + u e^T) = G - (G u) (e^T G) / (1 + e^T G u).

    Returns None when ``|1 + e^T G u|`` is below ``SMW_TOL * (1 +
    ||G||_inf ||u||_inf)``, i.e. the updated matrix is singular to working
    precision.
    """
    Gu = G.dot(u)
    denom = 1.0 + Gu[e_idx]
    # ||G||_inf as np.linalg.norm sums it, without the wrapper's checks;
    # |G| takes the buffer that becomes the result
    out = np.abs(G)
    scale = 1.0 + out.sum(axis=1).max() * abs(u).max()
    if abs(denom) < SMW_TOL * scale:
        return None
    # G - (Gu G[e_idx]^T) / denom, each step in that buffer
    np.multiply(Gu[:, None], G[e_idx], out=out)
    out /= denom
    return np.subtract(G, out, out=out)


def inverse_with_factorization(B: np.ndarray) -> np.ndarray | None:
    """Dense inverse of ``B``, or None when ``B`` is singular.

    ``np.linalg.inv`` solves against the identity from a pivoted LU
    factorization (LAPACK ``gesv``).  The last pivot ``u`` of that
    factorization satisfies ``max|inv(B)| >= 1/|u|``, so a matrix whose
    pivot falls below ``LU_PIVOT_TOL * max|B|`` is refused through the size
    of its inverse: the result is None when LAPACK meets an exact zero
    pivot or when ``max|inv(B)| * max|B| * LU_PIVOT_TOL >= 1`` (or is not a
    number).
    """
    B = np.asarray(B, dtype=float)
    try:
        G = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    size = np.max(np.abs(G), initial=0.0) * np.max(np.abs(B), initial=0.0)
    return G if size * LU_PIVOT_TOL < 1.0 else None


class ConvexCombination:
    """Convex combination of unit columns with at most m+1 terms.

    Maintains terms ``a_t`` with weights ``x_t >= 0`` and ``sum x_t = 1``
    alongside the aggregate ``z = sum x_t a_t``.  An insertion that makes
    ``m + 2`` terms is undone by one Caratheodory step (:meth:`_reduce`):
    along a null vector ``g`` of ``[A; 1^T]`` over all of them the weights
    move to ``x - theta g``, which keeps ``z`` and the weight sum, and the
    ratio test that picks ``theta`` empties one term, which leaves.

    ``G``, the inverse of ``[A; 1^T]`` over the first ``m + 1`` terms,
    gives that null vector at O(m^2) cost, and the incoming term takes the
    emptied slot so that ``G`` follows by one rank-one update.  ``G`` is
    rebuilt when the update degenerates or its residual grows.  When those
    terms are affinely dependent, so that no ``G`` exists, the null vector
    comes from an SVD instead.

    The support is kept as aligned arrays, position for position, each
    with room for a full support and the incoming term: ``basis``, the
    columns ``[a_t; 1]`` of a Fortran-ordered ``(m + 1, m + 2)`` buffer;
    ``weights``, the ``x_t``; ``scale_norms``, the ``||M^T c_t||`` of the
    map each term was built under; and the lists ``entries``, the
    witnessed columns ``c_t``, and ``keys``, the bytes of those columns.
    Every read of the support is a slice of these buffers and every update
    a single array operation.

    Terms are keyed by the bytes of their original column, since equal
    columns are one point of the hull: weight added on a column already in
    the support, under any witness, goes to that term, whose first witness
    names the column in a certificate.  Witnesses are never hashed, so a
    custom label may be any value.

    :meth:`minor_cycle` may empty one basis slot, leaving its term in
    place with weight 0 so that ``G`` stays the basis inverse; the next
    reduction gives that slot to the incoming term.
    """

    def __init__(self, m: int):
        self.m = m
        self.entries: list[WitnessedColumn] = []
        self.keys: list[bytes] = []
        self._basis = np.ones((m + 1, m + 2), order="F")
        self._w = np.zeros(m + 2)
        self._norms = np.empty(m + 2)
        self._ratios = np.empty(m + 2)  # _ratio_test's scratch
        self.z = np.zeros(m)
        self.G: np.ndarray | None = None
        self._reductions = 0
        self._vacant: int | None = None
        # the last certificate test's least-squares stage, keyed by its
        # terms' keys in entry order (_reweight_to_dual)
        self._lsq: tuple | None = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def basis(self) -> np.ndarray:
        """The columns ``[a_t; 1]`` of ``entries``, position for position."""
        return self._basis[:, : len(self.entries)]

    @property
    def weights(self) -> np.ndarray:
        """The weights ``x_t`` of ``entries``, position for position."""
        return self._w[: len(self.entries)]

    @property
    def scale_norms(self) -> np.ndarray:
        """The ``||M^T c_t||`` of ``entries``, position for position."""
        return self._norms[: len(self.entries)]

    def weight_sum(self) -> float:
        # summed in term order, not pairwise, so the bits are stable
        return float(sum(self.weights.tolist()))

    def combination(self) -> np.ndarray:
        # over Fortran-ordered columns the reduction adds the terms in
        # order, from 0, as ``out += x_t a_t`` would
        return np.add.reduce(self.basis[:-1] * self.weights, 1, initial=0.0)

    def basis_matrix(self) -> np.ndarray:
        """[A; 1^T] over the first m+1 terms (valid when G is present)."""
        return self._basis[:, : self.m + 1]

    def g_residual(self) -> float | None:
        if self.G is None:
            return None
        R = self.G @ self.basis_matrix() - np.eye(self.m + 1)
        return float(np.max(np.abs(R)))

    def scale_weights(self, alpha: float) -> None:
        self._w[: len(self.entries)] *= alpha

    # -- insertion and reduction ------------------------------------------

    def add_term(self, witnessed: WitnessedColumn, a_scaled: np.ndarray,
                 scale_norm: float, add_weight: float) -> None:
        """Add weight on a witnessed column, reducing past m+1 terms.

        Weight on a column bitwise equal to a term's adds to that term,
        which keeps its witness.
        """
        key = witnessed.column.tobytes()
        if key in self.keys:
            self._w[self.keys.index(key)] += add_weight
            return
        self._append(witnessed, a_scaled, scale_norm, add_weight, key)
        if len(self.entries) > self.m + 1:
            self._reduce()

    def _append(self, witnessed: WitnessedColumn, a_scaled: np.ndarray,
                scale_norm: float, weight: float, key: bytes) -> None:
        """Append a term under a ``key`` no term holds, without reducing."""
        n = len(self.entries)
        self._basis[:-1, n] = a_scaled
        self._w[n] = weight
        self._norms[n] = scale_norm
        self.entries.append(witnessed)
        self.keys.append(key)

    def _reduce(self) -> None:
        """Remove one of the ``m + 2`` terms along a null vector; keep ``z``.

        ``g`` combines the columns ``[a_t; 1]`` of all the terms to zero,
        with a nonnegative coefficient on the incoming (last) one: ``g =
        (-G (a_in; 1), 1)`` when ``G`` exists, else the last right singular
        vector, signed so.  The weights move to ``x - theta g`` with ``theta
        = min x_t / g_t`` over ``g_t > 0`` (the earliest term on ties): the
        largest step that keeps them nonnegative, which empties the
        blocking term ``t``.  A slot that :meth:`minor_cycle` emptied is
        taken with ``theta = 0``, whatever the sign of its ``g_t``.

        With ``G``, the incoming term takes slot ``t`` (or leaves, when it
        blocks) and ``G`` follows by one rank-one update with pivot ``g_t``.
        A pivot under ``max|g| / REFILL_PIVOT_RATIO`` magnifies the rounding
        error in ``G`` about that much, so the residual is checked at once,
        as it is every ``G_RECHECK_INTERVAL`` reductions; ``G`` is rebuilt
        when the update is singular or the residual is too large.  Without
        ``G``, term ``t`` is removed and the terms after it move up.

        No weight is dropped for being negligible:

        * a step scales the old weights by its ``alpha``, at least 1/2 in
          the solver (:func:`step_alpha`), so one step never takes a weight
          from sizeable to negligible; a weight that shrinks over many
          steps stays positive and meets the ratio test like any other;
        * ``x - theta g`` can leave only a rounding-size weight, on a term
          that nearly ties the blocking one.  The next ratio test removes
          that term, with ``theta <= 0`` if its weight came out negative,
          or its ``g_t <= 0`` makes the weight grow;
        * every artifact the solver returns is re-verified independently;
        * the guarantee tests check the support's size and weights as each
          reduction leaves it, which never relied on a drop.
        """
        k = self.m + 1
        if self.G is None:
            self.G = inverse_with_factorization(self.basis_matrix())
        if self.G is None:
            g = np.linalg.svd(self.basis)[2][-1]
            if g[-1] < 0.0:
                g = -g
        else:
            g = np.empty(k + 1)  # (G (a_in; 1), -1), then negated in place
            np.dot(self.G, self._basis[:, k], out=g[:k])
            g[k] = -1.0
            np.negative(g, out=g)
        w = self.weights
        vacant, self._vacant = self._vacant, None
        if vacant is not None and w[vacant] == 0.0:
            t, theta = vacant, 0.0
        else:
            t, theta = self._ratio_test(g)
        if theta > 0.0:
            w -= theta * g
        if self.G is None or t == k:
            for buf in (self._basis.T, self._w, self._norms):
                buf[t:k] = buf[t + 1 : k + 1]  # the later terms move up
            del self.entries[t], self.keys[t]
        else:
            u = self._basis[:, k] - self._basis[:, t]
            for buf in (self._basis.T, self._w, self._norms):
                buf[t] = buf[k]  # the incoming term takes slot t
            self.entries[t] = self.entries.pop()
            self.keys[t] = self.keys.pop()
            self.G = smw_inverse_update(self.G, u, t)
            if self.G is None \
                    or abs(g[t]) * REFILL_PIVOT_RATIO < abs(g).max():
                self._check_residual()
        self._reductions += 1
        if self.G is not None and self._reductions % G_RECHECK_INTERVAL == 0:
            self._check_residual()

    def _ratio_test(self, d: np.ndarray) -> tuple[int, float]:
        """``(t, theta)`` for ``theta = min x_t / d_t`` over ``d_t > 0``, the
        first ``t`` on ties; ``theta`` is infinite when no ``d_t`` is
        positive."""
        ratios = self._ratios[: d.size]
        ratios.fill(np.inf)
        np.divide(self.weights, d, out=ratios, where=d > 0.0)
        t = int(ratios.argmin())
        return t, float(ratios[t])

    def _check_residual(self) -> None:
        """Rebuild ``G`` unless it exists with a residual within
        ``G_RESIDUAL_TOL``."""
        if self.G is None or self.g_residual() > G_RESIDUAL_TOL:
            self.G = inverse_with_factorization(self.basis_matrix())

    def minor_cycle(self, z_norm: float, floor: float) -> float:
        """Wolfe's minor cycle: shrink ``z`` without an oracle call.

        ``lam = G e_{m+1}`` are the affine weights that combine the basis
        to zero.  The weights move to ``x + theta (lam - x)`` with ``theta
        = min x_t / (x_t - lam_t)`` over ``lam_t < x_t``, the largest step
        that keeps them nonnegative, so ``z`` becomes ``(1 - theta) z`` and
        the blocking term's weight reaches zero.  That term keeps its slot,
        so ``G`` stays valid until the next reduction refills it.
        Nothing changes unless the new ``||z||`` stays above ``floor``.

        Call only with exactly ``m + 1`` terms and ``G`` valid.  Returns
        ``||z||`` after the call.
        """
        lam = self.G[:, self.m]
        w = self.weights
        gap = w - lam
        t, theta = self._ratio_test(gap)
        if not (theta > 0.0 and (1.0 - theta) * z_norm > floor):
            return z_norm
        w -= theta * gap
        np.maximum(w, 0.0, out=w)  # rounding on ties with the blocking term
        w[t] = 0.0
        self.z = (1.0 - theta) * self.z
        self._vacant = t
        return (1.0 - theta) * z_norm

    def remapped(self, state: RescalingState) -> ConvexCombination:
        """This support's terms of positive weight under the map ``state``.

        Each term keeps its column ``c_t`` and its weight on it, ``x_t /
        ||M^T c_t||`` for the map ``M`` it was built under, so its new unit
        column is ``a'_t = M'^T c_t / ||M'^T c_t||`` and its new weight
        ``x'_t`` is proportional to ``x_t ||M'^T c_t|| / ||M^T c_t||``,
        normalized to sum 1.  The new aggregate ``z' = sum x'_t a'_t`` is
        ``M'^T`` times the old one's original-space combination, scaled,
        so it vanishes only when the old ``z`` did; then the result is
        empty.  Term order and keys are kept, so the terms are appended
        as they are, with no key lookup, ``G`` is rebuilt at the first
        reduction, and the last certificate test's least-squares stage
        goes along (:func:`_reweight_to_dual`).
        """
        out = ConvexCombination(self.m)
        terms = zip(self.entries, self.keys, self.scale_norms.tolist())
        for (e, key, old), x in zip(terms, self.weights.tolist()):
            if x > 0.0:
                a_scaled, nrm = state.normalize(e.column)
                out._append(e, a_scaled, nrm, x / old * nrm, key)
        out._lsq = self._lsq
        out._w[: len(out.entries)] /= out.weight_sum()
        out.z = out.combination()
        return out if out.z.any() else ConvexCombination(self.m)


# ---------------------------------------------------------------------------
# inner procedure


@dataclass
class BasicProcedureResult:
    """Outcome of one inner run against a fixed rescaling map.

    ``status`` is ``"feasible"`` (``y``, in the original space, passed the
    oracle, and ``verification`` is the accepted
    ``certify.verify_d_solution`` report on it), ``"dual"``
    (``certificate`` holds (witness, weight) pairs on the original columns
    that certify the alternative system, in the form of
    :attr:`prfeas.solver.SolveOutcome.weights`, and ``verification`` the
    accepted ``certify.verify_p_certificate`` report on them),
    ``"small_aggregate"`` (||z|| fell to ``mu/(m+1)``, or, once
    ``state.s > 0``, to ``mu x_h`` for the heaviest weight ``x_h``, and the
    support holds no certificate; the heaviest term indicates the
    contraction direction), or ``"stalled"`` (the oracle rejected ``M z``
    with a column that does not cut the aggregate, so no step can shrink
    ``z``).
    Only a decided run carries a ``verification``.  ``combination`` is
    the support as the run left it: empty when a run from ``M 1`` has its
    first query accepted, the remapped support when a warm run has.
    """

    status: str
    y: np.ndarray | None
    combination: ConvexCombination
    iterations: int
    oracle_calls: int
    certificate: list[tuple[Witness | WitnessedColumn, float]] | None = None
    verification: certify.VerificationReport | None = None


def _accepted_dual(
    instance: ProblemInstance, weights: list[tuple],
) -> tuple[list | None, certify.VerificationReport | None]:
    """``weights``, in the form of
    :attr:`prfeas.solver.SolveOutcome.weights` (a built-in witness alone,
    a ``CustomWitness`` inside its ``WitnessedColumn``), and their
    ``certify.verify_p_certificate`` report, or ``(None, None)`` when the
    report rejects them."""
    report = certify.verify_p_certificate(instance, weights)
    return (weights, report) if report.accepted else (None, None)


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson and Hanson's active-set NNLS: ``argmin ||A x - b||``, ``x >= 0``.

    The passive set ``P`` starts empty.  Each outer step moves into ``P``
    the index outside it with the largest gradient entry ``w = A^T (b - A
    x)`` and solves the least-squares problem over the columns in ``P``
    (``lstsq``, so a rank-deficient ``A`` is handled).  While that solution
    ``s`` has an entry in ``P`` at or below the tolerance, ``x`` moves
    toward ``s`` until the first such entry reaches zero, and every entry
    of ``x`` at or below the tolerance leaves ``P``; each pass empties one
    more, so this inner loop ends.  The outer loop stops when no ``w``
    outside ``P`` exceeds the tolerance ``10 eps ||A||_1 max(A.shape)``
    (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23), or
    after ``3 n`` steps.

    The result is nonnegative and zero off ``P``; it is a candidate that
    its callers verify, not a certificate by itself.
    """
    n = A.shape[1]
    tol = 10.0 * np.finfo(float).eps * np.linalg.norm(A, 1) * max(A.shape)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = A.T @ (b - A @ x)
        if passive.all() or not np.any(w[~passive] > tol):
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            low = passive & (s <= tol)
            if not low.any():
                break
            # an entry with x_j <= s_j (the one just moved in, at 0)
            # blocks the move at once
            gap = x[low] - s[low]
            ratios = np.divide(x[low], gap, out=np.zeros(gap.size),
                               where=gap > 0.0)
            x += ratios.min() * (s - x)
            x[np.flatnonzero(low)[np.argmin(ratios)]] = 0.0
            passive &= x > tol
        x = s
    return x


def _reweight_to_dual(
    instance: ProblemInstance, cc: ConvexCombination,
) -> tuple[list | None, certify.VerificationReport | None]:
    """The vanishing combination of the support, if any, as a certificate.

    Solves ``[a_hat_1 ... a_hat_k; 1 ... 1] x = e_{m+1}`` by least squares
    over the original normalized columns ``a_hat_t = a_t / ||a_t||``.  The
    atoms are the terms with ``|x_t|`` above ``ZERO_AGGREGATE_TOL`` times
    the largest ``|x_t|``: in exact arithmetic a certificate's weights are
    positive and the others zero, so an entry of rounding size is no
    atom, whatever its sign, and drops out; an antipodal pair among
    generic columns gets 1/2 on the pair and rounding elsewhere.  The
    test ends there when no atom is left or one is negative.  Otherwise
    the rescaled weights ``w_t = x_t ||M^T a_t|| / ||a_t||`` of the atoms,
    normalized to sum 1, must leave a rescaled aggregate of at most
    ``ZERO_AGGREGATE_TOL``; then the weights mapped back to the original
    columns, ``w_t / ||M^T a_t||``, and to the data as given, times
    ``2^-e_t`` for the exponent ``e_t`` of each witnessed column (and all
    times one power of two when the largest would leave the range), must
    pass ``certify.verify_p_certificate``.  That
    original-space test alone cannot tell a finite certificate from
    columns that only approach dependence: the closed semicircle's ``(1,
    4.4e-16)`` and ``(-1, 1.2e-16)`` give a residual of 3e-16 there, but
    mapped through ``M^T`` their combination stays far from zero.  A
    weight that is not positive and finite makes ``verify_p_certificate``
    raise ValueError.

    The support has at most ``m + 1`` terms, but they may be affinely
    dependent (SOCP supports on few cone blocks, the degenerate LP, the
    supports a warm run resumes); the system is then underdetermined and
    ``lstsq`` returns its minimum-norm solution, which can have a negative
    entry while a nonnegative one exists.  So when ``lstsq`` reports a
    rank below ``k`` and an ``x`` that is not positive, ``x`` is the same
    system's NNLS solution (:func:`_nnls`) instead.  A full-rank support
    has one solution, which never reaches the NNLS.  Returns the accepted
    pairs, in the outcome's form (:func:`_accepted_dual`), and their
    report, or ``(None, None)``; ``cc``'s terms and weights are left as
    they were either way.

    That first stage, ``x`` and the norms ``||a_t||``, depends on the
    ordered original columns alone, so it is kept on ``cc`` under the
    terms' keys, and
    :meth:`ConvexCombination.remapped` hands it to the next run: a test
    on the same columns in the same order reuses it, as LAPACK would give
    the same bits again, and only the tests after it see the new map.
    """
    key = tuple(cc.keys)
    if cc._lsq is None or cc._lsq[0] != key:
        k = len(key)
        cols = np.column_stack([e.column for e in cc.entries])
        norms = np.linalg.norm(cols, axis=0)
        A = np.vstack([cols / norms, np.ones(k)])
        rhs = np.zeros(cc.m + 1)
        rhs[-1] = 1.0
        x, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if rank < k and not np.all(x > 0.0):
            x = _nnls(A, rhs)
        cc._lsq = (key, x, norms)
    _, x, norms = cc._lsq
    keep = abs(x) > ZERO_AGGREGATE_TOL * abs(x).max()
    if not keep.any() or x[keep].min() < 0.0:
        return None, None
    terms = [e for e, kept in zip(cc.entries, keep.tolist()) if kept]
    scale_norms = cc.scale_norms[keep]
    w = x[keep] * scale_norms / norms[keep]
    w /= w.sum()
    z = np.ascontiguousarray(cc.basis[:-1, keep]) @ w
    if float(np.linalg.norm(z)) > ZERO_AGGREGATE_TOL:
        return None, None
    # the weights on the data as given, in exponent arithmetic, times one
    # power of two when the largest leaves the range: a certificate times
    # any positive factor is one
    mants, exps = np.frexp(w / scale_norms)
    exps -= [e.exponent for e in terms]
    x = np.ldexp(mants, exps - range_exponents(exps.max())).tolist()
    weights = [(e if isinstance(e.witness, CustomWitness) else e.witness, wt)
               for e, wt in zip(terms, x)]
    return _accepted_dual(instance, weights)


def basic_procedure(
    instance: ProblemInstance,
    state: RescalingState,
    support: ConvexCombination | None = None,
    scales: np.ndarray | None = None,
) -> BasicProcedureResult:
    """Drive the aggregate of rescaled columns toward zero.

    Without a ``support`` the run queries the oracle first at ``M 1``
    (the all-ones direction mapped through the dense map ``state.M``),
    then repeatedly at the mapped aggregate ``M z``; the first violated
    column becomes ``z``, with weight 1.  With one (the support the
    previous run ended on, under the map before its contraction) the run
    starts from it, remapped (:meth:`ConvexCombination.remapped`): each
    term ``c_t`` of positive weight gets the unit column ``M^T c_t /
    ||M^T c_t||`` and keeps its weight on ``c_t``, normalized to sum 1,
    and the first query is at ``M z`` for that support's ``z``.  When that
    ``z`` vanishes, which happens only when the old one did, the run
    starts at ``M 1`` instead: ``y = 0`` is no query.  Either way each
    violated column after ``z`` exists is an iteration, the minimum-norm
    step toward it, so a warm run steps at least once before its first
    exit test.  Every step increases ``1/||z||^2`` by at least 1 and a
    remapped ``z`` is still a convex combination of unit columns, so with
    the fixed ``mu = 1/sqrt(3m)`` one of two things happens within
    ``ceil((m+1)^2 / mu^2)`` iterations: the oracle accepts a query
    (feasible), or ``||z|| <= mu/(m+1)``.  Once ``state.s > 0`` the run
    also ends at ``||z|| <= mu x_h``, with ``x_h`` the largest of the
    weights: that bounds ``a_h^T y <= mu ||y||`` for every feasible ``y``
    (``x_h a_h^T y <= z^T y``), which is all the contraction along the
    heaviest term needs, and since ``x_h >= 1/(m+1)`` it never comes
    later.  At ``s = 0`` the run keeps to ``mu/(m+1)``: the first run's
    support, converged that far, is what the certificate tests below
    most often certify (the relaxed exit there took a planted sdp m=8
    n=20, seed 103, from 5 oracle calls to 58).

    After a step that leaves exactly ``m + 1`` terms with ``G`` valid, the
    run takes one minor cycle (:meth:`ConvexCombination.minor_cycle`),
    which scales ``z`` by ``1 - theta`` and empties one basis slot.  It is
    skipped unless ``||z|| > MINOR_CYCLE_GUARD mu/(m+1)``, tested before
    anything is computed, and unless the cycled ``||z||`` stays above that
    floor.  ``||z||`` only shrinks, so the iteration bound and the ``m + 1``
    support hold as before.  The guard exceeds 1, so no cycle reaches
    ``mu/(m+1)``, but once ``state.s > 0`` one may take ``||z||`` to ``mu
    x_h`` and so end the run.  The floor lies below ``||z|| <= 1`` at
    every ``m``, so cycles run at every size.

    That bound holds for any violated column, so the space a cut is
    ranked in is only a speed choice.  The built-in oracles return a deep
    cut where that is cheap:

    * FiniteLp: the column minimizing ``z^T a_hat_t`` with
      ``a_hat_t = M^T a_t / ||M^T a_t||``, the deepest cut in the
      rescaled space, at the ``scales`` given;
    * Sdp: the eigenvector of ``lambda_min(sum_i y_i A_i)``;
    * Socp: the violated cone block minimizing ``margin_b / ||A v_b||``
      at ``y = M z``, ranked on the instance's own Gram data in every
      run (rebuilding that of ``M^T A`` after each contraction cost more
      time than its picks saved);
    * CustomOracle: whatever violated column the callback returns.

    ``scales`` are the FiniteLp's rescaled column norms
    (:func:`prfeas.oracle.rescaled_scales`), passed to every query, which
    :func:`main_algorithm` updates after each contraction; without them
    a FiniteLp ranks at its own column norms.

    At either small-aggregate exit the run returns ``dual`` if the exact
    weights on the support (:func:`_reweight_to_dual`) pass the
    zero-aggregate test in both spaces: rescaled aggregate at most
    ``ZERO_AGGREGATE_TOL``, then ``certify.verify_p_certificate`` on the
    original columns, whose report the result carries.  Only the rescaled
    test rejects a support that is dependent in the original space to
    rounding alone, such as the nearly antipodal columns the closed
    semicircle offers after many contractions.  When those weights do
    not certify, an Sdp run tries the face step
    (:func:`prfeas.oracle.face_atoms`, which returns None for every other
    kind): the support's witness vectors span
    a face of the semidefinite cone, and the projection of the support's
    weighted witnesses onto the matrices in that face orthogonal to every
    ``A_i`` gives at most ``m + 1`` atoms when it stays positive definite.
    Those atoms too pass ``certify.verify_p_certificate``, with
    ``DUAL_RESIDUAL_TOL`` as for any dual, before the run returns
    ``dual``.  Otherwise it returns ``small_aggregate`` with the
    combination untouched.

    The only other exit that returns ``dual`` is a column that is exactly
    zero (a nonzero cone vector that the instance maps to zero), which
    ends the run at once with that witness at weight 1, accepted by the
    same ``verify_p_certificate``: no ``y`` satisfies ``0^T y > 0``, so
    that witness alone is the certificate.  Both dual exits hand back
    the pairs in the form of :attr:`prfeas.solver.SolveOutcome.weights`.

    A query that the oracle accepts ends the run with that direction,
    ``y = M z`` in the original space, once ``certify.verify_d_solution``
    has queried it again; that query counts in the run's
    ``oracle_calls``, and its report is the run's ``verification``.

    An oracle may reject a query within a tolerance band, as the Sdp
    oracle does for ``0 < lambda_min(X) <= 1e-12 max diag X``; its column
    then has a small positive margin.  When that margin reaches
    ``||z||^2`` the minimum-norm step would not move ``z``, and the run
    returns ``stalled`` instead of stepping.

    Raises
    ------
    InvariantViolated
        If the loop exceeds its proven bound; indicates an implementation
        defect rather than a property of the instance.
    OracleContractViolation
        If ``verify_d_solution`` rejects a direction the oracle accepted,
        or ``verify_p_certificate`` a zero column the oracle returned.
    """
    m = instance.m
    mu = 1.0 / math.sqrt(3.0 * m)
    bound = math.ceil((m + 1) ** 2 / mu**2) + 1
    small_threshold = mu / (m + 1)
    cycle_floor = MINOR_CYCLE_GUARD * small_threshold
    cc = ConvexCombination(m) if support is None else support.remapped(state)
    point = cc.z if cc.entries else np.ones(m)
    z_norm = math.sqrt(cc.z.dot(cc.z))
    oracle_calls = iterations = 0
    while True:
        oracle_calls += 1
        y = state.apply(point)
        w = query(instance, y, scales)
        if w is None:
            oracle_calls += 1
            report = certify.verify_d_solution(instance, y)
            if not report.accepted:
                raise OracleContractViolation("the final query rejected y")
            return BasicProcedureResult("feasible", y, cc, iterations,
                                        oracle_calls, verification=report)
        if cc.entries:
            iterations += 1
            if iterations > bound:
                raise InvariantViolated(
                    f"{iterations} iterations exceed the bound {bound}"
                )
        # count_nonzero is the cheapest exact test, ~4x faster than any()
        if not np.count_nonzero(w.column):
            pairs, report = _accepted_dual(instance, [(w.witness, 1.0)])
            if report is None:
                raise OracleContractViolation("the zero column was rejected")
            return BasicProcedureResult("dual", None, cc, iterations,
                                        oracle_calls, pairs, report)
        a_scaled, nrm = state.normalize(w.column)
        if not cc.entries:
            cc.add_term(w, a_scaled, nrm, 1.0)
            cc.z = a_scaled.copy()
        elif float(a_scaled.dot(cc.z)) >= z_norm**2:
            return BasicProcedureResult("stalled", None, cc, iterations,
                                        oracle_calls)
        else:
            alpha, z_new = step_alpha(cc.z, a_scaled)
            cc.scale_weights(alpha)
            cc.z = z_new
            cc.add_term(w, a_scaled, nrm, 1.0 - alpha)
        z_norm = math.sqrt(cc.z.dot(cc.z))
        if z_norm > cycle_floor and cc.G is not None \
                and len(cc.entries) == m + 1:
            z_norm = cc.minor_cycle(z_norm, cycle_floor)
        # after a contraction, ||z|| <= mu x_h is enough: it bounds the
        # slab a_h^T y <= mu ||y|| that the next contraction needs
        if z_norm <= small_threshold or state.s > 0 \
                and z_norm <= mu * float(cc.weights.max()):
            pairs, report = _reweight_to_dual(instance, cc)
            if report is None:
                # the weights mapped back to the original columns
                atoms = face_atoms(instance, cc.entries,
                                   cc.weights / cc.scale_norms)
                if atoms is not None:
                    pairs, report = _accepted_dual(instance, atoms)
            status = "small_aggregate" if report is None else "dual"
            return BasicProcedureResult(status, None, cc, iterations,
                                        oracle_calls, pairs, report)
        point = cc.z


# ---------------------------------------------------------------------------
# outer loop


@dataclass
class SolveCounters:
    """Inner runs, their iterations, oracle calls and contractions of a solve.

    This is the solver's only instrumentation.  Finer detail (per-step
    potentials, per-reduction invariants, timings) is observed from
    outside by wrapping the module's functions.
    """

    bp_calls: int = 0
    bp_iterations: int = 0
    oracle_calls: int = 0
    rescalings: int = 0


@dataclass
class SolveOutcome:
    """Result of a full solve.

    ``status`` is ``"feasible"`` (with ``y``), ``"dual_certificate"`` (with
    ``weights`` as (witness, x) pairs mapped back to the original columns),
    or ``"epsilon_declared"``.  A built-in witness stands alone; a
    :class:`CustomWitness` is kept inside its :class:`WitnessedColumn`,
    because only the column lets ``verify_p_certificate`` re-check it.
    ``epsilon`` is the declared bound actually certified, ``s_star`` the
    full contraction budget for the requested epsilon.  ``verification``
    embeds the re-check of the returned artifact.  Every field is a
    function of the instance and the requested epsilon alone.
    """

    status: str
    y: np.ndarray | None
    weights: list[tuple[Witness | WitnessedColumn, float]] | None
    epsilon: float
    s_star: int
    counters: SolveCounters
    verification: "certify.VerificationReport | None"


#: the outcome status of each inner-run status that decides the solve
_DECIDED = {"feasible": "feasible", "dual": "dual_certificate"}


def main_algorithm(
    instance: ProblemInstance,
    epsilon: float = 1e-6,
) -> SolveOutcome:
    """Decide feasibility, produce a dual certificate, or declare epsilon.

    Runs the inner procedure against a growing product of rank-one
    contractions and stops at the first decided run (``feasible`` or
    ``dual``), which carries a verification: each run verifies what it
    returns (:func:`basic_procedure`), a feasible ``y`` by a final oracle
    query, a dual certificate by ``verify_p_certificate``, and its ``y``
    or weights and that report become the outcome's.  After each
    contraction the next run starts from the support the last one ended
    on, with a FiniteLp's query scales under the new map, which
    :func:`prfeas.oracle.rescaled_scales` updates from the last run's.
    ``epsilon`` alone bounds the solve: it takes at most
    :func:`rescale_budget` inner runs, and a ``stalled`` run ends it
    early.  The declared epsilon is ``max(epsilon, (sqrt(e)/2)^s)`` for
    the ``s`` contractions completed: ``epsilon`` once the budget is
    spent, the larger bound they certify when a run stalled before.  The
    outcome is a :class:`prfeas.solver.SolveOutcome`, its counters a
    :class:`prfeas.solver.SolveCounters`, both reached through the module.

    Raises
    ------
    ConfigError
        If ``epsilon`` is outside (0, 1).
    OracleContractViolation
        If an oracle answer breaks its contract (:func:`prfeas.oracle.query`)
        or fails its re-check (:func:`basic_procedure`).
    InvariantViolated
        If a bound that the analysis proves fails in an inner run.
    """
    budget = rescale_budget(epsilon)
    state = RescalingState(instance.m)
    counters = SolveCounters()
    support = scales = None
    for _ in range(budget):
        result = basic_procedure(instance, state, support, scales)
        counters.bp_calls += 1
        counters.bp_iterations += result.iterations
        counters.oracle_calls += result.oracle_calls
        if result.status in _DECIDED:
            return SolveOutcome(_DECIDED[result.status], result.y,
                                result.certificate, epsilon, budget, counters,
                                result.verification)
        if result.status == "stalled":
            break
        # small aggregate: contract along the heaviest term's direction
        cc = result.combination
        # argmax takes the first maximum: the lowest index on ties
        a = cc.basis[:-1, np.argmax(cc.weights)]
        state.rescale(a)
        scales = rescaled_scales(instance, state.M, a, scales)
        counters.rescalings += 1
        support = cc

    certified = max(epsilon, (math.sqrt(math.e) / 2.0) ** counters.rescalings)
    return SolveOutcome("epsilon_declared", None, None, certified, budget,
                        counters, None)
