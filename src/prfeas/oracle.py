"""Separation oracles for homogeneous feasibility systems.

An instance describes a (possibly infinite) family of linear constraints
``a_t^T y > 0`` on directions ``y`` in R^m.  A query either certifies that a
given ``y`` satisfies every constraint strictly (returns ``None``) or
produces a :class:`WitnessedColumn`: a violated constraint's coefficient
column together with a witness identifying which constraint it is.

Built-in instance kinds, each with the violated constraint it selects:

* :class:`FiniteLp` -- finitely many explicit columns; the query returns
  the most violated column after normalization, ``argmin_t a_t^T y / s_t``
  over the violated ``t`` (lowest index on ties).  The scale ``s_t``
  defaults to ``||a_t||``; the solver passes ``||M^T a_t||`` for its
  rescaling map ``M`` (:func:`rescaled_scales`), which makes the pick the
  deepest cut ``argmin_t z^T (M^T a_t / ||M^T a_t||)`` at the rescaled
  point ``z``.  At the default scales, a FiniteLp of at least
  ``LP_SCREEN_MIN_ENTRIES`` entries is ranked from a float32 copy of its
  unit columns first, and in float64 only when a rounding-error bound
  leaves the pick open, which picks the same column.
* :class:`Sdp` -- ``sum_i y_i A_i`` positive definite; witnesses are unit
  vectors ``v`` with ``v^T X v <= 0`` and the column is ``(v^T A_i v)_i``.
  One symmetric eigendecomposition of ``X`` answers the query: it decides
  definiteness from ``lambda_min(X)`` and returns that eigenvalue's
  eigenvector, the most violated unit ``v``.
* :class:`Socp` -- ``A^T y`` interior to a product of second-order cones;
  witnesses are block-supported cone vectors and the column is ``A v``.
  The query returns the deepest violated block, ``argmin_b margin_b /
  ||A v_b||`` for the witness ``v_b`` of block ``b`` (lowest index on
  ties), scored for every block in one array pass over the block Gram
  entries of ``A`` (:meth:`Socp.cut_depths`).  Every query ranks on
  ``A``'s own Gram data, the rescaled solver's runs too: only a
  FiniteLp's scales follow the rescaling map.
* :class:`CustomOracle` -- user callback, re-checked at every query.

Boundary convention: ``a_t^T y = 0`` counts as a violation, so ``None`` means
strict feasibility.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

# the names prfeas re-exports; the rest are reached as prfeas.oracle.<name>
__all__ = [
    "ConfigError",
    "CustomOracle",
    "CustomWitness",
    "FiniteLp",
    "LpIndex",
    "OracleContractViolation",
    "Sdp",
    "SdpVector",
    "Socp",
    "SocpVector",
    "WitnessedColumn",
    "query",
]

#: Scaled tolerance for the soundness check column^T y <= 0 at query return.
SOUNDNESS_TOL = 1e-12

#: Relative symmetry tolerance for Sdp constraint matrices.
SDP_SYMMETRY_TOL = 1e-12

#: Sdp definiteness threshold on lambda_min(X), relative to max(diag(X), 0).
SDP_DEFINITENESS_TOL = 1e-12

#: Built-in instances store each unit of their data (an LP column, a SOCP
#: cone block, the SDP stack) with its largest magnitude in
#: ``[2^-RANGE_EXPONENT, 2^RANGE_EXPONENT)`` (:func:`in_range`), and
#: queries hand out custom columns so (:meth:`WitnessedColumn.in_range`).
#: Then no square, Gram entry or margin ``y^T a_t`` at the unit direction
#: that every query takes (``max|y_i| < 1``, :func:`unit_direction`) can
#: overflow, no square of a unit's largest entry underflows, and an
#: ``Sdp``'s ``sum_i y_i A_i`` at such a ``y`` stays below the ``2^485``
#: above which LAPACK's ``eigh`` rescales.  A unit near
#: the float maximum shifts by ``2^-640``, so its entries down to about
#: ``2^-382`` keep their bits.
RANGE_EXPONENT = 384

#: :func:`face_atoms` accepts a projected ``S`` with ``lambda_min(S)`` above
#: this multiple of ``lambda_max(S)``.
FACE_DEFINITENESS_TOL = 1e-9

#: :func:`lp_query` screens a FiniteLp in float32 (:func:`_screened_pick`)
#: only at the default scales and only when its columns hold at least this
#: many entries, 1 MiB of float64.  Below that the float64 product runs
#: from a 2 MiB L2 cache, and the screen's extra passes cost about what it
#: saves.  Per query on one 2 vCPU machine, exact and screened: m=10 n=200
#: 8.4 and 12.1 us, m=30 n=2000 19.5 and 17.6 us, m=60 n=5000 105 and
#: 46 us.  Queries with rescaled scales rank in float64 alone: screening
#: them too sped up only the gated LPs that contract at m = 60, by 2-7%
#: per solve, and slowed those at m <= 30 by 1-10%.
LP_SCREEN_MIN_ENTRIES = 2**17


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v`` that does not overflow for finite entries.

    The range is decided before anything is squared.  When every entry
    lies below ``2^500`` in magnitude, no square overflows, nor does their
    sum over fewer than ``2^24`` entries, and the result is ``sqrt(v @
    v)``, bit for bit, whenever that sum is a normal float.  Otherwise, when
    every entry is finite, ``v`` is multiplied by the power of two
    ``2^-e`` that brings ``max|v|`` into [1/2, 1) before squaring, so
    vectors with entries near the float maximum keep a finite norm, tiny
    ones an accurate one, and ``2^k v`` gets exactly ``2^k`` times the
    norm of ``v``.  An infinite or NaN entry gives an infinite or NaN norm
    on that path: ``frexp`` gives such a peak the exponent 0, so ``u`` is
    ``v`` and ``u @ u`` is infinite or NaN.
    """
    peak = float(abs(v).max(initial=0.0))
    if peak < 2.0**500:
        sq = float(v @ v)
        if sq >= 2.0**-1022:
            return math.sqrt(sq)
    e = math.frexp(peak)[1]
    u = np.ldexp(v, -e)
    return float(np.ldexp(math.sqrt(u @ u), e))


def range_exponents(e: np.ndarray) -> np.ndarray:
    """The range rule: for units whose largest magnitudes lie in ``[2^(e-1),
    2^e)`` (the exponents ``np.frexp`` gives), the exponents ``k`` such
    that each unit times ``2^-k`` has its largest magnitude just inside
    ``[2^-RANGE_EXPONENT, 2^RANGE_EXPONENT)``; 0 for a unit already
    inside.
    """
    return (np.maximum(e, RANGE_EXPONENT)
            + np.minimum(e, 1 - RANGE_EXPONENT) - 1)


def in_range(data: np.ndarray, peaks: np.ndarray, what: str,
             owner=Ellipsis) -> tuple[np.ndarray, np.ndarray]:
    """``(stored, exponents)`` for ``data`` under :func:`range_exponents`.

    ``peaks`` holds each unit's largest magnitude, and ``exponents[owner]``
    broadcasts against ``data``, so that ``data == np.ldexp(stored,
    exponents[owner])`` bit for bit: by default a unit is one entry of the
    last axis (an LP column), ``owner`` maps the last axis onto its units
    (the blocks of a SOCP), and a single peak makes all of ``data`` one
    unit (an SDP stack).  Data whose units are all in range is returned as
    it is, not copied.  Powers of two are exact unless an entry leaves the
    normal range, so a scaling that would round an entry (one far below
    its unit's largest) raises ValueError, as does a unit whose peak is
    not finite (``"{what} must be finite"``).
    """
    if not np.isfinite(peaks).all():
        raise ValueError(f"{what} must be finite")
    exps = range_exponents(np.frexp(peaks)[1])
    if not exps.any():
        return data, exps
    stored = np.ldexp(data, -exps[owner])
    if not np.array_equal(np.ldexp(stored, exps[owner]), data):
        raise ValueError("a unit whose largest entry lies outside the float "
                         "range holds entries too small to scale exactly")
    return stored, exps


class ConfigError(ValueError):
    """An invalid argument: the solver's epsilon or dimension m, or the
    kind, target or size of a planted instance."""


class OracleContractViolation(RuntimeError):
    """An oracle broke its contract: its answer is not a finite, nonzero
    :class:`WitnessedColumn` of shape ``(m,)`` that separates the query, or
    the re-check of what it answered fails."""


def strict_int(value: object, what: str) -> int:
    """Return ``value`` as an int if it is an integer or an integral float.

    Booleans, fractional or non-finite floats and every other type raise
    TypeError instead of being truncated by ``int()``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and math.isfinite(value) \
            and value.is_integer():
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _holds_bool(value: object) -> bool:
    """Whether ``value`` is a list or tuple with a bool among its entries
    or those of a list or tuple nested in it; one pass of ``map(type)``
    clears a row of numbers."""
    if not isinstance(value, (list, tuple)):
        return False
    kinds = set(map(type, value))
    return not kinds.isdisjoint((bool, np.bool_)) or (
        not kinds.isdisjoint((list, tuple)) and any(map(_holds_bool, value)))


def real_array(value: object, what: str) -> np.ndarray:
    """``value`` as a float array, taken from integer or float data alone.
    Complex data raise ValueError (``"{what} must be real"``): the
    conversion would take them to their real parts with only a warning.
    Any other kind, booleans, strings or objects among them, raises
    ValueError too (``"{what} must be numbers"``): the conversion would
    read ``True`` and ``"1"`` as 1.  So does a bool among numbers in a
    nested list or tuple (:func:`_holds_bool`), which the conversion
    would read as a number; an ndarray is not walked."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{what} must be real" if array.dtype.kind == "c"
                         else f"{what} must be numbers")
    return array.astype(float, copy=False)


@dataclass(frozen=True)
class LpIndex:
    """Witness for FiniteLp: 0-based column index, an integer
    (:func:`strict_int`; an integral float is taken as its int)."""

    i: int

    def __post_init__(self) -> None:
        # lp_query builds one per answer, from an int: that needs no check
        if type(self.i) is not int:
            object.__setattr__(self, "i", strict_int(self.i, "column index"))


@dataclass(frozen=True)
class SdpVector:
    """Witness for Sdp: unit vector v with v^T (sum_i y_i A_i) v <= 0."""

    v: tuple[float, ...]


@dataclass(frozen=True)
class SocpVector:
    """Witness for Socp: cone vector supported on the separating block.

    :func:`socp_query` keeps only the block it picked (:meth:`_on_block`)
    and builds the n entries of ``v`` when ``v`` is first read, so a solve
    that never writes a certificate never builds them; such a witness
    equals, hashes and prints as the same vector given whole.
    """

    v: tuple[float, ...]

    @classmethod
    def _on_block(cls, n: int, start: int, entries: np.ndarray) -> SocpVector:
        """The witness that is ``entries`` from ``start`` and 0 elsewhere
        among ``n`` coordinates, ``v`` not yet built."""
        witness = object.__new__(cls)
        object.__setattr__(witness, "_block", (n, start, entries))
        return witness

    def __getattr__(self, name: str):
        # reached only for an attribute not set, so ``v`` of _on_block
        block = self.__dict__.get("_block") if name == "v" else None
        if block is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        n, start, entries = block
        # the zeros off the block are padded in, not converted one by one
        v = (0.0,) * start + tuple(entries.tolist()) \
            + (0.0,) * (n - start - entries.size)
        object.__setattr__(self, "v", v)
        return v


@dataclass(frozen=True)
class CustomWitness:
    """Witness minted by a user oracle: any label; never hashed.

    The solver only carries the label into the certificate; the support
    identifies terms by their columns.
    """

    label: object


Witness = Union[LpIndex, SdpVector, SocpVector, CustomWitness]


@dataclass(eq=False)
class WitnessedColumn:
    """A violated constraint: its coefficient column and identifying witness.

    :func:`query` returns the column in range: as a built-in instance
    stores it (:func:`in_range`), and a custom oracle's under
    :meth:`in_range`; it is ``2^-exponent`` times the column as given.
    It keeps its own copy of ``column``, and :func:`query` hands the
    solver's support, which holds answers across queries, a new object
    (:meth:`in_range`), so a callback may write each answer into one
    array, and into one ``WitnessedColumn`` that it returns each time.
    """

    witness: Witness
    column: np.ndarray
    exponent: int = 0

    def __post_init__(self) -> None:
        self.column = real_array(self.column, "witnessed column").copy()
        # a cone vector that the instance maps to zero is a sound witness,
        # and alone a dual certificate; every other column must not vanish
        if self.column.ndim != 1 or not (
                isinstance(self.witness, (SdpVector, SocpVector))
                or self.column.any()):
            raise ValueError("witnessed column must be a nonzero vector")

    def in_range(self, m: int) -> WitnessedColumn:
        """A new column of this witness under the range rule, as one unit:
        this column when it is in range, else it times ``2^-k``
        (:func:`range_exponents`) with ``k`` added to the exponent.  Never
        ``self``, so a caller may rewrite this object once it has the new
        one.  This is the one check of a custom column, also of one that a
        callback rebound since construction: it must be real numbers of
        shape ``(m,)``, finite and, as at construction, one nonzero, else
        ValueError (TypeError for an object that numpy cannot take as
        numbers).  Unlike instance data the column is not kept, so
        an entry that the scaling rounds (one below about ``2^-1400``
        times the largest) is let round: no residual moves."""
        # a callback may have rebound the column since construction
        column = real_array(self.column, "witnessed column")
        # one peak decides finiteness and the range rule; a NaN peak fails
        # the test as inf does
        peak = np.maximum.reduce(abs(column)) \
            if column.shape == (m,) else math.nan
        if not peak < math.inf:
            raise ValueError("column has wrong shape or non-finite entries")
        e = math.frexp(peak)[1]
        # range_exponents gives 0 in range too, but its numpy scalar
        # arithmetic costs every custom query a few microseconds
        k = 0 if -RANGE_EXPONENT < e <= RANGE_EXPONENT \
            else int(range_exponents(e))
        column = np.ldexp(column, -k) if k else column
        # a column rewritten to zero since construction is rejected here
        return WitnessedColumn(self.witness, column, self.exponent + k)


@dataclass(frozen=True, eq=False)
class FiniteLp:
    """Finitely many constraint columns, stored as a C-ordered (m, n) array.

    Products such as ``y @ columns`` sum in memory order, so the columns
    are copied to C order when given in another: an instance solves to
    the same bits whatever order its caller's array had (a file's LP, read
    as rows of columns and transposed, is Fortran-ordered).  A C-ordered
    float64 array whose columns are all in range is kept as it is, not
    copied: the instance shares it with the caller, so it must not be
    changed after construction.

    Column ``t`` of ``columns`` is the coefficient vector of constraint
    ``a_t^T y > 0``, stored by the range rule (:func:`in_range`): a column
    whose largest magnitude lies outside ``[2^-RANGE_EXPONENT,
    2^RANGE_EXPONENT)`` is stored times ``2^-exponents[t]``, which brings
    it just inside, and every other column as given, with exponent 0.  A
    positive factor on a column changes neither the feasible ``y`` nor
    which columns a certificate combines, only its weight on that column,
    which the verifiers map back.  ``column_norms`` holds the norms of the
    stored columns.

    An instance with at least ``LP_SCREEN_MIN_ENTRIES`` entries also keeps
    a float32 copy of its unit columns ``a_t / ||a_t||``, half the storage
    of ``columns``, also C-ordered.  :func:`lp_query` builds it at its
    first query at the default scales and ranks such queries from it
    first (:func:`_screened_pick`).
    """

    columns: np.ndarray
    exponents: np.ndarray = field(init=False, repr=False)
    column_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cols = np.ascontiguousarray(real_array(self.columns, "columns"))
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError("columns must be a nonempty (m, n) array")
        peaks = np.max(np.abs(cols), axis=0, initial=0.0)
        cols, exps = in_range(cols, peaks, "columns")
        if not np.all(peaks > 0.0):
            raise ValueError("every constraint column must be nonzero")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "column_norms", np.linalg.norm(cols, axis=0))

    @property
    def m(self) -> int:
        return self.columns.shape[0]

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    def as_given(self) -> np.ndarray:
        """The columns as given: the stored ones times ``2^exponents``."""
        return np.ldexp(self.columns, self.exponents)

    @functools.cached_property
    def _unit32(self) -> np.ndarray:
        """The float32 unit columns, built at their first use, C-ordered
        from a 64-byte boundary, sliced from a buffer 64 bytes larger.
        numpy may place an array of this size at 16 mod 64, where sgemv
        reads it more slowly: per product on one 2 vCPU machine, m=60
        n=5000 17.0 us aligned and 20.4 us at 16 mod 64, m=30 n=2000 3.3
        and 4.7 us."""
        size = self.columns.size
        buffer = np.empty(size + 16, dtype=np.float32)
        skip = -buffer.ctypes.data % 64 // 4
        unit = buffer[skip : skip + size].reshape(self.columns.shape)
        # float64 quotients rounded to float32 in numpy's buffered cast,
        # with no (m, n) float64 temporary
        np.divide(self.columns, self.column_norms, out=unit, dtype=float)
        return unit

    def min_margin(self, y: np.ndarray) -> float:
        """The least margin ``a_t^T y`` of the columns as given, taken at
        the unit direction (:func:`unit_direction`)."""
        y, e = unit_direction(y, self.m)
        return float(np.ldexp(y @ self.columns, self.exponents + e).min())


@dataclass(frozen=True, eq=False)
class Sdp:
    """Linear matrix inequality: sum_i y_i A_i positive definite.

    ``matrices`` is an (m, n, n) stack of symmetric coefficient matrices,
    stored as one unit of the range rule (:func:`in_range`), as an LP
    column or a cone block is: times ``2^-exponent`` when its largest
    magnitude lies outside the range, as given otherwise.  A power of two
    scales ``X``, its eigenvalues and the witness columns exactly and
    leaves its eigenvectors as they are, so ``eigh`` picks the same
    witness.  One positive factor on the whole stack changes neither the
    feasible ``y`` nor the certificates.  A witness ``v``'s column is
    :meth:`column`, for the query and the verifier.
    """

    matrices: np.ndarray
    exponent: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mats = real_array(self.matrices, "matrices")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or 0 in mats.shape:
            raise ValueError("matrices must be a nonempty (m, n, n) stack")
        peak = np.max(np.abs(mats))
        mats, e = in_range(mats, peak, "matrices")
        # the tolerance is relative to max(max|A_i|, 1) for the data as
        # given, which the stored data holds times 2^-e
        skew = np.max(np.abs(mats - mats.transpose(0, 2, 1)))
        if skew > SDP_SYMMETRY_TOL * np.ldexp(max(peak, 1.0), -e):
            raise ValueError("constraint matrices must be symmetric")
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "exponent", int(e))

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def as_given(self) -> np.ndarray:
        """The matrices as given: the stored ones times ``2^exponent``."""
        return np.ldexp(self.matrices, self.exponent)

    def combination(self, y: np.ndarray) -> np.ndarray:
        """``X = sum_i y_i A_i`` for the stored matrices, one product with
        their ``(m, n^2)`` view."""
        return (y @ self.matrices.reshape(self.m, -1)).reshape(self.n, -1)

    def column(self, v: np.ndarray) -> np.ndarray:
        """The column ``(v^T A_i v)_i`` of a witness ``v`` for the stored
        matrices, one product of their ``(m, n^2)`` view, the one
        :meth:`combination` takes, with ``vec(v v^T)``: the query and the
        verifier form it here, so both get the same bits."""
        return self.matrices.reshape(self.m, -1) @ np.outer(v, v).ravel()

    def min_margin(self, y: np.ndarray) -> float:
        """``lambda_min(sum_i y_i A_i)`` for the matrices as given, taken
        at the unit direction (:func:`unit_direction`)."""
        y, e = unit_direction(y, self.m)
        X = self.combination(y)
        return float(np.ldexp(np.linalg.eigvalsh(X)[0], self.exponent + e))


@dataclass(frozen=True, eq=False)
class Socp:
    """Second-order cone interior constraint on x = A^T y.

    ``A`` is (m, n), stored C-ordered as :class:`FiniteLp` stores its
    columns, and like them not copied when it is C-ordered float64 with
    every block in range, so it must not be changed after construction;
    ``blocks`` partitions the n coordinates of x into
    consecutive cones of positive integer sizes.  Within each block
    ``(x0, xt)`` feasibility means ``x0 > ||xt||``.  ``starts`` holds the
    index of each block's leading coordinate ``x0``, and ``gram`` the
    block Gram data of the stored ``A``, which gives ``||A_b v_b||`` for
    every block ``b``, and which :func:`socp_query` ranks the violated
    blocks by (:meth:`cut_depths`).  It holds, one after the other:

    * for the blocks of at most ``m + 1`` coordinates, their Gram entries
      ``(A^T A)_{ij}``, ``i <= j`` in one block, those off the diagonal
      doubled (exactly), in the order of ``_pairs``: offset ``d = j - i``
      by offset, each from one product of ``A`` with itself shifted by
      ``d`` columns;
    * the columns of the wider blocks, an (m, k) array raveled: they hold
      the same quadratic form in ``m s`` numbers instead of ``s^2``.

    The stored ``A`` is in range (:func:`in_range`), so no product
    overflows.

    Each cone block of ``A`` is a unit of the range rule
    (:func:`in_range`): a block whose largest magnitude lies outside the
    range is stored times ``2^-exponents[b]``, every other one as given.
    A positive factor on one block changes neither which ``y`` are
    feasible nor the block's witnesses, only the weight a certificate puts
    on them, which the verifiers map back; and a power of two on a block
    changes no pick.  The blocks of ``A^T y`` are scaled by powers of two
    from their own entries when their squares could underflow
    (:meth:`image`).
    """

    A: np.ndarray
    blocks: tuple[int, ...]
    starts: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    exponents: np.ndarray = field(init=False, repr=False)
    # the block of each coordinate; the (i, j, block) of every pair i <= j
    # in one block of at most m + 1 coordinates, by offset j - i; the
    # wider blocks, their columns, and the offsets of those blocks within
    # their columns
    _owner: np.ndarray = field(init=False, repr=False)
    _pairs: np.ndarray = field(init=False, repr=False)
    _wide: np.ndarray = field(init=False, repr=False)
    _wide_cols: np.ndarray = field(init=False, repr=False)
    _wide_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        A = np.ascontiguousarray(real_array(self.A, "A"))
        # an int is taken as it is, as LpIndex takes one: strict_int's ABC
        # check costs 0.2 ms on the 385 blocks of a planted n = 1000
        blocks = tuple(b if type(b) is int else strict_int(b, "block size")
                       for b in self.blocks)
        if A.ndim != 2 or A.shape[0] == 0:
            raise ValueError("A must be a nonempty (m, n) array")
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("blocks must be positive sizes")
        if sum(blocks) != A.shape[1]:
            raise ValueError("block sizes must sum to the column count of A")
        starts = np.cumsum((0,) + blocks[:-1], dtype=np.intp)
        sizes = np.array(blocks, dtype=np.intp)
        owner = np.repeat(np.arange(sizes.size), sizes)
        peaks = np.maximum.reduceat(np.max(np.abs(A), axis=0), starts)
        A, exps = in_range(A, peaks, "A", owner)
        wide = sizes > A.shape[0] + 1
        # coordinates from i to the end of its block, none in a wide block
        ends = np.where(wide, 0, starts + sizes)
        reach = ends[owner] - np.arange(A.shape[1])
        # for each offset d, the coordinates i whose i + d lies in the same
        # block, and their Gram entries, from one product of A with itself
        # shifted by d columns
        diagonals = [np.flatnonzero(reach > d)
                     for d in range(int(reach.max()))]
        gram = [np.einsum("ki,ki->i", A[:, : A.shape[1] - d], A[:, d:])[i]
                * (2.0 if d else 1.0) for d, i in enumerate(diagonals)]
        rows = np.concatenate(diagonals + [np.empty(0, np.intp)])
        cols = rows + np.repeat(np.arange(len(diagonals)),
                                [i.size for i in diagonals])
        wide_cols = np.flatnonzero(wide[owner])
        fields = {
            "A": A, "blocks": blocks, "starts": starts, "exponents": exps,
            "gram": np.concatenate(gram + [A[:, wide_cols].ravel()]),
            "_owner": owner,
            "_pairs": np.stack([rows, cols, owner[rows]]),
            "_wide": np.flatnonzero(wide),
            "_wide_cols": wide_cols,
            "_wide_offsets": np.cumsum(sizes[wide]) - sizes[wide],
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def as_given(self) -> np.ndarray:
        """``A`` as given: each stored block times ``2^exponents[b]``."""
        return np.ldexp(self.A, self.exponents[self._owner])

    def block_slices(self) -> list[slice]:
        return [slice(int(s), int(s) + b)
                for s, b in zip(self.starts, self.blocks)]

    def block_slice(self, first: int, last: int) -> slice:
        """The coordinates of blocks ``first`` to ``last``, both included.

        A witness ``v``'s column is ``A[:, sl] @ v[sl]`` over the slice
        ``sl`` from its first nonzero block to its last: the block
        :func:`socp_query` picks, and the span
        :func:`prfeas.certify.resolve_witness_column` takes, so both get
        the same bits for a witness on one block.
        """
        return slice(int(self.starts[first]),
                     int(self.starts[last]) + self.blocks[last])

    def image(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """``x = A^T y``, for ``A`` as stored, as the oracle ranks it, the
        blocks' leading entries ``x0 = x[starts]``, their
        :meth:`tail_norms`, and one exponent ``e_b`` per block (None when
        every ``e_b`` is 0): block ``b`` of this ``x`` is that of ``A^T y``
        times ``2^-e_b``, so ``np.ldexp(x0_b - ||xt_b||, e_b)`` is the
        margin of ``A^T y``, bit for bit while both are normal floats.

        ``y`` is a unit direction (:func:`unit_direction`), ``max|y_i| <
        1``: with ``A`` stored in range, every entry of ``x`` lies below
        ``m 2^RANGE_EXPONENT``, so no square overflows.  Every ``e_b`` is 0
        unless some block has ``|x0_b|`` and ``||xt_b||`` both below
        ``2^-500`` (its squares may have underflowed).  Then each block of
        ``x`` is scaled by ``2^-e_b``, the power of two that brings its
        largest entry into [1/2, 1), and a square underflows only for an
        entry below ``2^-537`` times the block's largest, which changes
        neither whether the block is violated nor its margin.
        """
        x = self.A.T @ y
        tails = self.tail_norms(x)
        x0 = x[self.starts]
        if np.maximum(abs(x0), tails).min() > 2.0**-500:
            return x, x0, tails, None
        exps = np.frexp(np.maximum.reduceat(abs(x), self.starts))[1]
        x = np.ldexp(x, -exps[self._owner])
        return x, x[self.starts], self.tail_norms(x), exps

    def min_margin(self, y: np.ndarray) -> float:
        """The least block margin ``x0_b - ||xt_b||`` of ``x = A^T y``, for
        ``A`` as given, taken at the unit direction
        (:func:`unit_direction`).

        The least block's tail norm is retaken by :func:`vector_norm`, as
        the oracle's witness takes it, so the value keeps its bits
        whatever order :meth:`tail_norms` sums in.
        """
        y, e = unit_direction(y, self.m)
        x, x0, tails, exps = self.image(y)
        exps = self.exponents if exps is None else exps + self.exponents
        b = int(np.argmin(np.ldexp(x0 - tails, exps)))
        xb = x[self.block_slice(b, b)]
        return float(np.ldexp(xb[0] - vector_norm(xb[1:]), exps[b] + e))

    def tail_norms(self, x: np.ndarray) -> np.ndarray:
        """Per-block tail norms ``||xt_b||`` of a length-n vector, in one pass.

        The sums of squares may differ from ``np.linalg.norm`` of a block's
        tail in the last bit, because they are accumulated in another order.
        """
        sq = x * x
        sq[self.starts] = 0.0
        # reduceat sums sq[starts[b]:starts[b+1]]; an empty block would get
        # sq[starts[b]] instead of 0, which __post_init__ rules out
        return np.sqrt(np.add.reduceat(sq, self.starts))

    def cut_depths(self, x: np.ndarray, x0: np.ndarray, tails: np.ndarray,
                   exps: np.ndarray | None) -> np.ndarray:
        """``margin_b / ||A v_b||`` for every block, from one pass over the
        block Gram data ``gram``.

        ``x``, ``x0``, ``tails`` and ``exps`` are the scaled :meth:`image`
        of ``y``; ``margin_b = x0_b - ||xt_b||`` is taken back to the scale
        of ``A^T y``, and ``v_b = (1, -xt_b/||xt_b||)``, or ``(1, 0, ...)``
        for a zero tail.  ``||A v_b||^2 = sum_{i,j} v_i v_j (A^T A)_{ij}``
        is summed over each block's Gram entries ``i <= j`` by one
        ``bincount``; a wide block's ``A_b v_b`` is formed from its
        columns.  A block whose norm is zero (its column vanishes, which
        alone certifies the alternative) or not a number gets ``-inf``.
        """
        nb = len(self.blocks)
        inv = np.divide(-1.0, tails, out=np.zeros(nb), where=tails > 0.0)
        v = x * inv[self._owner]
        v[self.starts] = 1.0
        rows, cols, owner = self._pairs
        entries = self.gram[: rows.size]
        # bincount returns integers when there are no pairs, all blocks wide
        sq = np.bincount(owner, v[rows] * v[cols] * entries,
                         minlength=nb).astype(float, copy=False)
        if self._wide.size:
            Aw = self.gram[rows.size :].reshape(self.m, -1)
            Av = np.add.reduceat(Aw * v[self._wide_cols], self._wide_offsets,
                                 axis=1)
            sq[self._wide] = np.einsum("kb,kb->b", Av, Av)
        norms = np.sqrt(np.maximum(sq, 0.0))
        margins = x0 - tails
        if exps is not None:
            margins = np.ldexp(margins, exps)
        return np.divide(margins, norms, out=np.full(nb, -np.inf),
                         where=norms > 0.0)


@dataclass(frozen=True, eq=False)
class CustomOracle:
    """User-supplied separation callback over an index set of any shape.

    ``fn(y)`` must return a :class:`WitnessedColumn` violating ``y`` or
    ``None`` when ``y`` is strictly feasible.  :func:`query` hands it the
    unit direction of the query (:func:`unit_direction`), ``max|y_i|`` in
    [1/2, 1), so a sound answer must depend only on the ray of ``y``.
    Answers are re-checked on every query; an unsound answer raises
    OracleContractViolation.  ``m`` must be an integer
    (:func:`strict_int`), at least 1.
    """

    m: int
    fn: Callable[[np.ndarray], WitnessedColumn | None] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", strict_int(self.m, "m"))
        if self.m < 1:
            raise ValueError("m must be at least 1")


ProblemInstance = Union[FiniteLp, Sdp, Socp, CustomOracle]


def unit_direction(y: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """``(2^-e y, e)`` for a query direction ``y``, checked to be a real
    array (:func:`real_array`) of shape ``(m,)``, finite and nonzero:
    ``2^-e`` is the power of two that brings ``max|y_i|`` into [1/2, 1).

    Every query and margin is taken at this direction and mapped back by
    ``2^e``, a custom oracle's too: its callback is handed this direction.
    A sound answer depends only on the ray of ``y``, and a power of two
    scales every entry and margin exactly while it stays a normal float,
    so no witness changes while every entry of ``2^-e y`` is normal.  An
    entry below ``2^-1021 max|y_i|`` can lose bits there, and one below
    about ``2^-1074 max|y_i|`` becomes 0, which can change the answer for
    such a ``y``.  Every stored unit of a built-in instance, and every
    column that :func:`query` hands out, has entries below ``2^448``: data
    in range (below ``2^RANGE_EXPONENT``), or a SOCP's ``A_b v_b`` and an
    Sdp's ``v^T A_i v``, the product of the stack's ``(m, n^2)`` view
    with ``vec(v v^T)``: each weighs fewer than ``2^63`` such entries by
    entries of ``v_b`` or of ``vec(v v^T)``, all at most 1.  So at this
    direction no partial sum of a product with them overflows, whatever
    the size of ``y``.
    """
    y = real_array(y, "query direction")
    if y.shape != (m,):
        raise ValueError(f"query direction must have shape ({m},), got {y.shape}")
    # one pass decides both: a NaN peak fails the first test, as inf does;
    # the ufunc's reduce skips ndarray.max's Python wrapper, about 80 ns
    peak = np.maximum.reduce(abs(y))
    if not peak < math.inf:
        raise ValueError("query direction must be finite")
    if not peak > 0.0:
        raise ValueError("query direction must be nonzero")
    e = math.frexp(peak)[1]
    return np.ldexp(y, -e), e


def _check_soundness(w: WitnessedColumn, y: np.ndarray, k: int,
                     band: float = 0.0) -> WitnessedColumn:
    """``w`` once it has ``column^T y <= 0`` up to rounding and the
    oracle's ``band``.

    ``y`` is the unit direction (:func:`unit_direction`), ``2^-k`` times
    the query direction, so no partial sum of the product overflows.  The
    tolerance is taken times ``2^-k`` with it, and ``band`` is the
    oracle's at this ``y``.
    """
    # beyond 2^1023 the tolerance exceeds any product at a unit direction
    # (every column has entries below 2^448), so the factor stops there
    scale = math.ldexp(1.0, -k if k > -1024 else 1023)
    # ndarray.dot takes the same BLAS dot as @, without the ufunc's
    # overhead of about 0.7 us
    val = float(w.column.dot(y))
    # the second tolerance is at least the first, so the norms are taken
    # only for a column that comes that close
    if val > scale * SOUNDNESS_TOL + band and val > SOUNDNESS_TOL * (
            scale + vector_norm(w.column) * vector_norm(y)) + band:
        times = f" times 2^{k}" if k else ""
        raise OracleContractViolation(
            f"returned column has positive inner product {val:.3e}{times} "
            "with the query")
    return w


def lp_query(instance: FiniteLp, y: np.ndarray,
             scales: np.ndarray | None = None) -> WitnessedColumn | None:
    """Return the most violated column after normalization, or None.

    Among the columns with ``a_t^T y <= 0`` this picks the argmin of
    ``a_t^T y / s_t``, taking the lowest index on ties.  ``scales`` holds
    one positive ``s_t`` per column and defaults to the column norms
    ``||a_t||``.  The ranking runs at the unit direction
    (:func:`unit_direction`), so no margin overflows, whatever the size
    of ``y``.  Without ``scales``, an instance of at least
    ``LP_SCREEN_MIN_ENTRIES`` entries is ranked in float32 first
    (:func:`_screened_pick`), which decides most queries with the pick
    below; the float64 ranking (:func:`_exact_pick`) runs when it does
    not, and for every query with ``scales``.
    """
    y, e = unit_direction(y, instance.m)
    if scales is not None:
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (instance.n,):
            raise ValueError(f"scales must have shape ({instance.n},)")
    t = None
    if scales is None and instance.columns.size >= LP_SCREEN_MIN_ENTRIES:
        t = _screened_pick(instance, y)
    if t is None:
        t = _exact_pick(instance, y, scales)
    if t < 0:
        return None
    return _check_soundness(WitnessedColumn(
        LpIndex(t), instance.columns[:, t],
        int(instance.exponents[t])), y, e)


def _exact_pick(instance: FiniteLp, y: np.ndarray,
                scales: np.ndarray | None) -> int:
    """The index :func:`lp_query` picks at ``y`` in float64, or -1 for None.

    One argmin runs over all the ratios: when the least is negative, its
    column is violated and every column that is not has a ratio of at
    least 0, so it is the pick.  Only when no ratio is negative does the
    argmin run again with the columns that are not violated set to
    infinity, which tells a zero margin from a positive one whose ratio
    underflowed to 0.  A margin that is not a number counts as violated
    and ranks first; at ``max|y_i| < 1`` only stored columns that are not
    finite, which construction rejects, could give one.
    """
    margins = y @ instance.columns
    ratios = margins / (instance.column_norms if scales is None else scales)
    t = int(ratios.argmin())
    if not ratios[t] < 0.0:
        violated = ~(margins > 0.0)
        t = int(np.where(violated, ratios, np.inf).argmin())
        if not violated[t]:
            return -1
    return t


def _screened_pick(instance: FiniteLp, y: np.ndarray) -> int | None:
    """:func:`_exact_pick` at ``y`` and the default scales, decided from a
    float32 product, or None when that product does not decide it.

    ``y`` has ``max|y_i|`` in [1/2, 1), as :func:`lp_query` passes it.
    The instance's float32 copy holds ``u_t = fl32(a_t / n_t)`` for the
    stored columns ``a_t`` and their norms ``n_t`` (``column_norms``), and
    ``r_t = fl32(y)^T u_t``, summed in float32, estimates the exact ratio
    ``fl(fl(y^T a_t) / n_t)``.  For ``m < 2^20`` that ratio lies within

        B = K + 2^-1060,   K = (1 + 2^-20) (Y (g_m + 3 u) + m 2^-146)

    of ``r_t``, with ``u = 2^-24``, ``g_m = m u / (1 - m u)`` and ``Y``
    the computed ``||y||``.  With ``S_t = sum_i |y_i a_ti| / n_t``, at
    most ``||y|| (1 + 2^-32)``:

    * rounding ``y`` and ``a_t / n_t`` to float32 moves ``y^T a_t / n_t``
      by at most ``(2u + 2^-47) S_t``, plus ``m 2^-148`` from entries
      below float32's normal range;
    * the float32 sum adds at most ``g_m`` times its sum of absolute
      products, ``g_m (1 + 3u) S_t``, in any order (Higham, *Accuracy and
      Stability of Numerical Algorithms*, section 3.1), plus ``m 2^-148``
      for products that underflow;
    * the float64 product errs by at most ``g'_m S_t n_t``, ``g'_m`` the
      same for ``2^-53``, plus ``m 2^-1074``, and the division by one
      rounding;
    * for ``m < 2^20`` the relative terms other than ``g_m + 2u`` add up
      to less than ``0.8 u``; the float64 path's ``m 2^-1074 / n_t`` is
      at most ``m 2^-690``, as a stored column's norm is at least
      ``2^-384``; the other absolute terms, from underflow in the
      division and the two products, stay below ``2^-1062``; and the
      factor ``1 + 2^-20`` covers the rounding of ``K`` and ``B``.

    Rounding is monotone, so the computed ``[r_t - B, r_t + B]``
    encloses the exact ratio too.  The screen returns the column whose
    interval lies below 0 and strictly below every other interval: the
    exact argmin, unique and negative.  It returns -1 when every interval
    lies above 0, so every margin is positive.  Otherwise it returns None.
    """
    m = instance.m
    if m >= 2**20:
        return None
    r = y.astype(np.float32) @ instance._unit32
    u = 2.0**-24
    g = m * u / (1.0 - m * u)
    K = (1.0 + 2.0**-20) * (math.sqrt(y @ y) * (g + 3.0 * u) + m * 2.0**-146)
    B = K + 2.0**-1060
    # float32 -> float64 is exact and rounding is monotone, so
    # min_t fl(r_t - B) = fl(min_t r_t - B): the least r_t and the
    # runner-up decide, and only they are converted
    t = int(r.argmin())
    hi = float(r[t]) + B
    if not hi < 0.0:
        return -1 if float(r[t]) - B > 0.0 else None
    r[t] = np.inf
    return t if float(r.min()) - B > hi else None


def sdp_query(instance: Sdp, y: np.ndarray) -> WitnessedColumn | None:
    """Decide ``X = sum_i y_i A_i`` positive definite with one ``eigh``.

    ``X`` is accepted when ``lambda_min(X)`` exceeds ``SDP_DEFINITENESS_TOL
    * max(diag(X), 0)``; otherwise the witness ``v`` is the unit eigenvector
    of ``lambda_min(X)``, signed so that its largest-magnitude entry is
    positive.  The returned column is ``c_i = v^T A_i v``, so
    ``c^T y = v^T X v = lambda_min(X)``, formed by :meth:`Sdp.column`, as
    :func:`prfeas.certify.resolve_witness_column` forms it from the
    witness.  ``X`` is taken at the unit
    direction (:func:`unit_direction`), which scales it, its band and
    ``lambda_min(X)`` by a power of two and keeps ``X`` finite.
    """
    y, e = unit_direction(y, instance.m)
    X = instance.combination(y)
    eigvals, eigvecs = np.linalg.eigh(X)
    # lambda_min(X) in this band counts as not definite, and the column's
    # value c^T y = lambda_min(X) is accepted up to it
    band = SDP_DEFINITENESS_TOL * max(float(np.max(np.diag(X))), 0.0)
    if eigvals[0] > band:
        return None
    v = eigvecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return _check_soundness(WitnessedColumn(
        SdpVector(tuple(v.tolist())), instance.column(v), instance.exponent),
        y, e, band)


def socp_query(instance: Socp, y: np.ndarray) -> WitnessedColumn | None:
    """Check every cone block of x = A^T y; witness the deepest violated one.

    One :meth:`Socp.image` at the unit direction (:func:`unit_direction`)
    gives ``x``, the blocks' leading entries ``x0`` and tail norms, each
    once, scaling a block by a power of two where its squares would
    underflow, which scales its margin and tail norm exactly.
    Among the blocks with ``x0 <= ||xt||`` this picks the argmin of
    ``margin_b / ||A v_b||`` (:meth:`Socp.cut_depths`, from the same
    values and the instance's own Gram data, in every run of the solver),
    taking the lowest index on ties.  A depth that is not a number (its
    margin overflowed) ranks first.

    The witness vector carries ``(1, -xt/||xt||)`` on the picked block (or
    ``(1, 0, ...)`` when ``xt = 0``), with ``||xt||`` recomputed by
    :func:`vector_norm`, and zeros on every other block; its column is
    ``A v``, with value ``v^T x = x0 - ||xt||  <= 0``, formed from the
    picked block's columns alone as ``A_b v_b`` (:meth:`Socp.block_slice`),
    the product :func:`prfeas.certify.resolve_witness_column` takes over
    a witness on that one block.  The witness keeps only the block and
    builds its n entries when they are first read.
    """
    y, e = unit_direction(y, instance.m)
    x, x0, tails, exps = instance.image(y)
    violated = x0 <= tails
    if not violated.any():
        return None
    depths = instance.cut_depths(x, x0, tails, exps)
    depths[~violated] = np.inf
    b = int(np.argmin(depths))
    sl = instance.block_slice(b, b)
    tail = x[sl.start + 1 : sl.stop]
    tail_norm = vector_norm(tail)
    vb = np.zeros(sl.stop - sl.start)
    vb[0] = 1.0
    if tail_norm > 0.0:
        vb[1:] = -tail / tail_norm
    return _check_soundness(WitnessedColumn(
        SocpVector._on_block(instance.n, sl.start, vb),
        instance.A[:, sl] @ vb, int(instance.exponents[b])), y, e)


def query(instance: ProblemInstance, y: np.ndarray,
          scales: np.ndarray | None = None) -> WitnessedColumn | None:
    """Dispatch a separation query and enforce the oracle contract.

    Returns ``None`` when ``y`` is strictly feasible for the instance,
    otherwise a sound :class:`WitnessedColumn`.  ``scales`` are the column
    scales of :func:`lp_query`, which only a FiniteLp accepts.  Every
    oracle, a custom one's callback too, is queried at the unit direction
    of ``y`` (:func:`unit_direction`), and its answer's soundness is
    checked there, so no direction is scanned twice.

    Raises
    ------
    ValueError
        If ``y`` is complex, zero, non-finite, or mis-shaped, or ``scales``
        is mis-shaped or given for an instance other than a FiniteLp.
    OracleContractViolation
        If a custom oracle's answer is not a ``WitnessedColumn`` that
        passes :meth:`WitnessedColumn.in_range`, or any answer fails the
        separation check.
    """
    if isinstance(instance, FiniteLp):
        return lp_query(instance, y, scales)
    if scales is not None:
        raise ValueError("scales apply to FiniteLp instances only")
    if isinstance(instance, Socp):
        return socp_query(instance, y)
    if isinstance(instance, Sdp):
        return sdp_query(instance, y)
    if not isinstance(instance, CustomOracle):
        raise TypeError(f"unknown instance type {type(instance).__name__}")
    y, e = unit_direction(y, instance.m)
    w = instance.fn(y)
    if w is None:
        return None
    if not isinstance(w, WitnessedColumn):
        raise OracleContractViolation(
            "custom oracle must return WitnessedColumn or None"
        )
    try:
        w = w.in_range(instance.m)
    except (TypeError, ValueError) as exc:
        raise OracleContractViolation(f"custom oracle {exc}") from exc
    return _check_soundness(w, y, e)


def rescaled_scales(instance: ProblemInstance, M: np.ndarray, a: np.ndarray,
                    scales: np.ndarray | None) -> np.ndarray | None:
    """The ``scales`` that make :func:`query` pick the deepest cut in the
    space rescaled by the map ``M``, ``||M^T a_t||`` for every column of a
    FiniteLp, and None for every other instance: an Sdp's eigenvector
    does not depend on them, and a Socp ranks its blocks on ``A``'s own
    Gram data in every run (:func:`socp_query`).

    ``a`` is the unit of the map's last factor, ``M = M_0 (I - a a^T /
    2)``, and ``scales`` are those under ``M_0`` (None for ``M_0 = I``,
    the ``column_norms``), updated by one product, O(m n) instead of the
    O(m^2 n) rebuild: with ``p_t = (M_0 a)^T a_t = 2 (M a)^T a_t``,

        ||M^T a_t||^2 = ||M_0^T a_t||^2 - (3/4) p_t^2,

    in exact arithmetic at least a quarter of the old value, since ``|p_t|
    <= ||M_0^T a_t||``.  In floating point the difference cancels for a
    column along the contraction: at ``|p_t|`` near the old scale it
    multiplies the old scale's relative error by about 4, so contracting
    along one direction again and again can take the square below 0.  The
    new square is therefore kept at least a quarter of the old one, which
    keeps each scale within ``[old/2, old]``, positive and finite.  The
    scales only rank violated columns: their rounding can change which
    cut is picked, never what a run certifies.
    """
    if not isinstance(instance, FiniteLp):
        return None
    old = instance.column_norms if scales is None else scales
    p = 2.0 * ((M @ a) @ instance.columns)
    sq = old * old
    return np.sqrt(np.maximum(sq - 0.75 * (p * p), 0.25 * sq))


def face_atoms(
    instance: ProblemInstance, support: list[WitnessedColumn],
    weights: np.ndarray,
) -> list[tuple[SdpVector, float]] | None:
    """Atoms of a dual certificate on the face that an Sdp support spans.

    The alternative system of an Sdp is ``Y`` positive semidefinite with
    ``<A_i, Y> = 0`` for every ``i``; each witness ``v`` of ``support``
    gives the extreme ray ``v v^T``.  With ``Q`` an orthonormal basis of
    the span of those ``v_t`` (by SVD), ``S0 = Q^T (sum_t x_t v_t v_t^T)
    Q`` for the nonnegative ``weights`` ``x_t`` is projected, in the
    Frobenius metric, onto ``{S : <Q^T A_i Q, S> = 0 for every i}`` by one
    least-squares solve.  When the projection ``S`` keeps ``lambda_min(S)
    > FACE_DEFINITENESS_TOL * lambda_max(S)``, its eigenpairs ``(lambda_j,
    u_j)`` give the atoms: ``SdpVector(Q u_j)`` with weight ``lambda_j``, as
    many as the rank of the span, so at most ``len(support)``.  Returns
    None otherwise, and for every other instance kind; the caller must
    still verify the atoms.
    """
    if not isinstance(instance, Sdp):
        return None
    V = np.array([wc.witness.v for wc in support]).T
    U, sv, _ = np.linalg.svd(V, full_matrices=False)
    Q = U[:, : int(np.sum(sv > sv[0] * max(V.shape) * np.finfo(float).eps))]
    W = Q.T @ V
    s0 = ((W * (weights / np.max(weights))) @ W.T).ravel()
    B = (Q.T @ instance.matrices @ Q).reshape(instance.m, -1).T
    S = s0 - B @ np.linalg.lstsq(B, s0, rcond=None)[0]
    lam, vecs = np.linalg.eigh(S.reshape(W.shape[0], -1))
    if not lam[0] > FACE_DEFINITENESS_TOL * lam[-1]:
        return None
    return [(SdpVector(tuple(v.tolist())), x)
            for x, v in zip(lam.tolist(), (Q @ vecs).T)]
