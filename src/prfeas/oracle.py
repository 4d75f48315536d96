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
  rescaling map ``M``, which makes the pick the deepest cut
  ``argmin_t z^T (M^T a_t / ||M^T a_t||)`` at the rescaled point ``z``.
* :class:`Sdp` -- ``sum_i y_i A_i`` positive definite; witnesses are unit
  vectors ``v`` with ``v^T X v <= 0`` and the column is ``(v^T A_i v)_i``.
  The query returns the eigenvector of ``lambda_min(X)``, the most
  violated unit ``v``.
* :class:`Socp` -- ``A^T y`` interior to a product of second-order cones;
  witnesses are block-supported cone vectors and the column is ``A v``.
  The query returns the first violated block, found in one array pass
  over all blocks (:meth:`Socp.tail_norms`).
* :class:`CustomOracle` -- user callback, re-checked at every query.

Boundary convention: ``a_t^T y = 0`` counts as a violation, so ``None`` means
strict feasibility.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .linalg import certifying_cholesky

__all__ = [
    "InvalidQuery",
    "OracleContractViolation",
    "LpIndex",
    "SdpVector",
    "SocpVector",
    "CustomWitness",
    "Witness",
    "WitnessedColumn",
    "FiniteLp",
    "Sdp",
    "Socp",
    "CustomOracle",
    "ProblemInstance",
    "query",
    "lp_query",
    "sdp_query",
    "socp_query",
    "witness_to_json",
    "witness_from_json",
]

#: Scaled tolerance for the soundness check column^T y <= 0 at query return.
SOUNDNESS_TOL = 1e-12

#: Relative symmetry tolerance for Sdp constraint matrices.
SDP_SYMMETRY_TOL = 1e-12


class InvalidQuery(ValueError):
    """Query direction is zero, non-finite, or has the wrong dimension."""


class OracleContractViolation(RuntimeError):
    """An oracle returned a column that does not separate the queried point."""


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


@dataclass(frozen=True)
class LpIndex:
    """Witness for FiniteLp: 0-based column index."""

    i: int


@dataclass(frozen=True)
class SdpVector:
    """Witness for Sdp: unit vector v with v^T (sum_i y_i A_i) v <= 0."""

    v: tuple[float, ...]


@dataclass(frozen=True)
class SocpVector:
    """Witness for Socp: cone vector supported on the separating block."""

    v: tuple[float, ...]


@dataclass(frozen=True)
class CustomWitness:
    """Witness minted by a user oracle; the label is opaque to the solver."""

    label: object


Witness = Union[LpIndex, SdpVector, SocpVector, CustomWitness]


@dataclass(eq=False)
class WitnessedColumn:
    """A violated constraint: its coefficient column and identifying witness."""

    witness: Witness
    column: np.ndarray

    def __post_init__(self) -> None:
        self.column = np.asarray(self.column, dtype=float)
        if self.column.ndim != 1 or not np.any(self.column != 0.0):
            raise ValueError("witnessed column must be a nonzero vector")


@dataclass(frozen=True, eq=False)
class FiniteLp:
    """Finitely many constraint columns, stored as an (m, n) array.

    Column ``t`` of ``columns`` is the coefficient vector of constraint
    ``a_t^T y > 0``; ``column_norms`` holds the ``||a_t||``.
    """

    columns: np.ndarray
    column_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError("columns must be a nonempty (m, n) array")
        if not np.all(np.isfinite(cols)):
            raise ValueError("columns must be finite")
        if not np.all(np.any(cols != 0.0, axis=0)):
            raise ValueError("every constraint column must be nonzero")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "column_norms", np.linalg.norm(cols, axis=0))

    @property
    def m(self) -> int:
        return self.columns.shape[0]

    @property
    def n(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True, eq=False)
class Sdp:
    """Linear matrix inequality: sum_i y_i A_i positive definite.

    ``matrices`` is an (m, n, n) stack of symmetric coefficient matrices.
    """

    matrices: np.ndarray

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] == 0:
            raise ValueError("matrices must be a nonempty (m, n, n) stack")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrices must be finite")
        scale = np.max(np.abs(mats), initial=0.0)
        skew = np.max(np.abs(mats - mats.transpose(0, 2, 1)), initial=0.0)
        if skew > SDP_SYMMETRY_TOL * max(scale, 1.0):
            raise ValueError("constraint matrices must be symmetric")
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        object.__setattr__(self, "matrices", mats)

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True, eq=False)
class Socp:
    """Second-order cone interior constraint on x = A^T y.

    ``A`` is (m, n); ``blocks`` partitions the n coordinates of x into
    consecutive cones of positive integer sizes.  Within each block
    ``(x0, xt)`` feasibility means ``x0 > ||xt||``.  ``starts`` holds the
    index of each block's leading coordinate ``x0``.
    """

    A: np.ndarray
    blocks: tuple[int, ...]
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        blocks = tuple(strict_int(b, "block size") for b in self.blocks)
        if A.ndim != 2 or A.shape[0] == 0:
            raise ValueError("A must be a nonempty (m, n) array")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("blocks must be positive sizes")
        if sum(blocks) != A.shape[1]:
            raise ValueError("block sizes must sum to the column count of A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "starts",
                           np.cumsum((0,) + blocks[:-1], dtype=np.intp))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def block_slices(self) -> list[slice]:
        return [slice(int(s), int(s) + b)
                for s, b in zip(self.starts, self.blocks)]

    def block_slice(self, b: int) -> slice:
        """The coordinates of block ``b``."""
        start = int(self.starts[b])
        return slice(start, start + self.blocks[b])

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


@dataclass(frozen=True, eq=False)
class CustomOracle:
    """User-supplied separation callback over an index set of any shape.

    ``fn(y)`` must return a :class:`WitnessedColumn` violating ``y`` or
    ``None`` when ``y`` is strictly feasible.  Answers are re-checked on
    every query; an unsound answer raises OracleContractViolation.
    """

    m: int
    fn: Callable[[np.ndarray], WitnessedColumn | None] = field(repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")


ProblemInstance = Union[FiniteLp, Sdp, Socp, CustomOracle]


def _checked_direction(y: np.ndarray, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise InvalidQuery(f"query direction must have shape ({m},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidQuery("query direction must be finite")
    if not np.any(y != 0.0):
        raise InvalidQuery("query direction must be nonzero")
    return y


def _check_soundness(w: WitnessedColumn, y: np.ndarray) -> None:
    val = float(w.column @ y)
    tol = SOUNDNESS_TOL * (1.0 + np.linalg.norm(w.column) * np.linalg.norm(y))
    if val > tol:
        raise OracleContractViolation(
            f"returned column has positive inner product {val:.3e} with the query"
        )


def lp_query(instance: FiniteLp, y: np.ndarray,
             scales: np.ndarray | None = None) -> WitnessedColumn | None:
    """Return the most violated column after normalization, or None.

    Among the columns with ``a_t^T y <= 0`` this picks the argmin of
    ``a_t^T y / s_t``, taking the lowest index on ties.  ``scales`` holds
    one positive ``s_t`` per column and defaults to the column norms
    ``||a_t||``.
    """
    y = _checked_direction(y, instance.m)
    if scales is None:
        scales = instance.column_norms
    else:
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (instance.n,):
            raise InvalidQuery(f"scales must have shape ({instance.n},)")
    margins = y @ instance.columns
    bad = np.flatnonzero(margins <= 0.0)
    if bad.size == 0:
        return None
    t = int(bad[np.argmin(margins[bad] / scales[bad])])
    return WitnessedColumn(LpIndex(t), instance.columns[:, t].copy())


def sdp_query(instance: Sdp, y: np.ndarray) -> WitnessedColumn | None:
    """Factor sum_i y_i A_i; on failure return the most violated direction.

    When the certifying Cholesky factorization rejects ``X = sum_i y_i A_i``,
    the witness ``v`` is the unit eigenvector of ``lambda_min(X)``, signed
    so that its largest-magnitude entry is positive.  The returned column
    is ``c_i = v^T A_i v``, so ``c^T y = v^T X v = lambda_min(X) <= 0``.
    """
    y = _checked_direction(y, instance.m)
    X = np.tensordot(y, instance.matrices, axes=(0, 0))
    if certifying_cholesky(X).is_pd:
        return None
    v = np.linalg.eigh(X)[1][:, 0]
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    column = np.einsum("ijk,j,k->i", instance.matrices, v, v)
    return WitnessedColumn(SdpVector(tuple(v.tolist())), column)


def socp_query(instance: Socp, y: np.ndarray) -> WitnessedColumn | None:
    """Check every cone block of x = A^T y; witness the first violated one.

    All tail norms come from one :meth:`Socp.tail_norms` pass, and the
    first block with ``x0 <= ||xt||`` is taken.  Its witness vector
    carries ``(1, -xt/||xt||)`` on that block (or ``(1, 0, ...)`` when
    ``xt = 0``), with ``||xt||`` recomputed by ``np.linalg.norm``, and
    zeros on every other block; its column is ``A v``, with value
    ``v^T x = x0 - ||xt||  <= 0``.
    """
    y = _checked_direction(y, instance.m)
    x = instance.A.T @ y
    bad = np.flatnonzero(x[instance.starts] <= instance.tail_norms(x))
    if bad.size == 0:
        return None
    sl = instance.block_slice(int(bad[0]))
    tail = x[sl.start + 1 : sl.stop]
    tail_norm = float(np.linalg.norm(tail))
    v = np.zeros(instance.n)
    v[sl.start] = 1.0
    if tail_norm > 0.0:
        v[sl.start + 1 : sl.stop] = -tail / tail_norm
    return WitnessedColumn(SocpVector(tuple(v.tolist())), instance.A @ v)


def query(instance: ProblemInstance, y: np.ndarray,
          scales: np.ndarray | None = None) -> WitnessedColumn | None:
    """Dispatch a separation query and enforce the oracle contract.

    Returns ``None`` when ``y`` is strictly feasible for the instance,
    otherwise a sound :class:`WitnessedColumn`.  ``scales`` are the column
    scales of :func:`lp_query`; only a FiniteLp accepts them.

    Raises
    ------
    InvalidQuery
        If ``y`` is zero, non-finite, or mis-shaped, or ``scales`` is given
        for an instance that is not a FiniteLp.
    OracleContractViolation
        If the (custom) oracle's answer fails the separation check.
    """
    if isinstance(instance, FiniteLp):
        w = lp_query(instance, y, scales)
    elif scales is not None:
        raise InvalidQuery("column scales apply to FiniteLp instances only")
    elif isinstance(instance, Sdp):
        w = sdp_query(instance, y)
    elif isinstance(instance, Socp):
        w = socp_query(instance, y)
    elif isinstance(instance, CustomOracle):
        y = _checked_direction(y, instance.m)
        w = instance.fn(y)
        if w is not None:
            if not isinstance(w, WitnessedColumn):
                raise OracleContractViolation(
                    "custom oracle must return WitnessedColumn or None"
                )
            if w.column.shape != (instance.m,) or not np.all(np.isfinite(w.column)):
                raise OracleContractViolation(
                    "custom oracle column has wrong shape or non-finite entries"
                )
    else:
        raise TypeError(f"unknown instance type {type(instance).__name__}")
    if w is not None:
        _check_soundness(w, np.asarray(y, dtype=float))
    return w


def witness_to_json(w: Witness, column: np.ndarray | None = None) -> dict:
    """Serialize a witness to the JSON certificate encoding."""
    if isinstance(w, LpIndex):
        return {"type": "lp_index", "i": w.i}
    if isinstance(w, SdpVector):
        return {"type": "sdp_vector", "v": list(w.v)}
    if isinstance(w, SocpVector):
        return {"type": "socp_vector", "v": list(w.v)}
    if isinstance(w, CustomWitness):
        out = {"type": "custom", "label": w.label}
        if column is not None:
            out["column"] = [float(t) for t in column]
        return out
    raise TypeError(f"unknown witness type {type(w).__name__}")


def witness_from_json(obj: dict) -> tuple[Witness, np.ndarray | None]:
    """Parse the JSON certificate encoding; returns (witness, column-or-None)."""
    kind = obj.get("type")
    if kind == "lp_index":
        return LpIndex(strict_int(obj["i"], "column index")), None
    if kind == "sdp_vector":
        return SdpVector(tuple(float(t) for t in obj["v"])), None
    if kind == "socp_vector":
        return SocpVector(tuple(float(t) for t in obj["v"])), None
    if kind == "custom":
        column = obj.get("column")
        arr = None if column is None else np.asarray(column, dtype=float)
        return CustomWitness(obj.get("label")), arr
    raise ValueError(f"unknown witness type {kind!r}")
