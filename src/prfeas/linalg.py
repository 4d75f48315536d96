"""Deterministic dense linear-algebra kernels of the support reduction.

The solver keeps the inverse of its basis matrix up to date with rank-one
updates, rebuilds it with a checked dense inverse, and takes norms that do
not overflow.  Everything runs on numpy's own LAPACK.  All
matrices are dense float64 numpy arrays in C (row-major) order.  Every
routine uses a fixed operation order and no parallel reductions, so
repeated calls on identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math

import numpy as np


class SingularUpdate(Exception):
    """Rank-one column replacement would make the matrix singular."""


class Singular(Exception):
    """Matrix is singular to working precision."""


#: Relative threshold on the rank-one update denominator.
SMW_TOL = 1e-10

#: Smallest pivot accepted, relative to the largest absolute entry of the
#: matrix; an inverse with ``max|G| >= 1 / (LU_PIVOT_TOL max|B|)`` is refused.
LU_PIVOT_TOL = 1e-13


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v`` that does not overflow for finite entries.

    Returns ``sqrt(v @ v)``, bit for bit, whenever that square is finite.
    Only when it overflows and every entry is finite is ``v`` divided by
    ``max|v|`` before squaring, so vectors with entries near the float
    maximum keep a finite norm.
    """
    sq = float(v @ v)
    if sq < math.inf:
        return math.sqrt(sq)
    peak = float(np.max(np.abs(v), initial=0.0))
    if not peak < math.inf:
        return math.sqrt(sq)  # an infinite or NaN entry
    u = v / peak
    return peak * math.sqrt(u @ u)


def smw_inverse_update(G: np.ndarray, u: np.ndarray, e_idx: int) -> np.ndarray:
    """Update an inverse after adding ``u`` to one column of the base matrix.

    Given ``G = inv(B)``, returns ``inv(B + u e^T)`` where ``e`` is the
    ``e_idx``-th standard basis vector, via the rank-one identity

        inv(B + u e^T) = G - (G u) (e^T G) / (1 + e^T G u).

    Parameters
    ----------
    G : ndarray, shape (k, k)
        Inverse of the base matrix.
    u : ndarray, shape (k,)
        Increment added to column ``e_idx`` of the base matrix.
    e_idx : int
        Index of the modified column.

    Returns
    -------
    ndarray, shape (k, k)
        Inverse of the updated matrix.

    Raises
    ------
    SingularUpdate
        If ``|1 + e^T G u|`` is below ``SMW_TOL * (1 + ||G||_inf ||u||_inf)``,
        i.e. the updated matrix is singular to working precision.
    """
    Gu = G @ u
    denom = 1.0 + Gu[e_idx]
    scale = 1.0 + np.linalg.norm(G, np.inf) * np.max(np.abs(u), initial=0.0)
    if abs(denom) < SMW_TOL * scale:
        raise SingularUpdate(
            f"update denominator {denom:.3e} below {SMW_TOL * scale:.3e}"
        )
    return G - np.outer(Gu, G[e_idx]) / denom


def inverse_with_factorization(B: np.ndarray) -> np.ndarray:
    """Dense inverse of ``B``, refused when ``B`` is singular.

    ``np.linalg.inv`` solves against the identity from a pivoted LU
    factorization (LAPACK ``gesv``).  The last pivot ``u`` of that
    factorization satisfies ``max|inv(B)| >= 1/|u|``, so a matrix whose
    pivot falls below ``LU_PIVOT_TOL * max|B|`` is refused through the size
    of its inverse.

    Parameters
    ----------
    B : ndarray, shape (k, k)

    Returns
    -------
    ndarray, shape (k, k)
        ``inv(B)``.

    Raises
    ------
    Singular
        If LAPACK meets an exact zero pivot, or if
        ``max|inv(B)| * max|B| * LU_PIVOT_TOL >= 1`` (or is not a number).
    """
    B = np.asarray(B, dtype=float)
    try:
        G = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise Singular("matrix is singular") from None
    size = np.max(np.abs(G), initial=0.0) * np.max(np.abs(B), initial=0.0)
    if not size * LU_PIVOT_TOL < 1.0:
        raise Singular("matrix is singular to working precision")
    return G
