"""Deterministic dense linear-algebra kernels of the support reduction.

The solver keeps the inverse of its basis matrix up to date with rank-one
updates and rebuilds it through a checked LU factorization.  All matrices
are dense float64 numpy arrays in C (row-major) order.  Every routine uses
a fixed operation order and no parallel reductions, so repeated calls on
identical inputs produce bit-identical results.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg


class SingularUpdate(Exception):
    """Rank-one column replacement would make the matrix singular."""


class Singular(Exception):
    """Linear system factorization met a negligible pivot."""


#: Relative threshold on the rank-one update denominator.
SMW_TOL = 1e-10

#: LU pivot threshold, relative to the largest absolute entry of the matrix.
LU_PIVOT_TOL = 1e-13


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
    """Dense inverse of ``B`` through a pivoted LU factorization.

    Parameters
    ----------
    B : ndarray, shape (k, k)

    Returns
    -------
    ndarray, shape (k, k)
        ``inv(B)``, solved from the LU factors against the identity.

    Raises
    ------
    Singular
        If any LU pivot is below ``LU_PIVOT_TOL * max|B|``.
    """
    B = np.asarray(B, dtype=float)
    scale = np.max(np.abs(B), initial=0.0)
    with warnings.catch_warnings():
        # zero pivots are reported through our own Singular check
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(B, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < LU_PIVOT_TOL * scale:
        raise Singular("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), np.eye(B.shape[0]),
                                 check_finite=False)
