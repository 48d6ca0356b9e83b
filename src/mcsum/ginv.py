"""The column-sum generalized inverse H, and what reads the fundamental
matrix Z and the passage times off it.

H = (I - P + e c^T)^{-1} where c is the column-sum vector of P; its rows sum
to 1/m, c^T H recovers the stationary vector, and Kemeny's constant is
K = 1 - 1/m + tr(H).  Z = (I - P + e pi^T)^{-1} is the classical
fundamental matrix, which H determines through a rank-one correction, and
``mfpt_general`` reads the passage times off any one-condition inverse G of
I - P (Hunter).

Every function takes and returns plain arrays, for one chain or a
(..., m, m) stack.  ``compute_h`` is the one LAPACK inversion per chain: it
also yields the 1-norm condition number and refuses systems that are
numerically singular.  Z is read off H by ``z_from_h`` in O(m^2).
"""
from __future__ import annotations

import numpy as np

from .chain import TransitionMatrix, column_sums
from .errors import SingularMatrix

#: Inversions whose 1-norm condition number reaches this are refused: with
#: cond * eps above about 0.02 the inverse keeps fewer than two digits.
CONDITION_LIMIT = 1e14


def colsum_system(tm: TransitionMatrix) -> np.ndarray:
    """The nonsingular matrix I - P + e c^T whose inverse is H."""
    c = column_sums(tm)
    return np.eye(tm.n) - tm.p + c[..., None, :]


def compute_h(tm: TransitionMatrix) -> tuple[np.ndarray, float | np.ndarray]:
    """H = (I - P + e c^T)^{-1} and the 1-norm condition number of I - P + e c^T,
    per matrix; SingularMatrix on an exact zero pivot or a condition number that
    is non-finite or reaches CONDITION_LIMIT: the chain is numerically reducible."""
    a = colsum_system(tm)
    try:
        h = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is singular: {exc}") from None
    cond = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(h).sum(axis=-2).max(axis=-1)
    if not np.all(cond < CONDITION_LIMIT):  # written so that NaN is refused too
        raise SingularMatrix(
            f"condition number {np.max(cond):.3e} is not below {CONDITION_LIMIT:.0e}; "
            "matrix is numerically singular"
        )
    return h, cond


def mfpt_general(g: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Passage times from any one-condition inverse G of I - P.

    M = [G Pi - E (G Pi)_d + I - G + E G_d] D with D = diag(1/pi); the
    result is the same for every valid G.
    """
    g = np.asarray(g, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)[..., None, :]  # as a row
    gp = g.sum(axis=-1)[..., None] * pi  # G Pi = (G e) pi^T, rank one
    core = (gp - gp.diagonal(axis1=-2, axis2=-1)[..., None, :] + np.eye(g.shape[-1]) - g
            + g.diagonal(axis1=-2, axis2=-1)[..., None, :])
    return core / pi


def z_from_h(h: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Convert H to Z:  Z = H + Pi - Pi H  with Pi = e pi^T."""
    pi = np.asarray(pi, dtype=np.float64)
    return h + (pi - (pi[..., None, :] @ h)[..., 0, :])[..., None, :]
