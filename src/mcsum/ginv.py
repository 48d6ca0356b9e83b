"""The column-sum generalized inverse H, the fundamental matrix Z, and the
group inverse, plus the conversions and structural identities tying them
together.

H = (I - P + e c^T)^{-1} where c is the column-sum vector of P; its rows sum
to 1/m and c^T H recovers the stationary vector.  Z = (I - P + e pi^T)^{-1}
is the classical fundamental matrix, and Z - e pi^T is the group inverse of
I - P.  Each matrix determines the others through rank-one corrections.

Every function takes and returns plain arrays, for one chain or a
(..., m, m) stack.  H and Z are each one LAPACK inversion, which also yields
the 1-norm condition number (``compute_h`` returns H's) and refuses systems
that are numerically singular.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .chain import TransitionMatrix, column_sums
from .errors import SingularMatrix

if TYPE_CHECKING:
    from .analysis import ChainSolution

#: Inversions whose 1-norm condition number reaches this are refused: with
#: cond * eps above about 0.02 the inverse keeps fewer than two digits.
CONDITION_LIMIT = 1e14


def colsum_system(tm: TransitionMatrix) -> np.ndarray:
    """The nonsingular matrix I - P + e c^T whose inverse is H."""
    c = column_sums(tm)
    return np.eye(tm.n) - tm.p + c[..., None, :]


def _invert(a: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """LAPACK inverse of `a` and its 1-norm condition number, per matrix.

    Raises SingularMatrix when LAPACK meets an exact zero pivot, or when a
    condition number is non-finite or reaches CONDITION_LIMIT.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is singular: {exc}") from None
    cond = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    if not np.all(cond < CONDITION_LIMIT):  # written so that NaN is refused too
        raise SingularMatrix(
            f"condition number {np.max(cond):.3e} is not below {CONDITION_LIMIT:.0e}; "
            "matrix is numerically singular"
        )
    return inv, cond


def compute_h(tm: TransitionMatrix) -> tuple[np.ndarray, float | np.ndarray]:
    """H = (I - P + e c^T)^{-1} and the 1-norm condition number of I - P + e c^T.

    Irreducibility guarantees nonsingularity in exact arithmetic;
    SingularMatrix from here means the chain is so close to reducible that
    the condition number reaches CONDITION_LIMIT.
    """
    return _invert(colsum_system(tm))


def compute_z(tm: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    """Invert I - P + e pi^T for a stationary vector from an independent solver."""
    pi = np.asarray(pi, dtype=np.float64)
    return _invert(np.eye(tm.n) - tm.p + pi[..., None, :])[0]


def group_inverse(z: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The group inverse of I - P: Z minus the rank-one stationary projector."""
    return z - np.asarray(pi)[..., None, :]


def z_from_h(h: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Convert H to Z:  Z = H + Pi - Pi H  with Pi = e pi^T."""
    pi = np.asarray(pi, dtype=np.float64)
    return h + (pi - (pi[..., None, :] @ h)[..., 0, :])[..., None, :]


def h_from_z(z: np.ndarray, pi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Convert Z to H:  H = Z + (1/m) Pi - (1/m) e c^T Z."""
    pi, c = np.asarray(pi, dtype=np.float64), np.asarray(c, dtype=np.float64)
    return z + ((pi - (c[..., None, :] @ z)[..., 0, :]) / z.shape[-1])[..., None, :]


def theorem2_residuals(sol: ChainSolution) -> dict[str, float]:
    """Max-abs residuals of the structural identities of H (and its link to Z).

    Row, column and element statements of the same matrix identity coincide
    as floating-point computations, so each distinct identity is reported
    once.  Every residual is read off the chain's existing solution; callers
    judge them against ``analysis.IDENTITY_TOL``.
    """
    p, h, z, c, pi = sol.tm.p, sol.h, sol.z, sol.c, sol.pi
    m = sol.tm.n
    eye = np.eye(m)
    return {
        # (I - P) H = I - e pi^T: the row/column/element "stationary" forms
        "H - PH = I - e pi^T": float(np.abs(h - p @ h - eye + pi).max()),
        # H (I - P) = I - e c^T / m: the row/column/element "column sum" forms
        "H - HP = I - e c^T/m": float(np.abs(h - h @ p - eye + c / m).max()),
        "He = e/m": float(np.abs(h.sum(axis=1) - 1.0 / m).max()),
        "e^T H = e^T - (m-1) pi^T": float(np.abs(h.sum(axis=0) - 1.0 + (m - 1) * pi).max()),
        "(1+m) pi^T = m pi^T H + c^T Z": float(
            np.abs((1 + m) * pi - m * (pi @ h) - c @ z).max()
        ),
    }
