"""The column-sum generalized inverse H, the fundamental matrix Z, and the
group inverse, plus the conversions and structural identities tying them
together.

H = (I - P + e c^T)^{-1} where c is the column-sum vector of P; its rows sum
to 1/m and c^T H recovers the stationary vector.  Z = (I - P + e pi^T)^{-1}
is the classical fundamental matrix, and Z - e pi^T is the group inverse of
I - P.  Each matrix determines the others through rank-one corrections.

Both H and Z are inverted with LAPACK (``numpy.linalg.inv``) through one
helper, which also takes the 1-norm condition number ||A||_1 ||A^{-1}||_1
from the inverse in hand and refuses systems that are numerically singular.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chain import TransitionMatrix, column_sums
from .errors import SingularMatrix

if TYPE_CHECKING:
    from .analysis import ChainSolution

#: Inversions whose 1-norm condition number reaches this are refused: with
#: cond * eps above about 0.02 the inverse keeps fewer than two digits.
CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class ColsumInverse:
    """H together with the column-sum vector it was built from, and the
    1-norm condition number of I - P + e c^T when H came from inverting it."""

    h: np.ndarray
    c: np.ndarray
    cond: float | np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.h.shape[-1]


@dataclass(frozen=True)
class FundamentalMatrix:
    """Z together with the stationary vector it was built from."""

    z: np.ndarray
    pi: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[-1]


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


def compute_h(tm: TransitionMatrix) -> ColsumInverse:
    """Invert I - P + e c^T, keeping its condition number.

    Irreducibility guarantees nonsingularity in exact arithmetic;
    SingularMatrix from here means the chain is so close to reducible that
    the condition number reaches CONDITION_LIMIT.
    """
    h, cond = _invert(colsum_system(tm))
    return ColsumInverse(h=h, c=column_sums(tm), cond=cond)


def compute_z(tm: TransitionMatrix, pi: np.ndarray) -> FundamentalMatrix:
    """Invert I - P + e pi^T for a stationary vector from an independent solver."""
    pi = np.asarray(pi, dtype=np.float64)
    z, _ = _invert(np.eye(tm.n) - tm.p + pi[..., None, :])
    return FundamentalMatrix(z=z, pi=pi)


def group_inverse(zf: FundamentalMatrix) -> np.ndarray:
    """The group inverse of I - P: Z minus the rank-one stationary projector."""
    return zf.z - zf.pi[..., None, :]


def z_from_h(hc: ColsumInverse, pi: np.ndarray) -> FundamentalMatrix:
    """Convert H to Z:  Z = H + Pi - Pi H  with Pi = e pi^T."""
    pi = np.asarray(pi, dtype=np.float64)
    correction = pi - pi @ hc.h  # one row, broadcast down the column space
    return FundamentalMatrix(z=hc.h + np.tile(correction, (hc.n, 1)), pi=pi)


def h_from_z(zf: FundamentalMatrix, c: np.ndarray) -> ColsumInverse:
    """Convert Z to H:  H = Z + (1/m) Pi - (1/m) e c^T Z."""
    c = np.asarray(c, dtype=np.float64)
    m = zf.n
    correction = (zf.pi - c @ zf.z) / m
    return ColsumInverse(h=zf.z + np.tile(correction, (m, 1)), c=c)


def theorem2_residuals(sol: ChainSolution) -> dict[str, float]:
    """Max-abs residuals of the structural identities of H (and its link to Z).

    Row, column and element statements of the same matrix identity coincide
    as floating-point computations, so each distinct identity is reported
    once.  Every residual is read off the chain's existing solution; callers
    judge them against ``analysis.IDENTITY_TOL``.
    """
    p, h, z, c, pi = sol.tm.p, sol.hc.h, sol.zf.z, sol.c, sol.pi
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
