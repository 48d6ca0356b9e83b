"""Stationary distributions, mean first passage times, Kemeny's constant,
and the identity/inequality suite connecting them to the column sums.

Read-offs and conversions take and return plain arrays, for one chain or
a (..., m, m) stack; ``solve_chain`` computes each array once.

Conventions: M stores the mean recurrence time 1/pi_j on the diagonal, so
Kemeny's constant K = sum_j pi_j m_ij includes the diagonal term, equals
tr(Z), and is bounded below by (m+1)/2.  Column totals of M always mean
sums down a column (total expected time into a state), row totals sums
across a row (total expected time out of a state).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .chain import TransitionMatrix, column_sums
from .ginv import compute_h, compute_z, theorem2_residuals

#: Chains whose column sums deviate from 1 by less than this are treated as
#: doubly stochastic.
DOUBLY_STOCHASTIC_TOL = 1e-9

#: A row of ``residuals`` above this fails the verdict of ``mcsum verify``
#: (its default ``--tol-identity``) and is a hard failure in ``scan``.
IDENTITY_TOL = 1e-8


def stationary_from_h(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stationary vector as the column-sum combination pi^T = c^T H."""
    return (np.asarray(c)[..., None, :] @ h)[..., 0, :]


def mfpt_from_h(h: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Passage times from H:  m_ij = (h_jj - h_ij + delta_ij) / pi_j."""
    pi = np.asarray(pi, dtype=np.float64)
    eye = np.eye(h.shape[-1])
    return (h.diagonal(axis1=-2, axis2=-1)[..., None, :] - h + eye) / pi[..., None, :]


def kemeny_from_h(h: np.ndarray) -> float | np.ndarray:
    """K = 1 - 1/m + tr(H)."""
    return 1.0 - 1.0 / h.shape[-1] + h.trace(axis1=-2, axis2=-1)


def kemeny_from_z(z: np.ndarray) -> float | np.ndarray:
    """K = tr(Z)."""
    return z.trace(axis1=-2, axis2=-1)


def h_from_mfpt(mfpt: np.ndarray, pi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Reconstruct H from the passage times and column sums.

    H = (1/m) Pi + ((1/m) C - I)(M - M_d) Pi_d, i.e. elementwise
    h_jj = pi_j (1 + sum_{k != j} c_k m_kj) / m and
    h_ij = h_jj - pi_j m_ij off the diagonal.
    """
    mfpt = np.asarray(mfpt, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)[..., None, :]
    c = np.asarray(c, dtype=np.float64)
    m = mfpt.shape[-1]
    off = np.where(np.eye(m, dtype=bool), 0.0, mfpt)
    c_off = (c[..., None, :] @ off) / m  # every row of C (M - M_d) is c^T (M - M_d)
    return pi / m + (c_off - off) * pi


def identity_residuals(sol: ChainSolution) -> dict[str, float]:
    """Max-abs residuals of the passage-time/column-sum identity chain.

    The stationary-probability representations are evaluated in
    cross-multiplied form (pi_j * denominator - numerator), which is the
    same identity but immune to the 0/0 equality cases that the quotient
    forms hit on boundary chains.
    """
    p, h, pi, mfpt, c = sol.tm.p, sol.h, sol.pi, sol.mfpt, sol.c
    m = sol.tm.n

    m_d = mfpt.diagonal(axis1=-2, axis2=-1)
    col_totals = mfpt.sum(axis=-2)  # sum_i m_ij
    c_weighted = (c[..., None, :] @ mfpt)[..., 0, :]  # sum_i c_i m_ij
    off_totals = col_totals - m_d  # sum_{i != j} m_ij
    c_off = c_weighted - c * m_d  # sum_{i != j} c_i m_ij
    h_d = h.diagonal(axis1=-2, axis2=-1)

    return {
        "(I-P)M = E - P M_d": np.abs(
            (np.eye(m) - p) @ mfpt - 1.0 + p * m_d[..., None, :]
        ).max(axis=(-2, -1)),
        "m_.j - sum_i c_i m_ij = m - c_j m_jj": np.abs(
            (col_totals - c_weighted) - (m - c * m_d)
        ).max(axis=-1),
        "sum_i c_i m_ij = c_j m_jj - 1 + m h_jj m_jj": np.abs(
            c_weighted - (c * m_d - 1.0 + m * h_d * m_d)
        ).max(axis=-1),
        "m_.j = m - 1 + m h_jj m_jj": np.abs(
            col_totals - (m - 1.0 + m * h_d * m_d)
        ).max(axis=-1),
        "pi_j (m - m_.j + sum_i c_i m_ij) = c_j": np.abs(
            pi * (m - col_totals + c_weighted) - c
        ).max(axis=-1),
        "pi_j (m - sum_i!=j m_ij + sum_i!=j c_i m_ij) = 1": np.abs(
            pi * (m - off_totals + c_off) - 1.0
        ).max(axis=-1),
        "pi_j (1 + sum_i c_i m_ij) = c_j + m h_jj": np.abs(
            pi * (1.0 + c_weighted) - (c + m * h_d)
        ).max(axis=-1),
        "pi_j (1 + sum_i!=j c_i m_ij) = m h_jj": np.abs(
            pi * (1.0 + c_off) - m * h_d
        ).max(axis=-1),
        "pi_j (1 + m_.j - m) = m h_jj": np.abs(
            pi * (1.0 + col_totals - m) - m * h_d
        ).max(axis=-1),
        "pi_j (1 + sum_i!=j m_ij - m) = m h_jj - 1": np.abs(
            pi * (1.0 + off_totals - m) - (m * h_d - 1.0)
        ).max(axis=-1),
    }


@dataclass(frozen=True)
class BoundsReport:
    """Margins of the inequality suite; every margin is left minus right of
    a claimed >= (or > for the strict per-state bound), per chain of a stack."""

    kemeny: float
    kemeny_lower: float
    kemeny_margin: float
    trace_h: float
    trace_h_lower: float
    trace_h_margin: float
    trace_h_weak_lower: float
    trace_h_weak_margin: float
    pi_upper_margins: np.ndarray  # m h_jj - pi_j, strictly positive
    pi_lower_offdiag_margins: np.ndarray  # pi_j - 1/(m + sum_{i!=j} c_i m_ij)
    pi_lower_colsum_margins: np.ndarray  # pi_j - c_j/(1 + sum_i c_i m_ij)

    @property
    def worst_margin(self) -> float | np.ndarray:
        """The smallest margin of the suite; negative means a bound fails."""
        return np.min((
            self.kemeny_margin,
            self.trace_h_margin,
            self.trace_h_weak_margin,
            self.pi_upper_margins.min(axis=-1),
            self.pi_lower_offdiag_margins.min(axis=-1),
            self.pi_lower_colsum_margins.min(axis=-1),
        ), axis=0)


def bounds_check(sol: ChainSolution) -> BoundsReport:
    """Evaluate the Kemeny, trace and stationary-probability bounds."""
    h, pi, mfpt, c = sol.h, sol.pi, sol.mfpt, sol.c
    m = sol.tm.n
    h_d = h.diagonal(axis1=-2, axis2=-1)
    kemeny = kemeny_from_h(h)
    trace_h = h.trace(axis1=-2, axis2=-1)
    c_weighted = (c[..., None, :] @ mfpt)[..., 0, :]
    c_off = c_weighted - c * mfpt.diagonal(axis1=-2, axis2=-1)
    return BoundsReport(
        kemeny=kemeny,
        kemeny_lower=(m + 1) / 2.0,
        kemeny_margin=kemeny - (m + 1) / 2.0,
        trace_h=trace_h,
        trace_h_lower=(m - 1) / 2.0 + 1.0 / m,
        trace_h_margin=trace_h - ((m - 1) / 2.0 + 1.0 / m),
        trace_h_weak_lower=1.0 / m,
        trace_h_weak_margin=trace_h - 1.0 / m,
        pi_upper_margins=m * h_d - pi,
        pi_lower_offdiag_margins=pi - 1.0 / (m + c_off),
        pi_lower_colsum_margins=pi - c / (1.0 + c_weighted),
    )


def residuals(sol: ChainSolution) -> dict[str, float | np.ndarray]:
    """The verdict's table: every residual that ``verify`` and ``scan`` hold
    to IDENTITY_TOL, in ``verify``'s order, one value per chain of the stack.

    The rows are pi^T = c^T H, the column-sum total, ``theorem2_residuals``,
    ``identity_residuals`` and the negative part of the worst bound margin.
    """
    worst_margin = bounds_check(sol).worst_margin
    return {
        "c^T H = pi^T": np.abs(stationary_from_h(sol.h, sol.c) - sol.pi).max(axis=-1),
        "sum_j c_j = m": np.abs(sol.c.sum(axis=-1) - sol.tm.n),
        **theorem2_residuals(sol),
        **identity_residuals(sol),
        # 0.0, never -0.0, where no bound fails
        "inequality margins (negative part)": np.where(worst_margin < 0, -worst_margin, 0.0),
    }


@dataclass(frozen=True)
class DoublyStochasticReport:
    """Specialized checks for chains whose column sums are all one.

    ``applicable`` is False (and the residual fields None) when the maximum
    deviation of the column sums from 1 is at or above the detection
    threshold.
    """

    applicable: bool
    colsum_deviation: float
    pi_uniform_residual: float | None = None
    h_shift_residual: float | None = None
    col_total_vs_h_residual: float | None = None
    col_total_vs_z_residual: float | None = None
    row_total_vs_kemeny_residual: float | None = None
    grand_total_vs_kemeny_residual: float | None = None
    row_total_margins: np.ndarray | None = None  # m_i. - m(m+1)/2


def doubly_stochastic_report(sol: ChainSolution) -> DoublyStochasticReport:
    """Verify the uniform-stationary specializations when c = e.

    Checks pi = e/m, the constant shift H = Z + (1-m)/m^2 E, the column
    totals m_.j = m - 1 + m^2 h_jj = m^2 z_jj, the constant row totals
    m_i. = m K, the grand total K = m_../m^2, and the row-total floor
    m(m+1)/2.  Everything is read off the chain's existing solution.
    """
    deviation = float(np.abs(sol.c - 1.0).max())
    if deviation >= DOUBLY_STOCHASTIC_TOL:
        return DoublyStochasticReport(applicable=False, colsum_deviation=deviation)

    m = sol.tm.n
    pi, h, z, mfpt = sol.pi, sol.h, sol.z, sol.mfpt
    kemeny = kemeny_from_z(z)
    h_d = h.diagonal()
    col_totals = mfpt.sum(axis=0)
    row_totals = mfpt.sum(axis=1)
    return DoublyStochasticReport(
        applicable=True,
        colsum_deviation=deviation,
        pi_uniform_residual=float(np.abs(pi - 1.0 / m).max()),
        h_shift_residual=float(np.abs(h - z - (1.0 - m) / m**2).max()),
        col_total_vs_h_residual=float(np.abs(col_totals - (m - 1.0 + m**2 * h_d)).max()),
        col_total_vs_z_residual=float(np.abs(col_totals - m**2 * z.diagonal()).max()),
        row_total_vs_kemeny_residual=float(np.abs(row_totals - m * kemeny).max()),
        grand_total_vs_kemeny_residual=float(abs(kemeny - mfpt.sum() / m**2)),
        row_total_margins=row_totals - m * (m + 1) / 2.0,
    )


@dataclass(frozen=True)
class ChainSolution:
    """One chain's (or stack's) core arrays, computed once and shared; `cond`
    is the 1-norm condition number of I - P + e c^T."""

    tm: TransitionMatrix
    c: np.ndarray
    pi: np.ndarray
    h: np.ndarray
    z: np.ndarray
    mfpt: np.ndarray
    cond: float | np.ndarray


def solve_chain(tm: TransitionMatrix) -> ChainSolution:
    """Run the standard pipeline: column sums, pi (direct solver), H, Z, M.

    Z is inverted on its own, from the direct solver's pi, although it
    follows from H in O(m^2): so the ``fundamental`` Kemeny variant, the
    (1+m) row of ``theorem2_residuals`` and ``h_shift_residual`` check H
    against an independent route, and the Kemeny spread measures accuracy.
    """
    pi = oracle.stationary_direct(tm)
    h, cond = compute_h(tm)
    z = compute_z(tm, pi)
    mfpt = mfpt_from_h(h, pi)
    return ChainSolution(tm=tm, c=column_sums(tm), pi=pi, h=h, z=z, mfpt=mfpt, cond=cond)
