"""The column-sum generalized inverse H, everything read off it, and the
identity/inequality suite connecting it to the column sums.

H = (I - P + e c^T)^{-1} where c is the column-sum vector of P.
``compute_h`` is the one LAPACK inversion per chain, and yields the 1-norm
condition number; pi, M, K and the fundamental matrix
Z = (I - P + e pi^T)^{-1} are read off H in O(m^2).  Every threshold
refusal of a chain is made here: a condition number at or above
CONDITION_LIMIT, a stationary probability that is not positive, passage
times that overflow.

Read-offs and conversions take and return plain arrays, for one chain or
a (..., m, m) stack; ``solve_chain`` computes each array once.
``residuals`` (H's own rows and the bounds) and ``identity_residuals`` (the
passage-time rows) reduce dicts that write each row's formula beside its name.

Conventions: M stores the mean recurrence time 1/pi_j on the diagonal, so
Kemeny's constant K = sum_j pi_j m_ij includes the diagonal term, equals
1 - 1/m + tr(H), and is bounded below by (m+1)/2.  Column totals of M
always mean sums down a column (total expected time into a state), row
totals sums across a row (total expected time out of a state).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .chain import TransitionMatrix, column_sums
from .errors import SingularMatrix

#: Inversions whose 1-norm condition number reaches this are refused: with
#: cond * eps above about 0.02 the inverse keeps fewer than two digits.
CONDITION_LIMIT = 1e14

#: Chains whose column sums deviate from 1 by less than this are treated as
#: doubly stochastic.
DOUBLY_STOCHASTIC_TOL = 1e-9

#: A row above this fails the verdict of ``mcsum verify`` (its default
#: ``--tol-identity``); a row of ``residuals`` above it is a hard failure in ``scan``.
IDENTITY_TOL = 1e-8


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


def stationary_from_h(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Stationary vector as the column-sum combination pi^T = c^T H."""
    return (np.asarray(c)[..., None, :] @ h)[..., 0, :]


def mfpt_from_h(h: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Passage times from H:  m_ij = (h_jj - h_ij + delta_ij) / pi_j, built in one
    array: delta_ij through a strided view of its diagonal, the division in place."""
    pi = np.asarray(pi, dtype=np.float64)
    m = h.shape[-1]
    mfpt = h.diagonal(axis1=-2, axis2=-1)[..., None, :] - h
    mfpt.reshape(*mfpt.shape[:-2], m * m)[..., :: m + 1] += 1.0
    mfpt /= pi[..., None, :]
    return mfpt


def z_from_h(h: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Convert H to Z:  Z = H + Pi - Pi H  with Pi = e pi^T."""
    pi = np.asarray(pi, dtype=np.float64)
    return h + (pi - (pi[..., None, :] @ h)[..., 0, :])[..., None, :]


def kemeny_from_h(h: np.ndarray) -> float | np.ndarray:
    """K = 1 - 1/m + tr(H)."""
    return 1.0 - 1.0 / h.shape[-1] + h.trace(axis1=-2, axis2=-1)


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


#: The structural identities of H among RESIDUAL_ROWS.
THEOREM2_ROWS = ("H - PH = I - e pi^T", "H - HP = I - e c^T/m", "He = e/m",
                 "e^T H = e^T - (m-1) pi^T")

#: The rows of ``identity_residuals``: the paper's passage-time/column-sum
#: identity chain.
IDENTITY_ROWS = (
    "(I-P)M = E - P M_d", "m_.j - sum_i c_i m_ij = m - c_j m_jj",
    "sum_i c_i m_ij = c_j m_jj - 1 + m h_jj m_jj", "m_.j = m - 1 + m h_jj m_jj",
    "pi_j (m - m_.j + sum_i c_i m_ij) = c_j", "pi_j (m - sum_i!=j m_ij + sum_i!=j c_i m_ij) = 1",
    "pi_j (1 + sum_i c_i m_ij) = c_j + m h_jj", "pi_j (1 + sum_i!=j c_i m_ij) = m h_jj",
    "pi_j (1 + m_.j - m) = m h_jj", "pi_j (1 + sum_i!=j m_ij - m) = m h_jj - 1",
)

#: The rows of ``residuals``, in ``verify``'s order: H's own rows and the bounds.
RESIDUAL_ROWS = ("c^T H = pi^T", "sum_j c_j = m", *THEOREM2_ROWS,
                 "inequality margins (negative part)")


@dataclass(frozen=True)
class BoundsReport:
    """Margins of the inequality suite; every margin is left minus right of
    a claimed >= (or > for the strict per-state bound), per chain of a stack.
    As K = 1 - 1/m + tr H, ``kemeny_margin`` is also the margin of the trace
    bound tr H >= (m-1)/2 + 1/m, which implies the weaker tr H >= 1/m."""

    kemeny_margin: float  # K - (m+1)/2
    pi_upper_margins: np.ndarray  # m h_jj - pi_j, strictly positive
    pi_lower_offdiag_margins: np.ndarray  # pi_j - 1/(m + sum_{i!=j} c_i m_ij)
    pi_lower_colsum_margins: np.ndarray  # pi_j - c_j/(1 + sum_i c_i m_ij)

    @property
    def worst_margin(self) -> float | np.ndarray:
        """The smallest margin of the suite; negative means a bound fails."""
        per_state = (self.pi_upper_margins, self.pi_lower_offdiag_margins,
                     self.pi_lower_colsum_margins)
        return np.minimum(self.kemeny_margin, np.concatenate(per_state, axis=-1).min(axis=-1))


def bounds_check(sol: ChainSolution) -> BoundsReport:
    """Evaluate the Kemeny and stationary-probability bounds."""
    pi, c, m = sol.pi, sol.c, sol.tm.n
    return BoundsReport(
        kemeny_margin=kemeny_from_h(sol.h) - (m + 1) / 2.0,
        pi_upper_margins=m * sol.h_diag - pi,
        pi_lower_offdiag_margins=pi - 1.0 / (m + sol.c_off),
        pi_lower_colsum_margins=pi - c / (1.0 + sol.c_weighted),
    )


def _h_minus(h: np.ndarray, prod: np.ndarray, row: np.ndarray) -> np.ndarray:
    """h - prod - I + e row^T written over `prod`, rounded as that expression."""
    np.subtract(h, prod, out=prod)
    prod.reshape(*prod.shape[:-2], -1)[..., :: prod.shape[-1] + 1] -= 1.0
    prod += row[..., None, :]
    return prod


def _h_errors(sol: ChainSolution) -> dict[str, np.ndarray]:
    """Each RESIDUAL_ROWS row's unreduced error by name: a fresh (..., m, m)
    matrix, which ``_max_abs`` overwrites, a (..., m) vector or a (..., 1) scalar
    per chain.  The row, column and element forms of a matrix identity are one row."""
    p, h, pi, c, m = sol.tm.p, sol.h, sol.pi, sol.c, sol.tm.n
    worst_margin = bounds_check(sol).worst_margin  # before the rows: its temporaries go first
    return {
        "c^T H = pi^T": stationary_from_h(h, c) - pi,
        "sum_j c_j = m": c.sum(axis=-1, keepdims=True) - m,
        # (I - P) H = I - e pi^T: the row/column/element "stationary" forms
        "H - PH = I - e pi^T": _h_minus(h, p @ h, pi),
        # H (I - P) = I - e c^T / m: the row/column/element "column sum" forms
        "H - HP = I - e c^T/m": _h_minus(h, h @ p, c / m),
        "He = e/m": h.sum(axis=-1) - 1.0 / m,
        "e^T H = e^T - (m-1) pi^T": h.sum(axis=-2) - 1.0 + (m - 1) * pi,
        # the negative part; its absolute value is 0.0, never -0.0, where no bound fails
        "inequality margins (negative part)": np.fmin(worst_margin, 0.0)[..., None],
    }


def _identity_errors(sol: ChainSolution) -> dict[str, np.ndarray]:
    """Each IDENTITY_ROWS row's unreduced error by name, as in ``_h_errors``.  The
    pi_j rows are cross-multiplied (pi_j * denominator - numerator), immune to
    the 0/0 cases of the quotient forms on boundary chains."""
    p, mfpt, pi, c, m = sol.tm.p, sol.mfpt, sol.pi, sol.c, sol.tm.n
    m_d, h_d, col_totals, c_weighted, c_off = (
        sol.m_diag, sol.h_diag, sol.col_totals, sol.c_weighted, sol.c_off)
    off_totals = col_totals - m_d  # sum_{i != j} m_ij
    return {
        "(I-P)M = E - P M_d": (np.eye(m) - p) @ mfpt - 1.0 + p * m_d[..., None, :],
        "m_.j - sum_i c_i m_ij = m - c_j m_jj": (col_totals - c_weighted) - (m - c * m_d),
        "sum_i c_i m_ij = c_j m_jj - 1 + m h_jj m_jj": c_weighted - (c * m_d - 1.0 + m * h_d * m_d),
        "m_.j = m - 1 + m h_jj m_jj": col_totals - (m - 1.0 + m * h_d * m_d),
        "pi_j (m - m_.j + sum_i c_i m_ij) = c_j": pi * (m - col_totals + c_weighted) - c,
        "pi_j (m - sum_i!=j m_ij + sum_i!=j c_i m_ij) = 1": pi * (m - off_totals + c_off) - 1.0,
        "pi_j (1 + sum_i c_i m_ij) = c_j + m h_jj": pi * (1.0 + c_weighted) - (c + m * h_d),
        "pi_j (1 + sum_i!=j c_i m_ij) = m h_jj": pi * (1.0 + c_off) - m * h_d,
        "pi_j (1 + m_.j - m) = m h_jj": pi * (1.0 + col_totals - m) - m * h_d,
        "pi_j (1 + sum_i!=j m_ij - m) = m h_jj - 1": pi * (1.0 + off_totals - m) - (m * h_d - 1.0),
    }


def _max_abs(errors: dict[str, np.ndarray], rows: tuple[str, ...], label: str,
             sol: ChainSolution) -> np.ndarray:
    """Each error's max-abs as one (rows, ...) array; RuntimeError unless they are
    named `rows` (the tuple `label`) in order.  A matrix is reduced in place, with
    no stacked copy; the vectors and scalars in one reduction with their state
    axis first, as numpy reduces one long axis far faster than many short."""
    if tuple(errors) != rows:
        raise RuntimeError(f"residual formulas are named {tuple(errors)}, not {label}")
    matrix = np.array([e.ndim > sol.c.ndim for e in errors.values()])
    table = np.empty((len(errors), *sol.c.shape[:-1]))
    for r, (e, is_matrix) in enumerate(zip(errors.values(), matrix)):
        if is_matrix:
            table[r] = np.abs(e, out=e).max(axis=(-2, -1))
    vectors = np.empty((sol.tm.n, np.count_nonzero(~matrix), *sol.c.shape[:-1]))
    by_row = vectors.transpose(*range(1, vectors.ndim), 0)  # the rows, the state axis last
    for k, e in enumerate(e for e, is_matrix in zip(errors.values(), matrix) if not is_matrix):
        by_row[k] = e  # a scalar row fills its chain's states
    table[~matrix] = np.abs(vectors, out=vectors).max(axis=0)
    return table


def residuals(sol: ChainSolution) -> np.ndarray:
    """The verdict's table, which ``verify`` and ``scan`` hold to IDENTITY_TOL:
    H's own rows and the bounds, as one (rows, ...) array named by RESIDUAL_ROWS."""
    return _max_abs(_h_errors(sol), RESIDUAL_ROWS, "RESIDUAL_ROWS", sol)


def identity_residuals(sol: ChainSolution) -> np.ndarray:
    """``verify``'s passage-time rows, as one (rows, ...) array named by IDENTITY_ROWS."""
    return _max_abs(_identity_errors(sol), IDENTITY_ROWS, "IDENTITY_ROWS", sol)


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
    col_total_vs_h_residual: float | None = None
    row_total_vs_kemeny_residual: float | None = None
    grand_total_vs_kemeny_residual: float | None = None
    row_total_margins: np.ndarray | None = None  # m_i. - m(m+1)/2


def doubly_stochastic_report(sol: ChainSolution) -> DoublyStochasticReport:
    """Verify the uniform-stationary specializations when c = e.

    Checks pi = e/m, the column totals m_.j = m - 1 + m^2 h_jj, the constant
    row totals m_i. = m K, the grand total K = m_../m^2, and the row-total
    floor m(m+1)/2.  Everything is read off the chain's existing solution.
    """
    deviation = float(np.abs(sol.c - 1.0).max())
    if deviation >= DOUBLY_STOCHASTIC_TOL:
        return DoublyStochasticReport(applicable=False, colsum_deviation=deviation)

    m = sol.tm.n
    pi, mfpt = sol.pi, sol.mfpt
    kemeny = kemeny_from_h(sol.h)
    h_d, col_totals = sol.h_diag, sol.col_totals
    row_totals = mfpt.sum(axis=1)
    return DoublyStochasticReport(
        applicable=True,
        colsum_deviation=deviation,
        pi_uniform_residual=float(np.abs(pi - 1.0 / m).max()),
        col_total_vs_h_residual=float(np.abs(col_totals - (m - 1.0 + m**2 * h_d)).max()),
        row_total_vs_kemeny_residual=float(np.abs(row_totals - m * kemeny).max()),
        grand_total_vs_kemeny_residual=float(abs(kemeny - mfpt.sum() / m**2)),
        row_total_margins=row_totals - m * (m + 1) / 2.0,
    )


@dataclass(frozen=True)
class ChainSolution:
    """One chain's (or stack's) core arrays, computed once and shared; `cond`
    is the 1-norm condition number of I - P + e c^T.  The last five fields
    are derived vectors that several checks read."""

    tm: TransitionMatrix
    c: np.ndarray
    pi: np.ndarray
    h: np.ndarray
    mfpt: np.ndarray
    cond: float | np.ndarray
    h_diag: np.ndarray  # h_jj
    m_diag: np.ndarray  # m_jj = 1/pi_j, the mean recurrence times
    col_totals: np.ndarray  # m_.j = sum_i m_ij: expected time into state j
    c_weighted: np.ndarray  # c^T M: sum_i c_i m_ij
    c_off: np.ndarray  # c^T (M - M_d): sum_{i != j} c_i m_ij


def solve_chain(tm: TransitionMatrix) -> ChainSolution:
    """Run the standard pipeline: column sums, pi (direct solver), H, M.

    H is the one inversion; pi stays independent of H.  Z, which H
    determines, is not formed: ``z_from_h(sol.h, sol.pi)`` gives it.

    Raises SingularMatrix when a stationary probability is not positive or a
    passage time overflows: the direct solver rounded a tiny pi_j to zero or
    below, so M cannot be formed.
    """
    pi = oracle.stationary_direct(tm)
    if not (lowest := pi.min()) > 0:  # NaN too; checked before M divides by pi
        raise SingularMatrix(
            f"stationary probability {lowest:.3e} is not positive; the chain is "
            "too close to reducible for the direct solver"
        )
    h, cond = compute_h(tm)
    c = column_sums(tm)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        mfpt = mfpt_from_h(h, pi)
    if not np.isfinite(mfpt).all():
        raise SingularMatrix(
            "mean first passage times overflow float64; a stationary probability "
            "is too small for the direct solver"
        )
    h_diag, m_diag = h.diagonal(axis1=-2, axis2=-1), mfpt.diagonal(axis1=-2, axis2=-1)
    c_weighted = (c[..., None, :] @ mfpt)[..., 0, :]
    return ChainSolution(tm=tm, c=c, pi=pi, h=h, mfpt=mfpt, cond=cond, h_diag=h_diag,
                         m_diag=m_diag, col_totals=mfpt.sum(axis=-2), c_weighted=c_weighted,
                         c_off=c_weighted - c * m_diag)
