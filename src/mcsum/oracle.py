"""Independent ground-truth solvers and small-chain closed forms.

The direct solvers share LAPACK (``numpy.linalg``) with the H/Z path; their
independence comes from solving different systems.  Stationary vectors
come from (I - P)^T pi = 0 with a normalization row.  Passage times come
from one elimination toward the most-visited state, I - P with that
state's row and column deleted, read off through Hunter's one-condition
inverse formula; neither solver forms I - P + e c^T or I - P + e pi^T.
The 2- and 3-state closed forms are evaluated from explicit parameter
formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionMatrix
from .errors import Degenerate, NotIrreducible, SingularMatrix
from .ginv import mfpt_general


def stationary_direct(tm: TransitionMatrix) -> np.ndarray:
    """Stationary vector from the linear system (I - P)^T pi = 0.

    The last (redundant) balance equation is replaced by the normalization
    row, giving a nonsingular system that is exact for periodic chains.
    """
    a = np.swapaxes(np.eye(tm.n) - tm.p, -2, -1)
    a[..., -1, :] = 1.0
    b = np.zeros(a.shape[:-1] + (1,))  # (..., m, 1): one column per chain
    b[..., -1, 0] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"stationary system is singular: {exc}") from None
    return pi[..., 0]


def mfpt_direct(tm: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    """Mean first passage times from one elimination toward the most-visited state.

    Deleting the row and column of a target t from I - P leaves the absorbing
    chain's system, whose inverse is its fundamental matrix N (Kemeny and
    Snell); N padded with zeros is a one-condition inverse G of I - P, and
    Hunter's formula (``ginv.mfpt_general``) reads every passage time off G.
    The target is t = argmax(pi) (the first on ties): N counts the visits
    made before reaching t, so its entries, and the rounding that Hunter's
    formula then divides by pi_j, are smallest when t is the state the
    chain visits most.  The diagonal stores the mean recurrence time 1/pi_j.
    """
    pi = np.asarray(pi, dtype=np.float64)
    t = int(np.argmax(pi))
    keep = np.arange(tm.n) != t
    g = np.zeros((tm.n, tm.n))
    try:
        g[np.ix_(keep, keep)] = np.linalg.inv(np.eye(tm.n - 1) - tm.p[np.ix_(keep, keep)])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"passage system for target {t + 1} is singular: {exc}") from None
    m = mfpt_general(g, pi)
    np.fill_diagonal(m, 1.0 / pi)
    return m


@dataclass(frozen=True)
class TwoStateClosedForm:
    """Closed-form quantities of the chain [[1-a, a], [b, 1-b]]."""

    a: float
    b: float
    d: float
    pi: np.ndarray
    h: np.ndarray
    z: np.ndarray
    mfpt: np.ndarray
    kemeny: float


def two_state_closed_form(a: float, b: float) -> TwoStateClosedForm:
    """Evaluate the two-state parameter formulas.

    Requires 0 <= a, b <= 1; a + b = 0 leaves two isolated states and is
    rejected as degenerate, and a = 0 or b = 0 alone makes a state absorbing.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"parameters must lie in [0, 1], got a={a!r}, b={b!r}")
    s = a + b
    if s == 0.0:
        raise Degenerate("a + b = 0 gives a reducible two-state chain")
    if a == 0.0 or b == 0.0:
        raise NotIrreducible(f"a={a!r}, b={b!r} make a state absorbing; the chain is reducible")
    pi = np.array([b / s, a / s])
    h = np.array([[1.0 + a, -(1.0 - b)], [-(1.0 - a), 1.0 + b]]) / (2.0 * s)
    z = np.array([[b + a / s, a - a / s], [b - b / s, a + b / s]]) / s
    mfpt = np.array([[s / b, 1.0 / a], [1.0 / b, s / a]])
    return TwoStateClosedForm(
        a=a, b=b, d=1.0 - s, pi=pi, h=h, z=z, mfpt=mfpt, kemeny=1.0 + 1.0 / s
    )


@dataclass(frozen=True)
class ThreeStateClosedForm:
    """Closed-form quantities of the six-parameter three-state chain.

    Rows of the transition matrix are (1-p2-p3, p2, p3), (q1, 1-q1-q3, q3)
    and (r1, r2, 1-r1-r2).  The subdeterminants delta_i are proportional to
    the stationary probabilities; the tau_ij are the passage-time numerators.
    """

    p2: float
    p3: float
    q1: float
    q3: float
    r1: float
    r2: float
    delta1: float
    delta2: float
    delta3: float
    delta: float
    tau12: float
    tau13: float
    tau21: float
    tau23: float
    tau31: float
    tau32: float
    tau: float
    p: np.ndarray
    pi: np.ndarray
    h: np.ndarray
    z: np.ndarray
    mfpt: np.ndarray
    kemeny: float


def three_state_closed_form(
    p2: float, p3: float, q1: float, q3: float, r1: float, r2: float
) -> ThreeStateClosedForm:
    """Evaluate the three-state parameter formulas.

    The chain is irreducible exactly when all three subdeterminants are
    positive; otherwise NotIrreducible is raised.  H and Z are assembled
    from the rank-structured component matrices of the one-condition
    inverse family G(e, u), whose weighted combination annihilates u.
    """
    params = dict(p2=p2, p3=p3, q1=q1, q3=q3, r1=r1, r2=r2)
    for name, v in params.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"parameter {name}={v!r} outside [0, 1]")
    for pair, total in (("p2+p3", p2 + p3), ("q1+q3", q1 + q3), ("r1+r2", r1 + r2)):
        if total > 1.0:
            raise ValueError(f"parameter sum {pair} = {total!r} exceeds 1")

    d1 = q3 * r1 + q1 * r2 + q1 * r1
    d2 = r1 * p2 + r2 * p3 + r2 * p2
    d3 = p2 * q3 + p3 * q1 + p3 * q3
    if min(d1, d2, d3) <= 0.0:
        raise NotIrreducible(
            f"subdeterminants must all be positive, got ({d1!r}, {d2!r}, {d3!r})"
        )
    delta = d1 + d2 + d3

    t12 = p3 + r1 + r2
    t13 = p2 + q1 + q3
    t21 = q3 + r1 + r2
    t23 = q1 + p2 + p3
    t31 = r2 + q1 + q3
    t32 = r1 + p2 + p3
    tau = p2 + p3 + q1 + q3 + r1 + r2

    p = np.array(
        [
            [1.0 - p2 - p3, p2, p3],
            [q1, 1.0 - q1 - q3, q3],
            [r1, r2, 1.0 - r1 - r2],
        ]
    )
    pi = np.array([d1, d2, d3]) / delta
    mfpt = np.array(
        [
            [delta / d1, t12 / d2, t13 / d3],
            [t21 / d1, delta / d2, t23 / d3],
            [t31 / d1, t32 / d2, delta / d3],
        ]
    )

    big_pi = np.tile(pi, (3, 1))
    a1 = np.array([[0.0, 0.0, 0.0], [-t21, t12, t21 - t12], [-t31, t31 - t13, t13]]) / delta
    a2 = np.array([[t21, -t12, t12 - t21], [0.0, 0.0, 0.0], [t32 - t23, -t32, t23]]) / delta
    a3 = np.array([[t31, t13 - t31, -t13], [t23 - t32, t32, -t23], [0.0, 0.0, 0.0]]) / delta

    c = p.sum(axis=0)
    h = (big_pi + c[0] * a1 + c[1] * a2 + c[2] * a3) / 3.0
    z = big_pi + pi[0] * a1 + pi[1] * a2 + pi[2] * a3
    for u in (c, pi):
        combo = u[0] * a1 + u[1] * a2 + u[2] * a3
        assert np.abs(u @ combo).max() < 1e-12, "component matrices failed to annihilate u"

    return ThreeStateClosedForm(
        p2=p2, p3=p3, q1=q1, q3=q3, r1=r1, r2=r2,
        delta1=d1, delta2=d2, delta3=d3, delta=delta,
        tau12=t12, tau13=t13, tau21=t21, tau23=t23, tau31=t31, tau32=t32, tau=tau,
        p=p, pi=pi, h=h, z=z, mfpt=mfpt, kemeny=1.0 + tau / delta,
    )
