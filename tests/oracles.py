"""Reference solvers that only the tests call: power iteration for pi, a
Monte Carlo passage-time estimator (with its stream stepper, `advance`), a
chain's period, the Z-to-H conversion, the group inverse and Hunter's
Kemeny formula for any one-condition inverse of I - P.

They are independent of the pipeline's one inversion per chain, which is
why the suite keeps them: criterion 09 checks the pipeline's passage times
against the Monte Carlo estimate, and the oracle tests check the direct
stationary solver against power iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcsum import rng
from mcsum.chain import TransitionMatrix, _levels
from mcsum.errors import McsumError


class NoConvergence(McsumError):
    """An iterative solver ran out of iterations."""


def stationary_power(
    tm: TransitionMatrix, tol: float = 1e-12, max_iters: int = 200_000
) -> np.ndarray:
    """Damped power iteration pi <- pi (P + I)/2 from the uniform vector.

    The lazy-chain damping removes periodicity without changing the
    stationary vector, so periodic chains converge too.
    """
    q = 0.5 * (tm.p + np.eye(tm.n))
    x = np.full(tm.n, 1.0 / tm.n)
    for _ in range(max_iters):
        y = x @ q
        y /= y.sum()
        if np.abs(y - x).max() < tol:
            return y
        x = y
    raise NoConvergence(f"power iteration did not reach {tol} in {max_iters} iterations")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo first-passage estimates with their standard errors."""

    mfpt: np.ndarray
    mfpt_se: np.ndarray
    stationary: np.ndarray
    stationary_unreliable: bool
    walks_per_pair: int
    seed: int


def mc_estimate(tm: TransitionMatrix, seed: int, walks_per_pair: int) -> McEstimate:
    """Estimate the passage-time matrix by simulated walks.

    Each (start, target, walk) triple owns its own splitmix64 stream, so the
    result is bit-reproducible for a given seed regardless of batching.  The
    stationary estimate is the normalized reciprocal of the estimated
    recurrence times; it is flagged unreliable for periodic chains.
    """
    if walks_per_pair < 1:
        raise ValueError("walks_per_pair must be at least 1")
    n = tm.n
    cum = np.cumsum(tm.p, axis=1)
    cum[:, -1] = 1.0  # guard against rounding: u < 1 always lands in a bin
    mfpt = np.empty((n, n))
    se = np.empty((n, n))
    streams = rng.derive_stream(seed, np.arange(n * n * walks_per_pair)).reshape(n, n, -1)
    for i, j in np.ndindex(n, n):
        lengths = _walk_lengths(cum, i, j, streams[i, j])
        mfpt[i, j] = lengths.mean()
        se[i, j] = lengths.std(ddof=1) / math.sqrt(walks_per_pair) if walks_per_pair > 1 else 0.0
    recip = 1.0 / mfpt.diagonal()
    return McEstimate(
        mfpt=mfpt,
        mfpt_se=se,
        stationary=recip / recip.sum(),
        stationary_unreliable=period(tm) > 1,
        walks_per_pair=walks_per_pair,
        seed=seed,
    )


def period(tm: TransitionMatrix) -> int:
    """Period of an irreducible chain (1 means aperiodic).

    The gcd of ``level[u] + 1 - level[v]`` over all edges (u, v), with levels
    from a breadth-first search, equals the period on a strongly connected
    graph.
    """
    adj = tm.p > 0.0
    level = _levels(adj)
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) or 1


def advance(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance an array of splitmix64 stream states one step; return (states,
    uniforms)."""
    with np.errstate(over="ignore"):
        return states + rng._GOLDEN_U64, rng.uniform_block(states, 1)[..., 0]


def _walk_lengths(cum: np.ndarray, start: int, target: int, streams: np.ndarray) -> np.ndarray:
    """First-passage step counts for a batch of walks, one stream each."""
    k = streams.shape[0]
    lengths = np.zeros(k, dtype=np.int64)
    alive = np.arange(k)
    state = np.full(k, start, dtype=np.intp)
    steps = np.zeros(k, dtype=np.int64)
    while alive.size:
        streams[alive], u = advance(streams[alive])
        nxt = (u[:, None] < cum[state[alive]]).argmax(axis=1)
        steps[alive] += 1
        state[alive] = nxt
        done = nxt == target
        if done.any():
            hit = alive[done]
            lengths[hit] = steps[hit]
            alive = alive[~done]
    return lengths.astype(np.float64)


def h_from_z(z: np.ndarray, pi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Convert Z to H:  H = Z + (1/m) Pi - (1/m) e c^T Z."""
    pi, c = np.asarray(pi, dtype=np.float64), np.asarray(c, dtype=np.float64)
    return z + ((pi - (c[..., None, :] @ z)[..., 0, :]) / z.shape[-1])[..., None, :]


def group_inverse(z: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The group inverse of I - P: Z minus the rank-one stationary projector."""
    return z - np.asarray(pi)[..., None, :]


def kemeny_general(g: np.ndarray, pi: np.ndarray) -> float | np.ndarray:
    """K = 1 + tr(G) - tr(G Pi) for any one-condition inverse G of I - P."""
    g = np.asarray(g, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)[..., None, :]  # as a row
    return 1.0 + g.trace(axis1=-2, axis2=-1) - (pi @ g.sum(axis=-1)[..., None])[..., 0, 0]
