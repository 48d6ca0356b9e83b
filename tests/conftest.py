import contextlib
from unittest import mock

import numpy as np
import pytest

from mcsum import analysis, fixtures, oracle
from mcsum.analysis import ChainSolution, kemeny_from_h, solve_chain
from mcsum.chain import TransitionMatrix, validate
from mcsum.rng import derive_stream
from mcsum.scan import random_chain
from tests.oracles import SplitMix64

# The 1000-chain ensemble shared by the property and acceptance suites:
# state counts cycle through 2..10, seeds are fixed.
SUITE_SPECS = tuple((2 + (i % 9), 20_000 + i) for i in range(1000))

# Original five-state matrix before reordering by column sums.
FIVE_STATE_UNSORTED = np.array(
    [
        [0.831, 0.033, 0.013, 0.028, 0.095],
        [0.046, 0.788, 0.016, 0.038, 0.112],
        [0.038, 0.034, 0.785, 0.036, 0.107],
        [0.054, 0.045, 0.017, 0.728, 0.156],
        [0.082, 0.065, 0.023, 0.071, 0.759],
    ]
)

# Published values for the five-state reference chain (4-decimal rounding).
FIX5_PI = np.array([0.3216, 0.2705, 0.1842, 0.1476, 0.0761])
FIX5_H = np.array(
    [
        [2.1984, -0.5537, -0.4911, -0.3007, -0.6530],
        [-0.8883, 3.5691, -0.9174, -0.7613, -0.8021],
        [-0.6457, -1.0375, 3.2047, -0.5873, -0.7342],
        [-0.2485, -0.8505, -0.6652, 2.6746, -0.7104],
        [-0.7023, -1.2092, -0.8680, -0.6157, 3.5952],
    ]
)
FIX5_M = np.array(
    [
        [3.1097, 15.2435, 20.0601, 20.1581, 55.7987],
        [9.5987, 3.6974, 22.3742, 23.2789, 57.7567],
        [8.8444, 17.0326, 5.4278, 22.1001, 56.8645],
        [7.6091, 16.3412, 21.0051, 6.7752, 56.5528],
        [9.0204, 17.6672, 22.1062, 22.2926, 13.1345],
    ]
)
FIX5_M_ROW_TOTALS = np.array([114.3702, 116.7059, 110.2695, 108.2834, 84.2210])
FIX5_M_COL_TOTALS = np.array([38.1824, 69.9820, 90.9734, 94.6048, 240.1074])
FIX5_H_COL_SUMS = np.array([-0.2863, -0.0818, 0.2631, 0.4096, 0.6955])
FIX5_KEMENY = 16.042

# Published values for the eight-state reference chain.
FIX8_C = np.array([2.326, 1.140, 1.069, 0.934, 0.890, 0.799, 0.795, 0.047])
FIX8_PI = np.array([0.2378, 0.4938, 0.0135, 0.0078, 0.1372, 0.0485, 0.0503, 0.0112])
FIX8_KEMENY = 29.9194


def independent_z(tm: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    """Z = (I - P + e pi^T)^{-1} by its own inversion, from a given pi: the
    suite's check on the library's Z, which is read off H."""
    return np.linalg.inv(np.eye(tm.n) - tm.p + np.asarray(pi)[..., None, :])


def two_state(a: float, b: float) -> TransitionMatrix:
    return validate(np.array([[1.0 - a, a], [b, 1.0 - b]]))


def two_block(m: int, coupling: float, seed: int = 0) -> np.ndarray:
    """Two dense blocks of m/2 states each; every row sends `coupling` of its
    mass to the other block.  At m = 2 this is [[1-eps, eps], [eps, 1-eps]]."""
    half = m // 2
    inside = np.zeros((m, m), dtype=bool)
    inside[:half, :half] = True
    inside[half:, half:] = True
    x = np.random.default_rng(seed).exponential(size=(m, m))
    within = np.where(inside, x, 0.0)
    across = np.where(inside, 0.0, x)
    return (1.0 - coupling) * within / within.sum(axis=1, keepdims=True) + (
        coupling * across / across.sum(axis=1, keepdims=True)
    )


def cycle3_matrix() -> TransitionMatrix:
    return validate(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))


def random_doubly_stochastic(m: int, seed: int, components: int | None = None) -> TransitionMatrix:
    """Random mixture of permutation matrices (Birkhoff-style sampler)."""
    k = components or m + 2
    for attempt in range(100):
        sm = SplitMix64(derive_stream(seed, attempt))
        weights = np.array([-np.log1p(-sm.next_float()) for _ in range(k)])
        weights /= weights.sum()
        p = np.zeros((m, m))
        for w in weights:
            perm = np.arange(m)
            for i in range(m - 1, 0, -1):  # Fisher-Yates on the stream
                j = int(sm.next_float() * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
            p[np.arange(m), perm] += w
        try:
            return validate(p)
        except Exception:
            continue
    raise RuntimeError("no irreducible doubly stochastic chain found")


def uniform_totals(h: np.ndarray, mfpt: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """M's uniform-stationary totals on a doubly stochastic chain, left minus
    right: m_.j - (m - 1 + m^2 h_jj), m_i. - m K, K - m_../m^2 and the row-total
    floor m_i. - m(m+1)/2.  With pi = e/m they restate H's rows, so the report
    leaves them out."""
    m, kemeny, row_totals = h.shape[-1], kemeny_from_h(h), mfpt.sum(axis=1)
    return (mfpt.sum(axis=0) - (m - 1.0 + m**2 * h.diagonal()), row_totals - m * kemeny,
            kemeny - mfpt.sum() / m**2, row_totals - m * (m + 1) / 2.0)


@contextlib.contextmanager
def injected_errors(dh=0.0, dpi=0.0):
    """Within the block, ``solve_chain`` gets H + dh and pi + dpi from its
    inversion and its direct solver, and reads M and every derived vector off
    them, as it would off an H and a pi that carry those errors; `dh` and
    `dpi` broadcast over a stack."""
    compute_h, stationary_direct = analysis.compute_h, oracle.stationary_direct

    def h_with_error(tm):
        h, cond = compute_h(tm)
        return h + dh, cond

    with mock.patch.object(analysis, "compute_h", h_with_error), \
            mock.patch.object(oracle, "stationary_direct", lambda tm: stationary_direct(tm) + dpi):
        yield


@pytest.fixture(scope="session")
def fix5():
    return fixtures.fix5()


@pytest.fixture(scope="session")
def fix8():
    return fixtures.fix8()


@pytest.fixture(scope="session")
def cycle3():
    return cycle3_matrix()


@pytest.fixture(scope="session")
def chain_suite() -> list[ChainSolution]:
    return [solve_chain(random_chain(m, seed)) for m, seed in SUITE_SPECS]
