from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum.analysis import kemeny_from_h, mfpt_from_h, solve_chain
from mcsum.chain import validate
from mcsum.errors import NotIrreducible
from mcsum import analysis, oracle
from mcsum.oracle import (
    mfpt_direct,
    stationary_direct,
    three_state_closed_form,
    two_state_closed_form,
)
from mcsum.rng import derive_stream
from mcsum.scan import random_chain
from tests.conftest import FIX5_M, FIX5_PI, two_block, two_state
from tests.oracles import NoConvergence, SplitMix64, mc_estimate, stationary_power


def test_stationary_direct_cycle(cycle3):
    np.testing.assert_allclose(stationary_direct(cycle3), 1.0 / 3.0, atol=1e-14)


def test_stationary_direct_fix5(fix5):
    np.testing.assert_allclose(stationary_direct(fix5), FIX5_PI, atol=5e-4)


def test_stationary_direct_periodic():
    np.testing.assert_allclose(stationary_direct(two_state(1.0, 1.0)), [0.5, 0.5], atol=1e-15)


def test_stationary_power_periodic_converges():
    np.testing.assert_allclose(stationary_power(two_state(1.0, 1.0)), [0.5, 0.5], atol=1e-11)


def test_stationary_power_matches_direct(fix8):
    np.testing.assert_allclose(
        stationary_power(fix8, tol=1e-13), stationary_direct(fix8), atol=1e-10
    )


def test_stationary_power_uniform_immediate():
    tm = validate(np.full((3, 3), 1.0 / 3.0))
    np.testing.assert_allclose(
        stationary_power(tm, max_iters=1), 1.0 / 3.0, atol=1e-12
    )


def test_stationary_power_no_convergence(fix5):
    with pytest.raises(NoConvergence):
        stationary_power(fix5, tol=1e-15, max_iters=3)


def test_mfpt_direct_cycle(cycle3):
    pi = stationary_direct(cycle3)
    np.testing.assert_allclose(
        mfpt_direct(cycle3, pi), [[3, 1, 2], [2, 3, 1], [1, 2, 3]], atol=1e-12
    )


def test_mfpt_direct_two_state():
    tm = two_state(0.3, 0.1)
    pi = stationary_direct(tm)
    expected = np.array([[4.0, 10.0 / 3.0], [10.0, 4.0 / 3.0]])
    np.testing.assert_allclose(mfpt_direct(tm, pi), expected, atol=1e-12)


def test_mfpt_direct_fix5(fix5):
    pi = stationary_direct(fix5)
    np.testing.assert_allclose(mfpt_direct(fix5, pi), FIX5_M, atol=5e-4)


def _mfpt_per_target(p: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Reference: for each target j, solve m_ij = 1 + sum_{k != j} p_ik m_kj."""
    n = len(p)
    m = np.empty((n, n))
    idx_all = np.arange(n)
    for j in range(n):
        idx = idx_all[idx_all != j]
        m[idx, j] = np.linalg.solve(np.eye(n - 1) - p[np.ix_(idx, idx)], np.ones(n - 1))
        m[j, j] = 1.0 / pi[j]
    return m


def _mfpt_exact(p: np.ndarray) -> np.ndarray:
    """Exact passage times of the float matrix `p`: per-target Gauss-Jordan
    elimination in rationals, m_jj = 1 + sum_{k != j} p_jk m_kj."""
    n = len(p)
    q = [[Fraction(x) for x in row] for row in p.tolist()]
    m = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        idx = [i for i in range(n) if i != j]
        a = [[int(r == c) - q[r][c] for c in idx] + [Fraction(1)] for r in idx]
        for k in range(n - 1):
            piv = next(r for r in range(k, n - 1) if a[r][k] != 0)
            a[k], a[piv] = a[piv], a[k]
            a[k] = [x / a[k][k] for x in a[k]]
            for r in range(n - 1):
                if r != k and a[r][k] != 0:
                    a[r] = [x - a[r][k] * y for x, y in zip(a[r], a[k])]
        for r, i in enumerate(idx):
            m[i][j] = a[r][-1]
        m[j][j] = 1 + sum(q[j][k] * m[k][j] for k in idx)
    return np.array([[float(x) for x in row] for row in m])


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """The measure of verify's "M from H = M from elimination" row."""
    return float((np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max())


def _unit(tm, pi: np.ndarray) -> float:
    """m * eps * cond, with cond the 1-norm condition number of I - P + e pi^T
    times 1/(m min pi) >= 1, the largest factor by which passage times
    divide by a stationary probability."""
    m = tm.n
    cond = np.linalg.cond(np.eye(m) - tm.p + pi, 1) / (m * pi.min())
    return m * np.finfo(np.float64).eps * cond


def _structured_chain(kind: str, m: int, seed: int, coupling: float):
    g = np.random.default_rng(seed)
    x = g.exponential(size=(m, m))
    if kind == "sparse":  # half the entries zeroed; a random m-cycle keeps it irreducible
        x[g.random((m, m)) < 0.5] = 0.0
        order = g.permutation(m)
        x[order, np.roll(order, -1)] += g.exponential(size=m)
    elif kind == "periodic":  # cyclic classes: class k moves only to class k + 1
        d = min(int(g.choice([2, 3])), m)
        cls = g.permutation(m) % d
        x[cls[:, None] != (cls[None, :] - 1) % d] = 0.0
    elif kind == "two-block":
        return validate(two_block(m, coupling, seed))
    return validate(x / x.sum(axis=1, keepdims=True))


CHAIN_KINDS = st.sampled_from(["random", "sparse", "periodic", "two-block"])
COUPLINGS = st.sampled_from([1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(CHAIN_KINDS, st.integers(min_value=2, max_value=12), SEEDS, COUPLINGS)
def test_mfpt_direct_matches_per_target_elimination(kind, m, seed, coupling):
    tm = _structured_chain(kind, m, seed, coupling)
    pi = stationary_direct(tm)
    got = mfpt_direct(tm, pi)
    assert np.array_equal(got.diagonal(), 1.0 / pi)
    assert _relative_error(got, _mfpt_per_target(tm.p, pi)) <= 10.0 * _unit(tm, pi)


@settings(max_examples=60, deadline=None)
@given(CHAIN_KINDS, st.integers(min_value=2, max_value=6), SEEDS, COUPLINGS)
def test_mfpt_direct_matches_exact_rational_elimination(kind, m, seed, coupling):
    tm = _structured_chain(kind, m, seed, coupling)
    pi = stationary_direct(tm)
    assert _relative_error(mfpt_direct(tm, pi), _mfpt_exact(tm.p)) <= 10.0 * _unit(tm, pi)


def test_mfpt_direct_never_forms_the_colsum_or_fundamental_system(fix5, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the H/Z path")

    for name in ("colsum_system", "compute_h", "z_from_h"):
        monkeypatch.setattr(analysis, name, forbidden)
    np.testing.assert_allclose(mfpt_direct(fix5, stationary_direct(fix5)), FIX5_M, atol=5e-4)


def test_oracle_shares_no_code_with_the_h_path():
    # the oracle's independence follows from its imports: no function or
    # class it holds comes from the module that forms and reads off H
    shared = [name for name, value in vars(oracle).items()
              if callable(value) and getattr(value, "__module__", None) == analysis.__name__]
    assert shared == []


@pytest.mark.parametrize("seed", range(6))
def test_mfpt_direct_rare_last_state_as_accurate_as_per_target(seed):
    # Nine dense states each leak 1e-9 to state 10, which returns uniformly:
    # pi_10 is about 1e-9.  Eliminating toward state 10 would lose up to a
    # digit; the oracle eliminates toward the most-visited state instead.
    x = np.random.default_rng(seed).exponential(size=(9, 9))
    p = np.zeros((10, 10))
    p[:9, :9] = (1.0 - 1e-9) * x / x.sum(axis=1, keepdims=True)
    p[:9, 9] = 1e-9
    p[9, :9] = 1.0 / 9.0
    tm = validate(p)
    pi = stationary_direct(tm)
    exact = _mfpt_exact(tm.p)
    reference = _relative_error(_mfpt_per_target(tm.p, pi), exact)
    assert _relative_error(mfpt_direct(tm, pi), exact) <= 2.0 * reference


def test_mfpt_direct_single_state():
    tm = validate(np.ones((1, 1)))
    assert mfpt_direct(tm, np.ones(1)).tolist() == [[1.0]]


def test_cross_oracle_agreement():
    for i in range(25):
        tm = random_chain(2 + (i % 6), 31_000 + i)
        np.testing.assert_allclose(
            stationary_power(tm, tol=1e-13), stationary_direct(tm), atol=1e-9
        )


def test_mc_cycle_deterministic_walk(cycle3):
    est = mc_estimate(cycle3, seed=1, walks_per_pair=1000)
    assert est.mfpt[0, 1] == 1.0
    assert est.mfpt_se[0, 1] == 0.0
    np.testing.assert_allclose(est.mfpt, [[3, 1, 2], [2, 3, 1], [1, 2, 3]], atol=0)
    assert est.stationary_unreliable  # period 3


def test_mc_two_state_within_five_se():
    tm = two_state(0.3, 0.1)
    est = mc_estimate(tm, seed=12345, walks_per_pair=100_000)
    assert abs(est.mfpt[1, 0] - 10.0) <= 5.0 * est.mfpt_se[1, 0]
    assert not est.stationary_unreliable


def test_mc_reproducible(fix5):
    a = mc_estimate(fix5, seed=99, walks_per_pair=200)
    b = mc_estimate(fix5, seed=99, walks_per_pair=200)
    assert np.array_equal(a.mfpt, b.mfpt)
    assert np.array_equal(a.mfpt_se, b.mfpt_se)
    assert np.array_equal(a.stationary, b.stationary)
    c = mc_estimate(fix5, seed=100, walks_per_pair=200)
    assert not np.array_equal(a.mfpt, c.mfpt)


def test_mc_rejects_zero_walks(fix5):
    with pytest.raises(ValueError):
        mc_estimate(fix5, seed=1, walks_per_pair=0)


def test_two_state_closed_form_values():
    f = two_state_closed_form(0.3, 0.1)
    np.testing.assert_allclose(f.pi, [0.25, 0.75], atol=1e-15)
    assert f.kemeny == pytest.approx(3.5)
    np.testing.assert_allclose(f.mfpt, [[4.0, 10.0 / 3.0], [10.0, 4.0 / 3.0]], atol=1e-14)
    assert f.d == pytest.approx(0.6)


def test_two_state_minimum_case():
    f = two_state_closed_form(1.0, 1.0)
    assert f.kemeny == pytest.approx(1.5)
    np.testing.assert_allclose(f.pi, [0.5, 0.5], atol=0)


def test_two_state_half_half():
    f = two_state_closed_form(0.5, 0.5)
    np.testing.assert_allclose(f.h, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-15)
    np.testing.assert_allclose(f.z, np.eye(2), atol=1e-15)


def test_two_state_degenerate():
    with pytest.raises(NotIrreducible):
        two_state_closed_form(0.0, 0.0)
    with pytest.raises(ValueError):
        two_state_closed_form(1.5, 0.5)


@pytest.mark.parametrize("a, b", [(0.0, 0.5), (1.0, 0.0)])
def test_two_state_absorbing_state_is_not_irreducible(a, b):
    with pytest.raises(NotIrreducible, match="absorbing"):
        two_state_closed_form(a, b)


def test_three_state_cycle_values():
    f = three_state_closed_form(1, 0, 0, 1, 1, 0)
    assert (f.delta1, f.delta2, f.delta3) == (1.0, 1.0, 1.0)
    np.testing.assert_allclose(f.pi, 1.0 / 3.0, atol=1e-15)
    assert f.kemeny == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(f.mfpt, [[3, 1, 2], [2, 3, 1], [1, 2, 3]], atol=0)


def test_three_state_reducible():
    with pytest.raises(NotIrreducible):
        three_state_closed_form(0.5, 0.2, 0.0, 0.5, 0.0, 0.5)  # delta1 = q1 r2 = 0


def test_three_state_bad_parameters():
    with pytest.raises(ValueError):
        three_state_closed_form(0.9, 0.3, 0.1, 0.1, 0.1, 0.1)  # p2+p3 > 1
    with pytest.raises(ValueError):
        three_state_closed_form(-0.1, 0.3, 0.1, 0.1, 0.1, 0.1)


def test_three_state_generic_matches_pipeline():
    f = three_state_closed_form(0.2, 0.3, 0.4, 0.1, 0.25, 0.35)
    sol = solve_chain(validate(f.p))
    np.testing.assert_allclose(sol.pi, f.pi, atol=1e-10)
    np.testing.assert_allclose(sol.h, f.h, atol=1e-10)
    np.testing.assert_allclose(analysis.z_from_h(sol.h, sol.pi), f.z, atol=1e-10)
    np.testing.assert_allclose(mfpt_from_h(sol.h, sol.pi), f.mfpt, atol=1e-10)
    assert kemeny_from_h(sol.h) == pytest.approx(f.kemeny, abs=1e-10)


FLOATS_01 = st.floats(min_value=0.01, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(FLOATS_01, FLOATS_01)
def test_two_state_closed_form_matches_pipeline(a, b):
    f = two_state_closed_form(a, b)
    sol = solve_chain(two_state(a, b))
    assert np.abs(sol.pi - f.pi).max() < 1e-10
    assert np.abs(sol.h - f.h).max() < 1e-10
    assert np.abs(analysis.z_from_h(sol.h, sol.pi) - f.z).max() < 1e-10
    assert np.abs(mfpt_from_h(sol.h, sol.pi) - f.mfpt).max() < 1e-10
    assert abs(kemeny_from_h(sol.h) - f.kemeny) < 1e-10


def _sign(x: float, tol: float = 1e-12) -> int:
    return 0 if abs(x) < tol else (1 if x > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(FLOATS_01, FLOATS_01)
def test_two_state_ordering_equivalences(a, b):
    # c1 <= c2 iff b <= a iff pi1 <= pi2 iff m22 <= m11;
    # h11 <= h22 iff a <= b iff m_.1 <= m_.2.  Ties never contradict.
    f = two_state_closed_form(a, b)
    c = np.array([1.0 - (a - b), 1.0 + (a - b)])
    col = f.mfpt.sum(axis=0)
    same_direction = [
        _sign(c[0] - c[1]),
        _sign(f.pi[0] - f.pi[1]),
        _sign(f.mfpt[1, 1] - f.mfpt[0, 0]),
        -_sign(f.h[0, 0] - f.h[1, 1]),
        -_sign(col[0] - col[1]),
    ]
    decisive = {s for s in same_direction if s != 0}
    assert len(decisive) <= 1, (a, b, same_direction)


def sample_admissible_three_state(seed: int):
    """Uniform draw from the admissible six-parameter region."""
    for attempt in range(100):
        sm = SplitMix64(derive_stream(seed, attempt))
        pairs = []
        for _ in range(3):
            u, v = sm.next_float(), sm.next_float()
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            pairs.append((u, v))
        (p2, p3), (q1, q3), (r1, r2) = pairs
        try:
            return three_state_closed_form(p2, p3, q1, q3, r1, r2)
        except (NotIrreducible, ValueError):
            continue
    raise RuntimeError("no admissible parameter set found")


def test_three_state_random_sample_matches_pipeline():
    for i in range(60):
        f = sample_admissible_three_state(7_000 + i)
        assert f.tau == pytest.approx(f.tau12 + f.tau13, abs=1e-14)
        assert f.tau == pytest.approx(f.tau21 + f.tau23, abs=1e-14)
        assert f.tau == pytest.approx(f.tau31 + f.tau32, abs=1e-14)
        sol = solve_chain(validate(f.p))
        assert np.abs(sol.pi - f.pi).max() < 1e-10
        assert np.abs(sol.h - f.h).max() < 1e-10
        assert np.abs(analysis.z_from_h(sol.h, sol.pi) - f.z).max() < 1e-10
        assert np.abs(mfpt_from_h(sol.h, sol.pi) - f.mfpt).max() < 1e-10


def test_two_state_500_random_match_pipeline():
    sm = SplitMix64(8_888)
    worst = 0.0
    for _ in range(500):
        a = 0.01 + 0.99 * sm.next_float()
        b = 0.01 + 0.99 * sm.next_float()
        f = two_state_closed_form(a, b)
        sol = solve_chain(two_state(a, b))
        worst = max(
            worst,
            np.abs(sol.pi - f.pi).max(),
            np.abs(sol.h - f.h).max(),
            np.abs(analysis.z_from_h(sol.h, sol.pi) - f.z).max(),
            np.abs(sol.mfpt - f.mfpt).max(),
            abs(kemeny_from_h(sol.h) - f.kemeny),
        )
    assert worst < 1e-10


def test_stationary_distribution_invariants():
    for i in range(30):
        tm = random_chain(2 + (i % 9), 67_000 + i)
        pi = stationary_direct(tm)
        assert (pi > 0).all()
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(pi @ tm.p - pi).max() < 1e-10
