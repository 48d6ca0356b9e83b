import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum.analysis import RESIDUAL_ROWS, THEOREM2_ROWS, residuals, solve_chain
from mcsum.chain import TransitionMatrix, column_sums, validate
from mcsum.errors import SingularMatrix
from mcsum.ginv import colsum_system, compute_h, z_from_h
from mcsum.oracle import stationary_direct
from mcsum.scan import random_chain
from tests.conftest import (
    FIX5_H,
    FIX5_H_COL_SUMS,
    FIX5_KEMENY,
    independent_z,
    two_block,
    two_state,
)
from tests.oracles import group_inverse, h_from_z


def test_compute_h_two_state_half():
    h, _ = compute_h(two_state(0.5, 0.5))
    np.testing.assert_allclose(h, [[0.75, -0.25], [-0.25, 0.75]], atol=1e-14)


def test_compute_h_fix5_printed(fix5):
    h, _ = compute_h(fix5)
    np.testing.assert_allclose(h, FIX5_H, atol=5e-4)
    np.testing.assert_allclose(h.sum(axis=0), FIX5_H_COL_SUMS, atol=5e-4)
    np.testing.assert_allclose(h.sum(axis=1), 0.2, atol=1e-12)


def test_compute_h_one_state():
    h, _ = compute_h(validate(np.array([[1.0]])))
    np.testing.assert_allclose(h, [[1.0]], atol=0)


# Z both ways: read off H by the pipeline, and by its own inversion.
def _both_z(tm):
    sol = solve_chain(tm)
    return sol.pi, (z_from_h(sol.h, sol.pi), independent_z(tm, sol.pi))


def test_compute_z_two_state_half():
    for z in _both_z(two_state(0.5, 0.5))[1]:
        np.testing.assert_allclose(z, np.eye(2), atol=1e-14)


def test_compute_z_fix5_trace(fix5):
    pi, zs = _both_z(fix5)
    for z in zs:
        assert z.trace() == pytest.approx(FIX5_KEMENY, abs=5e-3)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pi @ z, pi, atol=1e-12)


def test_compute_z_one_state():
    for z in _both_z(validate(np.array([[1.0]])))[1]:
        np.testing.assert_allclose(z, [[1.0]], atol=0)


def test_group_inverse_cases(fix5):
    sol1 = solve_chain(validate(np.array([[1.0]])))
    gi1 = group_inverse(z_from_h(sol1.h, sol1.pi), sol1.pi)
    np.testing.assert_allclose(gi1, [[0.0]], atol=0)

    sol2 = solve_chain(two_state(0.5, 0.5))
    gi2 = group_inverse(z_from_h(sol2.h, sol2.pi), sol2.pi)
    np.testing.assert_allclose(gi2, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    sol = solve_chain(fix5)
    pi = sol.pi
    gi = group_inverse(z_from_h(sol.h, pi), pi)
    assert np.abs(gi.sum(axis=1)).max() < 1e-10
    assert np.abs(pi @ gi).max() < 1e-10
    a = np.eye(5) - fix5.p
    assert np.abs(a @ gi - gi @ a).max() < 1e-10
    assert np.abs(a @ gi @ a - a).max() < 1e-10
    assert np.abs(gi @ a @ gi - gi).max() < 1e-10


def test_z_from_h_matches_compute_z(fix5):
    pi = stationary_direct(fix5)
    h, _ = compute_h(fix5)
    np.testing.assert_allclose(
        z_from_h(h, pi), independent_z(fix5, pi), atol=1e-10
    )
    tm = two_state(0.5, 0.5)
    np.testing.assert_allclose(
        z_from_h(compute_h(tm)[0], stationary_direct(tm)), np.eye(2), atol=1e-14
    )


def test_z_from_h_elementwise_form(fix8):
    pi = stationary_direct(fix8)
    h, _ = compute_h(fix8)
    z = z_from_h(h, pi)
    elemental = h + pi[None, :] - np.einsum("k,kj->j", pi, h)[None, :]
    np.testing.assert_allclose(z, elemental, atol=1e-14)


def test_h_from_z_matches_compute_h(fix5):
    pi = stationary_direct(fix5)
    z = independent_z(fix5, pi)
    h, _ = compute_h(fix5)
    np.testing.assert_allclose(h_from_z(z, pi, column_sums(fix5)), h, atol=1e-10)


def test_h_from_z_doubly_stochastic_shift(cycle3):
    pi = stationary_direct(cycle3)
    z = independent_z(cycle3, pi)
    h, _ = compute_h(cycle3)
    m = 3
    np.testing.assert_allclose(h, z + (1.0 - m) / m**2, atol=1e-12)
    np.testing.assert_allclose(h_from_z(z, pi, column_sums(cycle3)), h, atol=1e-12)


def test_h_from_z_one_state():
    tm = validate(np.array([[1.0]]))
    pi = stationary_direct(tm)
    z = independent_z(tm, pi)
    np.testing.assert_allclose(h_from_z(z, pi, np.array([1.0])), [[1.0]], atol=0)


def test_round_trips_on_random_chains():
    for i in range(40):
        tm = random_chain(2 + (i % 9), 50_000 + i)
        pi = stationary_direct(tm)
        h, _ = compute_h(tm)
        z = independent_z(tm, pi)
        c = column_sums(tm)
        assert np.abs(z_from_h(h, pi) - z).max() < 1e-10
        assert np.abs(h_from_z(z, pi, c) - h).max() < 1e-10
        round_trip = h_from_z(z_from_h(h, pi), pi, c)
        assert np.abs(round_trip - h).max() < 1e-10


def test_theorem2_residuals_fixtures(fix5, fix8):
    for tm in (fix5, fix8):
        rows = dict(zip(RESIDUAL_ROWS, residuals(solve_chain(tm))))
        resid = {name: rows[name] for name in THEOREM2_ROWS}
        assert len(resid) == 4
        assert max(resid.values()) < 1e-9


def test_theorem2_residuals_two_state():
    tm = two_state(0.3, 0.1)
    rows = dict(zip(RESIDUAL_ROWS, residuals(solve_chain(tm))))
    resid = {name: rows[name] for name in THEOREM2_ROWS}
    assert max(resid.values()) < 1e-12


def test_stationary_combination_explicit_sums(fix5, fix8):
    """The elementwise (1+m) pi_j = m sum_k pi_k h_kj + sum_k c_k z_kj, written
    with explicit sums, holds between the pipeline's H and a Z inverted on its
    own (with the Z read off H it holds by construction)."""
    chains = [fix5, fix8] + [random_chain(2 + i % 9, 52_000 + i) for i in range(20)]
    for tm in chains:
        sol = solve_chain(tm)
        m, pi, c, h = tm.n, sol.pi, sol.c, sol.h
        z = independent_z(tm, pi)
        explicit = m * np.einsum("k,kj->j", pi, h) + np.einsum("k,kj->j", c, z)
        np.testing.assert_allclose(explicit, m * (pi @ h) + c @ z, rtol=0, atol=1e-12)
        assert float(np.abs((1 + m) * pi - explicit).max()) < 1e-9


def test_stationary_recovery_and_row_sums():
    for i in range(30):
        tm = random_chain(2 + (i % 9), 51_000 + i)
        pi = stationary_direct(tm)
        h, _ = compute_h(tm)
        m = tm.n
        assert np.abs(column_sums(tm) @ h - pi).max() < 1e-10
        assert np.abs(h.sum(axis=1) - 1.0 / m).max() < 1e-10
        assert np.abs(h.sum(axis=0) - (1.0 - (m - 1) * pi)).max() < 1e-10


def test_column_constancy_and_positivity():
    for i in range(30):
        tm = random_chain(2 + (i % 9), 52_000 + i)
        pi = stationary_direct(tm)
        h, _ = compute_h(tm)
        z = independent_z(tm, pi)
        diff = z - h
        assert np.abs(diff - diff[0]).max() < 1e-10  # constant down each column
        assert (h.diagonal() > 0).all()
        assert (z.diagonal() > 0).all()
        gap = h.diagonal()[None, :] - h + np.eye(tm.n)  # keep diagonal positive
        assert (gap > 0).all()


def test_parametric_reexpression():
    # H = inv(I - P + e c^T/m) + (1/m - 1) e pi^T, the one-condition-inverse
    # parametric form of H with alpha = e, beta = c/m, gamma = 1/m - 1
    for i in range(15):
        tm = random_chain(2 + (i % 5), 53_000 + i)
        m = tm.n
        pi = stationary_direct(tm)
        h, _ = compute_h(tm)
        alt = np.linalg.inv(np.eye(m) - tm.p + np.tile(column_sums(tm), (m, 1)) / m)
        alt += (1.0 / m - 1.0) * np.tile(pi, (m, 1))
        assert np.abs(alt - h).max() < 1e-10


def test_parametric_reexpression_uniform_colsums_special_case(cycle3):
    # with c = e the beta vector degenerates to e/m and the all-ones form holds
    m = 3
    pi = stationary_direct(cycle3)
    alt = np.linalg.inv(np.eye(m) - cycle3.p + 1.0 / m) + (1.0 / m - 1.0) * np.tile(pi, (m, 1))
    assert np.abs(alt - compute_h(cycle3)[0]).max() < 1e-12


# The LAPACK inversion inside compute_h: inverse, condition number, refusal.
def test_invert_identity(cycle3):
    for tm in (cycle3, two_state(0.3, 0.1), random_chain(6, 54_000)):
        h, _ = compute_h(tm)
        np.testing.assert_allclose(colsum_system(tm) @ h, np.eye(tm.n), atol=1e-14)


def test_invert_hand_case():
    # P = [[3/4, 1/4], [1/2, 1/2]]: c = (5/4, 3/4), I - P + e c^T = [[3/2, 1/2], [3/4, 5/4]]
    h, _ = compute_h(two_state(0.25, 0.5))
    np.testing.assert_allclose(h, np.array([[5 / 6, -1 / 3], [-1 / 2, 1.0]]), atol=1e-14)


def test_invert_two_state_colsum_system():
    # a stack of a = b = 0.5 (c = (1, 1)) and a = 0.25, b = 0.5, each inverted on its own
    tm = TransitionMatrix(np.stack((two_state(0.5, 0.5).p, two_state(0.25, 0.5).p)))
    h, cond = compute_h(tm)
    np.testing.assert_allclose(h[0], np.array([[0.75, -0.25], [-0.25, 0.75]]), atol=1e-14)
    np.testing.assert_allclose(h[1], compute_h(two_state(0.25, 0.5))[0], atol=1e-15)
    assert cond.shape == (2,)


def test_singular_raises():
    # reducible matrices, past validate: their systems are exactly singular
    with pytest.raises(SingularMatrix):
        compute_h(TransitionMatrix(np.eye(2)))  # system e e^T
    with pytest.raises(SingularMatrix):
        compute_h(TransitionMatrix(np.eye(3)))
    with pytest.raises(SingularMatrix):
        compute_h(TransitionMatrix(two_block(4, 0.0)))


def test_non_square_rejected():
    with pytest.raises(ValueError):  # cannot form I - P, so no H is returned
        compute_h(TransitionMatrix(np.full((2, 3), 1.0 / 3.0)))
    with pytest.raises(SingularMatrix):  # NaN condition number
        compute_h(TransitionMatrix(np.array([[1.0, np.nan], [0.0, 1.0]])))


def test_condition_identity():
    # the one-state system is the identity; a = b = 0.5 gives ||A||_1 = 2, ||H||_1 = 1
    assert compute_h(validate(np.array([[1.0]])))[1] == pytest.approx(1.0)
    assert compute_h(two_state(0.5, 0.5))[1] == pytest.approx(2.0)


def test_condition_diagonal_ratio():
    # a = b = eps: I - P + e c^T has eigenvalues 2 and 2 eps
    tm = two_state(1e-6, 1e-6)
    _, cond = compute_h(tm)
    assert 1e5 < cond < 1e7
    assert cond == pytest.approx(np.linalg.cond(colsum_system(tm), 1), rel=1e-8)


def test_condition_fix8_system_unflagged(fix8):
    _, cond = compute_h(fix8)
    assert np.isfinite(cond) and cond < 1e8


def test_determinism():
    tm = random_chain(6, 54_001)
    assert np.array_equal(compute_h(tm)[0], compute_h(tm)[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
def test_inverse_residual_property(n, seed):
    tm = random_chain(n, seed)
    a = colsum_system(tm)
    h, cond = compute_h(tm)
    if cond >= 1e8:
        return
    assert np.abs(a @ h - np.eye(n)).max() < 1e-10
    assert np.abs(h @ a - np.eye(n)).max() < 1e-10
    assert cond == pytest.approx(np.linalg.cond(a, 1), rel=1e-8)
