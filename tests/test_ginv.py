import numpy as np
import pytest

from mcsum.analysis import solve_chain
from mcsum.chain import column_sums, validate
from mcsum.ginv import (
    compute_h,
    compute_z,
    group_inverse,
    h_from_z,
    theorem2_residuals,
    z_from_h,
)
from mcsum.oracle import stationary_direct
from mcsum.scan import random_chain
from tests.conftest import FIX5_H, FIX5_H_COL_SUMS, FIX5_KEMENY, two_state


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


def test_compute_z_two_state_half():
    tm = two_state(0.5, 0.5)
    z = compute_z(tm, stationary_direct(tm))
    np.testing.assert_allclose(z, np.eye(2), atol=1e-14)


def test_compute_z_fix5_trace(fix5):
    pi = stationary_direct(fix5)
    z = compute_z(fix5, pi)
    assert z.trace() == pytest.approx(FIX5_KEMENY, abs=5e-3)
    np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(pi @ z, pi, atol=1e-12)


def test_compute_z_one_state():
    tm = validate(np.array([[1.0]]))
    z = compute_z(tm, stationary_direct(tm))
    np.testing.assert_allclose(z, [[1.0]], atol=0)


def test_group_inverse_cases(fix5):
    tm1 = validate(np.array([[1.0]]))
    pi1 = stationary_direct(tm1)
    gi1 = group_inverse(compute_z(tm1, pi1), pi1)
    np.testing.assert_allclose(gi1, [[0.0]], atol=0)

    tm2 = two_state(0.5, 0.5)
    pi2 = stationary_direct(tm2)
    gi2 = group_inverse(compute_z(tm2, pi2), pi2)
    np.testing.assert_allclose(gi2, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    pi = stationary_direct(fix5)
    gi = group_inverse(compute_z(fix5, pi), pi)
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
        z_from_h(h, pi), compute_z(fix5, pi), atol=1e-10
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
    z = compute_z(fix5, pi)
    h, _ = compute_h(fix5)
    np.testing.assert_allclose(h_from_z(z, pi, column_sums(fix5)), h, atol=1e-10)


def test_h_from_z_doubly_stochastic_shift(cycle3):
    pi = stationary_direct(cycle3)
    z = compute_z(cycle3, pi)
    h, _ = compute_h(cycle3)
    m = 3
    np.testing.assert_allclose(h, z + (1.0 - m) / m**2, atol=1e-12)
    np.testing.assert_allclose(h_from_z(z, pi, column_sums(cycle3)), h, atol=1e-12)


def test_h_from_z_one_state():
    tm = validate(np.array([[1.0]]))
    pi = stationary_direct(tm)
    z = compute_z(tm, pi)
    np.testing.assert_allclose(h_from_z(z, pi, np.array([1.0])), [[1.0]], atol=0)


def test_round_trips_on_random_chains():
    for i in range(40):
        tm = random_chain(2 + (i % 9), 50_000 + i)
        pi = stationary_direct(tm)
        h, _ = compute_h(tm)
        z = compute_z(tm, pi)
        c = column_sums(tm)
        assert np.abs(z_from_h(h, pi) - z).max() < 1e-10
        assert np.abs(h_from_z(z, pi, c) - h).max() < 1e-10
        round_trip = h_from_z(z_from_h(h, pi), pi, c)
        assert np.abs(round_trip - h).max() < 1e-10


def test_theorem2_residuals_fixtures(fix5, fix8):
    for tm in (fix5, fix8):
        resid = theorem2_residuals(solve_chain(tm))
        assert len(resid) == 5
        assert max(resid.values()) < 1e-9


def test_theorem2_residuals_two_state():
    tm = two_state(0.3, 0.1)
    resid = theorem2_residuals(solve_chain(tm))
    assert max(resid.values()) < 1e-12


def test_stationary_combination_explicit_sums(fix5, fix8):
    """The elementwise (1+m) pi_j = m sum_k pi_k h_kj + sum_k c_k z_kj,
    written with explicit sums, agrees with the vector row that is kept."""
    row = "(1+m) pi^T = m pi^T H + c^T Z"
    chains = [fix5, fix8] + [random_chain(2 + i % 9, 52_000 + i) for i in range(20)]
    for tm in chains:
        sol = solve_chain(tm)
        m, pi, c, h, z = tm.n, sol.pi, sol.c, sol.h, sol.z
        explicit = m * np.einsum("k,kj->j", pi, h) + np.einsum("k,kj->j", c, z)
        np.testing.assert_allclose(explicit, m * (pi @ h) + c @ z, rtol=0, atol=1e-12)
        resid = float(np.abs((1 + m) * pi - explicit).max())
        assert resid == pytest.approx(theorem2_residuals(sol)[row], abs=1e-12)
        assert resid < 1e-9


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
        z = compute_z(tm, pi)
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
