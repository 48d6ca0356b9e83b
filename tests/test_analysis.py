from dataclasses import fields

import numpy as np
import pytest

from mcsum.analysis import (
    bounds_check,
    doubly_stochastic_report,
    h_from_mfpt,
    identity_residuals,
    kemeny_from_h,
    kemeny_from_z,
    kemeny_general,
    mfpt_general,
    solve_chain,
    stationary_from_h,
)
from mcsum.chain import column_sums, validate
from mcsum.ginv import compute_h, group_inverse
from mcsum.oracle import stationary_direct, two_state_closed_form
from mcsum.report import report_to_dict
from mcsum.scan import random_chain
from tests.conftest import (
    FIX5_KEMENY,
    FIX5_M,
    FIX5_PI,
    FIX8_KEMENY,
    FIX8_PI,
    random_doubly_stochastic,
    two_state,
)


def _pi_from_h(tm):
    return stationary_from_h(compute_h(tm)[0], column_sums(tm))


def test_stationary_from_h_fixtures(fix5, fix8):
    np.testing.assert_allclose(_pi_from_h(fix5), FIX5_PI, atol=5e-4)
    np.testing.assert_allclose(_pi_from_h(fix8), FIX8_PI, atol=5e-4)


def test_stationary_from_h_two_state():
    np.testing.assert_allclose(_pi_from_h(two_state(0.3, 0.1)), [0.25, 0.75], atol=1e-14)


def test_stationary_from_h_matches_direct(fix5, fix8):
    for tm in (fix5, fix8):
        np.testing.assert_allclose(_pi_from_h(tm), stationary_direct(tm), atol=1e-10)


def test_mfpt_from_h_fix5(fix5):
    sol = solve_chain(fix5)
    np.testing.assert_allclose(sol.mfpt, FIX5_M, atol=5e-4)
    assert sol.mfpt[0, 1] == pytest.approx(15.2435, abs=5e-4)
    assert sol.mfpt[4, 0] == pytest.approx(9.0204, abs=5e-4)


def test_mfpt_from_h_two_state():
    tm = two_state(0.3, 0.1)
    sol = solve_chain(tm)
    np.testing.assert_allclose(
        sol.mfpt, [[4.0, 10.0 / 3.0], [10.0, 4.0 / 3.0]], atol=1e-12
    )


def test_mfpt_from_h_cycle(cycle3):
    sol = solve_chain(cycle3)
    np.testing.assert_allclose(sol.mfpt, [[3, 1, 2], [2, 3, 1], [1, 2, 3]], atol=1e-12)


def test_mfpt_matrix_invariants(fix5, fix8):
    for tm in (fix5, fix8):
        sol = solve_chain(tm)
        assert (sol.mfpt >= 1.0 - 1e-12).all()
        np.testing.assert_allclose(sol.mfpt.diagonal(), 1.0 / sol.pi, atol=1e-9)
        resid = (np.eye(tm.n) - tm.p) @ sol.mfpt - (1.0 - tm.p @ np.diag(sol.mfpt.diagonal()))
        assert np.abs(resid).max() < 1e-8


def test_mfpt_general_invariance(fix5):
    sol = solve_chain(fix5)
    from_h = mfpt_general(sol.h, sol.pi)
    from_z = mfpt_general(sol.z, sol.pi)
    from_gi = mfpt_general(group_inverse(sol.z, sol.pi), sol.pi)
    np.testing.assert_allclose(from_h, sol.mfpt, atol=1e-9)
    np.testing.assert_allclose(from_z, from_h, atol=1e-9)
    np.testing.assert_allclose(from_gi, from_h, atol=1e-9)


def test_kemeny_variants_fixtures(fix5, fix8):
    sol5 = solve_chain(fix5)
    assert kemeny_from_h(sol5.h) == pytest.approx(FIX5_KEMENY, abs=5e-3)
    assert kemeny_from_z(sol5.z) == pytest.approx(FIX5_KEMENY, abs=5e-3)
    k_group = kemeny_general(group_inverse(sol5.z, sol5.pi), sol5.pi)
    assert k_group == pytest.approx(FIX5_KEMENY, abs=5e-3)
    sol8 = solve_chain(fix8)
    assert kemeny_from_z(sol8.z) == pytest.approx(FIX8_KEMENY, abs=1e-3)


def test_kemeny_two_state():
    sol = solve_chain(two_state(0.3, 0.1))
    assert kemeny_from_h(sol.h) == pytest.approx(3.5, abs=1e-12)
    assert kemeny_general(sol.h, sol.pi) == pytest.approx(3.5, abs=1e-12)
    minimal = solve_chain(two_state(1.0, 1.0))
    assert kemeny_from_z(minimal.z) == pytest.approx(1.5, abs=1e-14)


def test_kemeny_cycle(cycle3):
    sol = solve_chain(cycle3)
    assert kemeny_from_z(sol.z) == pytest.approx(2.0, abs=1e-14)


def test_kemeny_row_constancy(fix8):
    sol = solve_chain(fix8)
    k = kemeny_from_z(sol.z)
    per_row = sol.mfpt @ sol.pi
    assert np.abs(per_row - k).max() < 1e-9


def test_h_from_mfpt_reconstructs(fix5):
    sol = solve_chain(fix5)
    rebuilt = h_from_mfpt(sol.mfpt, sol.pi, sol.c)
    np.testing.assert_allclose(rebuilt, sol.h, atol=1e-9)

    f = two_state_closed_form(0.3, 0.1)
    tm = two_state(0.3, 0.1)
    sol2 = solve_chain(tm)
    np.testing.assert_allclose(
        h_from_mfpt(sol2.mfpt, sol2.pi, sol2.c), f.h, atol=1e-12
    )


def test_h_from_mfpt_round_trip_random():
    for i in range(25):
        tm = random_chain(2 + (i % 9), 68_000 + i)
        sol = solve_chain(tm)
        rebuilt = h_from_mfpt(sol.mfpt, sol.pi, sol.c)
        assert np.abs(rebuilt - sol.h).max() < 1e-9


def test_rank_one_colsum_identities(fix5):
    # C H = Pi, C Pi = m Pi, C^2 = m C with C = e c^T and Pi = e pi^T
    sol = solve_chain(fix5)
    m = fix5.n
    c_mat = np.tile(sol.c, (m, 1))
    pi_mat = np.tile(sol.pi, (m, 1))
    assert np.abs(c_mat @ sol.h - pi_mat).max() < 1e-10
    assert np.abs(c_mat @ pi_mat - m * pi_mat).max() < 1e-10
    assert np.abs(c_mat @ c_mat - m * c_mat).max() < 1e-10


def test_identity_residuals_fixtures(fix5, fix8):
    for tm in (fix5, fix8):
        sol = solve_chain(tm)
        resid = identity_residuals(sol)
        assert len(resid) == 10
        assert max(resid.values()) < 1e-8


def test_identity_residuals_random():
    for i in range(25):
        tm = random_chain(2 + (i % 9), 61_000 + i)
        sol = solve_chain(tm)
        resid = identity_residuals(sol)
        assert max(resid.values()) < 1e-8


def test_bounds_equality_two_state():
    sol = solve_chain(two_state(1.0, 1.0))
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(0.0, abs=1e-12)
    assert b.trace_h_margin == pytest.approx(0.0, abs=1e-12)
    assert (b.pi_upper_margins > 0).all()


def test_bounds_worst_margin():
    for tm in (two_state(1.0, 1.0), two_state(0.3, 0.1), random_chain(6, 61_500)):
        b = bounds_check(solve_chain(tm))
        margins = [
            np.min(getattr(b, f.name))
            for f in fields(b)
            if f.name.endswith(("_margin", "_margins"))
        ]
        assert len(margins) == 6
        assert b.worst_margin == min(margins)
        assert "worst_margin" not in report_to_dict(b)
    assert bounds_check(solve_chain(two_state(1.0, 1.0))).worst_margin == pytest.approx(
        0.0, abs=1e-12
    )


def test_bounds_equality_cycle(cycle3):
    sol = solve_chain(cycle3)
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(0.0, abs=1e-12)
    assert b.trace_h_margin == pytest.approx(0.0, abs=1e-12)


def test_bounds_fix5(fix5):
    sol = solve_chain(fix5)
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(FIX5_KEMENY - 3.0, abs=5e-3)
    assert b.trace_h_weak_margin > 0
    assert (b.pi_lower_offdiag_margins > 0).all()
    assert (b.pi_lower_colsum_margins > 0).all()


def test_bounds_margins_recompute(fix8):
    sol = solve_chain(fix8)
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(b.kemeny - b.kemeny_lower, abs=1e-12)
    assert b.trace_h_margin == pytest.approx(b.trace_h - b.trace_h_lower, abs=1e-12)
    np.testing.assert_allclose(
        b.pi_upper_margins, fix8.n * sol.h.diagonal() - sol.pi, atol=1e-12
    )


def test_doubly_stochastic_cycle(cycle3):
    rep = doubly_stochastic_report(solve_chain(cycle3))
    assert rep.applicable
    assert rep.pi_uniform_residual < 1e-12
    assert max(
        rep.h_shift_residual,
        rep.col_total_vs_h_residual,
        rep.col_total_vs_z_residual,
        rep.row_total_vs_kemeny_residual,
        rep.grand_total_vs_kemeny_residual,
    ) < 1e-9
    # the 3-cycle achieves the row-total floor m(m+1)/2 = 6 exactly
    np.testing.assert_allclose(rep.row_total_margins, 0.0, atol=1e-12)


def test_doubly_stochastic_random_mixtures():
    for i in range(12):
        tm = random_doubly_stochastic(4, 62_000 + i)
        rep = doubly_stochastic_report(solve_chain(tm))
        assert rep.applicable
        assert rep.pi_uniform_residual < 1e-10
        assert max(
            rep.h_shift_residual,
            rep.col_total_vs_h_residual,
            rep.col_total_vs_z_residual,
            rep.row_total_vs_kemeny_residual,
            rep.grand_total_vs_kemeny_residual,
        ) < 1e-9
        assert (rep.row_total_margins > -1e-9).all()


def test_doubly_stochastic_not_applicable(fix8):
    rep = doubly_stochastic_report(solve_chain(fix8))
    assert not rep.applicable
    assert rep.colsum_deviation == pytest.approx(1.326, abs=1e-12)
    assert rep.pi_uniform_residual is None


def test_uniformity_equivalence_both_directions():
    # c = e within 1e-9 iff pi = e/m within 1e-9, over a mixed population
    chains = [random_doubly_stochastic(m, 63_000 + m) for m in (3, 4, 5)]
    chains += [random_chain(m, 64_000 + m) for m in (3, 4, 5)]
    perturbed = random_doubly_stochastic(4, 65_000).p.copy()
    perturbed[0, 0] += 1e-3
    perturbed[0, 1] -= 1e-3
    chains.append(validate(perturbed))
    for tm in chains:
        c_uniform = np.abs(tm.p.sum(axis=0) - 1.0).max() < 1e-9
        pi_uniform = np.abs(stationary_direct(tm) - 1.0 / tm.n).max() < 1e-9
        assert c_uniform == pi_uniform


def test_kemeny_lower_bound_random():
    for i in range(25):
        tm = random_chain(2 + (i % 9), 66_000 + i)
        sol = solve_chain(tm)
        assert kemeny_from_z(sol.z) >= (tm.n + 1) / 2.0 - 1e-9
