import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum import analysis
from mcsum.analysis import (
    IDENTITY_ROWS,
    IDENTITY_TOL,
    RESIDUAL_ROWS,
    bounds_check,
    compute_h,
    doubly_stochastic_report,
    h_from_mfpt,
    identity_residuals,
    kemeny_from_h,
    mfpt_from_h,
    residuals,
    solve_chain,
    stationary_from_h,
    z_from_h,
)
from mcsum.chain import TransitionMatrix, column_sums, validate
from mcsum.errors import SingularMatrix
from mcsum.oracle import mfpt_general, stationary_direct, two_state_closed_form
from mcsum.report import report_to_dict
from mcsum.rng import derive_stream
from mcsum.scan import random_chain, random_chains
from tests.conftest import (
    FIX5_KEMENY,
    FIX5_M,
    FIX5_PI,
    FIX8_KEMENY,
    FIX8_PI,
    cycle3_matrix,
    independent_z,
    injected_errors,
    random_doubly_stochastic,
    two_block,
    two_state,
    uniform_totals,
)
from tests.oracles import group_inverse, kemeny_general


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


def _chain_or_stack(stack: bool) -> TransitionMatrix:
    """A stack of four random 9-state chains, or the first of them."""
    p = random_chains(9, derive_stream(7, np.arange(4)))
    return TransitionMatrix(p=p if stack else p[0])


@pytest.mark.parametrize("stack", [False, True], ids=["chain", "stack"])
def test_mfpt_from_h_is_its_formula_bit_for_bit(stack):
    tm = _chain_or_stack(stack)
    h, pi = compute_h(tm)[0], stationary_direct(tm)
    want = (h.diagonal(axis1=-2, axis2=-1)[..., None, :] - h + np.eye(tm.n)) / pi[..., None, :]
    got = mfpt_from_h(h, pi)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


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
    z = independent_z(fix5, sol.pi)
    from_z = mfpt_general(z, sol.pi)
    from_gi = mfpt_general(group_inverse(z, sol.pi), sol.pi)
    np.testing.assert_allclose(from_h, sol.mfpt, atol=1e-9)
    np.testing.assert_allclose(from_z, from_h, atol=1e-9)
    np.testing.assert_allclose(from_gi, from_h, atol=1e-9)


def test_kemeny_variants_fixtures(fix5, fix8):
    # K from H, from Z's trace and from Hunter's formula on the group inverse
    sol5 = solve_chain(fix5)
    z5 = independent_z(fix5, sol5.pi)
    assert kemeny_from_h(sol5.h) == pytest.approx(FIX5_KEMENY, abs=5e-3)
    assert np.trace(z5) == pytest.approx(FIX5_KEMENY, abs=5e-3)
    k_group = kemeny_general(group_inverse(z5, sol5.pi), sol5.pi)
    assert k_group == pytest.approx(FIX5_KEMENY, abs=5e-3)
    sol8 = solve_chain(fix8)
    assert kemeny_from_h(sol8.h) == pytest.approx(FIX8_KEMENY, abs=1e-3)
    assert np.trace(z_from_h(sol8.h, sol8.pi)) == pytest.approx(kemeny_from_h(sol8.h), rel=1e-14)


def test_kemeny_two_state():
    sol = solve_chain(two_state(0.3, 0.1))
    assert kemeny_from_h(sol.h) == pytest.approx(3.5, abs=1e-12)
    assert kemeny_general(sol.h, sol.pi) == pytest.approx(3.5, abs=1e-12)
    minimal = solve_chain(two_state(1.0, 1.0))
    assert kemeny_from_h(minimal.h) == pytest.approx(1.5, abs=1e-14)


def test_kemeny_cycle(cycle3):
    sol = solve_chain(cycle3)
    assert kemeny_from_h(sol.h) == pytest.approx(2.0, abs=1e-14)


def test_kemeny_row_constancy(fix8):
    sol = solve_chain(fix8)
    k = kemeny_from_h(sol.h)
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
        resid = dict(zip(IDENTITY_ROWS, identity_residuals(solve_chain(tm))))
        assert len(resid) == 10
        assert max(resid.values()) < 1e-8


def test_identity_residuals_random():
    for i in range(25):
        tm = random_chain(2 + (i % 9), 61_000 + i)
        resid = dict(zip(IDENTITY_ROWS, identity_residuals(solve_chain(tm))))
        assert max(resid.values()) < 1e-8


def test_each_residual_row_is_its_own_formula(fix8):
    # perturbed by different amounts, every row takes its own nonzero value, so
    # a row filed under another row's name differs from that name's formula
    sol = solve_chain(fix8)
    m, p = fix8.n, fix8.p
    g = np.random.default_rng(20)
    c = sol.c + 1e-5 * g.standard_normal(m)
    pi = sol.pi - np.linspace(1e-3, 1.2e-2, m)  # pi_8 < 0 breaks a lower bound
    h = sol.h + 1e-4 * g.standard_normal((m, m))
    mfpt = sol.mfpt + 1e-2 * g.standard_normal((m, m))
    h_d, m_d, col, cm = np.diag(h), np.diag(mfpt), mfpt.sum(axis=0), c @ mfpt
    c_off, off = cm - c * m_d, col - m_d  # the sums over i != j
    sol = replace(sol, c=c, pi=pi, h=h, mfpt=mfpt, h_diag=h_d, m_diag=m_d,
                  col_totals=col, c_weighted=cm, c_off=c_off)
    e, eye = np.ones(m), np.eye(m)
    trace_h = np.trace(h)
    margins = [1 - 1 / m + trace_h - (m + 1) / 2, trace_h - 1 / m, *(m * h_d - pi),
               *(pi - 1 / (m + c_off)), *(pi - c / (1 + cm))]
    want = {
        "c^T H = pi^T": c @ h - pi,
        "sum_j c_j = m": c.sum() - m,
        "H - PH = I - e pi^T": h - p @ h - (eye - np.outer(e, pi)),
        "H - HP = I - e c^T/m": h - h @ p - (eye - np.outer(e, c) / m),
        "He = e/m": h @ e - e / m,
        "e^T H = e^T - (m-1) pi^T": e @ h - (e - (m - 1) * pi),
        "inequality margins (negative part)": min(0.0, min(margins)),
        "(I-P)M = E - P M_d": (eye - p) @ mfpt - (np.ones((m, m)) - p @ np.diag(m_d)),
        "m_.j - sum_i c_i m_ij = m - c_j m_jj": col - cm - (m - c * m_d),
        "sum_i c_i m_ij = c_j m_jj - 1 + m h_jj m_jj": cm - (c * m_d - 1 + m * h_d * m_d),
        "m_.j = m - 1 + m h_jj m_jj": col - (m - 1 + m * h_d * m_d),
        "pi_j (m - m_.j + sum_i c_i m_ij) = c_j": pi * (m - col + cm) - c,
        "pi_j (m - sum_i!=j m_ij + sum_i!=j c_i m_ij) = 1": pi * (m - off + c_off) - 1,
        "pi_j (1 + sum_i c_i m_ij) = c_j + m h_jj": pi * (1 + cm) - (c + m * h_d),
        "pi_j (1 + sum_i!=j c_i m_ij) = m h_jj": pi * (1 + c_off) - m * h_d,
        "pi_j (1 + m_.j - m) = m h_jj": pi * (1 + col - m) - m * h_d,
        "pi_j (1 + sum_i!=j m_ij - m) = m h_jj - 1": pi * (1 + off - m) - (m * h_d - 1),
    }
    want = {name: float(np.abs(err).max()) for name, err in want.items()}
    got = {**dict(zip(RESIDUAL_ROWS, residuals(sol).tolist())),
           **dict(zip(IDENTITY_ROWS, identity_residuals(sol).tolist()))}
    assert list(got) == list(want)
    values = sorted(want.values())
    assert values[0] > 0 and all(b > a * (1 + 1e-8) for a, b in zip(values, values[1:]))
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("stack", [False, True], ids=["chain", "stack"])
def test_residuals_are_each_row_errors_max_abs_bit_for_bit(stack):
    sol = solve_chain(_chain_or_stack(stack))
    chains = sol.c.shape[:-1]
    arrays = {f.name: getattr(sol, f.name) for f in fields(sol)
              if isinstance(getattr(sol, f.name), np.ndarray)}
    kept = {name: a.copy() for name, a in arrays.items()}
    for table, errors in ((residuals, analysis._h_errors),
                          (identity_residuals, analysis._identity_errors)):
        want = [np.abs(e).reshape(*chains, -1).max(axis=-1) for e in errors(sol).values()]
        got = table(sol)
        assert got.tobytes() == np.array(want).tobytes()
        # the in-place reduction writes over the error formulas' temporaries only
        assert all(np.array_equal(arrays[name], a) for name, a in kept.items())


def test_residuals_make_no_stacked_copy_of_the_matrix_rows():
    # at m = 200 the traced peak of either table is 2.21 m x m float64 arrays:
    # the two matrix rows of _h_errors, each formed over its product, or the
    # temporaries of the (I-P)M row; stacking the matrix rows into a new array
    # before reducing them would add one m x m array per row
    m = 200
    sol = solve_chain(random_chain(m, 1))
    for table in (residuals, identity_residuals):
        table(sol)
        tracemalloc.start()
        try:
            table(sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * m * m * 8, (table.__name__, peak / (m * m * 8))


def test_a_residual_name_without_a_formula_fails_loudly(fix8, monkeypatch):
    sol = solve_chain(fix8)
    monkeypatch.setattr(analysis, "RESIDUAL_ROWS", RESIDUAL_ROWS[:-1])
    with pytest.raises(RuntimeError, match="RESIDUAL_ROWS"):
        residuals(sol)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=2**32),
       in_h=st.booleans(), data=st.data())
def test_an_error_in_h_or_pi_fails_the_h_rows(m, seed, in_h, data):
    # an error of 100 IDENTITY_TOL in one entry h_ij moves row i of He by as
    # much, and one in pi_j moves entry j of c^T H - pi^T: the verdict on H's
    # own rows catches an error in either
    tm = random_chain(m, seed)
    assert residuals(solve_chain(tm)).max() <= IDENTITY_TOL
    error = np.zeros((m, m) if in_h else m)
    error[data.draw(st.tuples(*[st.integers(0, m - 1)] * error.ndim))] = data.draw(
        st.sampled_from([-100 * IDENTITY_TOL, 100 * IDENTITY_TOL]))
    with injected_errors(**{"dh" if in_h else "dpi": error}):
        rows = dict(zip(RESIDUAL_ROWS, residuals(solve_chain(tm))))
    assert rows["He = e/m" if in_h else "c^T H = pi^T"] >= 99 * IDENTITY_TOL
    assert max(rows.values()) > IDENTITY_TOL


def _dyadic_chain(m: int, seed: int, sparsity: float) -> TransitionMatrix:
    """``random_chain``'s P in multiples of 2^-20, its zeros kept and each row
    summing to exactly 1, so its column sums add up to exactly m."""
    q = random_chain(m, seed, sparsity).p
    k = np.where(q > 0, np.maximum(np.floor(q * 2.0**20), 1.0), 0.0)
    k[np.arange(m), k.argmax(axis=1)] += 2.0**20 - k.sum(axis=1)
    return validate(k / 2.0**20)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs a long double wider than float64")
@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=3, max_value=12), seed=st.integers(min_value=0, max_value=2**32),
       sparsity=st.sampled_from([0.0, 0.5]))
def test_passage_time_rows_restate_the_h_rows(m, seed, sparsity):
    """With M read off H and pi, each IDENTITY_ROWS error is a +-1 combination
    of H's rows, divided by pi_j or not: of r_c (the c^T H = pi^T row) and r_e
    (the e^T H row), or, column by column, -R/pi_j with R the H - PH row.  So
    the H rows lose nothing.  Checked on 1e-6 Gaussian errors in H and pi, in
    long double and on a P whose rows sum to exactly 1: in float64 the rows'
    own rounding, eps times terms up to m/pi_j, reaches 1e-9 of such an error."""
    tm = _dyadic_chain(m, seed, sparsity)
    g = np.random.default_rng(seed)
    dh = (1e-6 * g.standard_normal((m, m))).astype(np.longdouble)
    with injected_errors(dh=dh, dpi=1e-6 * g.standard_normal(m)):
        sol = solve_chain(tm)
    h, pi, c, e = sol.h, sol.pi, sol.c, np.ones(m)
    assert h.dtype == sol.mfpt.dtype == np.longdouble
    r_c = c @ h - pi
    r_e = e @ h - e + (m - 1) * pi
    big_r = h - tm.p @ h - np.eye(m) + pi
    want = dict(zip(IDENTITY_ROWS, (-big_r / pi, (r_c - r_e) / pi, -r_c / pi, -r_e / pi,
                                    r_e - r_c, r_e - r_c, -r_c, -r_c, -r_e, -r_e)))
    errors = analysis._identity_errors(sol)
    assert list(errors) == list(want)
    for name, err in errors.items():
        assert np.abs(err - want[name]).max() <= 1e-9 * np.abs(want[name]).max(), name


def test_bounds_equality_two_state():
    sol = solve_chain(two_state(1.0, 1.0))
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(0.0, abs=1e-12)
    assert (b.pi_upper_margins > 0).all()


def test_bounds_worst_margin():
    for tm in (two_state(1.0, 1.0), two_state(0.3, 0.1), random_chain(6, 61_500)):
        b = bounds_check(solve_chain(tm))
        margins = [
            np.min(getattr(b, f.name))
            for f in fields(b)
            if f.name.endswith(("_margin", "_margins"))
        ]
        assert len(margins) == 4
        assert b.worst_margin == min(margins)
        assert "worst_margin" not in report_to_dict(b)
    assert bounds_check(solve_chain(two_state(1.0, 1.0))).worst_margin == pytest.approx(
        0.0, abs=1e-12
    )


def test_bounds_equality_cycle(cycle3):
    sol = solve_chain(cycle3)
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(0.0, abs=1e-12)


def _check_weak_trace_margin_never_binds(tm):
    """tr H - 1/m = K - 1 is the margin of tr H >= 1/m, which K >= (m+1)/2
    implies: it is never below ``kemeny_margin``, so ``worst_margin`` with it
    put back is, bit for bit, ``worst_margin`` without it."""
    sol = solve_chain(tm)
    b = bounds_check(sol)
    weak = sol.h.trace(axis1=-2, axis2=-1) - 1.0 / tm.n
    assert np.all(b.kemeny_margin <= weak)
    per_state = np.concatenate(
        (b.pi_upper_margins, b.pi_lower_offdiag_margins, b.pi_lower_colsum_margins), axis=-1)
    with_weak = np.minimum(np.minimum(b.kemeny_margin, weak), per_state.min(axis=-1))
    assert np.asarray(b.worst_margin).tobytes() == np.asarray(with_weak).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=9),
    sparsity=st.sampled_from([0.0, 0.5]),
)
def test_weak_trace_margin_never_binds(m, seeds, sparsity):
    _check_weak_trace_margin_never_binds(
        TransitionMatrix(p=random_chains(m, np.array(seeds, dtype=np.uint64), sparsity)))
    _check_weak_trace_margin_never_binds(random_chain(m, seeds[0], sparsity))


@pytest.mark.parametrize("make", [
    lambda: validate(np.array([[1.0]])),  # m = 1: both margins are tr H - 1 = 0
    lambda: two_state(1.0, 1.0),
    lambda: two_state(0.3, 0.1),
    cycle3_matrix,
    lambda: validate(two_block(10, 1e-10)),  # tr H near 5e9
], ids=["m1", "flip", "two_state", "cycle3", "near_reducible"])
def test_weak_trace_margin_never_binds_on_boundary_chains(make):
    _check_weak_trace_margin_never_binds(make())


def test_bounds_fix5(fix5):
    sol = solve_chain(fix5)
    b = bounds_check(sol)
    assert b.kemeny_margin == pytest.approx(FIX5_KEMENY - 3.0, abs=5e-3)
    assert (b.pi_lower_offdiag_margins > 0).all()
    assert (b.pi_lower_colsum_margins > 0).all()


def test_bounds_margins_recompute(fix8):
    sol = solve_chain(fix8)
    b = bounds_check(sol)
    m = fix8.n
    assert b.kemeny_margin == 1 - 1 / m + np.trace(sol.h) - (m + 1) / 2
    np.testing.assert_allclose(b.pi_lower_offdiag_margins, sol.pi - 1 / (m + sol.c_off), atol=1e-12)
    np.testing.assert_allclose(
        b.pi_lower_colsum_margins, sol.pi - sol.c / (1 + sol.c @ sol.mfpt), atol=1e-12)
    np.testing.assert_allclose(b.pi_upper_margins, m * sol.h.diagonal() - sol.pi, atol=1e-12)


def test_doubly_stochastic_cycle(cycle3):
    sol = solve_chain(cycle3)
    rep = doubly_stochastic_report(sol)
    assert rep.applicable
    assert rep.pi_uniform_residual < 1e-12
    col_vs_h, row_vs_kemeny, grand_vs_kemeny, row_margins = uniform_totals(sol.h, sol.mfpt)
    assert max(np.abs(col_vs_h).max(), np.abs(row_vs_kemeny).max(), abs(grand_vs_kemeny)) < 1e-9
    # the 3-cycle achieves the row-total floor m(m+1)/2 = 6 exactly
    np.testing.assert_allclose(row_margins, 0.0, atol=1e-12)


def test_doubly_stochastic_random_mixtures():
    for i in range(12):
        sol = solve_chain(random_doubly_stochastic(4, 62_000 + i))
        rep = doubly_stochastic_report(sol)
        assert rep.applicable
        assert rep.pi_uniform_residual < 1e-10
        col_vs_h, row_vs_kemeny, grand_vs_kemeny, row_margins = uniform_totals(sol.h, sol.mfpt)
        assert max(np.abs(col_vs_h).max(), np.abs(row_vs_kemeny).max(), abs(grand_vs_kemeny)) < 1e-9
        assert (row_margins > -1e-9).all()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=3, max_value=10), seed=st.integers(min_value=0, max_value=2**32))
def test_doubly_stochastic_totals_restate_the_h_rows(m, seed):
    """With pi = e/m and M read off H, each uniform-stationary total is a fixed
    combination of H's rows: with r_he the He = e/m row and r_e the e^T H row,
    m_.j - (m - 1 + m^2 h_jj) is -m r_e, m_i. - m K is -m r_he, K - m_../m^2 is
    (sum r_he + sum r_e)/(2m), and the row-total margins are -m r_he plus
    m (K - (m+1)/2).  So the report need not hold them.  Checked on a 1e-6
    Gaussian error in H: the fits are exact in exact arithmetic, and over
    3000 chains at m = 3..12 the float64 misfit stayed below 0.8 eps times the
    grand total m_.., and the -m r_he and -m r_e rows were at least 1e4 times that."""
    sol = solve_chain(random_doubly_stochastic(m, seed))
    h = sol.h + 1e-6 * np.random.default_rng(seed).standard_normal((m, m))
    mfpt = mfpt_from_h(h, np.full(m, 1.0 / m))
    r_he, r_e = h.sum(axis=1) - 1.0 / m, h.sum(axis=0) - 1.0 / m
    kemeny_margin = kemeny_from_h(h) - (m + 1) / 2.0
    want = (-m * r_e, -m * r_he, (r_he.sum() + r_e.sum()) / (2 * m), -m * r_he + m * kemeny_margin)
    for got, w in zip(uniform_totals(h, mfpt), want, strict=True):
        assert np.abs(got - w).max() <= 4 * np.finfo(float).eps * mfpt.sum()


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
        assert kemeny_from_h(sol.h) >= (tm.n + 1) / 2.0 - 1e-9


def tiny_link(e: float) -> np.ndarray:
    """An irreducible, well-conditioned chain whose third state is entered
    with probability `e` only: its pi_3 is about e / 2."""
    return np.array([[0.5, 0.5, 0.0], [0.5, 0.5, e], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize("e", [1e-16, 1e-17, 1e-100, 1e-300, 1e-310])
def test_solve_chain_refuses_a_stationary_probability_rounded_to_zero(e):
    tm = validate(tiny_link(e))
    assert compute_h(tm)[1] < 10  # not a condition-number refusal
    assert stationary_direct(tm)[2] == 0.0  # -0.0: M would divide by it
    with pytest.raises(SingularMatrix, match="stationary probability -0.000e"):
        solve_chain(tm)


def test_solve_chain_refuses_passage_times_beyond_float_range():
    # the tiny link's chain in another state order: the direct solver keeps
    # pi_1 = 5e-311 positive, and 1 / pi_1 overflows
    tm = validate(np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [1e-310, 0.5, 0.5]]))
    assert 0.0 < stationary_direct(tm)[0] < 1e-308
    with pytest.raises(SingularMatrix, match="overflow"):
        solve_chain(tm)
