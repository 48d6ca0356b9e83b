"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines.
"""
import json
import time

import numpy as np

from mcsum.analysis import (
    IDENTITY_ROWS,
    RESIDUAL_ROWS,
    THEOREM2_ROWS,
    bounds_check,
    doubly_stochastic_report,
    h_from_mfpt,
    identity_residuals,
    kemeny_from_h,
    residuals,
    solve_chain,
    stationary_from_h,
    z_from_h,
)
from mcsum.chain import validate
from mcsum.oracle import (
    mfpt_direct,
    mfpt_general,
    stationary_direct,
    three_state_closed_form,
    two_state_closed_form,
)
from mcsum.report import analyze, rebuild, report_to_dict
from mcsum.scan import M2_THEOREM_RELATIONS, ScanConfig, flagged_pairs, random_chain, scan
from tests.conftest import (
    FIX5_H,
    FIX5_KEMENY,
    FIX5_M,
    FIX5_M_ROW_TOTALS,
    FIX5_PI,
    FIX8_C,
    FIX8_KEMENY,
    FIX8_PI,
    SUITE_SPECS,
    cycle3_matrix,
    independent_z,
    random_doubly_stochastic,
    two_state,
)
from tests.oracles import group_inverse, h_from_z, kemeny_general, mc_estimate
from tests.test_oracle import sample_admissible_three_state


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_five_state_reproduction(fix5):
    start = time.perf_counter()
    rep = analyze(fix5)
    elapsed = time.perf_counter() - start
    mfpt = rebuild(report_to_dict(rep))[0]
    ok = (
        np.abs(rep.stationary - FIX5_PI).max() < 5e-4
        and np.abs(rep.h_matrix - FIX5_H).max() < 5e-4
        and np.abs(mfpt - FIX5_M).max() < 5e-4
        and np.abs(mfpt.sum(axis=1) - FIX5_M_ROW_TOTALS).max() < 5e-3
        and abs(rep.kemeny - FIX5_KEMENY) < 5e-3
        and elapsed < 1.0
    )
    _report("criterion 01 (five-state reproduction)", ok, f"{elapsed:.3f}s, K={rep.kemeny:.4f}")


def test_criterion_02_eight_state_reproduction(fix8):
    start = time.perf_counter()
    rep = analyze(fix8)
    elapsed = time.perf_counter() - start
    ok = (
        np.abs(rep.column_sums - FIX8_C).max() < 5e-4
        and np.abs(rep.stationary - FIX8_PI).max() < 5e-4
        and abs(rep.kemeny - FIX8_KEMENY) < 1e-3
        and [0, 1] in flagged_pairs(rep.ordering.flags["c_vs_pi"], 8).tolist()
        and elapsed < 1.0
    )
    _report("criterion 02 (eight-state reproduction)", ok, f"{elapsed:.3f}s, K={rep.kemeny:.4f}")


def test_criterion_03_two_state_closed_forms():
    worst = 0.0
    kmin, argmin = np.inf, None
    for i in range(1, 11):
        for j in range(1, 11):
            a, b = i / 10.0, j / 10.0
            f = two_state_closed_form(a, b)
            sol = solve_chain(two_state(a, b))
            worst = max(
                worst,
                np.abs(sol.pi - f.pi).max(),
                np.abs(sol.h - f.h).max(),
                np.abs(z_from_h(sol.h, sol.pi) - f.z).max(),
                np.abs(sol.mfpt - f.mfpt).max(),
                abs(kemeny_from_h(sol.h) - f.kemeny),
            )
            if f.kemeny < kmin:
                kmin, argmin = f.kemeny, (a, b)
    ok = worst < 1e-10 and abs(kmin - 1.5) < 1e-12 and argmin == (1.0, 1.0)
    _report("criterion 03 (two-state closed forms)", ok, f"max dev {worst:.2e}, K min {kmin}")


def test_criterion_04_three_state_closed_forms():
    worst = 0.0
    for i in range(500):
        f = sample_admissible_three_state(90_000 + i)
        sol = solve_chain(validate(f.p))
        worst = max(
            worst,
            np.abs(sol.pi - f.pi).max(),
            np.abs(sol.h - f.h).max(),
            np.abs(z_from_h(sol.h, sol.pi) - f.z).max(),
            np.abs(sol.mfpt - f.mfpt).max(),
            abs(kemeny_from_h(sol.h) - f.kemeny),
        )
    cyc = three_state_closed_form(1, 0, 0, 1, 1, 0)
    cyc_sol = solve_chain(cycle3_matrix())
    cycle_ok = (
        abs(cyc.kemeny - 2.0) < 1e-12
        and abs(kemeny_from_h(cyc_sol.h) - 2.0) < 1e-12
    )
    ok = worst < 1e-10 and cycle_ok
    _report("criterion 04 (three-state closed forms)", ok, f"max dev {worst:.2e} over 500 draws")


def test_criterion_05_identity_suite():
    start = time.perf_counter()
    worst_name, worst = "", 0.0
    for m, seed in SUITE_SPECS:
        sol = solve_chain(random_chain(m, seed))
        h, pi, c = sol.h, sol.pi, sol.c
        z = independent_z(sol.tm, pi)  # the pipeline reads its Z off H
        elemental_z = h + pi[None, :] - np.einsum("k,kj->j", pi, h)[None, :]
        elemental_h = z + (pi - np.einsum("k,kj->j", c, z))[None, :] / m
        resid = {
            "c^T H = pi^T": float(np.abs(c @ h - pi).max()),
            "sum c_j = m": float(abs(c.sum() - m)),
            "Z from H round trip": float(
                np.abs(z_from_h(sol.h, pi) - z).max()
            ),
            "H from Z round trip": float(
                np.abs(h_from_z(z, pi, c) - h).max()
            ),
            "z_ij from h_ij elemental": float(np.abs(elemental_z - z).max()),
            "h_ij from z_ij elemental": float(np.abs(elemental_h - h).max()),
            "H from passage times": float(
                np.abs(h_from_mfpt(sol.mfpt, pi, c) - h).max()
            ),
        }
        rows = dict(zip(RESIDUAL_ROWS, residuals(sol)))
        resid.update({name: rows[name] for name in THEOREM2_ROWS})
        resid.update(zip(IDENTITY_ROWS, identity_residuals(sol)))
        name, value = max(resid.items(), key=lambda kv: kv[1])
        if value > worst:
            worst_name, worst = name, value
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _report(
        "criterion 05 (identity suite, 1000 chains)",
        ok,
        f"worst {worst:.2e} ({worst_name}), {elapsed:.1f}s",
    )


def test_criterion_06_g_invariance(chain_suite):
    worst_m, worst_k = 0.0, 0.0
    for sol in chain_suite:
        z = independent_z(sol.tm, sol.pi)
        candidates = (sol.h, z, group_inverse(z, sol.pi))
        mfpts = [mfpt_general(g, sol.pi) for g in candidates]
        kemenys = [kemeny_general(g, sol.pi) for g in candidates]
        for other in mfpts[1:]:
            worst_m = max(worst_m, float(np.abs(other - mfpts[0]).max()))
        worst_k = max(worst_k, max(kemenys) - min(kemenys))
        worst_m = max(worst_m, float(np.abs(mfpts[0] - sol.mfpt).max()))
    ok = worst_m < 1e-9 and worst_k < 1e-9
    _report("criterion 06 (g-inverse invariance)", ok, f"M dev {worst_m:.2e}, K dev {worst_k:.2e}")


def test_criterion_07_bound_suite(chain_suite):
    worst = np.inf
    strict_ok = True
    for sol in chain_suite:
        b = bounds_check(sol)
        worst = min(
            worst,
            b.kemeny_margin,
            float(b.pi_lower_offdiag_margins.min()),
            float(b.pi_lower_colsum_margins.min()),
        )
        strict_ok &= bool((b.pi_upper_margins > 0).all())
    minimal2 = bounds_check(solve_chain(two_state(1.0, 1.0)))
    cyc_sol = solve_chain(cycle3_matrix())
    minimal3 = bounds_check(cyc_sol)
    equality_ok = (
        abs(minimal2.kemeny_margin) < 1e-12
        and abs(minimal3.kemeny_margin) < 1e-12
    )
    ok = worst > -1e-9 and strict_ok and equality_ok
    _report("criterion 07 (bound suite)", ok, f"worst margin {worst:.2e}")


def test_criterion_08_doubly_stochastic_suite():
    worst_resid, worst_pi, worst_margin = 0.0, 0.0, np.inf
    for i in range(200):
        m = 3 + (i % 6)
        tm = random_doubly_stochastic(m, 95_000 + i)
        sol = solve_chain(tm)
        rep = doubly_stochastic_report(sol)
        assert rep.applicable
        worst_pi = max(worst_pi, rep.pi_uniform_residual)
        z = independent_z(tm, sol.pi)  # the shift H = Z + (1-m)/m^2 E, m_.j = m^2 z_jj
        worst_resid = max(
            worst_resid,
            float(np.abs(sol.h - z - (1.0 - m) / m**2).max()),
            rep.col_total_vs_h_residual,
            float(np.abs(sol.col_totals - m**2 * z.diagonal()).max()),
            rep.row_total_vs_kemeny_residual,
            rep.grand_total_vs_kemeny_residual,
        )
        worst_margin = min(worst_margin, float(rep.row_total_margins.min()))
    ok = worst_pi < 1e-10 and worst_resid < 1e-9 and worst_margin > -1e-9
    _report(
        "criterion 08 (doubly stochastic suite)",
        ok,
        f"pi dev {worst_pi:.2e}, residuals {worst_resid:.2e}, margin {worst_margin:.2e}",
    )


def test_criterion_09_oracle_independence(chain_suite, fix5):
    worst_pi, worst_m = 0.0, 0.0
    for sol in chain_suite:
        worst_pi = max(
            worst_pi, float(np.abs(stationary_from_h(sol.h, sol.c) - sol.pi).max())
        )
        direct = mfpt_direct(sol.tm, sol.pi)
        rel = np.abs(sol.mfpt - direct) / np.abs(direct)
        worst_m = max(worst_m, float(rel.max()))
    est = mc_estimate(fix5, seed=2024, walks_per_pair=10_000)
    direct5 = mfpt_direct(fix5, stationary_direct(fix5))
    se = np.maximum(est.mfpt_se, 1e-12)
    z_scores = np.abs(est.mfpt - direct5) / se
    pi5 = stationary_direct(fix5)
    k_hat = float(est.mfpt[0] @ pi5)
    mc_ok = float(z_scores.max()) < 5.0 and abs(k_hat - FIX5_KEMENY) / FIX5_KEMENY < 0.02
    ok = worst_pi < 1e-10 and worst_m < 1e-8 and mc_ok
    _report(
        "criterion 09 (oracle independence)",
        ok,
        f"pi {worst_pi:.2e}, M rel {worst_m:.2e}, max |z| {z_scores.max():.2f}, K^ {k_hat:.3f}",
    )


def _scan_artifacts(config: ScanConfig) -> tuple[bytes, "ScanResult"]:
    """The summaries, then each counterexample's log entry followed by the P
    that ``random_chain`` rebuilds from it."""
    log_lines = []

    def found(ce):
        chain = random_chain(ce["m"], ce["seed"], ce["sparsity"]).p.tolist()
        log_lines.append(json.dumps([report_to_dict(ce), chain], separators=(",", ":")))

    result = scan(config, found)
    summary = json.dumps(
        [s.__dict__ for s in result.summaries], separators=(",", ":")
    ).encode()
    return summary + b"\n" + "\n".join(log_lines).encode(), result


def test_criterion_10_scanner_determinism_and_discovery():
    start = time.perf_counter()
    config3 = ScanConfig(state_counts=(3,), trials=10_000, seed=7)
    blob_a, result_a = _scan_artifacts(config3)
    blob_b, _ = _scan_artifacts(config3)
    config2 = ScanConfig(state_counts=(2,), trials=10_000, seed=7)
    result2 = scan(config2)
    elapsed = time.perf_counter() - start
    discovery = result_a.violations("c_vs_pi", 3) >= 1
    m2_clean = all(result2.violations(name, 2) == 0 for name in M2_THEOREM_RELATIONS)
    ok = (
        blob_a == blob_b
        and discovery
        and m2_clean
        and result_a.hard_failures == []
        and result2.hard_failures == []
        and elapsed < 60.0
    )
    _report(
        "criterion 10 (scanner determinism and discovery)",
        ok,
        f"{result_a.violations('c_vs_pi', 3)} c-vs-pi counterexamples, {elapsed:.1f}s",
    )
