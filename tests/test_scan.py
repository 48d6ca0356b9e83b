import tracemalloc

import numpy as np
import pytest

from mcsum import scan as scan_module
from mcsum.analysis import bounds_check, identity_residuals, solve_chain
from mcsum.chain import validate
from mcsum.errors import GenerationFailed
from mcsum.rng import derive_stream
from mcsum.scan import (
    M2_THEOREM_RELATIONS,
    RELATIONS,
    Relation,
    ScanConfig,
    ordering_from_solution,
    random_chain,
    scan,
)


def test_random_chain_two_state_positive_offdiagonals():
    for seed in range(50):
        tm = random_chain(2, seed)
        assert tm.p[0, 1] > 0 and tm.p[1, 0] > 0


def test_random_chain_deterministic():
    a = random_chain(5, 42)
    b = random_chain(5, 42)
    assert np.array_equal(a.p, b.p)
    assert not np.array_equal(a.p, random_chain(5, 43).p)


def test_random_chain_sparse_all_validate():
    zero_fractions = []
    for seed in range(1000):
        tm = random_chain(8, 70_000 + seed, sparsity=0.5)
        validate(tm.p)  # idempotent revalidation
        zero_fractions.append((tm.p == 0).mean())
    mean_zeros = np.mean(zero_fractions)
    assert 0.3 < mean_zeros < 0.6  # conditioned on irreducibility


def test_random_chain_rejects_small_m():
    with pytest.raises(ValueError):
        random_chain(1, 0)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(state_counts=(1,), trials=10, seed=0)
    with pytest.raises(ValueError):
        ScanConfig(state_counts=(3,), trials=0, seed=0)
    with pytest.raises(ValueError):
        ScanConfig(state_counts=(3,), trials=10, seed=0, sparsity=0.9)


def test_scan_config_rejects_repeated_state_counts():
    # a repeated count would be scanned, tallied and logged twice
    with pytest.raises(ValueError, match=r"repeated: \[3, 5\]"):
        ScanConfig(state_counts=(5, 3, 4, 3, 5), trials=10, seed=0)


def test_ordering_two_state_equivalences_hold():
    for i in range(200):
        record = ordering_from_solution(solve_chain(random_chain(2, 71_000 + i)))
        for name in M2_THEOREM_RELATIONS:
            assert record.violations[name] == []


def test_ordering_fix8_flags_colsum_pi_reversal(fix8):
    record = ordering_from_solution(solve_chain(fix8))
    assert (0, 1) in record.violations["c_vs_pi"]
    assert record.violations["pi_vs_recurrence"] == []


def test_ordering_fix5_clean(fix5):
    record = ordering_from_solution(solve_chain(fix5))
    assert record.violations["c_vs_pi"] == []
    assert record.violations["c_vs_m_col_total"] == []
    assert record.violations["pi_vs_recurrence"] == []


def test_ordering_record_recomputes(fix8):
    a = ordering_from_solution(solve_chain(fix8))
    b = ordering_from_solution(solve_chain(fix8))
    assert a.digest == b.digest
    assert a.m == 8
    for name in a.signs:
        assert np.array_equal(a.signs[name], b.signs[name])
    assert a.violations == b.violations


def test_ordering_signs_antisymmetric(fix5):
    record = ordering_from_solution(solve_chain(fix5))
    for name, s in record.signs.items():
        assert np.array_equal(s, -s.T), name
        assert set(np.unique(s)) <= {-1, 0, 1}


def test_sign_ties_never_violate(cycle3):
    record = ordering_from_solution(solve_chain(cycle3))  # fully tied: uniform everything
    assert all(v == [] for v in record.violations.values())
    assert (record.signs["colsum"] == 0).all()


def test_scan_deterministic():
    config = ScanConfig(state_counts=(3,), trials=200, seed=7)
    found_a, found_b = [], []
    a = scan(config, found_a.append)
    b = scan(config, found_b.append)
    assert [s.__dict__ for s in a.summaries] == [s.__dict__ for s in b.summaries]
    assert a.counterexamples == b.counterexamples == len(found_a) == len(found_b)
    for ca, cb in zip(found_a, found_b):
        assert ca.m == cb.m and ca.trial == cb.trial and ca.seed == cb.seed
        assert np.array_equal(ca.p, cb.p)


def test_scan_m2_no_equivalence_violations():
    result = scan(ScanConfig(state_counts=(2,), trials=500, seed=11))
    for name in M2_THEOREM_RELATIONS:
        assert result.violations(name) == 0
    assert result.hard_failures == []


def test_scan_m3_finds_colsum_pi_counterexample():
    found = []
    result = scan(ScanConfig(state_counts=(3,), trials=500, seed=7), found.append)
    assert result.violations("c_vs_pi") >= 1
    assert result.violations("pi_vs_recurrence") == 0
    assert result.hard_failures == []
    flagged = [
        ce for ce in found if ce.ordering.violations["c_vs_pi"]
    ]
    assert flagged
    # counterexamples persist enough to recompute the violation
    ce = flagged[0]
    record = ordering_from_solution(solve_chain(validate(ce.p)))
    assert record.violations["c_vs_pi"] == ce.ordering.violations["c_vs_pi"]


def test_scan_result_does_not_depend_on_block_size(monkeypatch):
    config = ScanConfig(state_counts=(2, 3, 5, 10), trials=40, seed=4, sparsity=0.5)
    found_whole, found_cut = [], []
    whole = scan(config, found_whole.append)
    # 50 entries: blocks of 12, 5, 2 and 1 chains
    monkeypatch.setattr(scan_module, "BLOCK_ENTRIES", 50)
    cut = scan(config, found_cut.append)
    assert [s.__dict__ for s in cut.summaries] == [s.__dict__ for s in whole.summaries]
    assert cut.hard_failures == whole.hard_failures
    assert len(found_cut) == len(found_whole) == cut.counterexamples > 0
    for a, b in zip(found_cut, found_whole):
        assert (a.m, a.trial, a.seed) == (b.m, b.trial, b.seed)
        assert a.p.tobytes() == b.p.tobytes()
        assert a.ordering.digest == b.ordering.digest
        assert a.ordering.violations == b.ordering.violations
        for name, s in a.ordering.signs.items():
            assert np.array_equal(s, b.ordering.signs[name])


def test_hard_failures_match_a_per_trial_recomputation(monkeypatch):
    # a reversed two-state theorem and a tolerance below round-off make
    # every kind of hard failure occur, several per trial
    tol = 1e-15
    monkeypatch.setattr(scan_module, "IDENTITY_TOL", tol)
    monkeypatch.setitem(RELATIONS, "c_vs_pi", Relation("colsum", "pi", -1, "m2"))
    config = ScanConfig(state_counts=(2, 4), trials=30, seed=3, sparsity=0.3)
    want = []
    for m in config.state_counts:
        for trial in range(config.trials):
            sol = solve_chain(random_chain(m, derive_stream(3, m, trial), 0.3))
            violations = ordering_from_solution(sol).violations
            for name in RELATIONS:
                if violations[name] and RELATIONS[name].proven_for(m):
                    want.append(
                        f"m={m} trial={trial}: theorem relation {name} violated on "
                        f"{violations[name]}"
                    )
            worst = max(identity_residuals(sol).items(), key=lambda kv: kv[1])
            if worst[1] > tol:
                want.append(f"m={m} trial={trial}: identity residual {worst[0]!r} = {worst[1]:.3e}")
            margin = bounds_check(sol).worst_margin
            if margin < -tol:
                want.append(f"m={m} trial={trial}: bound margin {margin:.3e} negative")
    assert any("theorem relation" in line for line in want)
    assert any("identity residual" in line for line in want)
    assert scan(config).hard_failures == want


def test_scan_counterexamples_ordered():
    found = []
    scan(ScanConfig(state_counts=(2, 3), trials=100, seed=9), found.append)
    keys = [(ce.m, ce.trial) for ce in found]
    assert keys == sorted(keys)


def test_scan_memory_does_not_grow_with_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            scan(ScanConfig((10,), trials, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # blocks of 655 chains at m = 10; keeping ~6 kB per violating trial (all
    # of them at m = 10) would add about 40 MB between the two
    small, large = peak(1000), peak(8000)
    assert large < 1.5 * small, (small, large)


def test_scan_sparsity_hard_failures_empty():
    result = scan(ScanConfig(state_counts=(4,), trials=200, seed=13, sparsity=0.4))
    assert result.hard_failures == []


def test_relation_registry_shape():
    assert set(M2_THEOREM_RELATIONS) == {
        "pi_vs_recurrence",
        "c_vs_pi",
        "c_vs_h_diag",
        "h_diag_vs_m_col_total",
        "c_vs_m_col_total",
    }
    assert all(RELATIONS[k].proven_scope == "m2" for k in RELATIONS if k != "pi_vs_recurrence")


def test_generation_failed_at_extreme_sparsity():
    # seed 50 deterministically exhausts all 100 regeneration attempts at
    # sparsity 0.8 on a 2-state chain (per-attempt success rate is ~4%)
    with pytest.raises(GenerationFailed):
        random_chain(2, 50, sparsity=0.8)
