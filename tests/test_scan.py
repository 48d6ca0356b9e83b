import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum import analysis
from mcsum import scan as scan_module
from mcsum.analysis import IDENTITY_TOL, RESIDUAL_ROWS, residuals, solve_chain
from mcsum.chain import TransitionMatrix, validate
from mcsum.errors import GenerationFailed
from mcsum.report import analyze
from mcsum.rng import derive_stream
from mcsum.scan import (
    M2_THEOREM_RELATIONS,
    RELATIONS,
    SIGN_TIE_TOL,
    Relation,
    ScanConfig,
    flagged_pairs,
    ordering_masks,
    random_chain,
    scan,
)
from tests.conftest import injected_errors, random_doubly_stochastic

GOLDEN_SCAN = Path(__file__).parents[1] / "perfbench" / "golden_scan.json"


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


def _violations(tm: TransitionMatrix) -> dict[str, list[list[int]]]:
    """Per relation, the pairs that break it in one chain, as lists."""
    m = tm.n
    return {name: flagged_pairs(f, m).tolist()
            for name, f in zip(RELATIONS, ordering_masks(solve_chain(tm)))}


def test_ordering_two_state_equivalences_hold():
    for i in range(200):
        violations = _violations(random_chain(2, 71_000 + i))
        for name in M2_THEOREM_RELATIONS:
            assert violations[name] == []


def test_ordering_fix8_flags_colsum_pi_reversal(fix8):
    violations = _violations(fix8)
    assert [0, 1] in violations["c_vs_pi"]
    assert violations["pi_vs_recurrence"] == []


def test_ordering_fix5_clean(fix5):
    violations = _violations(fix5)
    assert violations["c_vs_pi"] == []
    assert violations["c_vs_m_col_total"] == []
    assert violations["pi_vs_recurrence"] == []


def test_ordering_record_recomputes(fix8):
    a = analyze(fix8).ordering
    b = analyze(fix8).ordering
    assert a.digest == b.digest
    assert all(len(f) == 8 * 7 // 2 for f in a.flags.values())  # one flag per pair i < j
    assert a.violations == b.violations
    assert list(a.flags) == list(b.flags) == list(RELATIONS)
    assert all(np.array_equal(a.flags[name], b.flags[name]) for name in RELATIONS)


def test_ordering_record_builds_its_pairs_once(fix8, monkeypatch):
    # analyze builds the pair indices for ordering_masks only; the counts and
    # the pairs are read off the flags
    want = analyze(fix8).ordering
    calls = []
    pairs = scan_module._pairs
    monkeypatch.setattr(scan_module, "_pairs", lambda m: calls.append(m) or pairs(m))
    got = analyze(fix8).ordering
    shown = {name: flagged_pairs(f, fix8.n).tolist() for name, f in got.flags.items()}
    assert calls == [fix8.n]
    assert got.digest == want.digest and got.violations == want.violations
    assert shown == {name: flagged_pairs(f, fix8.n).tolist() for name, f in want.flags.items()}


def test_ordering_masks_lie_above_the_diagonal(fix5):
    # one flag per relation and pair i < j, the pairs in np.triu_indices order
    sol = solve_chain(fix5)
    flags = ordering_masks(sol)
    assert flags.shape == (len(RELATIONS), 10) and flags.dtype == bool
    i, j = np.triu_indices(5, k=1)
    violations = _violations(fix5)
    assert list(violations) == list(RELATIONS)
    for name, f in zip(RELATIONS, flags):
        want = list(map(list, zip(i[f].tolist(), j[f].tolist())))
        assert violations[name] == want, name
        assert all(a < b for a, b in violations[name]), name


def _assert_pair_arrays(flags, m):
    """Each relation's ``flagged_pairs`` of one chain's flags are a (k, 2)
    integer array: the flagged pairs in ``np.triu_indices`` order, each with
    i < j, and its first `limit` rows for any limit."""
    i, j = np.triu_indices(m, k=1)
    assert len(flags) == len(RELATIONS)
    for name, f in zip(RELATIONS, flags):
        pairs = flagged_pairs(f, m)
        assert isinstance(pairs, np.ndarray) and pairs.dtype.kind == "i", name
        assert pairs.shape == (np.count_nonzero(f), 2), name
        assert np.array_equal(pairs, np.stack((i[f], j[f]), axis=-1)), name
        assert np.all(pairs[:, 0] < pairs[:, 1]), name
        for limit in (0, 1, 5, len(pairs), len(pairs) + 1):
            assert np.array_equal(flagged_pairs(f, m, limit), pairs[:limit]), (name, limit)


@pytest.mark.parametrize("name", ["fix5", "fix8", "cycle3"])
def test_ordering_violations_are_pair_arrays(name, request):
    tm = request.getfixturevalue(name)
    flags = ordering_masks(solve_chain(tm))
    _assert_pair_arrays(flags, tm.n)
    ordering = analyze(tm).ordering
    assert ordering.violations == dict(zip(RELATIONS, map(int, flags.sum(axis=-1))))
    for name, f in zip(RELATIONS, flags):
        assert np.array_equal(ordering.flags[name], f), name


def _digest(tm: TransitionMatrix) -> str:
    return hashlib.sha256(tm.p.tobytes()).hexdigest()


def _rebuilt(ce) -> TransitionMatrix:
    """A counterexample's chain, rebuilt from its seed; it must hash to the
    digest the scan recorded."""
    tm = random_chain(ce["m"], ce["seed"], ce["sparsity"])
    assert _digest(tm) == ce["digest"]
    return tm


def test_scan_hands_found_pair_arrays():
    # each counterexample names the relations its rebuilt chain's flags break
    found = []
    scan(ScanConfig(state_counts=(3, 6), trials=60, seed=5, sparsity=0.3), found.append)
    assert {ce["m"] for ce in found} == {3, 6}
    for ce in found:
        flags = ordering_masks(solve_chain(_rebuilt(ce)))
        assert ce["violated"] == [name for name, f in zip(RELATIONS, flags) if f.any()]
        assert ce["violated"]
        _assert_pair_arrays(flags, ce["m"])


def test_sign_ties_never_violate(cycle3):
    sol = solve_chain(cycle3)  # fully tied: uniform everything
    assert not any(analyze(cycle3).ordering.violations.values())
    assert not ordering_masks(sol).any()


def _square_masks(sol) -> dict[str, np.ndarray]:
    """Reference violation masks: (..., m, m) sign matrices of the compared
    vectors, each pair i < j flagged above the diagonal."""
    vectors = {
        "colsum": sol.c,
        "pi": sol.pi,
        "h_diag": sol.h.diagonal(axis1=-2, axis2=-1),
        "m_col_total": sol.mfpt.sum(axis=-2),
        "m_recurrence": sol.mfpt.diagonal(axis1=-2, axis2=-1),
    }
    signs = {}
    for name, v in vectors.items():
        diff = v[..., :, None] - v[..., None, :]
        signs[name] = np.where(np.abs(diff) < SIGN_TIE_TOL, 0, np.sign(diff)).astype(np.int8)
    upper = np.triu(np.ones((sol.tm.n, sol.tm.n), dtype=bool), k=1)
    return {
        name: upper & (signs[r.left] * signs[r.right] == -r.direction)
        for name, r in RELATIONS.items()
    }


def _tied_chain(kind: str, m: int, seed: int) -> np.ndarray:
    """A chain whose compared vectors tie on all pairs ("cycle"), on the
    column sums and pi ("doubly"), on the pair (0, 1) ("swap"), or nowhere
    but by chance ("dense")."""
    if kind == "cycle":
        return np.roll(np.eye(m), 1, axis=1)
    if kind == "doubly":
        return random_doubly_stochastic(m, seed).p
    p = random_chain(m, seed).p
    if kind == "swap":  # states 0 and 1 exchangeable
        swap = np.arange(m)
        swap[:2] = 1, 0
        p = (p + p[np.ix_(swap, swap)]) / 2
    return p


_TIED_STACKS = st.integers(min_value=2, max_value=8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.sampled_from(["cycle", "doubly", "swap", "dense"]),
                       st.integers(min_value=0, max_value=2**32)), min_size=1, max_size=6),
))


@settings(max_examples=60, deadline=None)
@given(_TIED_STACKS)
def test_pair_flags_match_the_square_sign_matrices(stack):
    m, kinds = stack
    p = np.stack([_tied_chain(kind, m, seed) for kind, seed in kinds])
    sol = solve_chain(TransitionMatrix(p=p))
    flags = ordering_masks(sol)
    i, j = np.triu_indices(m, k=1)
    masks = _square_masks(sol)
    assert flags.shape == (len(RELATIONS), len(kinds), m * (m - 1) // 2)
    assert np.array_equal(flags, np.array([mask[..., i, j] for mask in masks.values()]))
    assert not flags[:, [kind == "cycle" for kind, _ in kinds]].any()  # all tied


@settings(max_examples=60, deadline=None)
@given(_TIED_STACKS)
def test_ordering_record_violations_keep_their_order(stack):
    # relations in RELATIONS order, and each one's pairs row by row
    m, kinds = stack
    p = np.stack([_tied_chain(kind, m, seed) for kind, seed in kinds])
    sol = solve_chain(TransitionMatrix(p=p))
    masks = _square_masks(sol)
    flags = ordering_masks(sol)
    for k in range(len(kinds)):
        one = analyze(TransitionMatrix(p=p[k])).ordering
        assert list(one.violations) == list(RELATIONS)
        for (name, mask), f in zip(masks.items(), flags[:, k]):
            want = list(map(list, zip(*(a.tolist() for a in mask[k].nonzero()))))
            assert flagged_pairs(f, m).tolist() == want, name
            assert np.array_equal(one.flags[name], f), name
            assert one.violations[name] == len(want), name
        assert one.digest == hashlib.sha256(p[k].tobytes()).hexdigest()


def _brute_force_pairs(sol, t: int) -> dict[str, np.ndarray]:
    """Chain t's violating pairs by a double loop over i < j in row-major order,
    each compared difference signed with the SIGN_TIE_TOL tie rule."""
    vectors = {"colsum": sol.c, "pi": sol.pi, "h_diag": sol.h_diag,
               "m_col_total": sol.col_totals, "m_recurrence": sol.m_diag}
    vectors = {name: v.reshape(-1, sol.tm.n)[t].tolist() for name, v in vectors.items()}

    def sign(v, i, j):
        d = v[i] - v[j]
        return 1 if d >= SIGN_TIE_TOL else -1 if d <= -SIGN_TIE_TOL else 0

    m = sol.tm.n
    return {
        name: np.array([(i, j) for i in range(m) for j in range(i + 1, m)
                        if sign(vectors[r.left], i, j) * sign(vectors[r.right], i, j)
                        == -r.direction], dtype=np.intp).reshape(-1, 2)
        for name, r in RELATIONS.items()
    }


def _ordering_chain(kind: str, m: int, seed: int) -> np.ndarray:
    """A ``_tied_chain``, or ("twins") a random chain with two equal columns,
    whose column sums then tie exactly."""
    if kind != "twins":
        return _tied_chain(kind, m, seed)
    p = random_chain(m, seed).p.copy()
    a, b = np.random.default_rng(seed).choice(m, 2, replace=False)
    p[:, a] = p[:, b] = (p[:, a] + p[:, b]) / 2
    return validate(p).p


_ORDERING_STACKS = st.integers(min_value=2, max_value=12).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.sampled_from(["twins", "swap", "doubly", "dense"]),
                       st.integers(min_value=0, max_value=2**32)), min_size=1, max_size=5),
))


@settings(max_examples=80, deadline=None)
@given(_ORDERING_STACKS, st.data())
def test_ordering_pairs_match_a_double_loop(stack, data):
    m, draws = stack
    p = np.stack([_ordering_chain(kind, m, seed) for kind, seed in draws])
    for chain_p in p:
        sol = solve_chain(TransitionMatrix(p=chain_p))
        record = analyze(sol.tm).ordering
        assert record.digest == hashlib.sha256(chain_p.tobytes()).hexdigest()
        want = _brute_force_pairs(sol, 0)
        assert list(record.violations) == list(want)
        for name in RELATIONS:
            pairs = flagged_pairs(record.flags[name], m)
            assert pairs.dtype == want[name].dtype and np.array_equal(pairs, want[name]), name
            assert record.violations[name] == len(want[name]), name
    sol = solve_chain(TransitionMatrix(p=p))
    flags = ordering_masks(sol)
    limit = data.draw(st.integers(min_value=0, max_value=m * (m - 1) // 2 + 1))
    for t in range(len(p)):
        want = _brute_force_pairs(sol, t)
        for name, f in zip(RELATIONS, flags[:, t]):
            found = flagged_pairs(f, m)
            assert found.dtype == want[name].dtype and np.array_equal(found, want[name]), name
            assert np.array_equal(flagged_pairs(f, m, limit), want[name][:limit]), name


def test_ordering_digest_of_a_fortran_ordered_chain(fix8):
    # the digest hashes the C-ordered bytes whatever the array's memory order
    tm = validate(np.asfortranarray(fix8.p), fix8.labels)
    assert not tm.p.flags.c_contiguous
    record = analyze(tm).ordering
    assert record.digest == hashlib.sha256(fix8.p.tobytes()).hexdigest()


def test_scan_deterministic():
    config = ScanConfig(state_counts=(3,), trials=200, seed=7)
    found_a, found_b = [], []
    a = scan(config, found_a.append)
    b = scan(config, found_b.append)
    assert [s.__dict__ for s in a.summaries] == [s.__dict__ for s in b.summaries]
    assert a.counterexamples == b.counterexamples == len(found_a) == len(found_b)
    for ca, cb in zip(found_a, found_b):
        assert ca["m"] == cb["m"] and ca["trial"] == cb["trial"] and ca["seed"] == cb["seed"]
        assert ca["digest"] == cb["digest"] == _digest(_rebuilt(ca))
        assert ca["violated"] == cb["violated"]


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
    flagged = [ce for ce in found if "c_vs_pi" in ce["violated"]]
    assert flagged
    # counterexamples persist enough to recompute the violation
    ce = flagged[0]
    record = analyze(validate(_rebuilt(ce).p)).ordering
    assert record.violations["c_vs_pi"] > 0
    assert [name for name, n in record.violations.items() if n] == ce["violated"]


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
        keys = ("m", "trial", "seed", "sparsity")
        assert [a[k] for k in keys] == [b[k] for k in keys]
        assert a["digest"] == b["digest"] == _digest(_rebuilt(a))
        assert a["violated"] == b["violated"]


def test_hard_failure_text_of_a_reversed_two_state_relation(monkeypatch):
    monkeypatch.setitem(RELATIONS, "c_vs_pi", Relation("colsum", "pi", -1, "m2"))
    found = []
    result = scan(ScanConfig(state_counts=(2,), trials=1, seed=0), found.append)
    assert result.hard_failures == ["m=2 trial=0: theorem relation c_vs_pi violated on [(0, 1)]"]
    assert [ce["violated"] for ce in found] == [["c_vs_pi"]]


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
            for name, f in zip(RELATIONS, ordering_masks(sol)):
                if f.any() and RELATIONS[name].proven_for(m):
                    want.append(
                        f"m={m} trial={trial}: theorem relation {name} violated on "
                        f"{list(map(tuple, flagged_pairs(f, m).tolist()))}"
                    )
            worst = max(zip(RESIDUAL_ROWS, residuals(sol)), key=lambda kv: kv[1])
            if worst[1] > tol:
                want.append(f"m={m} trial={trial}: identity residual {worst[0]!r} = {worst[1]:.3e}")
    assert any("theorem relation" in line for line in want)
    assert any("identity residual" in line for line in want)
    assert scan(config).hard_failures == want


@pytest.mark.parametrize("in_h", [True, False], ids=["h", "pi"])
def test_scan_names_the_trial_whose_h_or_pi_carries_an_error(in_h):
    # one block of 20 four-state chains, in which trial 7 alone gets an error
    # of 100 IDENTITY_TOL in h_21 or in pi_2
    config = ScanConfig(state_counts=(4,), trials=20, seed=5)
    assert scan(config).hard_failures == []
    error = np.zeros((20, 4, 4) if in_h else (20, 4))
    error[(7, 2, 1) if in_h else (7, 2)] = 100 * IDENTITY_TOL
    with injected_errors(**{"dh" if in_h else "dpi": error}):
        failures = scan(config).hard_failures
    assert len(failures) == 1 and failures[0].startswith("m=4 trial=7: identity residual "), failures
    assert float(failures[0].rsplit(" = ", 1)[1]) >= 99 * IDENTITY_TOL


def test_scan_judges_the_whole_residual_table(monkeypatch):
    # the bounds enter only the table's last row: a failed bound must fail there
    bounds_check = analysis.bounds_check

    def failing_bounds(sol):
        b = bounds_check(sol)
        return replace(b, kemeny_margin=np.full_like(b.kemeny_margin, -1e-6))

    monkeypatch.setattr(analysis, "bounds_check", failing_bounds)
    result = scan(ScanConfig(state_counts=(3, 5), trials=20, seed=1))
    assert len(result.hard_failures) == 40
    row = "'inequality margins (negative part)'"
    assert all(f"identity residual {row} = " in line for line in result.hard_failures)


def test_scan_counterexamples_ordered():
    found = []
    scan(ScanConfig(state_counts=(2, 3), trials=100, seed=9), found.append)
    keys = [(ce["m"], ce["trial"]) for ce in found]
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


def test_scan_counts_match_the_golden_file():
    # the benchmark's scan-small output check, on every 16th of its seeds
    golden = json.loads(GOLDEN_SCAN.read_text())
    for seed in sorted(golden["blocks"], key=int)[::16]:
        result = scan(ScanConfig(tuple(golden["states"]), golden["trials"], int(seed)))
        counts = {f"{s.relation}/{s.m}": s.violating_trials for s in result.summaries}
        assert counts == golden["blocks"][seed], seed
        assert result.hard_failures == []


def test_generation_failed_at_extreme_sparsity():
    # seed 50 deterministically exhausts all 100 regeneration attempts at
    # sparsity 0.8 on a 2-state chain (per-attempt success rate is ~4%)
    with pytest.raises(GenerationFailed):
        random_chain(2, 50, sparsity=0.8)
