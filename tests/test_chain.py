import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcsum.analysis import kemeny_from_h, solve_chain
from mcsum.chain import (
    _communicating_classes,
    column_sums,
    is_irreducible,
    reorder_by_column_sums,
    validate,
)
from mcsum.errors import NotIrreducible, NotStochastic
from mcsum.ginv import compute_h
from tests.conftest import FIVE_STATE_UNSORTED, cycle3_matrix, two_state
from tests.oracles import period


def test_fix5_validates(fix5):
    assert fix5.n == 5
    assert fix5.labels == ("1", "2", "3", "4", "5")
    np.testing.assert_allclose(fix5.p.sum(axis=1), 1.0, atol=1e-15)


def test_absorbing_state_rejected():
    with pytest.raises(NotIrreducible) as exc:
        validate(np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert "{1}" in str(exc.value) and "{2}" in str(exc.value)


def test_communicating_classes_named_in_order_of_smallest_state():
    p = np.array(
        [
            [0.5, 0.0, 0.0, 0.5, 0.0],  # a -> d -> a: transient class {a, d}
            [0.0, 0.5, 0.5, 0.0, 0.0],  # b <-> c: closed class
            [0.0, 0.5, 0.5, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 1.0],  # e absorbing
        ]
    )
    with pytest.raises(NotIrreducible) as exc:
        validate(p, labels=["a", "b", "c", "d", "e"])
    assert str(exc.value) == (
        "chain is not irreducible; communicating classes: {a, d}, {b, c}, {e}"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_communicating_classes_match_reachability_definition(n, seed, density):
    adj = np.random.default_rng(seed).random((n, n)) < density
    # (adj | I)^(n-1) counts the walks of up to n - 1 steps
    reach = np.linalg.matrix_power((adj | np.eye(n, dtype=bool)).astype(float), n - 1) > 0
    want: list[list[int]] = []
    for s in range(n):  # first seen at its smallest state
        members = np.flatnonzero(reach[s] & reach[:, s]).tolist()
        if members not in want:
            want.append(members)
    assert _communicating_classes(adj) == want


def test_communicating_classes_long_path_is_all_singletons():
    # state i -> i + 1, the last absorbing: a depth-first search 5000 deep
    n = 5000
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = True
    adj[-1, -1] = True
    assert _communicating_classes(adj) == [[i] for i in range(n)]


def _strongly_connected(adj: np.ndarray) -> bool:
    """Reference verdict: (adj | I)^(n-1) in boolean arithmetic has no zero."""
    n = adj.shape[-1]
    return bool(np.linalg.matrix_power(adj | np.eye(n, dtype=bool), n - 1).all())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
)
def test_is_irreducible_matches_matrix_power_on_random_graphs(seed, density):
    adj = np.random.default_rng(seed).random((12, 8, 8)) < density
    want = [_strongly_connected(a) for a in adj]
    assert is_irreducible(adj).tolist() == want
    assert [is_irreducible(a) for a in adj] == want


def test_is_irreducible_long_cycle_and_absorbing_state():
    m = 200
    cycle = np.roll(np.eye(m), 1, axis=1)  # i -> i + 1: the search runs m - 1 levels deep
    path = np.eye(m, k=1)
    path[-1, -1] = 1.0  # state m absorbing: 0 reaches every state, none reaches 0
    cases = [cycle, cycle.T, path, path.T]  # path.T: every state reaches 0, 0 none
    want = [True, True, False, False]
    assert [_strongly_connected(p > 0) for p in cases] == want
    assert [is_irreducible(p) for p in cases] == want
    assert is_irreducible(np.stack(cases)).tolist() == want
    assert period(validate(cycle)) == m
    with pytest.raises(NotIrreducible, match=r"\{199\}, \{200\}$"):
        validate(path)


def test_bad_row_sum_rejected():
    with pytest.raises(NotStochastic, match="row 1"):
        validate(np.array([[0.6, 0.3], [0.5, 0.5]]))


def test_negative_entry_rejected():
    with pytest.raises(NotStochastic, match="negative"):
        validate(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_small_row_deviation_renormalized():
    p = np.array([[0.5, 0.5 + 4e-10], [0.5, 0.5]])
    tm = validate(p)
    np.testing.assert_allclose(tm.p.sum(axis=1), 1.0, atol=1e-15)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate(np.ones((2, 3)))


def test_custom_labels():
    tm = validate(np.array([[0.5, 0.5], [0.5, 0.5]]), labels=["up", "down"])
    assert tm.labels == ("up", "down")
    with pytest.raises(ValueError):
        validate(np.eye(1), labels=["a", "b"])


@pytest.mark.parametrize("labels, message", [
    (["a", "a"], "state label 'a' is repeated"),
    (["1", 1], "state label '1' is repeated"),
    (["a", "b", "a", "b"], "state label 'a' is repeated"),
    (["a", "", "b"], "state label 2 is blank"),
    (["", "b", "c"], "state label 1 is blank"),
    (["a", "b", " \t"], "state label 3 is blank"),
    (["\ud800", "b"], "state label 1 is not valid UTF-8 text"),
    (["a", "x\udfffy", "x\udfffy"], "state label 2 is not valid UTF-8 text"),
])
def test_repeated_or_blank_labels_rejected(labels, message):
    n = len(labels)
    with pytest.raises(ValueError, match=message):
        validate(np.full((n, n), 1.0 / n), labels=labels)


def test_validate_makes_every_zero_positive():
    tm = validate(np.array([[0.5, 0.5, -0.0], [0.5, 0.0, 0.5], [-0.0, 0.5, 0.5]]))
    assert not np.signbit(tm.p).any()


def test_matrix_frozen(fix5):
    with pytest.raises(ValueError):
        fix5.p[0, 0] = 0.0


def test_is_irreducible_cases(fix8):
    cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert is_irreducible(cyc)
    assert not is_irreducible(np.eye(3))
    assert is_irreducible(fix8.p)
    assert is_irreducible(np.ones((1, 1)))


def test_is_irreducible_on_a_stack():
    cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    chain_to_sink = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    stack = np.stack([cyc, np.eye(3), chain_to_sink, cyc.T, np.ones((3, 3))])
    verdicts = is_irreducible(stack)
    assert verdicts.shape == (5,)
    assert verdicts.tolist() == [True, False, False, True, True]
    assert is_irreducible(np.ones((4, 1, 1))).tolist() == [True] * 4  # 1-state graphs
    assert is_irreducible(np.ones((1, 1))) is True
    assert is_irreducible(np.eye(2)) is False


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_is_irreducible_stack_matches_each_matrix(n, t, seed):
    adj = np.random.default_rng(seed).random((t, n, n)) < 0.3
    eye = np.eye(n, dtype=bool)
    want = [(np.linalg.matrix_power((a | eye).astype(float), n - 1) > 0).all() for a in adj]
    assert is_irreducible(adj).tolist() == want
    assert [is_irreducible(a) for a in adj] == want


def test_column_sums_fix8(fix8):
    expected = (2.326, 1.140, 1.069, 0.934, 0.890, 0.799, 0.795, 0.047)
    np.testing.assert_allclose(column_sums(fix8), expected, atol=1e-12)


def test_column_sums_two_state():
    np.testing.assert_allclose(column_sums(two_state(0.3, 0.1)), [0.8, 1.2], atol=1e-15)


def test_column_sums_doubly_stochastic():
    tm = validate(np.full((3, 3), 1.0 / 3.0))
    np.testing.assert_allclose(column_sums(tm), 1.0, atol=1e-15)


def test_column_sums_total_is_state_count(fix5, fix8):
    for tm in (fix5, fix8):
        assert column_sums(tm).sum() == pytest.approx(tm.n, abs=1e-9)


def test_reorder_five_state_unsorted(fix5):
    tm = validate(FIVE_STATE_UNSORTED)
    # published as (1.051, 0.965, 0.854, 0.910, 1.229); the fourth sum
    # computed from the matrix itself is 0.901
    np.testing.assert_allclose(
        column_sums(tm), [1.051, 0.965, 0.854, 0.901, 1.229], atol=1e-12
    )
    reordered, perm = reorder_by_column_sums(tm)
    np.testing.assert_array_equal(perm, [4, 0, 1, 3, 2])
    np.testing.assert_allclose(reordered.p, fix5.p, atol=1e-15)
    assert reordered.labels == ("5", "1", "2", "4", "3")


def test_reorder_sorted_is_identity(fix8):
    _, perm = reorder_by_column_sums(fix8)
    np.testing.assert_array_equal(perm, np.arange(8))


def test_reorder_ties_keep_order():
    tm = validate(np.full((3, 3), 1.0 / 3.0))
    _, perm = reorder_by_column_sums(tm)
    np.testing.assert_array_equal(perm, [0, 1, 2])


def test_reorder_preserves_chain_quantities():
    tm = validate(FIVE_STATE_UNSORTED)
    sol = solve_chain(tm)
    reordered, perm = reorder_by_column_sums(tm)
    rsol = solve_chain(reordered)
    np.testing.assert_allclose(rsol.pi, sol.pi[perm], atol=1e-10)
    np.testing.assert_allclose(rsol.mfpt, sol.mfpt[np.ix_(perm, perm)], atol=1e-10)
    assert kemeny_from_h(rsol.h) == pytest.approx(kemeny_from_h(sol.h), abs=1e-10)


def test_validate_accepts_one_state_chain():
    tm = validate(np.array([[1.0]]))
    h, _ = compute_h(tm)
    np.testing.assert_allclose(h, [[1.0]], atol=0)


def test_period():
    assert period(cycle3_matrix()) == 3
    assert period(two_state(1.0, 1.0)) == 2
    assert period(two_state(0.3, 0.1)) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
def test_period_is_gcd_of_closed_walk_lengths(n, classes, seed):
    # edges only from cyclic class k to class k + 1 (mod `classes`), so
    # periods other than 1 occur; keep the strongly connected draws
    g = np.random.default_rng(seed)
    cls = np.arange(n) % classes
    adj = (cls[None, :] == (cls[:, None] + 1) % classes) & (g.random((n, n)) < 0.6)
    assume(adj.any(axis=1).all() and is_irreducible(adj))  # a 1-state graph needs its loop
    lengths = [
        k for k in range(1, n + 1)
        if np.trace(np.linalg.matrix_power(adj.astype(float), k)) > 0
    ]
    p = adj / adj.sum(axis=1, keepdims=True)
    assert period(validate(p)) == math.gcd(*lengths)
