"""The LAPACK inversion behind H and Z: inverse, condition number, refusal."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum.errors import SingularMatrix
from mcsum.ginv import _invert, colsum_system


def test_invert_identity():
    inv, _ = _invert(np.eye(4))
    np.testing.assert_array_equal(inv, np.eye(4))


def test_invert_hand_case():
    inv, _ = _invert(np.array([[2.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]), atol=1e-14)


def test_invert_two_state_colsum_system():
    # a = b = 0.5: I - P + e c^T with c = (1, 1)
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    inv, _ = _invert(np.eye(2) - p + 1.0)
    np.testing.assert_allclose(inv, np.array([[0.75, -0.25], [-0.25, 0.75]]), atol=1e-14)


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        _invert(np.zeros((2, 2)))
    with pytest.raises(SingularMatrix):
        _invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        _invert(np.ones((3, 3)))


def test_non_square_rejected():
    with pytest.raises(SingularMatrix):
        _invert(np.ones((2, 3)))
    with pytest.raises(SingularMatrix):  # NaN condition number
        _invert(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_condition_identity():
    _, cond = _invert(np.eye(5))
    assert cond == pytest.approx(1.0)


def test_condition_diagonal_ratio():
    _, cond = _invert(np.diag([1.0, 1e-6]))
    assert 1e5 < cond < 1e7


def test_condition_fix8_system_unflagged(fix8):
    _, cond = _invert(colsum_system(fix8))
    assert np.isfinite(cond) and cond < 1e8


def test_determinism():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    assert np.array_equal(_invert(a.copy())[0], _invert(a.copy())[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
def test_inverse_residual_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + n * np.eye(n)  # diagonally shifted: well conditioned
    inv, cond = _invert(a)
    if cond >= 1e8:
        return
    assert np.abs(a @ inv - np.eye(n)).max() < 1e-10
    assert np.abs(inv @ a - np.eye(n)).max() < 1e-10
    assert cond == pytest.approx(np.linalg.cond(a, 1), rel=1e-8)
