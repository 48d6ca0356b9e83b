"""One pipeline for one chain and for a stack: every stacked call must give,
bit for bit, what the same call gives on each chain alone."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum import rng
from mcsum.analysis import (
    bounds_check,
    h_from_mfpt,
    identity_residuals,
    kemeny_from_h,
    kemeny_from_z,
    solve_chain,
    stationary_from_h,
)
from mcsum.chain import TransitionMatrix
from mcsum.ginv import group_inverse, h_from_z, z_from_h
from mcsum.scan import ordering_masks, random_chain, random_chains

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def _fold(master: int, *indices: int) -> int:
    """The scalar reference: one mix64 per index."""
    s = master & _MASK
    for ix in indices:
        s = rng.mix64((s + (ix + 1) * _GOLDEN) & _MASK)
    return s


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=9),
    sparsity=st.sampled_from([0.0, 0.5]),
)
def test_stack_calls_match_single_calls(m, seeds, sparsity):
    stack = random_chains(m, np.array(seeds, dtype=np.uint64), sparsity)
    singles = [random_chain(m, s, sparsity) for s in seeds]
    for k, tm in enumerate(singles):
        assert _bits(stack[k]) == _bits(tm.p)

    sol = solve_chain(TransitionMatrix(p=stack))
    resid = identity_residuals(sol)
    worst = bounds_check(sol).worst_margin
    signs, masks = ordering_masks(sol)
    assert worst.shape == (len(seeds),)
    for k, tm in enumerate(singles):
        one = solve_chain(tm)
        for a, b in ((sol.pi, one.pi), (sol.h, one.h), (sol.z, one.z),
                     (sol.mfpt, one.mfpt), (sol.cond, one.cond), (sol.c, one.c)):
            assert _bits(a[k]) == _bits(b)
        one_resid = identity_residuals(one)
        assert list(one_resid) == list(resid)
        for name, value in one_resid.items():
            assert _bits(resid[name][k]) == _bits(value), name
        assert _bits(worst[k]) == _bits(bounds_check(one).worst_margin)
        one_signs, one_masks = ordering_masks(one)
        for name in one_signs:
            assert np.array_equal(signs[name][k], one_signs[name]), name
        for name in one_masks:
            assert np.array_equal(masks[name][k], one_masks[name]), name


def _conversions(sol) -> dict:
    """Every read-off and conversion of the chain solution's arrays."""
    h, z, pi, c = sol.h, sol.z, sol.pi, sol.c
    return {
        "stationary_from_h": stationary_from_h(h, c),
        "kemeny_from_h": kemeny_from_h(h),
        "kemeny_from_z": kemeny_from_z(z),
        "group_inverse": group_inverse(z, pi),
        "z_from_h": z_from_h(h, pi),
        "h_from_z": h_from_z(z, pi, c),
        "h_from_mfpt": h_from_mfpt(sol.mfpt, pi, c),
    }


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=9),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
)
def test_conversions_broadcast_over_a_stack(m, seeds):
    p = random_chains(m, np.array(seeds, dtype=np.uint64))
    stack = _conversions(solve_chain(TransitionMatrix(p=p)))
    for k, seed in enumerate(seeds):
        one = _conversions(solve_chain(random_chain(m, seed)))
        for name, value in one.items():
            assert np.shape(stack[name][k]) == np.shape(value), name
            assert _bits(stack[name][k]) == _bits(value), name


@settings(max_examples=100, deadline=None)
@given(
    master=st.integers(min_value=-(2**65), max_value=2**65),
    first=st.integers(min_value=0, max_value=2**40),
    count=st.integers(min_value=1, max_value=6),
)
def test_derive_stream_broadcast_matches_scalar_fold(master, first, count):
    idx = list(range(first, first + count))
    assert rng.derive_stream(master, np.array(idx)).tolist() == [_fold(master, i) for i in idx]
    assert rng.derive_stream(master, 7, np.array(idx)).tolist() == [_fold(master, 7, i) for i in idx]
    scalar = rng.derive_stream(master, 7, first)
    assert type(scalar) is int and scalar == _fold(master, 7, first)
    assert rng.derive_stream(master) == master & _MASK
    # an array of masters folds each one
    masters = np.array([_fold(master, i) for i in idx], dtype=np.uint64)
    assert rng.derive_stream(masters, 3).tolist() == [_fold(_fold(master, i), 3) for i in idx]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4))
def test_uniform_block_rows_match_the_reference_generator(seeds):
    block = rng.uniform_block(np.array(seeds, dtype=np.uint64), 5)
    assert block.shape == (len(seeds), 5)
    for row, seed in zip(block, seeds):
        sm = rng.SplitMix64(seed)
        assert row.tolist() == [sm.next_float() for _ in range(5)]
        assert _bits(rng.uniform_block(seed, 5)) == _bits(row)
