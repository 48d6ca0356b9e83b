"""One pipeline for one chain and for a stack: every stacked call must give,
bit for bit, what the same call gives on each chain alone."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum import rng
from mcsum.analysis import (
    IDENTITY_ROWS,
    RESIDUAL_ROWS,
    bounds_check,
    h_from_mfpt,
    kemeny_from_h,
    residuals,
    solve_chain,
    stationary_from_h,
)
from mcsum.chain import TransitionMatrix
from mcsum.ginv import mfpt_general, z_from_h
from mcsum.report import analyze
from mcsum.scan import RELATIONS, ordering_masks, random_chain, random_chains
from tests.oracles import group_inverse, h_from_z, kemeny_general

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
    table = residuals(sol)
    rows = dict(zip(RESIDUAL_ROWS, table))
    resid = {name: rows[name] for name in IDENTITY_ROWS}
    worst = bounds_check(sol).worst_margin
    flags = ordering_masks(sol)
    assert worst.shape == (len(seeds),)
    assert table.shape == (len(RESIDUAL_ROWS), len(seeds))
    assert flags.shape == (len(RELATIONS), len(seeds), m * (m - 1) // 2)
    for k, tm in enumerate(singles):
        one = solve_chain(tm)
        for a, b in ((sol.pi, one.pi), (sol.h, one.h),
                     (sol.mfpt, one.mfpt), (sol.cond, one.cond), (sol.c, one.c)):
            assert _bits(a[k]) == _bits(b)
        one_rows = dict(zip(RESIDUAL_ROWS, residuals(one)))
        one_resid = {name: one_rows[name] for name in IDENTITY_ROWS}
        assert list(one_resid) == list(resid)
        for name, value in one_resid.items():
            assert _bits(resid[name][k]) == _bits(value), name
        assert _bits(worst[k]) == _bits(bounds_check(one).worst_margin)
        one_table = residuals(one)
        assert one_table.shape == (len(RESIDUAL_ROWS),)
        assert _bits(table[:, k]) == _bits(one_table)
        assert np.array_equal(flags[:, k], ordering_masks(one))


def _conversions(sol) -> dict:
    """Every read-off and conversion of the chain solution's arrays."""
    h, pi, c = sol.h, sol.pi, sol.c
    z = z_from_h(h, pi)
    return {
        "stationary_from_h": stationary_from_h(h, c),
        "kemeny_from_h": kemeny_from_h(h),
        "group_inverse": group_inverse(z, pi),
        "z_from_h": z,
        "h_from_z": h_from_z(z, pi, c),
        "h_from_mfpt": h_from_mfpt(sol.mfpt, pi, c),
        "mfpt_general": mfpt_general(z, pi),
        "kemeny_general": kemeny_general(group_inverse(z, pi), pi),
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


def test_one_kemeny_value_on_a_stack():
    """The stack's K, `kemeny_from_h` of its H, holds in each chain's entry the
    K that `analyze` reports for it alone, and its Kemeny margin is K - (m+1)/2."""
    seeds = [3, 17, 2**63 + 5, 12345]
    sol = solve_chain(TransitionMatrix(p=random_chains(6, np.array(seeds, dtype=np.uint64))))
    kemeny = kemeny_from_h(sol.h)
    assert kemeny.shape == (len(seeds),)
    assert _bits(bounds_check(sol).kemeny_margin) == _bits(kemeny - 3.5)
    for k, seed in enumerate(seeds):
        assert _bits(kemeny[k]) == _bits(analyze(random_chain(6, seed)).kemeny)


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
