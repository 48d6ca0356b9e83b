"""Seedable, platform-independent pseudo-random streams (splitmix64).

Every stochastic component (random chain generation, and the test suite's
Monte Carlo walks) draws from splitmix64 streams derived here, so identical
seeds produce identical output bits on any platform.  The generator advances its
64-bit state by a fixed odd constant and finalizes with an avalanche mix;
stream k of a master seed starts from ``mix64(master + (k+1)*GOLDEN)``.
Its pure-Python reference, ``mix64`` and ``SplitMix64``, is in the test
suite's ``tests/oracles.py``.
"""
from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def _mix_vec(z: np.ndarray) -> np.ndarray:
    # splitmix64's finalizer on uint64 arrays; callers run it under
    # np.errstate(over="ignore"), since the products wrap modulo 2^64 by design
    z = (z ^ (z >> np.uint64(30))) * _MIX1_U64
    z = (z ^ (z >> np.uint64(27))) * _MIX2_U64
    return z ^ (z >> np.uint64(31))


def _u64(x: int | np.ndarray) -> np.ndarray:
    """An int of any size, or an integer array, modulo 2^64 as uint64."""
    return np.asarray(x & _MASK if isinstance(x, int) else x).astype(np.uint64)


def derive_stream(master: int | np.ndarray, *indices: int | np.ndarray) -> int | np.ndarray:
    """Fold integer indices into a master seed, one mix per index.

    Used to give each (chain, trial, walk, ...) coordinate its own
    decorrelated stream seed; integer arrays broadcast to uint64 seeds, ints
    give an int.
    """
    s = _u64(master)
    with np.errstate(over="ignore"):
        for ix in indices:
            s = _mix_vec(s + _u64(ix) * _GOLDEN_U64 + _GOLDEN_U64)  # + (ix + 1) * GOLDEN
    return s if np.ndim(s) else int(s)


def uniform_block(stream_seed: int | np.ndarray, count: int) -> np.ndarray:
    """First `count` uniforms in [0, 1) of each stream, on the last axis."""
    with np.errstate(over="ignore"):
        ctr = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN_U64
        z = _mix_vec(_u64(stream_seed)[..., None] + ctr)
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53
