"""Transition-matrix construction and validation.

A chain is accepted when its matrix is row-stochastic (within a small row
tolerance, after which rows are renormalized) and its positive-entry graph
is strongly connected.  Periodicity is allowed; every downstream formula
holds for irreducible periodic chains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotIrreducible, NotStochastic

#: Rows whose sum deviates from 1 by less than this are renormalized by
#: ``validate``; larger deviations are rejected.
DEFAULT_ROW_TOL = 1e-9


@dataclass(frozen=True)
class TransitionMatrix:
    """Validated row-stochastic matrix, or (..., m, m) stack of them, with labels."""

    p: np.ndarray
    labels: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        """Number of states."""
        return self.p.shape[-1]


def _levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first levels from state 0 along `adj`'s edges (-1: unreached), per
    matrix of a stack; each step ORs the rows of every chain's frontier states."""
    shape = adj.shape[:-1]
    adj = adj.reshape(-1, shape[-1], shape[-1])
    level = np.full(adj.shape[:2], -1)
    level[:, 0] = 0
    frontier = adj[:, 0] & (level < 0)  # one step from state 0
    depth = 1
    while frontier.any():
        level[frontier] = depth
        unreached = level < 0
        if not unreached.any():  # so a dense graph takes no row beyond state 0's
            break
        t, i = np.nonzero(frontier)  # by chain, so each chain's rows are contiguous
        chains, starts = np.unique(t, return_index=True)
        frontier = np.zeros_like(frontier)
        frontier[chains] = np.logical_or.reduceat(adj[t, i], starts, axis=0)
        frontier &= unreached
        depth += 1
    return level.reshape(shape)


def _closure(adj: np.ndarray) -> np.ndarray:
    """Transitive closure of ``adj | I`` over the last two axes: each squaring
    doubles the path length covered, so (n - 1).bit_length() squarings cover
    every path of up to n - 1 steps; they stop once all states reach all."""
    n = adj.shape[-1]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        if reach.all():
            break
        reach = (reach @ reach.astype(np.float64)) > 0.0
    return reach


def is_irreducible(p: np.ndarray) -> bool | np.ndarray:
    """True iff the graph on positive entries is strongly connected (state 0
    reaches every state and every state reaches 0); one verdict per matrix."""
    adj = np.asarray(p) > 0.0
    strong = (_levels(adj) >= 0).all(axis=-1)
    strong &= (_levels(np.swapaxes(adj, -2, -1)) >= 0).all(axis=-1)
    return strong if strong.ndim else bool(strong)


def _communicating_classes(adj: np.ndarray) -> list[list[int]]:
    """Communicating classes in order of their smallest state; the class of
    s is every state that s reaches and that reaches s."""
    reach = _closure(adj)
    mutual = reach & reach.T
    leaders = np.flatnonzero(mutual.argmax(axis=1) == np.arange(adj.shape[0]))
    return [np.flatnonzero(mutual[s]).tolist() for s in leaders]


def validate(
    raw: np.ndarray,
    labels: list[str] | tuple[str, ...] | None = None,
) -> TransitionMatrix:
    """Check stochasticity and irreducibility; return an immutable chain.

    Parameters
    ----------
    raw : array_like, shape (m, m)
        Candidate transition matrix.
    labels : sequence of str, optional
        State names; defaults to "1".."m".

    Rows whose sum deviates from 1 by less than ``DEFAULT_ROW_TOL`` are
    renormalized; larger deviations are rejected.

    Raises
    ------
    NotStochastic
        On a negative entry or a row sum off by at least ``DEFAULT_ROW_TOL``.
    NotIrreducible
        When the positive-entry graph is not strongly connected; the message
        names the communicating classes.
    """
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    if p.shape[0] < 1:
        raise ValueError("transition matrix must have at least one state")
    if not np.isfinite(p).all():
        raise NotStochastic("transition matrix has non-finite entries")

    if (p < 0.0).any():  # argwhere alone takes several times longer
        i, j = np.argwhere(p < 0.0)[0]
        raise NotStochastic(f"negative entry p[{i + 1},{j + 1}] = {p[i, j]!r}")

    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) >= DEFAULT_ROW_TOL)
    if bad.size:
        i = int(bad[0])
        raise NotStochastic(f"row {i + 1} sums to {sums[i]!r}, expected 1")
    p = p / sums[:, None]

    if labels is None:
        labels = tuple(str(i + 1) for i in range(p.shape[0]))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != p.shape[0]:
            raise ValueError(f"{len(labels)} labels for {p.shape[0]} states")

    if not is_irreducible(p):
        comps = _communicating_classes(p > 0.0)
        names = ", ".join(
            "{" + ", ".join(labels[i] for i in comp) + "}" for comp in comps
        )
        raise NotIrreducible(f"chain is not irreducible; communicating classes: {names}")

    p.flags.writeable = False
    return TransitionMatrix(p=p, labels=labels)


def column_sums(tm: TransitionMatrix) -> np.ndarray:
    """Column-sum vector; its entries total the state count."""
    return tm.p.sum(axis=-2)


def reorder_by_column_sums(tm: TransitionMatrix) -> tuple[TransitionMatrix, np.ndarray]:
    """Permute states into descending column-sum order.

    Returns the reordered chain and the permutation, where ``perm[k]`` is
    the original index of new state k.  Ties keep original order.
    """
    c = column_sums(tm)
    perm = np.argsort(-c, kind="stable")
    p = tm.p[np.ix_(perm, perm)].copy()
    p.flags.writeable = False
    labels = tuple(tm.labels[i] for i in perm)
    return TransitionMatrix(p=p, labels=labels), perm


def period(tm: TransitionMatrix) -> int:
    """Period of an irreducible chain (1 means aperiodic).

    The gcd of ``level[u] + 1 - level[v]`` over all edges (u, v), with levels
    from a breadth-first search, equals the period on a strongly connected
    graph.
    """
    adj = tm.p > 0.0
    level = _levels(adj)
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) or 1
