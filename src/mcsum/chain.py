"""Transition-matrix construction and validation.

A chain is accepted when its matrix is row-stochastic (within a small row
tolerance, after which rows are renormalized) and its positive-entry graph
is strongly connected.  Periodicity is allowed; every downstream formula
holds for irreducible periodic chains.
"""
from __future__ import annotations

from collections import Counter
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


def is_irreducible(p: np.ndarray) -> bool | np.ndarray:
    """True iff the graph on positive entries is strongly connected (state 0
    reaches every state and every state reaches 0); one verdict per matrix."""
    adj = np.asarray(p) > 0.0
    strong = np.asarray(adj.all(axis=(-2, -1)))  # an all-positive matrix needs no search
    if not strong.all():  # search from state 0 along the edges and against them at once
        both = np.stack((adj[~strong], np.swapaxes(adj[~strong], -2, -1)))
        strong[~strong] = (_levels(both) >= 0).all(axis=(0, -1))
    return strong if strong.ndim else bool(strong)


def _communicating_classes(adj: np.ndarray) -> list[list[int]]:
    """Communicating classes in order of their smallest state.

    Tarjan's strongly connected components search, kept on an explicit path
    so that a long chain needs no recursion.  Each state's successors come
    from one ``np.nonzero`` and are read as arrays: a visit takes the first
    unvisited one, and a finished state lowers its link to the smallest link
    among its successors still on the stack (the lowlink form of Tarjan's
    update, which finds the same classes).
    """
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    succ = np.split(cols, np.searchsorted(rows, np.arange(1, n)))
    index = np.full(n, -1)  # discovery order
    low = np.zeros(n, dtype=int)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    classes: list[list[int]] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        path = [root]
        while path:
            v = path[-1]
            if index[v] < 0:  # first visit
                index[v] = low[v] = count
                count += 1
                stack.append(v)
                on_stack[v] = True
            s = succ[v]
            fresh = s[index[s] < 0]
            if fresh.size:
                path.append(int(fresh[0]))
                continue
            path.pop()
            linked = s[on_stack[s]]
            if linked.size:
                low[v] = min(low[v], low[linked].min())
            if low[v] == index[v]:  # v roots a class: pop it off the stack
                cls = []
                while not cls or cls[-1] != v:
                    cls.append(stack.pop())
                on_stack[cls] = False
                classes.append(sorted(cls))
    return sorted(classes)


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
        State names: distinct, not blank, valid text; defaults to "1".."m".

    Rows whose sum deviates from 1 by less than ``DEFAULT_ROW_TOL`` are
    renormalized, with every zero made +0.0; larger deviations are rejected.

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
    p += 0.0  # -0.0 to +0.0: the digest must not depend on how a zero is spelled

    if labels is None:
        labels = tuple(str(i + 1) for i in range(p.shape[0]))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != p.shape[0]:
            raise ValueError(f"{len(labels)} labels for {p.shape[0]} states")
        blank = [k for k, label in enumerate(labels) if not label.strip()]
        if blank:
            raise ValueError(f"state label {blank[0] + 1} is blank")
        # a lone surrogate (json.loads reads "\ud800" as one) has no UTF-8 form
        broken = [k for k, s in enumerate(labels) if s.encode(errors="ignore").decode() != s]
        if broken:
            raise ValueError(f"state label {broken[0] + 1} is not valid UTF-8 text")
        repeated = [label for label, count in Counter(labels).items() if count > 1]
        if repeated:
            raise ValueError(f"state label {repeated[0]!r} is repeated")

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

