"""Benchmark input chains, drawn with numpy from the workload seed.

The program under test only ever sees the matrix files written from these.
"""
from __future__ import annotations

import numpy as np


def dense(g: np.random.Generator, m: int) -> np.ndarray:
    """Flat-Dirichlet rows (normalized unit exponentials)."""
    x = g.exponential(size=(m, m))
    return x / x.sum(axis=1, keepdims=True)


def permutation_mixture(g: np.random.Generator, m: int, terms: int = 4) -> np.ndarray:
    """Doubly stochastic mixture of permutation matrices.

    The first permutation is a single m-cycle, which makes the chain
    irreducible whatever the other terms are.
    """
    order = g.permutation(m)
    perms = [np.empty(m, dtype=int)]
    perms[0][order] = np.roll(order, -1)
    perms += [g.permutation(m) for _ in range(terms - 1)]
    weights = g.dirichlet(np.ones(terms))
    p = np.zeros((m, m))
    rows = np.arange(m)
    for w, perm in zip(weights, perms):
        p[rows, perm] += w
    return p


def periodic(g: np.random.Generator, m: int) -> np.ndarray:
    """Cyclic classes of period d in {2, 3, 5}: class k moves only to class k+1,
    with flat-Dirichlet weights over the whole next class."""
    d = int(g.choice([2, 3, 5]))
    cls = g.permutation(m) % d
    x = g.exponential(size=(m, m))
    x[cls[:, None] != (cls[None, :] - 1) % d] = 0.0
    return x / x.sum(axis=1, keepdims=True)


def sparse(g: np.random.Generator, m: int, sparsity: float = 0.8) -> np.ndarray:
    """Flat-Dirichlet rows with entries below the Exp(1) sparsity quantile
    zeroed; redrawn until every row is nonempty and the chain irreducible."""
    cutoff = -np.log1p(-sparsity)
    for _ in range(100):
        x = g.exponential(size=(m, m))
        x[x < cutoff] = 0.0
        sums = x.sum(axis=1)
        if (sums > 0.0).all() and irreducible(x):
            return x / sums[:, None]
    raise RuntimeError(f"no irreducible sparse {m}-state chain in 100 draws")


def nearly_uncoupled(g: np.random.Generator, m: int, coupling: float) -> np.ndarray:
    """Two dense blocks of m/2 states; each row sends `coupling` of its mass
    to the other block."""
    half = m // 2
    inside = np.zeros((m, m), dtype=bool)
    inside[:half, :half] = True
    inside[half:, half:] = True
    x = g.exponential(size=(m, m))
    within = np.where(inside, x, 0.0)
    across = np.where(inside, 0.0, x)
    return ((1.0 - coupling) * within / within.sum(axis=1, keepdims=True)
            + coupling * across / across.sum(axis=1, keepdims=True))


def irreducible(p: np.ndarray) -> bool:
    """Strong connectivity of the positive-entry graph by repeated squaring."""
    m = p.shape[0]
    reach = (p > 0.0) | np.eye(m, dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(m, 2))))):
        reach = (reach.astype(np.float64) @ reach.astype(np.float64)) > 0.0
    return bool(reach.all())


def write_csv(path, p: np.ndarray) -> None:
    """CSV matrix file; ``repr`` floats round-trip exactly."""
    with open(path, "w") as fh:
        for row in p.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def reference(p: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Stationary vector, Kemeny's constant and a condition number, computed
    directly with numpy.linalg for the benchmark's own output check.

    pi solves pi^T (I - P + E) = e^T (E the all-ones matrix), a different
    system from any the program solves; K = tr(Z) with
    Z = (I - P + e pi^T)^{-1}, and the condition number is the 1-norm one
    of I - P + e pi^T.
    """
    m = p.shape[0]
    eye = np.eye(m)
    pi = np.linalg.solve((eye - p + 1.0).T, np.ones(m))
    a = eye - p + pi[None, :]
    z = np.linalg.inv(a)
    cond = float(np.abs(a).sum(axis=0).max() * np.abs(z).sum(axis=0).max())
    return pi, float(z.trace()), cond
