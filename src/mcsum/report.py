"""Full single-chain analysis assembled into one serializable report."""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .analysis import (
    BoundsReport,
    DoublyStochasticReport,
    bounds_check,
    doubly_stochastic_report,
    identity_residuals,
    kemeny_from_h,
    kemeny_from_z,
    kemeny_general,
    solve_chain,
)
from .chain import TransitionMatrix, reorder_by_column_sums
from .ginv import theorem2_residuals
from .scan import OrderingRecord, ordering_from_solution

#: Condition numbers at or above this set ``condition_warning``.
CONDITION_WARN_THRESHOLD = 1e8


@dataclass(frozen=True)
class ChainReport:
    """Everything the package computes for one chain.

    The canonical ``kemeny`` value is the trace of the fundamental matrix;
    all three variants and their spread are kept alongside it.  When the
    chain was reordered, ``permutation[k]`` is the original index of state k
    and the labels travel with their states.
    """

    labels: tuple[str, ...]
    m: int
    permutation: tuple[int, ...] | None
    p: np.ndarray
    column_sums: np.ndarray
    stationary: np.ndarray
    kemeny: float
    kemeny_variants: dict[str, float]
    kemeny_spread: float
    mfpt: np.ndarray
    h_matrix: np.ndarray
    z_matrix: np.ndarray
    theorem2_residuals: dict[str, float]
    identity_residuals: dict[str, float]
    bounds: BoundsReport
    doubly_stochastic: DoublyStochasticReport
    ordering: OrderingRecord
    condition_estimate: float
    condition_warning: bool


def analyze(tm: TransitionMatrix, reorder: bool = False) -> ChainReport:
    """Compute the full report for a validated chain.

    With `reorder` the states are first permuted into descending column-sum
    order and the applied permutation is recorded.
    """
    permutation: tuple[int, ...] | None = None
    if reorder:
        tm, perm = reorder_by_column_sums(tm)
        permutation = tuple(int(i) for i in perm)

    sol = solve_chain(tm)
    variants = {
        "colsum_inverse": kemeny_from_h(sol.hc),
        "fundamental": kemeny_from_z(sol.zf),
        "group_inverse": kemeny_general(sol.group_inv, sol.pi),
    }
    values = list(variants.values())
    spread = max(values) - min(values)

    return ChainReport(
        labels=tm.labels,
        m=tm.n,
        permutation=permutation,
        p=tm.p,
        column_sums=sol.c,
        stationary=sol.pi,
        kemeny=variants["fundamental"],
        kemeny_variants=variants,
        kemeny_spread=spread,
        mfpt=sol.mfpt,
        h_matrix=sol.hc.h,
        z_matrix=sol.zf.z,
        theorem2_residuals=theorem2_residuals(sol),
        identity_residuals=identity_residuals(sol),
        bounds=bounds_check(sol),
        doubly_stochastic=doubly_stochastic_report(sol),
        ordering=ordering_from_solution(sol),
        condition_estimate=sol.hc.cond,
        condition_warning=sol.hc.cond >= CONDITION_WARN_THRESHOLD,
    )


def _encode(value):
    if isinstance(value, (str, int, float)):  # first: most values sit in violation pairs
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if is_dataclass(value):
        return report_to_dict(value)
    return value


def report_to_dict(obj) -> dict:
    """Any report dataclass as a JSON-ready dict in field order.

    Fields that are None are left out; arrays and tuples become lists, and
    nested dicts and dataclasses are encoded the same way.
    """
    return {
        f.name: _encode(value)
        for f in fields(obj)
        if (value := getattr(obj, f.name)) is not None
    }
