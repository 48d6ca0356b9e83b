"""Full single-chain analysis assembled into one serializable report.

``analyze`` reads the residual blocks off the rows of ``analysis.residuals``
and the violation pairs off ``scan.ordering_masks``, computing neither again.

``write_json`` writes the ``analyze --output`` file as bytes, and
``report_to_dict`` is what it parses to.  Both encode through `io`, the
package's one JSON encoder: each array is checked once by `io.json_ready`
(an array holding NaN or infinity is refused), then goes out through orjson's
numpy encoder, `io.array_json`, one call per float matrix row; every other
value (labels, scalars, residual dicts) goes through `io.dumps`.  Floats are
the shortest decimal that round-trips.
"""
from __future__ import annotations

from dataclasses import dataclass, is_dataclass

import numpy as np
import orjson

from .analysis import (IDENTITY_ROWS, RESIDUAL_ROWS, THEOREM2_ROWS, BoundsReport,
                       DoublyStochasticReport, bounds_check, doubly_stochastic_report,
                       residuals, solve_chain)
from .chain import TransitionMatrix, reorder_by_column_sums
from .io import _plain, array_json, dumps, json_ready
from .scan import OrderingRecord, ordering_from_solution

#: Condition numbers at or above this set ``condition_warning``.
CONDITION_WARN_THRESHOLD = 1e8


@dataclass(frozen=True)
class ChainReport:
    """What the package computes for one chain, less what the report's own
    values rebuild bit for bit.

    P itself is not echoed: ``ordering.digest`` is the sha256 of the analysed
    (possibly reordered) P's bytes, and ``ordering.violations`` holds, per
    relation, the (k, 2) array of pairs that break it, whose compared
    vectors are all in the report.  Nor is the fundamental matrix Z:
    ``ginv.z_from_h(h_matrix, stationary)`` gives it back bit for bit.
    When the chain was reordered, ``permutation[k]`` is the original index
    of state k and the labels travel with their states.
    """

    labels: tuple[str, ...]
    m: int
    permutation: tuple[int, ...] | None
    column_sums: np.ndarray
    stationary: np.ndarray
    kemeny: float
    mfpt: np.ndarray
    h_matrix: np.ndarray
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
    bounds = bounds_check(sol)
    rows = dict(zip(RESIDUAL_ROWS, residuals(sol)))

    return ChainReport(
        labels=tm.labels,
        m=tm.n,
        permutation=permutation,
        column_sums=sol.c,
        stationary=sol.pi,
        kemeny=bounds.kemeny,
        mfpt=sol.mfpt,
        h_matrix=sol.h,
        theorem2_residuals={name: rows[name] for name in THEOREM2_ROWS},
        identity_residuals={name: rows[name] for name in IDENTITY_ROWS},
        bounds=bounds,
        doubly_stochastic=doubly_stochastic_report(sol),
        ordering=ordering_from_solution(sol),
        condition_estimate=sol.cond,
        condition_warning=bool(sol.cond >= CONDITION_WARN_THRESHOLD),
    )


def report_to_dict(obj) -> dict:
    """What `io.dumps` and `write_json` of `obj` parse to: dicts in field
    order, lists and scalars, with the fields that are None left out."""
    return orjson.loads(dumps(obj))


def write_json(obj, fh, depth: int = 0) -> None:
    """Write `obj` as UTF-8 JSON bytes to the binary file `fh` at indent level
    `depth`: a report dataclass or dict one key per line, a float matrix one
    row per line (each through `array_json`), and any other value on one line,
    an array through `array_json` and the rest through `dumps`.  Each array is
    checked by `json_ready` before any of it is written; it and `dumps` raise
    ValueError on NaN or infinity, which orjson would write as ``null``."""
    if isinstance(obj, np.ndarray):
        a = json_ready(obj)
        if a.ndim < 2 or a.dtype.kind != "f" or not len(a):
            fh.write(array_json(a))
            return
        pad, sep = b"\n" + b"  " * depth, b"["
        for row in a:
            fh.write(sep + pad + b"  ")
            fh.write(array_json(row))
            sep = b","
        fh.write(pad + b"]")
    elif is_dataclass(obj) or isinstance(obj, dict):
        pad, sep = b"\n" + b"  " * depth, b"{"
        for key, value in (obj if isinstance(obj, dict) else _plain(obj)).items():
            fh.write(sep + pad + b"  " + dumps(key) + b": ")
            write_json(value, fh, depth + 1)
            sep = b","
        fh.write(pad + b"}" if sep == b"," else b"{}")
    else:
        fh.write(dumps(obj))
