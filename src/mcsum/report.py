"""Full single-chain analysis assembled into one serializable report.

``analyze`` reads the residual blocks off the rows of ``analysis.residuals``
and the violation pairs off ``scan.ordering_masks``, computing neither again.

``dumps`` writes one line (a ``scan --log`` line) through the standard
library's C encoder with one ``default`` hook, ``_plain``; ``report_to_dict``
is what it parses to.  ``write_json`` writes the ``analyze --output`` file as
bytes, which parse to the same dict: each array is checked once by
`io.json_ready` (an array holding NaN or infinity is refused), then goes out
through orjson's numpy encoder, `io.array_json`, one call per float matrix
row; every other value (labels, scalars, residual dicts) goes through
``dumps``.  Floats are the shortest decimal that round-trips in both.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .analysis import (IDENTITY_ROWS, RESIDUAL_ROWS, THEOREM2_ROWS, BoundsReport,
                       DoublyStochasticReport, bounds_check, doubly_stochastic_report,
                       kemeny_from_h, kemeny_from_z, residuals, solve_chain)
from .chain import TransitionMatrix, reorder_by_column_sums
from .ginv import group_inverse, kemeny_general
from .io import array_json, json_ready
from .scan import OrderingRecord, ordering_from_solution

#: Condition numbers at or above this set ``condition_warning``.
CONDITION_WARN_THRESHOLD = 1e8


@dataclass(frozen=True)
class ChainReport:
    """Everything the package computes for one chain.

    P itself is not echoed: ``ordering.digest`` is the sha256 of the analysed
    (possibly reordered) P's bytes, and ``ordering.violations`` holds, per
    relation, the (k, 2) array of pairs that break it, whose compared
    vectors are all in the report.  The canonical ``kemeny`` value is the
    trace of the fundamental matrix; all three variants and their spread are
    kept alongside it.
    When the chain was reordered, ``permutation[k]`` is the original index
    of state k and the labels travel with their states.
    """

    labels: tuple[str, ...]
    m: int
    permutation: tuple[int, ...] | None
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
        "colsum_inverse": kemeny_from_h(sol.h),
        "fundamental": kemeny_from_z(sol.z),
        "group_inverse": kemeny_general(group_inverse(sol.z, sol.pi), sol.pi),
    }
    values = list(variants.values())
    spread = max(values) - min(values)
    rows = dict(zip(RESIDUAL_ROWS, residuals(sol)))

    return ChainReport(
        labels=tm.labels,
        m=tm.n,
        permutation=permutation,
        column_sums=sol.c,
        stationary=sol.pi,
        kemeny=variants["fundamental"],
        kemeny_variants=variants,
        kemeny_spread=spread,
        mfpt=sol.mfpt,
        h_matrix=sol.h,
        z_matrix=sol.z,
        theorem2_residuals={name: rows[name] for name in THEOREM2_ROWS},
        identity_residuals={name: rows[name] for name in IDENTITY_ROWS},
        bounds=bounds_check(sol),
        doubly_stochastic=doubly_stochastic_report(sol),
        ordering=ordering_from_solution(sol),
        condition_estimate=sol.cond,
        condition_warning=bool(sol.cond >= CONDITION_WARN_THRESHOLD),
    )


def _fields(obj):
    """(name, value) of a dataclass's fields in order, leaving out None."""
    for f in fields(obj):
        if (value := getattr(obj, f.name)) is not None:
            yield f.name, value


def _plain(obj):
    """The encoder's ``default`` hook: an array as nested lists, a report
    dataclass as the dict of its fields that are not None."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return dict(_fields(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """`obj`, which may hold arrays and report dataclasses, as one line of JSON."""
    # Through the module attribute, so a wrapper on json.dumps sees each call.
    return json.dumps(obj, default=_plain, separators=(",", ":"))


def report_to_dict(obj) -> dict:
    """What `dumps` and `write_json` of `obj` parse to: dicts in field order,
    lists and scalars, with the fields that are None left out."""
    return json.loads(dumps(obj))


def write_json(obj, fh, depth: int = 0) -> None:
    """Write `obj` as UTF-8 JSON bytes to the binary file `fh` at indent level
    `depth`: a report dataclass or dict (string keys) one key per line, a
    float matrix one row per line.  Each array is checked and converted once
    by `json_ready` (ValueError if it is a float array holding NaN or
    infinity, raised before any of it is written); then each row of a float
    matrix, or the whole of any other array (a vector, or an integer array
    such as the violation pairs), goes on one line through `array_json`.
    Every other value goes on one line through `dumps`."""
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
        for key, value in _fields(obj) if is_dataclass(obj) else obj.items():
            fh.write(sep + pad + b"  " + dumps(key).encode() + b": ")
            write_json(value, fh, depth + 1)
            sep = b","
        fh.write(pad + b"}" if sep == b"," else b"{}")
    else:
        fh.write(dumps(obj).encode())
