"""Full single-chain analysis assembled into one serializable report.

``analyze`` reads the residual block off the rows of ``analysis.residuals``
and the violation counts off ``scan.ordering_masks``, computing neither again;
``rebuild`` gives back what the report leaves out: M, Z and the pairs.

``write_json`` writes the ``analyze --output`` file as bytes, and
``report_to_dict`` is what it parses to.  Both encode through `io`, the
package's one JSON encoder: each array is checked once by `io.json_ready`
(an array holding NaN or infinity is refused), then goes out through orjson's
numpy encoder, `io.array_json`, one call per float matrix row; every other
value (labels, scalars, the residual dict) goes through `io.dumps`.  Floats are
the shortest decimal that round-trips.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, is_dataclass
from types import SimpleNamespace

import numpy as np
import orjson

from .analysis import (RESIDUAL_ROWS, THEOREM2_ROWS, BoundsReport, DoublyStochasticReport,
                       bounds_check, doubly_stochastic_report, kemeny_from_h, mfpt_from_h,
                       residuals, solve_chain, z_from_h)
from .chain import TransitionMatrix, reorder_by_column_sums
from .io import _plain, array_json, dumps, json_ready
from .scan import RELATIONS, flagged_pairs, ordering_masks


@dataclass(frozen=True)
class OrderingReport:
    """Per relation, the number of pairs i < j that break it, and the sha256 of
    P's bytes; ``flags``, each relation's ``scan.ordering_masks`` row (whose
    ``scan.flagged_pairs`` are its pairs), is never written."""

    digest: str
    violations: dict[str, int]
    flags: dict[str, np.ndarray] = field(repr=False, compare=False, metadata={"json": False})


@dataclass(frozen=True)
class ChainReport:
    """What the package computes for one chain, less what the report's own
    values rebuild bit for bit.

    P itself is not echoed: ``ordering.digest`` is the sha256 of the analysed
    (possibly reordered) P's bytes.  Nor are the passage times M, the
    fundamental matrix Z or the violating pairs, of which ``ordering`` holds
    only the count per relation: ``rebuild`` gives all three back from the
    parsed report.  ``theorem2_residuals`` holds the THEOREM2_ROWS of
    ``analysis.residuals``; ``analysis.identity_residuals``, which combines H's
    rows when M is read off H, is not written (``mcsum verify`` prints it).
    When the chain was reordered, ``permutation[k]`` is the original index
    of state k and the labels travel with their states.
    """

    labels: tuple[str, ...]
    m: int
    permutation: tuple[int, ...] | None
    column_sums: np.ndarray
    stationary: np.ndarray
    kemeny: float
    h_matrix: np.ndarray
    theorem2_residuals: dict[str, float]
    bounds: BoundsReport
    doubly_stochastic: DoublyStochasticReport
    ordering: OrderingReport
    condition_estimate: float


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
    rows = dict(zip(RESIDUAL_ROWS, residuals(sol)))
    flags = dict(zip(RELATIONS, ordering_masks(sol)))

    return ChainReport(
        labels=tm.labels,
        m=tm.n,
        permutation=permutation,
        column_sums=sol.c,
        stationary=sol.pi,
        kemeny=kemeny_from_h(sol.h),
        h_matrix=sol.h,
        theorem2_residuals={name: rows[name] for name in THEOREM2_ROWS},
        bounds=bounds_check(sol),
        doubly_stochastic=doubly_stochastic_report(sol),
        ordering=OrderingReport(
            digest=hashlib.sha256(np.ascontiguousarray(tm.p)).hexdigest(),
            violations={name: int(np.count_nonzero(f)) for name, f in flags.items()},
            flags=flags,
        ),
        condition_estimate=sol.cond,
    )


def rebuild(r: dict) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """M, Z and each relation's violating pairs (``scan.flagged_pairs``) of the
    parsed report `r`, bit for bit what the pipeline's H and pi give."""
    h, pi = np.array(r["h_matrix"]), np.array(r["stationary"])
    mfpt = mfpt_from_h(h, pi)
    vectors = SimpleNamespace(c=np.array(r["column_sums"]), pi=pi, h_diag=h.diagonal(),
                              col_totals=mfpt.sum(axis=-2), m_diag=mfpt.diagonal())
    pairs = {name: flagged_pairs(f, len(h)) for name, f in zip(RELATIONS, ordering_masks(vectors))}
    return mfpt, z_from_h(h, pi), pairs


def report_to_dict(obj) -> dict:
    """What `io.dumps` and `write_json` of `obj` parse to: dicts in field
    order, lists and scalars, less the fields that `io._plain` leaves out."""
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
