"""Full single-chain analysis assembled into one serializable report.

``report_to_dict`` gives a report as JSON-ready dicts and lists;
``write_json`` streams the same document to a file, byte for byte what
``json.dump(report_to_dict(obj), fh, indent=2)`` writes, through the C
encoder one array row at a time.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii

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
from .ginv import group_inverse, theorem2_residuals
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
        "colsum_inverse": kemeny_from_h(sol.h),
        "fundamental": kemeny_from_z(sol.z),
        "group_inverse": kemeny_general(group_inverse(sol.z, sol.pi), sol.pi),
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
        h_matrix=sol.h,
        z_matrix=sol.z,
        theorem2_residuals=theorem2_residuals(sol),
        identity_residuals=identity_residuals(sol),
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
    return {name: _encode(value) for name, value in _fields(obj)}


#: Exact types the C encoder writes as ``json.dump`` does; subclasses
#: (numpy scalars, named tuples) take the general path.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _leaf_encoder(depth: int):
    """C-encoder ``encode`` for a flat list, or a table of flat rows, whose items sit at
    `depth`: the indent=2 line break and indent are built into the item separator."""
    # Scalars and rows of scalars hold no reference cycle to look for.
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), check_circular=False).encode


def write_json(obj, fh, depth: int = 0) -> None:
    """Write `obj` (a report dataclass, or any value ``report_to_dict``
    encodes, with string dict keys) to `fh` as ``json.dump(..., indent=2)``
    would, one array row at a time, without building the document; `depth`
    is the indent level `obj` sits at."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    flat = isinstance(obj, np.ndarray) and obj.ndim < 2
    signs = flat and obj.ndim == 1 and obj.dtype == np.int8 and obj.size > 0
    if signs and -1 <= obj.min() and obj.max() <= 1:
        # A row of an ordering sign matrix, a quarter of a report's numbers:
        # one character per sign (-1 as "m"), joined without a Python loop.
        chars = obj.tobytes().translate(bytes.maketrans(b"\xff\x00\x01", b"m01"))
        text = ("," + inner).join(chars.decode())
        fh.write("[" + inner + text.replace("m", "-1") + pad + "]")
        return
    if flat:
        obj = obj.tolist()
    if is_dataclass(obj) or isinstance(obj, dict):
        pairs = _fields(obj) if is_dataclass(obj) else obj.items()
        items, brackets = ((encode_basestring_ascii(k) + ": ", v) for k, v in pairs), "{}"
    elif not isinstance(obj, (np.ndarray, list, tuple)):
        fh.write(_leaf_encoder(depth)(obj))
        return
    elif len(obj) and (flat or set(map(type, obj)) <= _SCALARS):
        fh.write("[" + inner + _leaf_encoder(depth + 1)(obj)[1:-1] + pad + "]")
        return
    elif (len(obj) and set(map(type, obj)) <= {list, tuple} and all(obj)
          and set(map(type, itertools.chain.from_iterable(obj))) <= _SCALARS):
        # A table of short rows (violation pairs) in one call: encoded
        # scalars hold no raw newline, so "],<newline>[" only ends a row.
        row = inner + "  "
        text = _leaf_encoder(depth + 2)(obj)[2:-2]
        text = text.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        fh.write("[" + inner + "[" + row + text + inner + "]" + pad + "]")
        return
    else:
        items, brackets = (("", v) for v in obj), "[]"
    sep = brackets[0] + inner
    for prefix, value in items:
        fh.write(sep + prefix)
        write_json(value, fh, depth + 1)
        sep = "," + inner
    fh.write(brackets if sep[0] == brackets[0] else pad + brackets[1])
