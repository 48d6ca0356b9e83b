"""Matrix file formats used by the CLI and the bundled fixtures, and the
JSON encoding of arrays.

CSV: m lines of m comma-separated decimal fields, with an optional leading
header line ``# states: a,b,c``.  JSON: an object with an optional "states"
array and a "p" array of m rows of JSON numbers, one row per line.  Floats
are written as the shortest decimal that round-trips (``repr`` in CSV,
orjson's Ryu writer in JSON, through `array_json`), so read(write(M))
preserves matrix bits.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import orjson


def _tolist(obj):
    """orjson's ``default`` hook: the arrays it does not encode itself (0-d,
    non-contiguous, other dtypes) as nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def array_json(a: np.ndarray) -> str:
    """`a` as compact JSON nested lists, through orjson's numpy encoder.

    Each float is the shortest decimal that parses back to the same float64,
    the value ``repr`` gives, spelled ``0.00001`` for ``1e-05`` and ``1e22``
    for ``1e+22``.  A float array holding NaN or infinity raises ValueError:
    JSON has no spelling for them and orjson would write ``null``.
    """
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise ValueError("cannot write a non-finite array as JSON")
        # orjson writes float32 in its own shortest form, which parses to
        # another float64 than the float32 holds.
        a = a.astype(np.float64, copy=False)
    # orjson 3.8 reads a byte-swapped array's entries in native order.
    a = a.astype(a.dtype.newbyteorder("="), copy=False)
    return orjson.dumps(a, default=_tolist, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def parse_csv(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse the CSV matrix format; returns (matrix, labels or None)."""
    labels: tuple[str, ...] | None = None
    lines: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("states:"):
                labels = tuple(s.strip() for s in body[len("states:"):].split(","))
        elif line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError("no matrix rows found")
    try:  # numpy's C reader parses a field as float() does, or refuses it
        return np.loadtxt([ln for _, ln in lines], delimiter=",", comments=None, ndmin=2), labels
    except ValueError:  # float() also takes underscores and non-ASCII digits; it names the line
        rows: list[list[float]] = []
    for lineno, line in lines:
        try:
            rows.append([float(f) for f in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows have inconsistent lengths")
    return np.array(rows, dtype=np.float64), labels


def render_csv(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    lines = []
    if labels is not None:
        lines.append("# states: " + ",".join(labels))
    for row in np.asarray(p, dtype=np.float64):
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def parse_json(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "p" not in obj:
        raise ValueError('expected a JSON object with a "p" field')
    # numpy would take true, false and quoted numbers as floats; refuse them
    # as the CSV reader does (a null would become NaN)
    for i, row in enumerate(obj["p"] if isinstance(obj["p"], list) else ()):
        if isinstance(row, list) and not set(map(type, row)) <= {int, float}:
            j, x = next((j, x) for j, x in enumerate(row) if type(x) not in (int, float))
            raise ValueError(f'"p" row {i + 1}, column {j + 1}: {json.dumps(x)} is not a number')
    p = np.array(obj["p"], dtype=np.float64)
    labels = tuple(str(s) for s in obj["states"]) if obj.get("states") else None
    return p, labels


def render_json(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    """The JSON matrix format: one key per line, one row of `p` per line."""
    head = "" if labels is None else f'  "states": {json.dumps(list(labels))},\n'
    rows = ",\n    ".join(map(array_json, np.asarray(p, dtype=np.float64)))
    return "{\n" + head + '  "p": [\n    ' + rows + "\n  ]\n}\n"


def load_matrix(
    path: str | Path, fmt: str | None = None
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a matrix file; format inferred from the extension unless given."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    text = path.read_text(encoding="utf-8-sig")  # also drops a byte-order mark
    if fmt == "json":
        return parse_json(text)
    if fmt == "csv":
        return parse_csv(text)
    raise ValueError(f"unknown matrix format {fmt!r}")


def save_matrix(
    path: str | Path,
    p: np.ndarray,
    labels: tuple[str, ...] | None = None,
    fmt: str | None = None,
) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "json":
        path.write_text(render_json(p, labels))
    elif fmt == "csv":
        path.write_text(render_csv(p, labels))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")
