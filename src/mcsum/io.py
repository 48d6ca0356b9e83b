"""Matrix file formats used by the CLI and the bundled fixtures, and the
JSON encoding of arrays.

CSV: m lines of m comma-separated decimal fields, with an optional leading
header line ``# states: a,b,c``.  JSON: an object with an optional "states"
array and a "p" array of m rows of JSON numbers, one row per line.  Floats
are written as the shortest decimal that round-trips (``repr`` in CSV,
orjson's Ryu writer in JSON), so read(write(M)) preserves matrix bits.
`json_ready` checks and converts a whole array once; `array_json` then
writes it, or each of its rows, as orjson bytes.

Reading (`load_matrix`) decodes the file's text once.  A CSV whose matrix
lines are JSON numbers, commas and blanks only, with no blank or ragged
line, is read one line at a time through orjson (`_csv_rows`).  Every other
CSV, and every error, goes to `parse_csv` (numpy's ``loadtxt``, then
``float()``), so an accepted file gives the same bits and labels, and a
refused one the same message, whichever reader runs.  JSON is read by
``json.loads`` in `parse_json`.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import orjson


def _tolist(obj):
    """orjson's ``default`` hook: the arrays it does not encode itself (0-d,
    other dtypes) as nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_ready(a: np.ndarray) -> np.ndarray:
    """`a` as orjson's numpy encoder writes it right, checked and converted
    once for the whole array: a float array as C-contiguous native float64,
    any other in native byte order.

    A float array holding NaN or infinity raises ValueError: JSON has no
    spelling for them and orjson would write ``null``.
    """
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise ValueError("cannot write a non-finite array as JSON")
        # orjson writes float32 in its own shortest form, which parses to
        # another float64 than the float32 holds.
        return a.astype(np.float64, order="C", copy=False)
    # orjson 3.8 reads a byte-swapped array's entries in native order.
    return a.astype(a.dtype.newbyteorder("="), order="C", copy=False)


def array_json(a: np.ndarray) -> bytes:
    """A `json_ready` array, or any row of one, as compact JSON nested lists
    through orjson's numpy encoder.

    Each float is the shortest decimal that parses back to the same float64,
    the value ``repr`` gives, spelled ``0.00001`` for ``1e-05`` and ``1e22``
    for ``1e+22``.
    """
    return orjson.dumps(a, default=_tolist, option=orjson.OPT_SERIALIZE_NUMPY)


#: The bytes `_csv_rows` lets through in a CSV's matrix lines: those of JSON
#: numbers, the field comma and blanks.
_ROW_BYTES = b"0123456789.eE+-, \t"


def _csv_lines(text: str) -> tuple[tuple[str, ...] | None, list[tuple[int, str]]]:
    """The labels of the last ``# states:`` line, and the numbered stripped
    lines that are neither comments nor blank."""
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
    return labels, lines


def _csv_rows(text: str) -> tuple[np.ndarray, tuple[str, ...] | None] | None:
    """The CSV format read one line at a time through orjson, or None where
    `parse_csv` must read it.

    Leading ``#`` lines give the labels as in `parse_csv`.  Each matrix line
    must hold only `_ROW_BYTES`.  A blank or ragged line, or a field that is
    not a JSON number (``1.``, ``.5``, ``+1``, ``01``, ``1e400``), also returns
    None.  orjson rounds each number to the nearest float64, as ``float()``
    does, except the integer ``-0``, which it reads as +0.0: so a line that
    reads a zero returns None if it holds a ``-`` outside an exponent (a
    negative entry is refused later anyway).
    """
    head = 0
    while text.startswith("#", head):
        head = text.find("\n", head) + 1 or len(text)
    labels, head_rows = _csv_lines(text[:head])
    rows = text[head:].split("\n")
    if rows[-1] == "":
        rows.pop()
    if head_rows or not rows:
        return None
    p = None
    for i, line in enumerate(rows):
        line = line.encode()
        if line.translate(None, _ROW_BYTES):
            return None
        try:
            row = orjson.loads(b"[" + line + b"]")
        except orjson.JSONDecodeError:
            return None
        if p is None:
            p = np.empty((len(rows), len(row)))
        if not row or len(row) != p.shape[1]:
            return None
        p[i] = row
        if (  # a zero on a line with a sign: the field may be -0
            b"-" in line
            and not p[i].all()
            and line.count(b"-") != line.count(b"e-") + line.count(b"E-")
        ):
            return None
    return p, labels


def parse_csv(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse the CSV matrix format; returns (matrix, labels or None)."""
    labels, lines = _csv_lines(text)
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
    try:
        p = np.array(obj["p"], dtype=np.float64)
    except OverflowError:  # json.loads keeps an integer beyond float range exact
        rows = obj["p"] if isinstance(obj["p"], list) else [obj["p"]]
        i, j = next(
            (i, j)
            for i, row in enumerate(rows)
            for j, x in enumerate(row if isinstance(row, list) else [row])
            if type(x) is int and abs(x) >= 2**1024 - 2**970  # float(x) would round to 2**1024
        )
        raise ValueError(
            f'"p" row {i + 1}, column {j + 1}: integer too large to convert to float'
        ) from None
    labels = tuple(str(s) for s in obj["states"]) if obj.get("states") else None
    return p, labels


def render_json(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    """The JSON matrix format: one key per line, one row of `p` per line."""
    head = "" if labels is None else f'  "states": {json.dumps(list(labels))},\n'
    rows = b",\n    ".join(map(array_json, json_ready(np.asarray(p, dtype=np.float64))))
    return "{\n" + head + '  "p": [\n    ' + rows.decode() + "\n  ]\n}\n"


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
        return _csv_rows(text) or parse_csv(text)
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
