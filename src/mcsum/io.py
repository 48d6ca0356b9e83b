"""Matrix file formats used by the CLI and the bundled fixtures.

CSV: m lines of m comma-separated decimal fields, with an optional leading
header line ``# states: a,b,c``.  JSON: an object with an optional "states"
array and a "p" array of m rows.  Floats are written with ``repr``, the
shortest decimal that round-trips, so read(write(M)) preserves matrix bits.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


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
    p = np.array(obj["p"], dtype=np.float64)
    labels = tuple(str(s) for s in obj["states"]) if obj.get("states") else None
    return p, labels


def render_json(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    obj: dict = {}
    if labels is not None:
        obj["states"] = list(labels)
    obj["p"] = [[float(x) for x in row] for row in np.asarray(p, dtype=np.float64)]
    return json.dumps(obj, indent=2) + "\n"


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
