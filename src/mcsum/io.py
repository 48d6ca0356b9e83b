"""Matrix file formats used by the CLI and the bundled fixtures, and the
package's one JSON encoder.

CSV: m lines of m comma-separated decimal fields, with an optional leading
header line ``# states: a,b,c``.  JSON: an object with an optional "states"
array and a "p" array of m rows of JSON numbers, one row per line.  Floats
are written as the shortest decimal that round-trips (``repr`` in CSV,
orjson's Ryu writer in JSON), so read(write(M)) preserves matrix bits.

Every JSON byte the package writes comes from orjson through `dumps`, or
through `array_json` for an array `json_ready` has checked and converted
once.  Both send what orjson does not encode itself to one hook, `_plain`.
JSON has no NaN or infinity, and orjson would write them as ``null``: both
refuse them with the one ValueError of `_refusal`, which names the number.

Reading (`load_matrix`) decodes the file's text once.  `parse_csv` reads
each CSV line through orjson where it can and through ``float()`` where it
cannot, so each field gives ``float()``'s bits, but for a zero's sign.  JSON
is read by ``json.loads`` in `parse_json`.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import orjson


def json_ready(a: np.ndarray) -> np.ndarray:
    """`a` as orjson's numpy encoder writes it right, checked and converted
    once for the whole array: a float array as C-contiguous native float64,
    any other in native byte order.

    A float array holding NaN or infinity raises `_refusal` of the first:
    JSON has no spelling for them and orjson would write ``null``.
    """
    if a.dtype.kind == "f":
        finite = np.isfinite(a)
        if not finite.all():
            raise _refusal(a[~finite][0])
        # orjson writes float32 in its own shortest form, which parses to
        # another float64 than the float32 holds.
        return a.astype(np.float64, order="C", copy=False)
    # orjson 3.8 reads a byte-swapped array's entries in native order.
    return a.astype(a.dtype.newbyteorder("="), order="C", copy=False)


def array_json(a: np.ndarray) -> bytes:
    """A `json_ready` array, or any row of one, as compact JSON nested lists
    through orjson's numpy encoder; each float is the shortest decimal that
    parses back to it, spelled ``0.00001`` for ``1e-05``, ``1e22`` for ``1e+22``."""
    return orjson.dumps(a, default=_plain, option=orjson.OPT_SERIALIZE_NUMPY)


def _plain(obj):
    """orjson's ``default`` hook: an array or numpy scalar as (nested lists of)
    Python values, through `json_ready`; a report dataclass as the dict of its
    fields that are not None, less those marked ``metadata={"json": False}``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return json_ready(np.asarray(obj)).tolist()
    if is_dataclass(obj):
        return {f.name: v for f in fields(obj)
                if f.metadata.get("json", True) and (v := getattr(obj, f.name)) is not None}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> bytes:
    """`obj`, which may hold arrays and dataclasses, as one line of compact
    JSON.  Raises `_refusal` of the first NaN or infinity in `obj`; orjson
    writes one as ``null`` or refuses it with its own TypeError, and only
    then is `obj` searched.  orjson raises TypeError on a lone surrogate and
    takes integers in [-2^63, 2^64) only."""
    try:
        out = orjson.dumps(obj, default=_plain, option=orjson.OPT_PASSTHROUGH_DATACLASS)
    except TypeError:
        if (bad := _first_non_finite(obj)) is None:
            raise
        raise _refusal(bad) from None
    if b"null" in out and (bad := _first_non_finite(obj)) is not None:
        raise _refusal(bad)
    return out


def _refusal(x) -> ValueError:
    """The error that refuses to write the non-finite number `x`."""
    return ValueError(f"cannot write the non-finite number {float(x)!r} as JSON")


def _first_non_finite(obj):
    """The first NaN or infinity in `obj`, walked as `dumps` writes it, or None."""
    if isinstance(obj, (float, np.floating, np.ndarray)):  # np.float64 is a float
        a = np.asarray(obj)
        bad = a[~np.isfinite(a)] if a.dtype.kind == "f" else ()
        return bad[0] if len(bad) else None
    if is_dataclass(obj):
        obj = _plain(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return None
    return next((x for x in map(_first_non_finite, obj) if x is not None), None)


#: The bytes of a CSV matrix line that `parse_csv` reads through orjson:
#: those of JSON numbers, the field comma and blanks.
_ROW_BYTES = b"0123456789.eE+-, \t"


def _float_row(lineno: int, line: str) -> list[float]:
    """A matrix line's comma-separated fields through ``float()``, which also
    takes ``1.``, ``.5``, ``+1``, ``nan``, underscores and non-ASCII digits."""
    try:
        return [float(f) for f in line.split(",")]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_csv(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Parse the CSV matrix format; returns (matrix, labels or None).

    Each stripped line of ``text.splitlines()`` that is neither blank nor a
    ``#`` comment is a row; the last ``# states:`` line gives the labels.  A
    piece of `text` split at "\\n" holding only `_ROW_BYTES` (perhaps ending in
    a CRLF's "\\r") is one line, read as ``orjson.loads(b"[" + piece + b"]")``
    with ``float()``'s rounding.  `_float_row` reads the re-split lines of any
    other piece and rows orjson refuses (``1.``, ``01``, ``1e400``).  A zero's
    sign is not kept (orjson reads ``-0`` as +0.0): `chain.validate` makes
    every zero +0.0 anyway.
    """
    pieces = text.split("\n")
    labels, p, n, lineno = None, None, 0, 0
    for piece in pieces:
        raw = piece.encode()
        fast = not raw.removesuffix(b"\r").translate(None, _ROW_BYTES)  # orjson skips "\r"
        for line in (piece,) if fast else (piece + "\n").splitlines():  # so "\r\n" stays one end
            lineno += 1
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("states:"):
                    labels = tuple(s.strip() for s in body[len("states:"):].split(","))
                continue
            if not line:
                continue
            try:  # orjson for JSON-number bytes; a line it refuses goes to float()
                row = orjson.loads(b"[" + raw + b"]") if fast else None
            except orjson.JSONDecodeError:
                row = None
            if row is None:
                row = _float_row(lineno, line)
            if p is None:  # a row per piece at most, and k fields take 2k chars with the line end
                p = np.empty((min(len(pieces), (len(text) + 1) // (2 * len(row))), len(row)))
            elif len(row) != p.shape[1]:
                raise ValueError("rows have inconsistent lengths")
            elif n == len(p):  # line ends other than "\n" made more lines than pieces
                p = np.concatenate((p, np.empty_like(p)))
            p[n] = row
            n += 1
    if p is None:
        raise ValueError("no matrix rows found")
    return p[:n], labels


def render_csv(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    """The CSV matrix format.  Refuses (ValueError) a label its ``# states:``
    header would not give back: one with a comma, a line end or outer blanks."""
    lines = []
    if labels is not None:
        bad = [s for s in labels if "," in s or s != s.strip() or len(s.splitlines()) > 1]
        if bad:
            raise ValueError(f"state label {bad[0]!r} cannot be written to a CSV header")
        lines.append("# states: " + ",".join(labels))
    for row in np.asarray(p, dtype=np.float64):
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def parse_json(text: str) -> tuple[np.ndarray, tuple[str, ...] | None]:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "p" not in obj:
        raise ValueError('expected a JSON object with a "p" field')
    labels = obj.get("states")
    if "states" in obj:  # a string would give one label per character
        if not isinstance(labels, list):
            raise ValueError('"states" must be a JSON array of state names')
        for k, s in enumerate(labels):  # str() would make 1 and null labels "1" and "None"
            if type(s) is not str:
                raise ValueError(f'"states" entry {k + 1}: {_shown(s)} is not a string')
        labels = tuple(labels)  # an empty one too, which validate refuses
    rows = obj["p"] if isinstance(obj["p"], list) else [obj["p"]]
    # numpy would take true, false and quoted numbers as floats; refuse them
    # as the CSV reader does (a null would become NaN)
    for i, row in enumerate(rows):
        if isinstance(row, list) and not set(map(type, row)) <= {int, float}:
            j, x = next((j, x) for j, x in enumerate(row) if type(x) not in (int, float))
            raise ValueError(f'"p" row {i + 1}, column {j + 1}: {_shown(x)} is not a number')
    if len({len(row) if isinstance(row, list) else None for row in rows}) > 1:
        raise ValueError("rows have inconsistent lengths")
    try:
        p = np.array(obj["p"], dtype=np.float64)
    except OverflowError:  # json.loads keeps an integer beyond float range exact
        i, j = next(
            (i, j)
            for i, row in enumerate(rows)
            for j, x in enumerate(row if isinstance(row, list) else [row])
            if type(x) is int and abs(x) >= 2**1024 - 2**970  # float(x) would round to 2**1024
        )
        raise ValueError(
            f'"p" row {i + 1}, column {j + 1}: integer too large to convert to float'
        ) from None
    return p, labels


def _shown(x) -> str:
    """A JSON input value as compact JSON, or as ``repr`` where `dumps`
    refuses it (a lone surrogate, a NaN or an integer beyond 64 bits)."""
    try:
        return dumps(x).decode()
    except (TypeError, ValueError):
        return repr(x)


def render_json(p: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    """The JSON matrix format: one key per line, one row of `p` per line."""
    head = "" if labels is None else f'  "states": {dumps(labels).decode()},\n'
    rows = b",\n    ".join(map(array_json, json_ready(np.asarray(p, dtype=np.float64))))
    return "{\n" + head + '  "p": [\n    ' + rows.decode() + "\n  ]\n}\n"


#: Each matrix format's reader and writer, by name.
_FORMATS = {"csv": (parse_csv, render_csv), "json": (parse_json, render_json)}


def _format(path: Path, fmt: str | None) -> tuple:
    """The reader and writer of `fmt`, or of `path`'s extension if it is None."""
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt not in _FORMATS:
        raise ValueError(f"unknown matrix format {fmt!r}")
    return _FORMATS[fmt]


def load_matrix(
    path: str | Path, fmt: str | None = None
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a matrix file; format inferred from the extension unless given."""
    path = Path(path)
    return _format(path, fmt)[0](path.read_text(encoding="utf-8-sig"))  # drops a byte-order mark


def save_matrix(
    path: str | Path,
    p: np.ndarray,
    labels: tuple[str, ...] | None = None,
    fmt: str | None = None,
) -> None:
    path = Path(path)
    path.write_text(_format(path, fmt)[1](p, labels), encoding="utf-8")
