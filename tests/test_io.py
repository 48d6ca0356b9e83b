import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcsum import io
from mcsum.chain import validate
from mcsum.errors import McsumError


def test_csv_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(3)
    p = rng.random((4, 4))
    path = tmp_path / "m.csv"
    io.save_matrix(path, p)
    back, labels = io.load_matrix(path)
    assert labels is None
    assert np.array_equal(back, p)


def test_csv_header_labels(tmp_path):
    path = tmp_path / "m.csv"
    io.save_matrix(path, np.eye(2), labels=("up", "down"))
    back, labels = io.load_matrix(path)
    assert labels == ("up", "down")
    assert np.array_equal(back, np.eye(2))


@pytest.mark.parametrize("labels", [("a,b", "c"), (" x", "x "), ("a\nb", "c"), ("a", "b\x85c")])
def test_csv_header_refuses_labels_it_would_not_give_back(tmp_path, labels):
    with pytest.raises(ValueError, match="cannot be written to a CSV header"):
        io.save_matrix(tmp_path / "m.csv", np.eye(2), labels=labels)
    assert not (tmp_path / "m.csv").exists()


# Characters that a label round trip may trip on, drawn often, among any others.
_LABEL_CHARS = st.one_of(
    st.sampled_from([",", " ", "\t", "#", ":", "\r", "\n", "\x0c", "\x1c", "\x1f", "\x85",
                     "\xa0", "\u2028"]),
    st.characters(blacklist_categories=("Cs",)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_LABEL_CHARS, max_size=4), min_size=1, max_size=4))
def test_csv_labels_round_trip_or_are_refused(tmp_path_factory, labels):
    # Every label set validate accepts either reads back from the saved file,
    # or is refused when written, and is refused exactly when its header,
    # written as it is, would not read back.
    m = len(labels)
    try:
        tm = validate(np.full((m, m), 1.0 / m), labels)
    except ValueError:
        assume(False)
    try:
        reads_back = io.parse_csv("# states: " + ",".join(tm.labels) + "\n1\n")[1] == tm.labels
    except ValueError:
        reads_back = False
    path = tmp_path_factory.mktemp("labels") / "m.csv"
    try:
        io.save_matrix(path, tm.p, tm.labels)
    except ValueError:
        assert not reads_back
        return
    assert reads_back
    back, got = io.load_matrix(path)
    assert (got, back.tobytes()) == (tm.labels, tm.p.tobytes())


def test_csv_json_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    p = rng.random((3, 3))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.json"
    c = tmp_path / "c.csv"
    io.save_matrix(a, p)
    m1, _ = io.load_matrix(a)
    io.save_matrix(b, m1)
    m2, _ = io.load_matrix(b)
    io.save_matrix(c, m2)
    m3, _ = io.load_matrix(c)
    assert np.array_equal(m3, p)
    assert a.read_text() == c.read_text()


def test_json_labels(tmp_path):
    path = tmp_path / "m.json"
    io.save_matrix(path, np.eye(2), labels=("a", "b"))
    back, labels = io.load_matrix(path)
    assert labels == ("a", "b")


def test_json_matrix_one_row_per_line():
    p = np.array([[0.25, 0.75], [1e-5, 1 - 1e-5]])
    lines = io.render_json(p, labels=("a", "b")).splitlines()
    assert lines[:3] == ["{", '  "states": ["a","b"],', '  "p": [']
    rows = [json.loads(line.strip().rstrip(",")) for line in lines[3:5]]
    assert np.array_equal(np.array(rows), p)
    assert lines[5:] == ["  ]", "}"]


def test_json_refuses_boolean_entries():
    with pytest.raises(ValueError, match='"p" row 2, column 1: true is not a number'):
        io.parse_json('{"p": [[0.5, 0.5], [true, false]]}')


def test_json_refuses_quoted_number_entries():
    with pytest.raises(ValueError, match='"p" row 1, column 1: "0.5" is not a number'):
        io.parse_json('{"p": [["0.5", "0.5"], ["0.25", "0.75"]]}')


def test_json_refuses_null_entries():
    with pytest.raises(ValueError, match='"p" row 2, column 2: null is not a number'):
        io.parse_json('{"p": [[0.5, 0.5], [1, null]]}')


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_json_refuses_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="non-finite"):
        io.render_json(np.array([[0.5, 0.5], [bad, 0.5]]))


def test_format_override(tmp_path):
    path = tmp_path / "matrix.txt"
    io.save_matrix(path, np.eye(2), fmt="csv")
    back, _ = io.load_matrix(path, fmt="csv")
    assert np.array_equal(back, np.eye(2))
    with pytest.raises(ValueError):
        io.load_matrix(path, fmt="yaml")


def test_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        io.parse_csv("a,b\n1,2\n")
    with pytest.raises(ValueError, match="inconsistent"):
        io.parse_csv("1,2\n3\n")
    with pytest.raises(ValueError, match="no matrix rows"):
        io.parse_csv("# states: a,b\n")
    with pytest.raises(ValueError):
        io.parse_json('{"states": ["a"]}')


def test_blank_lines_and_comments_skipped():
    p, labels = io.parse_csv("# states: x,y\n\n0.5,0.5\n\n0.25,0.75\n")
    assert labels == ("x", "y")
    np.testing.assert_array_equal(p, [[0.5, 0.5], [0.25, 0.75]])


def test_csv_fields_parse_as_float_does():
    # A line with a field only float() takes (underscores, non-ASCII digits)
    # goes through float(); the other lines through orjson.
    p, labels = io.parse_csv("# states: a,b\n 0.25 , 7.5e-1\n1_0,٣\n")
    assert labels == ("a", "b")
    assert p.tolist() == [[0.25, 0.75], [10.0, 3.0]]
    with pytest.raises(ValueError, match="line 3: could not convert string to float: 'x'"):
        io.parse_csv("# states: a,b\n1,2\n3,x\n")


def test_csv_parse_matches_float_bit_for_bit():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.random(50), rng.standard_normal(50) * 1e-300, rng.standard_normal(50) * 1e300,
    ]).tolist()
    fields = [repr(x) for x in values] + ["%.25e" % x for x in values] + ["5e-324", "-0.0"]
    text = "\n".join(",".join(fields[i:i + 151]) for i in range(0, len(fields), 151))
    p, _ = io.parse_csv(text)
    want = np.array([float(f) for f in fields])
    assert np.array_equal(p.ravel().view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_byte_order_mark_is_skipped(tmp_path, fmt):
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    path = tmp_path / f"m.{fmt}"
    io.save_matrix(path, p, labels=("a", "b"))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back, labels = io.load_matrix(path)
    assert np.array_equal(back, p)
    assert labels == ("a", "b")


def test_json_refuses_integer_beyond_float_range():
    huge = "1" + "0" * 400
    with pytest.raises(ValueError, match='"p" row 2, column 1: integer too large to convert to float'):
        io.parse_json('{"p": [[0.5, 0.5], [' + huge + ", 0]]}")
    with pytest.raises(ValueError, match='"p" row 1, column 1: integer too large'):
        io.parse_json('{"p": [[-' + huge + "]]}")
    # the largest integer that rounds to a finite float is read as that float
    p, _ = io.parse_json('{"p": [[%d]]}' % (2**1024 - 2**970 - 1))
    assert p[0, 0] == np.finfo(np.float64).max


def test_csv_blank_lines_reserve_no_rows():
    # One row of 20000 fields and 200000 blank lines: 280 kB of text may not
    # reserve a 200001 x 20000 array (30 GB).
    text = ",".join(["0.5"] * 20000) + "\n" * 200001
    tracemalloc.start()
    try:
        p, _ = io.parse_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.shape == (1, 20000)
    assert peak < 50e6


#: Every line end ``str.splitlines`` knows.
_LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", _LINE_ENDS)
def test_csv_line_ends_keep_rows_labels_and_line_numbers(end):
    # Alone, and before a "\n" (two line ends, but "\r\n" is one), each end
    # gives splitlines' lines: the same rows and labels, and a bad field named
    # by splitlines' line number.
    lines = ["# states: a,b", "0.5,0.5", "", "# note", " 0.25, 0.75 ", "0.25,x"]
    for sep in (end, end + "\n"):
        text = sep.join(lines[:-1]) + sep
        p, labels = io.parse_csv(text)
        assert (p.tobytes(), labels) == (np.array(_HALVES).tobytes(), ("a", "b"))
        text = sep.join(lines) + sep
        lineno = text.splitlines().index("0.25,x") + 1
        with pytest.raises(ValueError) as info:
            io.parse_csv(text)
        assert str(info.value) == f"line {lineno}: could not convert string to float: 'x'"


def _float_reference(text):
    """The matrix of a CSV's rows read field by field through float(): the
    lines that are neither blank nor comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    return np.array([[float(f) for f in ln.split(",")] for ln in lines if ln and ln[0] != "#"])


def _no_float_row(lineno, line):
    raise AssertionError(f"line {lineno} went through float()")


@pytest.mark.parametrize("header", [False, True])
def test_render_csv_file_is_read_through_orjson(tmp_path, monkeypatch, header):
    # A file render_csv wrote holds only JSON numbers, so no line may take
    # the float() route, not even one with a zero and an exponent's "-".
    p = np.random.default_rng(6).dirichlet(np.ones(7), size=7)
    p[2, 3] = 1e-300
    p[4, :2] = 0.0, 2.5e-7
    labels = tuple("abcdefg") if header else None
    path = tmp_path / "m.csv"
    path.write_text(io.render_csv(p, labels))
    monkeypatch.setattr(io, "_float_row", _no_float_row)
    back, got_labels = io.load_matrix(path)
    assert back.tobytes() == _float_reference(path.read_text()).tobytes() == p.tobytes()
    assert got_labels == labels


def test_render_csv_file_with_stray_lines_is_read_through_orjson(tmp_path, monkeypatch):
    # A trailing blank line or a comment costs its own line only.
    p = np.random.default_rng(7).dirichlet(np.ones(5), size=5)
    lines = io.render_csv(p, tuple("abcde")).splitlines()
    lines.insert(3, "# a comment mid-file")
    path = tmp_path / "m.csv"
    path.write_text("\r\n".join(lines) + "\r\n\r\n")
    monkeypatch.setattr(io, "_float_row", _no_float_row)
    back, labels = io.load_matrix(path)
    assert back.tobytes() == p.tobytes()
    assert labels == tuple("abcde")


_HALVES = [[0.5, 0.5], [0.25, 0.75]]

# Each case: the file's bytes, and the matrix rows and labels read from it
# (each field's float() value, bit for bit) or the message it is refused with.
CSV_GUARD_CASES = {
    "byte-order mark": (b"\xef\xbb\xbf0.5,0.5\n0.25,0.75\n", (_HALVES, None)),
    "byte-order mark and header": (
        b"\xef\xbb\xbf# states: a,b\n0.5,0.5\n0.25,0.75\n", (_HALVES, ("a", "b"))),
    "two byte-order marks": (
        b"\xef\xbb\xbf\xef\xbb\xbf0.5,0.5\n0.25,0.75\n",
        "line 1: could not convert string to float: '\\ufeff0.5'"),
    "states header": (b"# states: a, b\n0.5,0.5\n0.25,0.75\n", (_HALVES, ("a", "b"))),
    "last states header wins": (
        b"# note\n# states: a,b\n#STATES: c,d\n0.5,0.5\n0.25,0.75\n", (_HALVES, ("c", "d"))),
    "indented header": (b"  # states: a,b\n0.5,0.5\n0.25,0.75\n", (_HALVES, ("a", "b"))),
    "header split by a lone CR": (b"# states: a\r0.5,0.5\n0.25,0.75\n", (_HALVES, ("a",))),
    "header split by a form feed": (b"# states: a\x0c0.5,0.5\n0.25,0.75\n", (_HALVES, ("a",))),
    "non-UTF-8 header": (
        b"# states: \xff\n0.5,0.5\n0.25,0.75\n",
        "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    "comment mid-file": (b"0.5,0.5\n# mid\n0.25,0.75\n", (_HALVES, None)),
    "blank line mid-file": (b"0.5,0.5\n\n0.25,0.75\n", (_HALVES, None)),
    "whitespace line mid-file": (b"0.5,0.5\n \t\n0.25,0.75\n", (_HALVES, None)),
    "trailing blank line": (b"0.5,0.5\n0.25,0.75\n\n", (_HALVES, None)),
    "no final newline": (b"0.5,0.5\n0.25,0.75", (_HALVES, None)),
    "CRLF": (b"# states: a,b\r\n0.5,0.5\r\n0.25,0.75\r\n", (_HALVES, ("a", "b"))),
    "lone CR line ends": (b"0.5,0.5\r0.25,0.75\r", (_HALVES, None)),
    "CRLF, a bad field": (
        b"# states: a,b\r\n0.5,0.5\r\n\r\n0.25,x\r\n",
        "line 4: could not convert string to float: 'x'"),
    "NEL line ends": ("# states: a,b\x850.5,0.5\x850.25,0.75\x85".encode(), (_HALVES, ("a", "b"))),
    "NEL before LF, a bad field": (
        "0.5,0.5\x85\n0.25,x\n".encode(), "line 3: could not convert string to float: 'x'"),
    "lone CR after a comma": (
        b"0.5,0.5,\r0.25,0.75\n", "line 1: could not convert string to float: ''"),
    "tabs and spaces": (b" 0.5 ,\t0.5\t\n0.25 , 0.75 \n", (_HALVES, None)),
    "one row": (b"0.5,0.5\n", ([[0.5, 0.5]], None)),
    "one column": (b"1\n1\n", ([[1.0], [1.0]], None)),
    "ragged rows": (b"0.5,0.5\n1\n", "rows have inconsistent lengths"),
    # of two faults, the one on the earlier line is named
    "ragged row, then a bad field": (b"0.5,0.5\n1\n0.25,x\n", "rows have inconsistent lengths"),
    "bad field, then a ragged row": (
        b"0.5,0.5\n0.25,x\n1\n", "line 2: could not convert string to float: 'x'"),
    "trailing comma": (b"0.5,0.5,\n0.25,0.75,\n", "line 1: could not convert string to float: ''"),
    "empty field": (b"0.5,,0.5\n0.25,0.75\n", "line 1: could not convert string to float: ''"),
    "empty file": (b"", "no matrix rows found"),
    "header only": (b"# states: a,b\n", "no matrix rows found"),
    "whitespace only": (b" \n\t\n", "no matrix rows found"),
    "1.": (b"1.,0\n0,1.\n", ([[1.0, 0.0], [0.0, 1.0]], None)),
    ".5": (b".5,.5\n.25,.75\n", (_HALVES, None)),
    "+1": (b"+1,0\n0,+1\n", ([[1.0, 0.0], [0.0, 1.0]], None)),
    "01": (b"01,0\n0,01\n", ([[1.0, 0.0], [0.0, 1.0]], None)),
    "1e400": (b"1e400,0\n0.5,0.5\n", ([[np.inf, 0.0], [0.5, 0.5]], None)),
    "1e-400": (b"1e-400,1\n0.5,0.5\n", ([[0.0, 1.0], [0.5, 0.5]], None)),
    "exponent spellings": (
        b"1E0,5e-1,0\n2.5e-1,7.5E-1,0e+5\n1E+0,0,0\n",
        ([[1.0, 0.5, 0.0], [0.25, 0.75, 0.0], [1.0, 0.0, 0.0]], None)),
    "integers beyond 2**64": (
        b"36893488147419103233,1\n1,18446744073709551615\n",
        ([[3.6893488147419103e19, 1.0], [1.0, 1.8446744073709552e19]], None)),
    "-0": (b"-0,1\n1,0\n", ([[-0.0, 1.0], [1.0, 0.0]], None)),
    "-0.0": (b"-0.0,1\n1,0\n", ([[-0.0, 1.0], [1.0, 0.0]], None)),
    "-0e0": (b"1e-5,-0e0\n1,0\n", ([[1e-05, -0.0], [1.0, 0.0]], None)),
    # a zero's sign is not compared (orjson reads -0 as +0.0, and validate
    # makes every zero +0.0); its value and the rows of a grown array are
    "a zero, minus signs in exponents only": (
        b"0,1e-5,2.5E-1\n1,0,0\n", ([[0.0, 1e-05, 0.25], [1.0, 0.0, 0.0]], None)),
    "-0 beside 1e-5": (b"-0,1e-5\n1,0\n", ([[-0.0, 1e-05], [1.0, 0.0]], None)),
    "-0 after CR line ends that grow the rows": (
        b"1,0\r0,1\r0,1\n-0,1\n", ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]], None)),
    "-0 after NEL line ends that grow the rows": (
        "1,0\x850,1\x850,1\n-0,1\n".encode(),
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]], None)),
    "negative entry": (b"-0.5,1.5\n0.5,0.5\n", ([[-0.5, 1.5], [0.5, 0.5]], None)),
    "negative entry beside a zero": (
        b"-0.5,1.5,0\n0.5,0.5,0\n0,0,1\n",
        ([[-0.5, 1.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], None)),
    "nan": (b"nan,1\n0.5,0.5\n", ([[np.nan, 1.0], [0.5, 0.5]], None)),
    "inf": (b"inf,0\n0.5,0.5\n", ([[np.inf, 0.0], [0.5, 0.5]], None)),
    "underscores": (b"1_0,0\n0.5,0.5\n", ([[10.0, 0.0], [0.5, 0.5]], None)),
    "non-ASCII digits": ("٣,0\n0.5,0.5\n".encode(), ([[3.0, 0.0], [0.5, 0.5]], None)),
    "non-UTF-8 field": (
        b"0.5,0.5\n0.25,\xff\n",
        "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    "letters": (b"0.5,0.5\n0.25,x\n", "line 2: could not convert string to float: 'x'"),
    # JSON values that are not numbers: orjson would read them, float() refuses
    "quoted number": (
        b'"0.5",0.5\n0.25,0.75\n', "line 1: could not convert string to float: '\"0.5\"'"),
    "true and false": (
        b"true,false\n0.25,0.75\n", "line 1: could not convert string to float: 'true'"),
    "null": (b"null,1\n0.25,0.75\n", "line 1: could not convert string to float: 'null'"),
    "nested array": (
        b"[0.5],[0.5]\n[0.25],[0.75]\n", "line 1: could not convert string to float: '[0.5]'"),
}


@pytest.mark.parametrize("case", CSV_GUARD_CASES)
def test_csv_guard_case_matches_text_reader(tmp_path, case):
    data, want = CSV_GUARD_CASES[case]
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:  # UnicodeDecodeError is a ValueError
            io.load_matrix(path)
        assert str(info.value) == want
    else:
        rows, labels = want
        p, got_labels = io.load_matrix(path)
        want = np.array(rows) + 0.0  # + 0.0: a zero's sign is not compared
        assert (p.shape, (p + 0.0).tobytes()) == (want.shape, want.tobytes())
        assert got_labels == labels


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("zero", ["0", "-0", "-0.0", "-0e0", "-0E+5", "0e-3", "-1e-400"])
def test_every_zero_spelling_loads_as_plus_zero(tmp_path, fmt, zero):
    # the commands see validate(*io.load_matrix(path)), whose zeros are all +0.0
    path = tmp_path / f"m.{fmt}"
    rows = f"{zero},1\n1,{zero}\n" if fmt == "csv" else f'{{"p": [[{zero}, 1], [1, {zero}]]}}'
    path.write_text(rows)
    assert validate(*io.load_matrix(path)).p.tobytes() == np.array([[0.0, 1.0], [1.0, 0.0]]).tobytes()


# Each case: a JSON file's text, and the message it is refused with.
JSON_GUARD_CASES = {
    "NaN": ('{"p": [[NaN, 1], [0.5, 0.5]]}', "transition matrix has non-finite entries"),
    "1e400": ('{"p": [[1e400, 0], [0.5, 0.5]]}', "transition matrix has non-finite entries"),
    "integer beyond float range": (
        '{"p": [[1' + "0" * 400 + ", 0], [0.5, 0.5]]}",
        '"p" row 1, column 1: integer too large to convert to float',
    ),
    "boolean": ('{"p": [[0.5, 0.5], [true, false]]}', '"p" row 2, column 1: true is not a number'),
    "quoted number": ('{"p": [["0.5", 0.5], [0.25, 0.75]]}', '"p" row 1, column 1: "0.5" is not a number'),
    "null": ('{"p": [[0.5, 0.5], [1, null]]}', '"p" row 2, column 2: null is not a number'),
    "nested list": ('{"p": [[[1, 2], 0.5], [0.5, 0.5]]}', '"p" row 1, column 1: [1,2] is not a number'),
    # no JSON spelling for the encoder to give back: shown by repr
    "lone surrogate": ('{"p": [["\\ud800", 1], [0.5, 0.5]]}',
                       "\"p\" row 1, column 1: '\\ud800' is not a number"),
    "integer beyond 64 bits in a list": (
        '{"p": [[[18446744073709551616], 1], [0.5, 0.5]]}',
        '"p" row 1, column 1: [18446744073709551616] is not a number',
    ),
    "ragged rows": ('{"p": [[0.5, 0.5], [1]]}', "rows have inconsistent lengths"),
    "a row that is a number": ('{"p": [[0.5, 0.5], 1]}', "rows have inconsistent lengths"),
    "NaN in a list": ('{"p": [[[NaN], 1], [0.5, 0.5]]}', '"p" row 1, column 1: [nan] is not a number'),
    "states as a string": (
        '{"states": "ab", "p": [[0.5, 0.5], [0.5, 0.5]]}',
        '"states" must be a JSON array of state names',
    ),
    # str() would have made these the labels "1" and "None"
    "a number as a label": (
        '{"states": [1, null], "p": [[0.5, 0.5], [0.5, 0.5]]}', '"states" entry 1: 1 is not a string'),
    "null as a label": (
        '{"states": ["a", null], "p": [[0.5, 0.5], [0.5, 0.5]]}', '"states" entry 2: null is not a string'),
    "a list as a label": (
        '{"states": ["a", ["b"]], "p": [[0.5, 0.5], [0.5, 0.5]]}', '"states" entry 2: ["b"] is not a string'),
    # one label per state, as for the CSV header: no fallback to 1..m
    "no labels": ('{"states": [], "p": [[0.5, 0.5], [0.5, 0.5]]}', "0 labels for 2 states"),
}


@pytest.mark.parametrize("case", JSON_GUARD_CASES)
def test_json_guard_case_is_refused(tmp_path, case):
    text, message = JSON_GUARD_CASES[case]
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises((ValueError, McsumError)) as info:
        validate(*io.load_matrix(path))
    assert str(info.value) == message


_SPELLINGS = [repr, "%.25e".__mod__, "%.17g".__mod__]


@st.composite
def _spelled_matrix(draw, min_value):
    """A matrix as CSV field text, each finite float spelled by repr,
    %.25e or %.17g or each integer (beyond 2**64 too) by str; signed
    matrices also spell zeros as -0 and -0e0."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    signed_zeros = [] if min_value == 0.0 else [st.sampled_from(["-0", "-0e0"])]
    entry = st.one_of(
        st.tuples(
            st.floats(min_value=min_value, allow_nan=False, allow_infinity=False),
            st.sampled_from(_SPELLINGS),
        ).map(lambda xs: xs[1](xs[0])),
        st.integers(min_value=0 if min_value == 0.0 else -2**80, max_value=2**80).map(str),
        *signed_zeros,
    )
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _csv_text(draw, fields):
    """The CSV text of `fields`' rows, with blank, blank-looking and comment
    lines drawn in around them and LF or CRLF line ends."""
    stray = st.lists(st.sampled_from(["", " \t", "# a comment", "#"]), max_size=2)
    lines = []
    for row in fields:
        lines += draw(stray)
        lines.append(",".join(row))
    lines += draw(stray)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fields=_spelled_matrix(min_value=0.0))
def test_csv_readers_are_bit_exact(data, fields):
    # Every line of an unsigned matrix, stray lines around it or not, is read
    # by orjson alone, with float()'s bits.
    text = data.draw(_csv_text(fields))
    want = np.array([[float(f) for f in row] for row in fields])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_float_row", _no_float_row)
        got, labels = io.parse_csv(text)
    assert (got.shape, got.tobytes(), labels) == (want.shape, want.tobytes(), None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fields=_spelled_matrix(min_value=None))
def test_signed_csv_reads_alike_on_either_reader(tmp_path_factory, data, fields):
    # With signs the bits are float()'s on either reader, but for a zero's
    # sign: orjson reads -0 as +0.0, and validate makes every zero +0.0.
    csv_path = tmp_path_factory.mktemp("signed") / "m.csv"
    csv_path.write_bytes(data.draw(_csv_text(fields)).encode())
    want = np.array([[float(f) for f in row] for row in fields]) + 0.0
    got, labels = io.load_matrix(csv_path)
    assert (got.shape, (got + 0.0).tobytes(), labels) == (want.shape, want.tobytes(), None)


@dataclass
class _Holder:
    value: object


@pytest.mark.parametrize("value, shown", [
    ([float("nan")], "nan"),
    ([np.float64("nan")], "nan"),
    (np.float32(np.inf), "inf"),
    (-np.inf, "-inf"),
    (np.array([[0.5, 0.5], [0.25, -np.inf]]), "-inf"),
    (np.array(np.nan), "nan"),
    ({"labels": ["null"], "k": (1.5, [float("inf")])}, "inf"),
    (_Holder(np.array([1.0, np.nan])), "nan"),
])
def test_dumps_refuses_a_non_finite_number_by_name(value, shown):
    # orjson would write a Python NaN as null and refuse a numpy one with a TypeError
    with pytest.raises(ValueError, match=rf"^cannot write the non-finite number {shown} as JSON$"):
        io.dumps(value)


def test_dumps_still_writes_none_and_a_null_label():
    assert io.dumps([None, "null", 1.5, np.float64(0.25), _Holder(None)]) == b'[null,"null",1.5,0.25,{}]'


@pytest.mark.parametrize("value", ["\ud800", [2**64], object()])
def test_dumps_passes_on_orjsons_other_refusals(value):
    with pytest.raises(TypeError):
        io.dumps(value)
