import json

import numpy as np
import pytest

from mcsum import io


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
    assert lines[:3] == ["{", '  "states": ["a", "b"],', '  "p": [']
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
    # Plain decimal fields go through numpy's reader; a field only float()
    # takes (underscores, non-ASCII digits) sends the whole file to float().
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
