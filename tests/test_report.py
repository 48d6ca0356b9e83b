import hashlib
import io
import json
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsum import fixtures
from mcsum.analysis import IDENTITY_ROWS, RESIDUAL_ROWS, residuals, solve_chain
from mcsum.chain import reorder_by_column_sums, validate
from mcsum.errors import SingularMatrix
from mcsum.ginv import THEOREM2_ROWS, colsum_system
from mcsum.report import CONDITION_WARN_THRESHOLD, analyze, report_to_dict, write_json
from mcsum.scan import random_chain
from tests.conftest import (
    FIVE_STATE_UNSORTED,
    FIX5_H,
    FIX5_KEMENY,
    FIX5_M,
    FIX5_PI,
    FIX8_KEMENY,
    cycle3_matrix,
    two_block,
    two_state,
)


def test_analyze_fix5(fix5):
    rep = analyze(fix5)
    np.testing.assert_allclose(rep.stationary, FIX5_PI, atol=5e-4)
    np.testing.assert_allclose(rep.h_matrix, FIX5_H, atol=5e-4)
    np.testing.assert_allclose(rep.mfpt, FIX5_M, atol=5e-4)
    assert rep.kemeny == pytest.approx(FIX5_KEMENY, abs=5e-3)
    assert rep.kemeny_spread < 1e-9
    assert rep.permutation is None
    assert not rep.condition_warning
    assert max(rep.theorem2_residuals.values()) < 1e-9
    assert max(rep.identity_residuals.values()) < 1e-8


def test_analyze_fix8(fix8):
    rep = analyze(fix8)
    assert rep.kemeny == pytest.approx(FIX8_KEMENY, abs=1e-3)
    assert (0, 1) in rep.ordering.violations["c_vs_pi"]
    assert not rep.doubly_stochastic.applicable


def test_analyze_cycle(cycle3):
    rep = analyze(cycle3)
    assert rep.doubly_stochastic.applicable
    assert rep.kemeny == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(rep.mfpt.sum(axis=1), 6.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=2**32),
       sparsity=st.sampled_from([0.0, 0.5]))
def test_report_residual_blocks_are_rows_of_the_verdict_table(m, seed, sparsity):
    tm = random_chain(m, seed, sparsity)
    rep = analyze(tm)
    rows = dict(zip(RESIDUAL_ROWS, residuals(solve_chain(tm))))
    assert list(rep.theorem2_residuals) == list(THEOREM2_ROWS)
    assert list(rep.identity_residuals) == list(IDENTITY_ROWS)
    for name, value in {**rep.theorem2_residuals, **rep.identity_residuals}.items():
        assert type(value) is np.float64, name
        assert value.tobytes() == rows[name].tobytes(), name


def test_analyze_reorder_records_permutation(fix5):
    tm = validate(FIVE_STATE_UNSORTED)
    rep = analyze(tm, reorder=True)
    assert rep.permutation == (4, 0, 1, 3, 2)
    assert rep.labels == ("5", "1", "2", "4", "3")
    reordered, _ = reorder_by_column_sums(tm)
    np.testing.assert_allclose(reordered.p, fix5.p, atol=1e-15)
    assert rep.ordering.digest == hashlib.sha256(reordered.p.tobytes()).hexdigest()
    np.testing.assert_allclose(rep.stationary, FIX5_PI, atol=5e-4)


def test_analyze_reorder_on_sorted_is_identity(fix8):
    rep = analyze(fix8, reorder=True)
    assert rep.permutation == tuple(range(8))


def test_analyze_deterministic(fix8):
    a = json.dumps(report_to_dict(analyze(fix8)), sort_keys=False)
    b = json.dumps(report_to_dict(analyze(fix8)), sort_keys=False)
    assert a == b


def test_report_dict_round_trips(fix5):
    d = report_to_dict(analyze(fix5))
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["m"] == 5
    assert back["labels"] == ["1", "2", "3", "4", "5"]
    assert "p" not in back
    np.testing.assert_allclose(np.array(back["mfpt"]), FIX5_M, atol=5e-4)
    assert set(back["bounds"]) >= {"kemeny_margin", "trace_h_margin", "pi_upper_margins"}
    assert back["doubly_stochastic"]["applicable"] is False
    assert list(back["ordering"]) == ["digest", "m", "violations"]
    assert back["ordering"]["digest"] == hashlib.sha256(fix5.p.tobytes()).hexdigest()


def test_kemeny_variants_consistent(fix5, fix8, cycle3):
    for tm in (fix5, fix8, cycle3):
        rep = analyze(tm)
        values = list(rep.kemeny_variants.values())
        assert max(values) - min(values) < 1e-9
        assert rep.kemeny == rep.kemeny_variants["fundamental"]


def test_condition_warning_on_near_reducible_chain():
    for m in (2, 10):  # at m = 2: [[1 - eps, eps], [eps, 1 - eps]]
        rep = analyze(validate(two_block(m, 1e-10)))
        assert rep.condition_warning
        assert rep.condition_estimate > 1e8


@pytest.mark.parametrize("m", [2, 10])
def test_numerically_singular_two_block_refused(m):
    with pytest.raises(SingularMatrix):
        analyze(validate(two_block(m, 1e-16)))


def test_condition_estimate_is_exact_1_norm(fix8):
    rep = analyze(fix8)
    exact = np.linalg.cond(colsum_system(fix8), 1)
    assert rep.condition_estimate == pytest.approx(exact, rel=1e-8)
    assert rep.condition_estimate < CONDITION_WARN_THRESHOLD


@pytest.mark.parametrize("name", ["fix8", "cycle3"])
def test_analyze_inverts_two_matrices(name, request, monkeypatch):
    tm = request.getfixturevalue(name)
    shapes = []
    inv = np.linalg.inv

    def counting_inv(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    rep = analyze(tm)
    assert shapes == [(tm.n, tm.n)] * 2  # H and Z, nothing more
    assert rep.doubly_stochastic.applicable == (name == "cycle3")


GOLDEN = Path(__file__).with_name("golden")


def _assert_matches_golden(got, want, path="report"):
    """Same key paths in the same order, same shapes, equal strings, ints and
    booleans, and floats within 1e-12 relative (1e-12 absolute for the
    round-off residuals near zero): BLAS last bits differ across machines."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), path
    else:
        assert got == want, path


@pytest.mark.parametrize("name", ["fix5", "fix8"])
def test_report_matches_golden_file(name):
    got = json.loads(json.dumps(report_to_dict(analyze(getattr(fixtures, name)()))))
    want = json.loads((GOLDEN / f"report_{name}.json").read_text())
    _assert_matches_golden(got, want)


def _assert_same_json(text, want):
    """`text` parses to the JSON value `want`, key order included; compared
    through the encoder, so NaN equals NaN."""
    assert json.dumps(json.loads(text)) == json.dumps(want)


def _written(value) -> str:
    buf = io.StringIO()
    write_json(value, buf)
    return buf.getvalue()


def _assert_written_as_indent2(rep):
    """The written report parses to its dict, the value that
    ``json.dumps(..., indent=2)`` of the dict holds; only the layout differs."""
    _assert_same_json(_written(rep), report_to_dict(rep))


WRITER_CASES = {
    "fix5": fixtures.fix5,
    "fix8": fixtures.fix8,
    "cycle3": cycle3_matrix,  # doubly stochastic: row_total_margins present
    "two_state": lambda: two_state(0.3, 0.6),  # every violation list empty
    "non_ascii_labels": lambda: validate(FIVE_STATE_UNSORTED, labels=list("αβγδé")),
}


@pytest.mark.parametrize("reorder", [False, True])
@pytest.mark.parametrize("name", WRITER_CASES)
def test_write_json_matches_indent2_dump(name, reorder):
    rep = analyze(WRITER_CASES[name](), reorder=reorder)
    if name == "cycle3":
        assert rep.doubly_stochastic.row_total_margins is not None
    if name == "two_state":
        assert not any(rep.ordering.violations.values())
    _assert_written_as_indent2(rep)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0.0, 0.5]),
    st.booleans(),
)
def test_write_json_matches_indent2_dump_random(m, seed, sparsity, reorder):
    _assert_written_as_indent2(analyze(random_chain(m, seed, sparsity), reorder=reorder))


@dataclass
class _Holder:
    value: object


_Pair = namedtuple("_Pair", "i j")

ARRAY_VALUES = {
    "sign_matrix": np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int8),
    "sign_row": np.array([1, -1, 0, 0], dtype=np.int8),
    "int8_beyond_signs": np.array([[-128, 2], [0, 127]], dtype=np.int8),
    "int8_0d": np.array(-1, dtype=np.int8),
    "int8_empty": np.zeros(0, dtype=np.int8),
    "int64_signs": np.array([[1, -1], [0, 1]]),
    "numpy_scalar_rows": [(np.float64(0.5), True), (1, None)],
    "named_tuple_rows": [_Pair(1, 2), _Pair(3, 4)],
}


@pytest.mark.parametrize("name", ARRAY_VALUES)
def test_write_json_matches_indent2_dump_on_arrays(name):
    _assert_written_as_indent2(_Holder(ARRAY_VALUES[name]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example([["],\n    [", 1], [2.5, None], (True, "x")])  # JSON punctuation and a newline in a string
def test_write_json_matches_indent2_dump_on_any_json_value(value):
    _assert_same_json(_written(value), json.loads(json.dumps(value, indent=2)))


@pytest.mark.parametrize("name", ["fix8", "cycle3"])
def test_write_json_layout(name):
    rep = analyze(WRITER_CASES[name]())
    lines = _written(rep).splitlines()
    top = [line for line in lines if re.match(r'  "', line)]
    assert [line.split('"')[1] for line in top] == list(report_to_dict(rep))
    assert all(re.match(r'  "\w+": ', line) for line in top)
    for key in ("mfpt", "h_matrix", "z_matrix"):
        start = lines.index(f'  "{key}": [')
        rows = lines[start + 1:start + 1 + rep.m]
        assert [json.loads(row.strip().rstrip(",")) for row in rows] == getattr(rep, key).tolist()
        assert lines[start + 1 + rep.m] == "  ],"
    for relation, pairs in rep.ordering.violations.items():
        line = f'      "{relation}": {json.dumps(pairs, separators=(",", ":"))}'
        assert line in lines or line + "," in lines


def test_readme_library_snippet():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    report = namespace["report"]
    np.testing.assert_allclose(report.stationary, [0.25, 0.75], atol=1e-14)
    assert report.kemeny == pytest.approx(3.5, abs=1e-13)
    np.testing.assert_allclose(
        report.mfpt, [[4.0, 10 / 3], [10.0, 4 / 3]], rtol=1e-13
    )


if __name__ == "__main__":
    # Rewrite the golden files after an intended change to the report:
    #   PYTHONPATH=src python -m tests.test_report
    for name in ("fix5", "fix8"):
        with open(GOLDEN / f"report_{name}.json", "w") as fh:
            write_json(analyze(getattr(fixtures, name)()), fh)
            fh.write("\n")
