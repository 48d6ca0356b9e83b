import hashlib
import importlib
import io
import json
import pkgutil
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcsum
from mcsum import fixtures
from mcsum.analysis import (IDENTITY_ROWS, RESIDUAL_ROWS, THEOREM2_ROWS, colsum_system,
                            identity_residuals, kemeny_from_h, residuals, solve_chain, z_from_h)
from mcsum.chain import reorder_by_column_sums, validate
from mcsum.errors import SingularMatrix
from mcsum.cli import CONDITION_WARN_THRESHOLD, main
from mcsum.io import save_matrix
from mcsum.report import analyze, rebuild, report_to_dict, write_json
from mcsum.scan import RELATIONS, flagged_pairs, ordering_masks, random_chain
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
    np.testing.assert_allclose(rebuild(report_to_dict(rep))[0], FIX5_M, atol=5e-4)
    assert rep.kemeny == pytest.approx(FIX5_KEMENY, abs=5e-3)
    assert rep.permutation is None
    assert rep.condition_estimate < CONDITION_WARN_THRESHOLD
    assert max(rep.theorem2_residuals.values()) < 1e-9
    assert identity_residuals(solve_chain(fix5)).max() < 1e-8
    assert not hasattr(rep, "identity_residuals")


def test_analyze_fix8(fix8):
    rep = analyze(fix8)
    assert rep.kemeny == pytest.approx(FIX8_KEMENY, abs=1e-3)
    assert [0, 1] in flagged_pairs(rep.ordering.flags["c_vs_pi"], 8).tolist()
    assert rep.ordering.violations["c_vs_pi"] == 9
    assert not rep.doubly_stochastic.applicable


def test_analyze_cycle(cycle3):
    rep = analyze(cycle3)
    assert rep.doubly_stochastic.applicable
    assert rep.kemeny == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(rebuild(report_to_dict(rep))[0].sum(axis=1), 6.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=2**32),
       sparsity=st.sampled_from([0.0, 0.5]))
def test_report_residual_blocks_are_rows_of_the_verdict_table(m, seed, sparsity):
    tm = random_chain(m, seed, sparsity)
    rep = analyze(tm)
    rows = dict(zip(RESIDUAL_ROWS, residuals(solve_chain(tm))))
    assert list(rep.theorem2_residuals) == list(THEOREM2_ROWS)
    assert "identity_residuals" not in report_to_dict(rep)
    assert identity_residuals(solve_chain(tm)).max() < 1e-8
    assert not set(IDENTITY_ROWS) & set(rows)
    for name, value in rep.theorem2_residuals.items():
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
    assert "p" not in back and "mfpt" not in back
    np.testing.assert_allclose(rebuild(back)[0], FIX5_M, atol=5e-4)
    assert list(back["bounds"]) == ["kemeny_margin", "pi_upper_margins",
                                    "pi_lower_offdiag_margins", "pi_lower_colsum_margins"]
    assert back["doubly_stochastic"]["applicable"] is False
    assert list(back["ordering"]) == ["digest", "violations"]
    assert "condition_warning" not in back
    assert back["ordering"]["digest"] == hashlib.sha256(fix5.p.tobytes()).hexdigest()
    counts = back["ordering"]["violations"]
    assert counts == {"pi_vs_recurrence": 0, "c_vs_pi": 0, "c_vs_h_diag": 3,
                      "h_diag_vs_m_col_total": 3, "c_vs_m_col_total": 0}
    assert rebuild(back)[2]["c_vs_h_diag"].tolist() == [[1, 2], [1, 3], [2, 3]]


Z_CASES = {
    "fix5": (fixtures.fix5, False),
    "fix5_reordered": (fixtures.fix5, True),
    "fix8": (fixtures.fix8, False),
    "fix8_reordered": (fixtures.fix8, True),
    "dense_m80": (lambda: random_chain(80, 11, 0.0), False),
}


@pytest.mark.parametrize("name", Z_CASES)
def test_report_rebuilds_z_bit_for_bit(name):
    """The report leaves Z out: its own H and pi give it back, bit for bit
    what the pipeline's H and pi give, with Kemeny's constant as its trace
    up to rounding (K is read off H, exactly)."""
    make, reorder = Z_CASES[name]
    tm = make()
    rep = analyze(tm, reorder=reorder)
    assert "z_matrix" not in report_to_dict(rep)
    r = json.loads(_written(rep))
    assert "z_matrix" not in r
    z = z_from_h(np.array(r["h_matrix"]), np.array(r["stationary"]))
    sol = solve_chain(reorder_by_column_sums(tm)[0] if reorder else tm)
    assert z.shape == (tm.n, tm.n)
    assert z.tobytes() == z_from_h(sol.h, sol.pi).tobytes()
    assert r["kemeny"] == kemeny_from_h(np.array(r["h_matrix"]))
    assert z.trace() == pytest.approx(r["kemeny"], rel=1e-14)


REBUILD_CASES = {
    "fix5": (fixtures.fix5, False),
    "fix8": (fixtures.fix8, False),
    "fix8_reordered": (fixtures.fix8, True),
    "dense_m300": (lambda: random_chain(300, 1), False),  # flat-Dirichlet rows
}


@pytest.mark.parametrize("name", REBUILD_CASES)
def test_rebuild_bit_for_bit(name, tmp_path):
    """The report leaves out M, Z and the violating pairs: `rebuild` of the
    written file gives back the pipeline's, bit for bit, and each relation's
    written count is the number of its pairs."""
    make, reorder = REBUILD_CASES[name]
    tm = make()
    rep = analyze(tm, reorder=reorder)
    path = tmp_path / "report.json"
    with open(path, "wb") as fh:
        write_json(rep, fh)
    r = json.loads(path.read_bytes())
    assert "mfpt" not in r and "z_matrix" not in r
    assert list(r["ordering"]) == ["digest", "violations"]  # the flags are not written
    mfpt, z, pairs = rebuild(r)
    sol = solve_chain(reorder_by_column_sums(tm)[0] if reorder else tm)
    assert mfpt.dtype == z.dtype == np.float64
    assert mfpt.tobytes() == sol.mfpt.tobytes()
    assert z.tobytes() == z_from_h(sol.h, sol.pi).tobytes()
    i, j = np.triu_indices(tm.n, k=1)
    assert list(pairs) == list(r["ordering"]["violations"]) == list(RELATIONS)
    for (relation, got), f in zip(pairs.items(), ordering_masks(sol)):
        want = np.stack((i[f], j[f]), axis=-1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), relation
        assert np.array_equal(flagged_pairs(rep.ordering.flags[relation], tm.n), want), relation
        assert r["ordering"]["violations"][relation] == len(want), relation
    if name == "dense_m300":
        assert sum(r["ordering"]["violations"].values()) > 1000


@pytest.mark.parametrize("name", ["fix5", "fix8", "cycle3"])
def test_report_has_one_kemeny_value(name, request):
    """`kemeny` is the one K, read off H, and no value that only restated H
    (through Z, or as tr H) or a constant of m is written."""
    tm = request.getfixturevalue(name)
    rep = analyze(tm)
    want = kemeny_from_h(solve_chain(tm).h)
    assert np.float64(rep.kemeny).tobytes() == want.tobytes()
    r = json.loads(_written(rep))
    assert r["kemeny"] == want
    assert "kemeny" not in r["bounds"]
    assert not {"kemeny_variants", "kemeny_spread"} & set(r)
    assert not {"kemeny_lower", "trace_h", "trace_h_weak_lower", "trace_h_weak_margin",
                "trace_h_lower", "trace_h_margin"} & set(r["bounds"])
    assert not {"h_shift_residual", "col_total_vs_z_residual"} & set(r["doubly_stochastic"])
    assert not [key for key in r["theorem2_residuals"] if "(1+m)" in key]


def test_condition_warning_on_near_reducible_chain(tmp_path, capsys):
    for m in (2, 10):  # at m = 2: [[1 - eps, eps], [eps, 1 - eps]]
        rep = analyze(validate(two_block(m, 1e-10)))
        assert rep.condition_estimate > CONDITION_WARN_THRESHOLD
        save_matrix(path := tmp_path / f"two_block{m}.csv", two_block(m, 1e-10))
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"warning: condition estimate {rep.condition_estimate:.3e} is large; "
            "results may lose accuracy")


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
def test_analyze_inverts_one_matrix(name, request, monkeypatch):
    tm = request.getfixturevalue(name)
    shapes = []
    inv = np.linalg.inv

    def counting_inv(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    rep = analyze(tm)
    assert shapes == [(tm.n, tm.n)]  # H, nothing more: Z is read off it
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
    buf = io.BytesIO()
    write_json(value, buf)
    return buf.getvalue().decode()


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


ARRAY_VALUES = {
    "sign_matrix": np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int8),
    "sign_row": np.array([1, -1, 0, 0], dtype=np.int8),
    "int8_beyond_signs": np.array([[-128, 2], [0, 127]], dtype=np.int8),
    "int8_0d": np.array(-1, dtype=np.int8),
    "bool_row": np.array([True, False, True]),
    "transposed_matrix": np.array([[0.1, 1e-5, 2.0], [1e22, -0.0, 5e-324]]).T,
    "float32_row": np.array([0.1, 1 / 3], dtype=np.float32),
    "big_endian_floats": np.array([[0.1, -2.5], [1e300, 3.0]], dtype=">f8"),
    "big_endian_ints": np.array([[1, -2], [300, 2**31 - 1]], dtype=">i4"),
    "int8_empty": np.zeros(0, dtype=np.int8),
    "int64_signs": np.array([[1, -1], [0, 1]]),
    "numpy_scalar_rows": [(np.float64(0.5), True), (1, None)],
}


@pytest.mark.parametrize("name", ARRAY_VALUES)
def test_write_json_matches_indent2_dump_on_arrays(name):
    _assert_written_as_indent2(_Holder(ARRAY_VALUES[name]))


FINITE_MATRICES = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=200, deadline=None)
@given(FINITE_MATRICES)
@example([[0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e22, 1e23]])
def test_write_json_round_trips_float_bits(rows):
    """Each float64 of a written matrix, ±0.0 and subnormals included, parses
    back to the same bits, also from a transposed (non-contiguous) matrix."""
    a = np.array(rows, dtype=np.float64)
    for matrix in (a, a.T):
        back = np.array(json.loads(_written(_Holder(matrix)))["value"], dtype=np.float64)
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_non_finite_arrays(bad):
    for value in (np.array([0.5, bad]), np.array([[0.5], [bad]])):
        with pytest.raises(ValueError, match="non-finite"):
            _written(_Holder(value))


def test_write_json_writes_a_matrix_as_its_native_float64_copy():
    a = np.array([[0.1, 1e-5, 2.0, 1 / 3], [1e22, -0.0, 5e-324, 7.0], [0.5, 0.25, 1e30, 3.0]])
    for matrix in (a.astype(np.float32), a.astype(">f8"), a.T, a[:, ::2]):
        copy = np.array(matrix, dtype=np.float64, order="C")
        assert copy.flags.c_contiguous and copy.dtype.isnative
        assert _written(matrix) == _written(copy)
        assert _written(_Holder(matrix)) == _written(_Holder(copy))


def test_write_json_refuses_a_non_finite_matrix_before_its_first_row():
    a = np.full((4, 3), 0.25)
    a[-1, -1] = np.nan
    buf = io.BytesIO()
    with pytest.raises(ValueError, match="non-finite"):
        write_json(a, buf)
    assert buf.getvalue() == b""


#: The values the package writes: orjson takes integers in [-2^63, 2^64)
#: only, and a non-finite float is refused (see the tests below).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
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


@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(np.inf),
    {"kemeny": 1.5, "spread": np.nan}, _Holder(-np.inf),
])
def test_write_json_refuses_a_non_finite_scalar(value):
    # orjson would write it as null
    buf = io.BytesIO()
    with pytest.raises(ValueError, match="non-finite"):
        write_json(value, buf)
    assert b"null" not in buf.getvalue()


@pytest.mark.parametrize("name", WRITER_CASES)
def test_write_json_writes_no_null(name):
    # None fields are left out, and no value is written as null
    assert "null" not in _written(analyze(WRITER_CASES[name]()))


@pytest.mark.parametrize("name", ["fix8", "cycle3"])
def test_write_json_layout(name):
    rep = analyze(WRITER_CASES[name]())
    lines = _written(rep).splitlines()
    top = [line for line in lines if re.match(r'  "', line)]
    assert [line.split('"')[1] for line in top] == list(report_to_dict(rep))
    assert all(re.match(r'  "\w+": ', line) for line in top)
    start = lines.index('  "h_matrix": [')
    rows = lines[start + 1:start + 1 + rep.m]
    assert [json.loads(row.strip().rstrip(",")) for row in rows] == rep.h_matrix.tolist()
    assert lines[start + 1 + rep.m] == "  ],"
    for relation, count in rep.ordering.violations.items():
        line = f'      "{relation}": {count}'
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
        namespace["mfpt"], [[4.0, 10 / 3], [10.0, 4 / 3]], rtol=1e-13
    )
    assert report.ordering.violations == dict.fromkeys(RELATIONS, 0)


def test_readme_package_references_resolve():
    # every backticked `mcsum.<module>` imports, and every `<module>.<name>`
    # of a package module exists: a deleted module or a name moved to another
    # module cannot linger in the README
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for module in re.findall(r"`mcsum\.(\w+)", readme):
        importlib.import_module(f"mcsum.{module}")
    modules = sorted(m.name for m in pkgutil.iter_modules(mcsum.__path__))
    refs = set(re.findall(r"`(?:mcsum\.)?(%s)\.(\w+)" % "|".join(modules), readme))
    assert len(refs) >= 30, sorted(refs)
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"mcsum.{module}"), name)]
    assert missing == []


if __name__ == "__main__":
    # Rewrite the golden files after an intended change to the report:
    #   PYTHONPATH=src python -m tests.test_report
    for name in ("fix5", "fix8"):
        with open(GOLDEN / f"report_{name}.json", "wb") as fh:
            write_json(analyze(getattr(fixtures, name)()), fh)
            fh.write(b"\n")
