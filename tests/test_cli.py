import contextlib
import hashlib
import json
import re
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsum import cli, fixtures, io
from mcsum.analysis import RESIDUAL_ROWS, residuals, solve_chain
from mcsum.chain import reorder_by_column_sums, validate
from mcsum.cli import main
from mcsum.io import dumps
from mcsum.report import analyze, rebuild, report_to_dict
from mcsum.scan import RELATIONS, ScanConfig, ordering_masks, random_chain, scan as run_scan
from tests.conftest import FIVE_STATE_UNSORTED, two_block


@pytest.fixture()
def fix5_csv(tmp_path, fix5):
    path = tmp_path / "fix5.csv"
    io.save_matrix(path, fix5.p)
    return path


@pytest.fixture()
def fix8_csv(tmp_path, fix8):
    path = tmp_path / "fix8.csv"
    io.save_matrix(path, fix8.p)
    return path


def test_analyze_fix5_reorder(fix5_csv, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "analyze",
            "--input", str(fix5_csv),
            "--reorder-by-colsum",
            "--output", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "16.04" in text
    report = json.loads(out.read_text())
    assert report["permutation"] == [0, 1, 2, 3, 4]  # fixture is pre-sorted
    assert report["kemeny"] == pytest.approx(16.042, abs=5e-3)


def test_analyze_output_round_trips(fix8_csv, tmp_path, fix8):
    out = tmp_path / "r8.json"
    assert main(["analyze", "--input", str(fix8_csv), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report == report_to_dict(analyze(fix8))
    assert "p" not in report and "signs" not in report["ordering"]
    assert report["ordering"]["digest"] == hashlib.sha256(fix8.p.tobytes()).hexdigest()
    # reordered, the digest names the chain as analysed, not as read
    unsorted = tmp_path / "unsorted.csv"
    io.save_matrix(unsorted, FIVE_STATE_UNSORTED)
    assert main(["analyze", "--input", str(unsorted), "--output", str(out),
                 "--reorder-by-colsum"]) == 0
    tm = validate(*io.load_matrix(unsorted))
    reordered, perm = reorder_by_column_sums(tm)
    assert perm.tolist() != list(range(5))
    digest = json.loads(out.read_text())["ordering"]["digest"]
    assert digest == hashlib.sha256(reordered.p.tobytes()).hexdigest()
    assert digest != hashlib.sha256(tm.p.tobytes()).hexdigest()


@pytest.mark.parametrize("reorder", [[], ["--reorder-by-colsum"]])
def test_analyze_output_is_indent2_dump(fix5_csv, tmp_path, reorder):
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(fix5_csv), "--output", str(out), *reorder]) == 0
    rep = analyze(validate(*io.load_matrix(fix5_csv)), reorder=bool(reorder))
    text = out.read_text()
    assert text.endswith("\n}\n")
    # the JSON value of json.dumps(report_to_dict(rep), indent=2), key order included
    assert json.dumps(json.loads(text)) == json.dumps(report_to_dict(rep))


def test_analyze_reducible_exits_2(tmp_path, capsys):
    path = tmp_path / "reducible.csv"
    io.save_matrix(path, np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "NotIrreducible" in capsys.readouterr().err


@pytest.mark.parametrize("m", [2, 10])
def test_analyze_numerically_singular_exits_3(m, tmp_path, capsys):
    path = tmp_path / "two_block.csv"
    io.save_matrix(path, two_block(m, 1e-16))
    assert main(["analyze", "--input", str(path)]) == 3
    assert "SingularMatrix" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_tiny_stationary_probability_exits_3_without_a_report(command, tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("0.5,0.5,0\n0.5,0.5,1e-17\n0,1,0\n")
    out = tmp_path / "r.json"
    argv = [command, "--input", str(path)] + (["--output", str(out)] if command == "analyze" else [])
    assert main(argv) == 3
    assert "SingularMatrix: stationary probability" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_removes_a_partial_report(fix8_csv, tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"

    def write_one_row_then_fail(rep, fh):
        fh.write(b'{\n  "h_matrix": [\n    ' + io.array_json(io.json_ready(rep.h_matrix)[0]))
        fh.flush()
        assert out.stat().st_size > 0
        raise ValueError("cannot write a non-finite array as JSON")

    monkeypatch.setattr(cli, "write_json", write_one_row_then_fail)
    assert main(["analyze", "--input", str(fix8_csv), "--output", str(out)]) == 2
    assert "error: cannot write a non-finite array" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_not_stochastic_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    io.save_matrix(path, np.array([[0.6, 0.3], [0.5, 0.5]]))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "NotStochastic" in capsys.readouterr().err


def test_analyze_json_boolean_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"p": [[0.5, 0.5], [true, false]]}')
    assert main(["analyze", "--input", str(path)]) == 2
    assert "row 2, column 1: true is not a number" in capsys.readouterr().err


def test_analyze_json_integer_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"p": [[1' + "0" * 400 + ', 0], [0.5, 0.5]]}')
    assert main(["analyze", "--input", str(path)]) == 2
    assert "row 1, column 1: integer too large to convert to float" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"p": [[0.5, 0.5], [1]]}', "rows have inconsistent lengths"),
    ('{"states": "ab", "p": [[0.5, 0.5], [0.5, 0.5]]}', '"states" must be a JSON array'),
    ('{"states": ["a", "a"], "p": [[0.5, 0.5], [0.5, 0.5]]}', "error: state label 'a' is repeated"),
    ('{"states": [1, null], "p": [[0.5, 0.5], [0.5, 0.5]]}', 'error: "states" entry 1: 1 is not a string'),
    ('{"states": [], "p": [[0.5, 0.5], [0.5, 0.5]]}', "error: 0 labels for 2 states"),
])
def test_analyze_malformed_json_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_analyze_csv_blank_label_exits_2(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("# states: a,,b\n0.5,0.5,0\n0,0.5,0.5\n0.5,0,0.5\n")
    assert main(["analyze", "--input", str(path)]) == 2
    assert "error: state label 2 is blank" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_label_that_is_not_valid_text_exits_2_before_writing(tmp_path, capsys, command):
    # json.loads reads "\ud800" as a lone surrogate, which has no UTF-8 form
    path = tmp_path / "surrogate.json"
    path.write_text('{"states": ["\\ud800", "b"], "p": [[0.5, 0.5], [0.5, 0.5]]}')
    out = tmp_path / "report.json"
    extra = ["--output", str(out)] if command == "analyze" else []
    assert main([command, "--input", str(path), *extra]) == 2
    assert "error: state label 1 is not valid UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_report_does_not_depend_on_how_a_zero_is_spelled(tmp_path):
    spellings = {
        "minus.csv": "0.5,0.5,-0\n0.5,0,0.5\n0.5,0.5,0\n",
        "plus.csv": "0.5,0.5,0\n0.5,0,0.5\n0.5,0.5,0\n",
        "minus.json": '{"p": [[0.5, 0.5, -0], [0.5, 0, 0.5], [0.5, 0.5, -0.0]]}',
    }
    reports = []
    for name, text in spellings.items():
        (tmp_path / name).write_text(text)
        out = tmp_path / (name + ".out.json")
        assert main(["analyze", "--input", str(tmp_path / name), "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.csv")]) == 2


def test_verify_fixtures_pass(fix5_csv, fix8_csv, capsys):
    assert main(["verify", "--input", str(fix5_csv)]) == 0
    assert main(["verify", "--input", str(fix8_csv)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    # bundled chains get extra rows against the published values
    assert "published stationary vector" in out
    assert "published kemeny constant" in out


def test_verify_published_digit_off_by_one_unit_exits_4(fix5_csv, monkeypatch, capsys):
    # published 16.042: a value is held to half a unit of its last decimal
    monkeypatch.setitem(fixtures.FIX5_REFERENCE, "kemeny constant", ("16.043",))
    assert main(["verify", "--input", str(fix5_csv)]) == 4
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 1 and failed[0].startswith("published kemeny constant")


def test_verify_prints_the_residual_table_in_order(fix5_csv, fix5, capsys):
    assert main(["verify", "--input", str(fix5_csv)]) == 0
    printed = [re.match(r"(.*?) +\S+  pass$", line)[1]
               for line in capsys.readouterr().out.splitlines()]
    table = list(RESIDUAL_ROWS)
    assert len(table) == len(residuals(solve_chain(fix5)))
    oracle_row = "M from H = M from elimination (relative)"
    assert printed == [*table[:-1], oracle_row, table[-1],
                       "published stationary vector", "published kemeny constant"]


@settings(max_examples=20, deadline=None)
@given(m=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=2**32),
       sparsity=st.sampled_from([0.0, 0.5]))
def test_verify_prints_residual_rows_with_their_values(tmp_path_factory, m, seed, sparsity):
    path = tmp_path_factory.mktemp("verify") / "chain.csv"
    io.save_matrix(path, random_chain(m, seed, sparsity).p)
    out = StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--input", str(path)]) == 0
    printed = [re.match(r"(.*?) +(\S+)  pass$", line).groups()
               for line in out.getvalue().splitlines()]
    table = residuals(solve_chain(validate(*io.load_matrix(path))))
    oracle_row = "M from H = M from elimination (relative)"
    assert [name for name, _ in printed] == [*RESIDUAL_ROWS[:-1], oracle_row, RESIDUAL_ROWS[-1]]
    values = [value for name, value in printed if name != oracle_row]
    assert values == [f"{v:.3e}" for v in table]


def test_verify_perturbed_matrix_still_passes(tmp_path):
    p = FIVE_STATE_UNSORTED.copy()
    p[0, 0] += 1e-3
    p /= p.sum(axis=1, keepdims=True)
    path = tmp_path / "perturbed.csv"
    io.save_matrix(path, p)
    assert main(["verify", "--input", str(path)]) == 0


def test_verify_absurd_tolerance_exits_4(fix5_csv, capsys):
    assert main(["verify", "--input", str(fix5_csv), "--tol-identity", "1e-20"]) == 4
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--tol-identity"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "abc"])
def test_verify_tolerance_must_be_finite_and_nonnegative(fix5_csv, option, value, capsys):
    assert main(["verify", "--input", str(fix5_csv), f"{option}={value}"]) == 1
    assert f"{option}: expected a finite number >= 0, got '{value}'" in capsys.readouterr().err


def test_verify_zero_tolerance_is_accepted(fix5_csv, capsys):
    # a legal value: exact rows pass, rounding-sized residuals fail
    assert main(["verify", "--input", str(fix5_csv), "--tol-identity", "0"]) == 4
    out = capsys.readouterr().out
    assert re.search(r"sum_j c_j = m +0\.000e\+00  pass", out)
    assert "FAIL" in out


def test_scan_cli_runs_and_logs(tmp_path, capsys):
    log = tmp_path / "cx.jsonl"
    code = main(
        ["scan", "--states", "3", "--trials", "150", "--seed", "7", "--log", str(log)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "c_vs_pi" in out
    lines = log.read_text().splitlines()
    assert lines
    assert f"counterexamples: {len(lines)}" in out.splitlines()
    for line in lines:
        entry = json.loads(line)
        assert entry["m"] == 3
        assert list(entry) == ["m", "trial", "seed", "sparsity", "digest", "violated"]
        tm = random_chain(entry["m"], entry["seed"], entry["sparsity"])
        assert entry["digest"] == hashlib.sha256(tm.p.tobytes()).hexdigest()


def test_scan_log_lines_replay_through_random_chain(tmp_path, capsys):
    # every logged chain is rebuilt from its line: m, seed and sparsity
    log = tmp_path / "cx.jsonl"
    argv = "scan --states 2..8 --trials 500 --sparsity 0.6 --seed 3 --log".split()
    assert main([*argv, str(log)]) == 0
    lines = log.read_bytes().splitlines()
    assert f"counterexamples: {len(lines)}" in capsys.readouterr().out.splitlines()
    assert len(lines) > 2000
    for line in lines:
        entry = json.loads(line)
        tm = random_chain(entry["m"], entry["seed"], entry["sparsity"])
        assert hashlib.sha256(tm.p.tobytes()).hexdigest() == entry["digest"]
        flags = ordering_masks(solve_chain(tm))
        assert entry["violated"] == [name for name, f in zip(RELATIONS, flags) if f.any()]


def test_scan_log_line_is_dumps_of_counterexample(tmp_path):
    log = tmp_path / "cx.jsonl"
    argv = "scan --states 2,3,5 --trials 200 --sparsity 0.4 --seed 5 --log".split()
    assert main([*argv, str(log)]) == 0
    found = []
    run_scan(ScanConfig(state_counts=(2, 3, 5), trials=200, seed=5, sparsity=0.4), found.append)
    assert found
    assert log.read_bytes().splitlines() == [dumps(ce) for ce in found]
    for ce in found:
        entry = report_to_dict(ce)
        assert list(entry) == ["m", "trial", "seed", "sparsity", "digest", "violated"]
        assert entry["violated"] and set(entry["violated"]) <= set(RELATIONS)


def test_scan_is_the_same_with_and_without_found(tmp_path, capsys):
    # handing counterexamples to a callback (or to --log) changes neither the
    # summaries, the hard failures and the count, nor the printed table
    config = ScanConfig(state_counts=(2, 3, 5, 10), trials=300, seed=5, sparsity=0.4)
    found = []
    quiet, logged = run_scan(config), run_scan(config, found.append)
    assert [s.__dict__ for s in quiet.summaries] == [s.__dict__ for s in logged.summaries]
    assert quiet.hard_failures == logged.hard_failures == []
    assert quiet.counterexamples == logged.counterexamples == len(found) > 0
    argv = "scan --states 2,3,5,10 --trials 300 --sparsity 0.4 --seed 5".split()
    assert main(argv) == 0
    without = capsys.readouterr().out
    assert main([*argv, "--log", str(tmp_path / "cx.jsonl")]) == 0
    assert capsys.readouterr().out == without


def test_scan_cli_generation_failed_truncates_no_log_line(tmp_path, capsys):
    log = tmp_path / "cx.jsonl"
    argv = "scan --states 2 --trials 300 --sparsity 0.8 --seed 50 --log".split()
    assert main([*argv, str(log)]) == 2
    assert "GenerationFailed" in capsys.readouterr().err
    text = log.read_text()
    assert text == "" or text.endswith("\n")
    for line in text.splitlines():
        json.loads(line)


def test_scan_cli_failure_keeps_the_lines_logged_before_it(tmp_path, capsys):
    # m = 10, seed 3: the first block of chains is solved and logged (every
    # m = 10 trial violates a relation), then a later block fails to draw
    failed, done = tmp_path / "failed.jsonl", tmp_path / "done.jsonl"
    argv = "scan --states 10 --sparsity 0.8 --seed 3 --log".split()
    assert main([*argv, str(failed), "--trials", "1310"]) == 2
    assert "GenerationFailed" in capsys.readouterr().err
    logged = failed.read_bytes().count(b"\n")
    assert logged > 0
    assert main([*argv, str(done), "--trials", str(logged)]) == 0
    assert failed.read_bytes() == done.read_bytes()


def test_scan_cli_byte_identical(tmp_path, capsys):
    log1 = tmp_path / "a.jsonl"
    log2 = tmp_path / "b.jsonl"
    assert main(["scan", "--states", "2,3", "--trials", "80", "--seed", "5", "--log", str(log1)]) == 0
    out1 = capsys.readouterr().out
    assert main(["scan", "--states", "2,3", "--trials", "80", "--seed", "5", "--log", str(log2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert log1.read_bytes() == log2.read_bytes()


def test_scan_cli_output_pinned(tmp_path, capsys):
    # sha256 of the stdout and the --log file of this scan: the stdout as
    # recorded when each chain was still drawn and solved one trial at a
    # time; the log as that recording with each line's ordering.signs and p
    # removed, sparsity added, written through orjson, and its ordering
    # block replaced by its digest and the names of the relations whose
    # pair lists were not empty
    log = tmp_path / "scan.jsonl"
    argv = "scan --states 2,3,5,10 --trials 300 --sparsity 0.4 --seed 5 --log".split()
    assert main([*argv, str(log)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0b082fb07f8e73e9221ddc9512f0f7628c75618f8ee1974bfe82cbd9a7a09d75"
    )
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "1d438064e75222c21cf0b06aa538e9f4ab9b915d608ad243db861f59f614fb6c"
    )


def test_analyze_prints_pair_counts_and_first_pairs(fix8_csv, capsys):
    assert main(["analyze", "--input", str(fix8_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "ordering violation [c_vs_pi]: 9 pair(s) (1,2), (3,5), (3,6), (3,7), (4,5), ..." in lines


def test_analyze_ordering_lines_bounded_on_dense_chain(tmp_path, capsys):
    g = np.random.default_rng(3)
    p = g.exponential(size=(120, 120))
    path, out = tmp_path / "dense.csv", tmp_path / "r.json"
    io.save_matrix(path, p / p.sum(axis=1, keepdims=True))
    assert main(["analyze", "--input", str(path), "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = [line for line in lines if line.startswith("ordering violation")]
    # the per-state table lists the first 20 states, then says how many it left out
    table = lines[lines.index(f"{'state':>8}{'colsum':>16}{'stationary':>16}") + 1:][:21]
    assert [line.split()[0] for line in table[:20]] == [str(k) for k in range(1, 21)]
    assert table[20] == "... 100 more state(s); --output writes them all"
    r = json.loads(out.read_text())
    counts, (_, _, violations) = r["ordering"]["violations"], rebuild(r)
    want = []
    for name, pairs in violations.items():
        assert counts[name] == len(pairs), name
        if len(pairs):
            shown = ", ".join(f"({i + 1},{j + 1})" for i, j in pairs[:5].tolist())
            more = ", ..." if len(pairs) > 5 else ""
            want.append(f"ordering violation [{name}]: {len(pairs)} pair(s) {shown}{more}")
    assert printed == want
    assert sum(counts.values()) > 1000  # the file counts every pair; rebuild lists them
    assert max(map(len, printed)) < 150


@pytest.mark.parametrize("states", ["x", "3..2", "3,,4"])
def test_scan_malformed_states_is_a_usage_error(states, capsys):
    assert main(["scan", "--states", states, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert f"argument --states: invalid state-count expression '{states}'" in err


def test_scan_states_range_spec(capsys):
    assert main(["scan", "--states", "2..3", "--trials", "30", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("c_vs_pi") == 2  # one summary row per state count


def test_closed_form_two_state_minimum(capsys):
    assert main(["closed-form", "two-state", "--a", "1", "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert "kemeny constant: 1.500000" in out


def test_closed_form_three_state_cycle(capsys):
    code = main(
        [
            "closed-form", "three-state",
            "--p2", "1", "--p3", "0",
            "--q1", "0", "--q3", "1",
            "--r1", "1", "--r2", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kemeny constant: 2.000000" in out


def test_closed_form_constraint_violation_exits_2(capsys):
    code = main(
        [
            "closed-form", "three-state",
            "--p2", "0", "--p3", "0",
            "--q1", "0.5", "--q3", "0.5",
            "--r1", "0.5", "--r2", "0.5",
        ]
    )
    assert code == 2
    assert "NotIrreducible" in capsys.readouterr().err


def test_closed_form_degenerate_two_state_exits_2():
    assert main(["closed-form", "two-state", "--a", "0", "--b", "0"]) == 2


@pytest.mark.parametrize("a, b", [("0", "0.5"), ("1", "0")])
def test_closed_form_two_state_absorbing_exits_2(a, b, capsys):
    assert main(["closed-form", "two-state", "--a", a, "--b", b]) == 2
    assert "NotIrreducible" in capsys.readouterr().err


def test_scan_repeated_state_count_exits_2(tmp_path, capsys):
    log = tmp_path / "scan.jsonl"
    argv = ["scan", "--states", "3,3", "--trials", "50", "--seed", "1", "--log", str(log)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "repeated: [3]" in captured.err
    assert captured.out == ""


def test_usage_errors_exit_1(capsys):
    assert main(["scan"]) == 1  # missing --states
    assert main(["analyze", "--badflag"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_format_override(tmp_path):
    path = tmp_path / "matrix.dat"
    io.save_matrix(path, np.array([[0.5, 0.5], [0.5, 0.5]]), fmt="csv")
    assert main(["analyze", "--input", str(path), "--format", "csv"]) == 0


def test_json_input(tmp_path, fix8):
    path = tmp_path / "m.json"
    io.save_matrix(path, fix8.p, labels=fix8.labels)
    assert main(["analyze", "--input", str(path)]) == 0


def test_each_call_parses_its_own_seed(monkeypatch, capsys):
    # one parser serves every call of main: no call may see the last one's seed
    seeds, run_scan = [], cli.run_scan

    def recording(config, found):
        seeds.append(config.seed)
        return run_scan(config, found)

    monkeypatch.setattr(cli, "run_scan", recording)
    assert main(["scan", "--states", "2", "--trials", "1", "--seed", "4"]) == 0
    assert main(["scan", "--states", "2", "--trials", "1"]) == 0
    capsys.readouterr()
    assert seeds == [4, 0]
