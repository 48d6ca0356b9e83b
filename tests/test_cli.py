import hashlib
import json

import numpy as np
import pytest

from mcsum import io
from mcsum.chain import validate
from mcsum.cli import main
from mcsum.report import analyze, report_to_dict
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
    np.testing.assert_array_equal(np.array(report["p"]), fix8.p)


@pytest.mark.parametrize("reorder", [[], ["--reorder-by-colsum"]])
def test_analyze_output_is_indent2_dump(fix5_csv, tmp_path, reorder):
    out = tmp_path / "r.json"
    assert main(["analyze", "--input", str(fix5_csv), "--output", str(out), *reorder]) == 0
    rep = analyze(validate(*io.load_matrix(fix5_csv)), reorder=bool(reorder))
    assert out.read_text() == json.dumps(report_to_dict(rep), indent=2) + "\n"


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


def test_analyze_not_stochastic_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    io.save_matrix(path, np.array([[0.6, 0.3], [0.5, 0.5]]))
    assert main(["analyze", "--input", str(path)]) == 2
    assert "NotStochastic" in capsys.readouterr().err


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


def test_verify_fixture_tolerance_flag(fix5_csv, capsys):
    assert main(["verify", "--input", str(fix5_csv), "--tol-fixture", "1e-12"]) == 4
    assert "FAIL" in capsys.readouterr().out


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
    entry = json.loads(lines[0])
    assert entry["m"] == 3
    tm = validate(np.array(entry["p"]))
    assert tm.n == 3


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
    # sha256 of the stdout and the --log file of this scan, recorded when each
    # chain was still drawn and solved one trial at a time
    log = tmp_path / "scan.jsonl"
    argv = "scan --states 2,3,5,10 --trials 300 --sparsity 0.4 --seed 5 --log".split()
    assert main([*argv, str(log)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0b082fb07f8e73e9221ddc9512f0f7628c75618f8ee1974bfe82cbd9a7a09d75"
    )
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "7b718fe4fdfefcc4b44fcd12218ab0f17f1031d95a35b2f14a7a39167d0a099d"
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
    violations = json.loads(out.read_text())["ordering"]["violations"]
    want = []
    for name, pairs in violations.items():
        if pairs:
            shown = ", ".join(f"({i + 1},{j + 1})" for i, j in pairs[:5])
            more = ", ..." if len(pairs) > 5 else ""
            want.append(f"ordering violation [{name}]: {len(pairs)} pair(s) {shown}{more}")
    assert printed == want
    assert sum(map(len, violations.values())) > 1000  # the full lists stay in the file
    assert max(map(len, printed)) < 150


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


def test_seed_env_default(monkeypatch):
    from mcsum.cli import build_parser

    monkeypatch.setenv("MCSUM_SEED", "12345")
    args = build_parser().parse_args(["scan", "--states", "2", "--trials", "1"])
    assert args.seed == 12345
    args = build_parser().parse_args(
        ["scan", "--states", "2", "--trials", "1", "--seed", "9"]
    )
    assert args.seed == 9


def test_malformed_seed_env_fails_only_scan(monkeypatch, fix5_csv, capsys):
    monkeypatch.setenv("MCSUM_SEED", "abc")
    assert main(["verify", "--input", str(fix5_csv)]) == 0
    assert main(["closed-form", "two-state", "--a", "1", "--b", "1"]) == 0
    capsys.readouterr()
    assert main(["scan", "--states", "2", "--trials", "1"]) == 1
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    assert main(["scan", "--states", "2", "--trials", "1", "--seed", "4"]) == 0
