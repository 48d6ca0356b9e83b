"""The benchmark's workloads: inputs, operations and output checks.

Every operation goes through the in-process command line (``mcsum.cli.main``)
with its standard output captured, exactly as a user's command would run.
Why each workload exists is recorded in NOTES.md next to this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chains

#: Relative error allowed in pi and K, in units of m * eps * cond, with cond
#: the 1-norm condition number of I - P + e pi^T.  Correct results measured
#: up to 0.6 of a unit over every family here; a wrong formula misses by
#: orders of magnitude more.
CHECK_TOL_UNITS = 20.0
_EPS = float(np.finfo(np.float64).eps)

GOLDEN_SCAN = Path(__file__).with_name("golden_scan.json")


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``mcsum`` command in process; return (exit code, stdout)."""
    import mcsum.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = mcsum.cli.main(argv)
    return rc, out.getvalue()


@dataclass
class Outcome:
    """What one operation produced and what the checks made of it."""

    label: str = ""
    failed: bool = False          # raised, unexpected exit, or missed a check
    verdict_failed: bool = False  # exit 4 ("identity violation") on a valid chain
    digest: str = ""              # hash of every exit code, stdout and output file
    json_bytes: int = 0           # size of the JSON reports written
    notes: list[str] = field(default_factory=list)


@dataclass
class Op:
    """One timed operation: a list of commands over `chains` chains."""

    label: str
    argvs: list[list[str]]
    chains: int
    check: object  # callable(rcs, stdouts, outcome) -> None


def _top_level_value(data: bytes, key: str):
    """One top-level value of an indent=2 JSON report, without parsing the
    whole multi-megabyte document."""
    marker = b'\n  "' + key.encode() + b'": '
    i = data.find(marker)
    if i < 0:
        return json.loads(data)[key]
    start = i + len(marker)
    end = data.find(b',\n  "', start)
    if end < 0:
        end = data.rfind(b"\n}")
    return json.loads(data[start:end])


class _ChainFiles:
    """Input matrices written to disk, with lazily computed references."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.matrices: dict[str, np.ndarray] = {}
        self._refs: dict[str, tuple[np.ndarray, float, float]] = {}

    def add(self, name: str, p: np.ndarray) -> str:
        path = self.workdir / f"{name}.csv"
        chains.write_csv(path, p)
        self.matrices[str(path)] = p
        return str(path)

    def check_report(self, input_path: str, output_path: str, outcome: Outcome) -> None:
        """Compare a report's pi and K with the direct numpy computation.

        The report is deleted once read, so a later operation that fails to
        write one cannot pass on a stale file."""
        data = Path(output_path).read_bytes()
        Path(output_path).unlink()
        outcome.json_bytes += len(data)
        outcome.digest += hashlib.sha256(data).hexdigest()
        if input_path not in self._refs:
            self._refs[input_path] = chains.reference(self.matrices[input_path])
        pi_ref, k_ref, cond = self._refs[input_path]
        tol = CHECK_TOL_UNITS * len(pi_ref) * _EPS * cond
        pi = np.asarray(_top_level_value(data, "stationary"), dtype=np.float64)
        kemeny = float(_top_level_value(data, "kemeny"))
        pi_err = float(np.abs(pi - pi_ref).max() / np.abs(pi_ref).max())
        k_err = abs(kemeny - k_ref) / abs(k_ref)
        if not (pi_err <= tol and k_err <= tol):
            outcome.failed = True
            outcome.notes.append(
                f"{input_path}: pi rel err {pi_err:.2e}, K rel err {k_err:.2e}, tol {tol:.2e}")


def _exit_code(rc: int, outcome: Outcome, verdicts_allowed: bool) -> None:
    """Exit 4 is a verdict where the command gives one; any other nonzero
    exit on a valid chain is a failure."""
    if rc == 4 and verdicts_allowed:
        outcome.verdict_failed = True
    elif rc != 0:
        outcome.failed = True
        outcome.notes.append(f"exit code {rc}")


class Workload:
    name = ""
    # Set-ups per run; setup_s is their median.  The count must not depend
    # on elapsed time: each set-up leaves the heap in another state, and one
    # set-up more or less moved the peak memory of a run by up to 10%.
    setup_repeats = 3

    def prepare(self, seed: int, workdir: Path) -> None:
        """Generate and write this run's inputs (part of set-up)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run each command kind once on a small chain (part of set-up)."""
        raise NotImplementedError

    def cycle(self, k: int) -> list[Op]:
        """The operations of the k-th cycle, in the order they run."""
        raise NotImplementedError


def _warm_up(workdir: Path, commands: tuple[str, ...]) -> None:
    g = np.random.default_rng(0)
    path = str(workdir / "warm.csv")
    chains.write_csv(path, chains.dense(g, 8))
    for cmd in commands:
        if cmd == "scan":
            call_cli(["scan", "--states", "3", "--trials", "2", "--seed", "0"])
        elif cmd == "analyze":
            call_cli(["analyze", "--input", path, "--output", str(workdir / "warm.json")])
        else:
            call_cli([cmd, "--input", path])


class AnalyzeLarge(Workload):
    """Dense flat-Dirichlet chains at m=300 and m=600 through
    ``mcsum analyze --input ... --output ...``."""

    name = "analyze-large"
    # One cycle is three m=300 chains, then one m=600 chain: however many
    # operations a run completes, most are m=300, so the median latency is
    # an m=300 operation and the slowest an m=600 one.
    SIZES = (300, 300, 300, 600)
    POOL = {300: 6, 600: 2}

    def prepare(self, seed, workdir):
        g = np.random.default_rng([seed, 1])
        self.files = _ChainFiles(workdir)
        self.workdir = workdir
        self.pool = {
            m: [self.files.add(f"dense{m}_{i}", chains.dense(g, m)) for i in range(n)]
            for m, n in self.POOL.items()
        }

    def warm_up(self):
        _warm_up(self.workdir, ("analyze",))

    def cycle(self, k):
        ops = []
        used = {m: 0 for m in self.POOL}
        for m in self.SIZES:
            index = (k * self.SIZES.count(m) + used[m]) % len(self.pool[m])
            used[m] += 1
            ops.append(self._op(self.pool[m][index], m))
        return ops

    def _op(self, path, m):
        out = str(self.workdir / f"report{m}.json")

        def check(rcs, stdouts, outcome):
            _exit_code(rcs[0], outcome, verdicts_allowed=False)
            if rcs[0] == 0:
                self.files.check_report(path, out, outcome)

        return Op(f"analyze m={m}", [["analyze", "--input", path, "--output", out]], 1, check)


class ScanSmall(Workload):
    """``mcsum scan --states 3,10 --trials 40`` at the default sparsity 0;
    each operation is one scan call over a block of 80 chains."""

    name = "scan-small"
    setup_repeats = 15  # a set-up here takes 0.2 s, so one run is noisy

    def prepare(self, seed, workdir):
        golden = json.loads(GOLDEN_SCAN.read_text())
        self.trials, self.states = golden["trials"], golden["states"]
        self.golden = golden["blocks"]
        seeds = sorted(self.golden, key=int)
        order = np.random.default_rng([seed, 2]).permutation(len(seeds))
        self.seeds = [seeds[i] for i in order]
        self.workdir = workdir

    def warm_up(self):
        _warm_up(self.workdir, ("scan",))

    def cycle(self, k):
        block = self.seeds[k % len(self.seeds)]
        argv = ["scan", "--states", ",".join(map(str, self.states)),
                "--trials", str(self.trials), "--seed", block]
        expected = self.golden[block]

        def check(rcs, stdouts, outcome):
            _exit_code(rcs[0], outcome, verdicts_allowed=True)
            if outcome.failed:
                return
            counts = {}
            for line in stdouts[0].splitlines():
                f = line.split()
                if len(f) == 5 and f[1].isdigit():
                    counts[f"{f[0]}/{f[1]}"] = int(f[3])
            if counts != expected:
                outcome.failed = True
                outcome.notes.append(f"scan seed {block}: counts {counts} != golden {expected}")

        return [Op(f"scan seed={block}", [argv], self.trials * len(self.states), check)]


class VerifyStructured(Workload):
    """``mcsum verify`` then ``mcsum analyze --output`` per chain, over
    structured and ill-conditioned families at m in {50, 100, 200}."""

    name = "verify-structured"
    SIZES = (50, 100, 200)
    FAMILIES = {
        "ds-mixture": chains.permutation_mixture,
        "periodic": chains.periodic,
        "sparse-0.8": chains.sparse,
        "uncoupled-1e-4": lambda g, m: chains.nearly_uncoupled(g, m, 1e-4),
        "uncoupled-1e-6": lambda g, m: chains.nearly_uncoupled(g, m, 1e-6),
    }
    ROUNDS = 4  # distinct input sets; later cycles reuse them in turn

    def prepare(self, seed, workdir):
        g = np.random.default_rng([seed, 3])
        self.files = _ChainFiles(workdir)
        self.workdir = workdir
        self.rounds = [
            [(f"{fam} m={m}", self.files.add(f"r{r}-{fam}-{m}", make(g, m)))
             for fam, make in self.FAMILIES.items() for m in self.SIZES]
            for r in range(self.ROUNDS)
        ]

    def warm_up(self):
        _warm_up(self.workdir, ("verify", "analyze"))

    def cycle(self, k):
        return [self._op(label, path) for label, path in self.rounds[k % self.ROUNDS]]

    def _op(self, label, path):
        out = str(self.workdir / "report.json")

        def check(rcs, stdouts, outcome):
            _exit_code(rcs[0], outcome, verdicts_allowed=True)
            _exit_code(rcs[1], outcome, verdicts_allowed=False)
            if rcs[1] == 0:
                self.files.check_report(path, out, outcome)

        argvs = [["verify", "--input", path], ["analyze", "--input", path, "--output", out]]
        return Op(label, argvs, 1, check)


WORKLOADS = {w.name: w for w in (AnalyzeLarge, ScanSmall, VerifyStructured)}
