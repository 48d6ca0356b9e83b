"""The mcsum benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process sets the workload up
(several times, reporting the median), then runs its operations in a closed
loop with one caller until S seconds have passed, checking every output.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the same operations run once untraced and once with span
wrappers around each mcsum module's public functions, and the per-layer
metrics are printed.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

#: BLAS threads, pinned before numpy is imported; 1 is valid on every
#: machine and keeps LAPACK from competing with other processes for cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tokenize
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def _parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]()


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "blas_threads": BLAS_THREADS,
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_sha": sha,
    }


def _time_import() -> None:
    """Import the package in a fresh interpreter, as a user's command would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import mcsum.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def set_up(workload, seed: int, workdir: Path, calibrator) -> tuple[float, float]:
    """Set up `workload.setup_repeats` times: import, input generation and
    writing, and warm-up.  Returns the median set-up time at the
    reference host speed (wall time over the mean calibration before and
    after, times REFERENCE_KERNEL_S) and the median wall time."""
    from calibrate import REFERENCE_KERNEL_S

    wall, reference = [], []
    before = calibrator.measure()
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        _time_import()
        workload.prepare(seed, workdir)
        workload.warm_up()
        elapsed = time.perf_counter() - t0
        after = calibrator.measure()
        wall.append(elapsed)
        reference.append(elapsed * REFERENCE_KERNEL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(reference), statistics.median(wall)


class Measured:
    """Latencies and outcomes of one pass over the workload.

    ``norm`` holds each operation's time in calibration units: divided by
    the mean of the calibration times measured just before and after it."""

    def __init__(self):
        self.times: list[float] = []
        self.norm: list[float] = []
        self.calibrations: list[float] = []
        self.outcomes: list = []
        self.positions: list[int] = []  # index of each operation in its cycle
        self.op_chains: list[int] = []

    @property
    def chains(self) -> int:
        return sum(self.op_chains)

    def chains_per(self, values: list[float]) -> float:
        """Chains per unit of `values` over the workload's cycle mix: the
        chains of one cycle over the sum of each cycle position's mean.
        Unlike a plain ratio of sums, this does not depend on where in a
        cycle the run stopped."""
        by_position: dict[int, list[float]] = {}
        chains: dict[int, int] = {}
        for j, value, c in zip(self.positions, values, self.op_chains):
            by_position.setdefault(j, []).append(value)
            chains[j] = c
        return sum(chains.values()) / sum(statistics.fmean(v) for v in by_position.values())

    def ok_share(self) -> float:
        """Share of operations that neither failed nor gave an identity
        violation verdict, over the workload's cycle mix: the mean over
        cycle positions of each position's share."""
        by_position: dict[int, list[bool]] = {}
        for j, o in zip(self.positions, self.outcomes):
            by_position.setdefault(j, []).append(not (o.failed or o.verdict_failed))
        return statistics.fmean(statistics.fmean(v) for v in by_position.values())

    def quantile(self, values: list[float], q: float) -> float:
        """The q-quantile of `values` over the workload's cycle mix: every
        cycle position weighs the same, shared by its samples, so the result
        does not depend on where in a cycle the run stopped.  Each sample
        stands at the midpoint of its weight on the cumulative scale, and
        values between are interpolated; with one cycle position this is the
        plain sample quantile (the median of an even count is the mean of
        the middle two)."""
        count = Counter(self.positions)
        weighted = sorted((v, 1.0 / (len(count) * count[j]))
                          for v, j in zip(values, self.positions))
        points, cum = [], 0.0
        for v, w in weighted:
            points.append((cum + 0.5 * w, v))
            cum += w
        if q <= points[0][0]:
            return points[0][1]
        for (p0, v0), (p1, v1) in zip(points, points[1:]):
            if q <= p1:
                return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
        return points[-1][1]


def run_op(op, tracer=None, samples=None):
    """Run and check one operation; return (seconds, outcome).

    With `samples` (the list that ``Calibrator.sampling`` fills) the
    calibration kernel runs inside the operation; their time is not counted
    in the operation's seconds."""
    from workloads import Outcome, call_cli

    outcome = Outcome(label=op.label)
    rcs, stdouts = [], []

    def elapsed_since(t0):
        end = time.perf_counter()
        inside = sum(b - a for a, b in samples if t0 <= a and b <= end) if samples else 0.0
        return end - t0 - inside

    t0 = time.perf_counter()
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            for argv in op.argvs:
                rc, out = call_cli(argv)
                rcs.append(rc)
                stdouts.append(out)
    except Exception:  # an operation that raises is counted, not fatal
        outcome.failed = True
        outcome.notes.append(f"{op.label}: {traceback.format_exc(limit=4)}")
        return elapsed_since(t0), outcome
    elapsed = elapsed_since(t0)
    outcome.digest = hashlib.sha256(repr((rcs, stdouts)).encode()).hexdigest()
    try:
        op.check(rcs, stdouts, outcome)
    except Exception:
        outcome.failed = True
        outcome.notes.append(f"{op.label} check: {traceback.format_exc(limit=4)}")
    return elapsed, outcome


def measure(workload, calibrator, seconds=None, ops=None, tracer=None,
            inside=False) -> Measured:
    """Operations in cycle order until `seconds` of wall time have passed,
    or exactly `ops` of them, with a calibration point before the first and
    after each.  With `inside`, the calibration kernel also runs within each
    operation (``Calibrator.sampling``), and an operation's normalizer is the
    mean of those runs and the two calibration points around it."""
    res = Measured()
    start = time.perf_counter()
    before = calibrator.measure()
    res.calibrations.append(before)
    for k in itertools.count():
        for j, op in enumerate(workload.cycle(k)):
            if ops is not None and len(res.times) >= ops:
                return res
            if ops is None and time.perf_counter() - start >= seconds:
                return res
            with calibrator.sampling() if inside else contextlib.nullcontext([]) as samples:
                elapsed, outcome = run_op(op, tracer, samples)
            after = calibrator.measure()
            kernel = [b - a for a, b in samples] + [before, after]
            res.calibrations.append(after)
            res.times.append(elapsed)
            res.norm.append(elapsed / statistics.fmean(kernel))
            res.outcomes.append(outcome)
            res.positions.append(j)
            res.op_chains.append(op.chains)
            before = after


def tail_quantile(n: int) -> float:
    """The highest quantile with TAIL_SAMPLES_BEYOND of `n` samples beyond
    it.  With fewer than twice that many samples no such quantile lies above
    the median, and 0.9 stands in."""
    if n < 2 * TAIL_SAMPLES_BEYOND:
        return 0.9
    return (n - TAIL_SAMPLES_BEYOND - 0.5) / n


def end_to_end(res: Measured, setup_s: float) -> dict:
    """The gated metrics; wall-clock timings are printed alongside."""
    n = len(res.times)
    ok = res.ok_share()
    q = tail_quantile(n)
    print(f"samples {n} operations, {res.chains} chains; the tail is p{100 * q:.1f} of n={n}, "
          "the median and tail taken over the cycle mix")
    print(f"calibration_s {statistics.median(res.calibrations)!r} s (median kernel time; "
          "larger means a slower host)")
    print(f"failed_share {1.0 - ok!r} share (raised, nonzero exit, identity-violation verdict "
          "or missed output check, over the cycle mix)")
    print(f"latency_p50_s {res.quantile(res.times, 0.5)!r} s (wall clock, not gated)")
    print(f"latency_tail_s {res.quantile(res.times, q)!r} s (wall clock, not gated)")
    print(f"chains_per_s {res.chains_per(res.times)!r} 1/s (wall clock, not gated)")
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_cal": (res.quantile(res.norm, 0.5), "cal"),
        "latency_tail_cal": (res.quantile(res.norm, q), "cal"),
        "chains_per_cal": (res.chains_per(res.norm), "1/cal"),
        "ok_share": (ok, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


#: Modules under src/mcsum whose line counts are reported one by one;
#: ``init`` is the package's ``__init__.py``.
SRC_MODULES = ("init", "io", "chain", "rng", "linalg", "ginv", "analysis", "oracle",
               "scan", "report", "cli", "errors", "fixtures")


def src_lines() -> dict:
    """Non-blank, non-comment source lines per module under src/mcsum;
    the total covers every Python file there."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    pkg = SRC / "mcsum"
    counts = {}
    for path in pkg.rglob("*.py"):
        lines = path.read_text().splitlines()
        code = set()
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type not in skip:
                    code.update(range(tok.start[0], tok.end[0] + 1))
        rel = path.relative_to(pkg)
        name = (rel.parent.name or "init") if rel.stem == "__init__" else rel.stem
        counts[name] = sum(1 for ln in code if lines[ln - 1].strip())
    out = {f"src_lines.{name}": (counts.get(name, 0), "lines") for name in SRC_MODULES}
    out["src_lines.total"] = (sum(counts.values()), "lines")
    return out


def per_layer(workload, calibrator, seconds: float) -> tuple[dict, list, list[str]]:
    """Untraced then traced pass over the same operations; per-layer metrics."""
    from spans import Tracer

    plain = measure(workload, calibrator, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, calibrator, ops=len(plain.times), tracer=tracer)
    finally:
        tracer.uninstall()
    left = tracer.wrappers_left()
    same = [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    same_verdicts = ([(o.failed, o.verdict_failed) for o in plain.outcomes]
                     == [(o.failed, o.verdict_failed) for o in traced.outcomes])
    print("trace_check " + json.dumps({
        "outputs_identical": same, "verdicts_identical": same_verdicts,
        "wrappers_left": left, "not_found": tracer.missing}))
    metrics = tracer.metrics(traced.chains)
    layers = sum(v for name, (v, _) in metrics.items() if name.startswith("self_s."))
    op_s = metrics["trace.op_s"][0]
    print(f"self times of the layers sum to {layers!r} s per chain of {op_s!r} s "
          f"operation time; unaccounted {op_s - layers!r} s")
    metrics["report.json_bytes"] = (
        sum(o.json_bytes for o in traced.outcomes) / traced.chains, "bytes")
    metrics["trace.overhead_share"] = (sum(traced.norm) / sum(plain.norm) - 1.0, "share")
    metrics.update(src_lines())
    problems = []
    if not same:
        problems.append("traced and untraced outputs differ")
    if not same_verdicts:
        problems.append("traced and untraced check verdicts differ")
    if left:
        problems.append(f"wrappers left installed: {left}")
    return metrics, plain.outcomes + traced.outcomes, problems


def main(argv=None) -> int:
    args, workload = _parse_args(argv)
    if not (SRC / "mcsum" / "__init__.py").is_file():
        print(f"error: no mcsum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mcsum.cli  # noqa: F401  (the process under measurement)
    from calibrate import Calibrator

    print("env " + json.dumps(_environment()))
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calibrator = Calibrator()
        setup_s, setup_wall_s = set_up(workload, args.seed, workdir, calibrator)
        print(f"setup_wall_s {setup_wall_s!r} s (wall clock, not gated)")
        if args.trace:
            metrics, outcomes, problems = per_layer(workload, calibrator, args.seconds)
        else:
            res = measure(workload, calibrator, seconds=args.seconds, inside=True)
            metrics, outcomes, problems = end_to_end(res, setup_s), res.outcomes, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    failed = sum(o.failed for o in outcomes)
    verdicts = sum(o.verdict_failed for o in outcomes)
    print(f"output_check {'pass' if not failed else 'FAIL'}: {len(outcomes) - failed} of "
          f"{len(outcomes)} operations; {verdicts} with an identity-violation verdict")
    if verdicts:
        print("verdict failures by operation: " + json.dumps(
            Counter(o.label for o in outcomes if o.verdict_failed)))
    for note in [n for o in outcomes for n in o.notes][:10]:
        print("  " + note.replace("\n", "\n  "))
    for problem in problems:
        print("self-check FAIL: " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
