"""Command-line front end.

Subcommands: ``analyze`` (full report), ``verify`` (identity residual
table), ``scan`` (random-ensemble ordering scan), ``closed-form``
(two/three-state parameter formulas with a pipeline cross-check).

Exit codes: 0 success, 1 usage, 2 validation failure, 3 numerical failure,
4 identity violation.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import fixtures, io, oracle
from .analysis import IDENTITY_TOL, RESIDUAL_ROWS, kemeny_from_h, residuals, solve_chain
from .chain import validate
from .errors import NUMERICAL_ERRORS, VALIDATION_ERRORS
from .ginv import z_from_h
from .report import analyze, write_json
from .scan import ScanConfig, flagged_pairs, scan as run_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IDENTITY = 4

#: Ordering-violation pairs printed per relation by ``analyze``; ``--output``
#: writes their counts, and ``report.rebuild`` of the report lists them all.
SHOWN_PAIRS = 5

#: States listed in ``analyze``'s per-state table; the report written with
#: ``--output`` holds every state.
SHOWN_STATES = 20

#: ``analyze`` warns of lost accuracy at condition estimates at or above this.
CONDITION_WARN_THRESHOLD = 1e8


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_states(expr: str) -> tuple[int, ...]:
    """argparse type of a state-count expression: '3', '3..8', or
    comma-separated items thereof; an empty range is an error."""
    out: list[int] = []
    try:
        for item in expr.split(","):
            lo, dots, hi = item.partition("..")
            span = range(int(lo), int(hi if dots else lo) + 1)
            if not span:
                raise ValueError
            out.extend(span)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid state-count expression {expr!r}") from None
    return tuple(out)


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite number, zero or more."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _load_chain(args):
    p, labels = io.load_matrix(args.input, args.format)
    return validate(p, labels)


def _print_vector_table(labels, columns: dict[str, np.ndarray]) -> None:
    header = f"{'state':>8}" + "".join(f"{name:>16}" for name in columns)
    print(header)
    for i, label in enumerate(labels[:SHOWN_STATES]):
        row = f"{label:>8}" + "".join(f"{v[i]:>16.6f}" for v in columns.values())
        print(row)
    if len(labels) > SHOWN_STATES:
        print(f"... {len(labels) - SHOWN_STATES} more state(s); --output writes them all")


def _cmd_analyze(args) -> int:
    tm = _load_chain(args)
    rep = analyze(tm, reorder=args.reorder_by_colsum)
    if args.output:
        # write_json hands the file one matrix row (up to tens of kB) or one
        # short key or value at a time; a 1 MB buffer gathers them into few
        # system calls, where the default 8 kB one would make one per row.
        fh = open(args.output, "wb", buffering=1 << 20)
        try:
            with fh:
                write_json(rep, fh)
                fh.write(b"\n")
        except BaseException:  # leave no partial report behind
            os.unlink(args.output)
            raise
    if rep.permutation is not None:
        print("state order:", " ".join(rep.labels))
    _print_vector_table(
        rep.labels, {"colsum": rep.column_sums, "stationary": rep.stationary}
    )
    print(f"kemeny constant: {rep.kemeny:.6f}")
    b = rep.bounds
    print(f"kemeny margin over (m+1)/2:    {b.kemeny_margin:.6f}")
    print(f"min per-state margin m*h_jj-pi: {b.pi_upper_margins.min():.6f}")
    if rep.doubly_stochastic.applicable:
        print("column sums are all one: uniform-stationary checks applied")
    flagged = {name: count for name, count in rep.ordering.violations.items() if count}
    if flagged:
        for name, count in flagged.items():
            pairs = flagged_pairs(rep.ordering.flags[name], rep.m, SHOWN_PAIRS).tolist()
            shown = ", ".join(f"({i + 1},{j + 1})" for i, j in pairs)
            more = ", ..." if count > SHOWN_PAIRS else ""
            print(f"ordering violation [{name}]: {count} pair(s) {shown}{more}")
    else:
        print("no ordering violations among the tracked relations")
    if rep.condition_estimate >= CONDITION_WARN_THRESHOLD:
        print(
            f"warning: condition estimate {rep.condition_estimate:.3e} is large; "
            "results may lose accuracy"
        )
    return EXIT_OK


def _published_rows(sol, reference: dict[str, tuple[str, ...]]):
    """(name, max error, verdict) of the published values: each one must lie
    within half a unit of its last printed decimal."""
    computed = {"stationary vector": sol.pi, "kemeny constant": kemeny_from_h(sol.h)}
    for name, texts in reference.items():
        error = np.abs(computed[name] - np.array([float(t) for t in texts]))
        half_unit = np.array([0.5 * 10.0 ** -len(t.partition(".")[2]) for t in texts])
        yield f"published {name}", error.max(), bool(np.all(error <= half_unit))


def _cmd_verify(args) -> int:
    sol = solve_chain(_load_chain(args))
    table = list(zip(RESIDUAL_ROWS, residuals(sol)))
    mfpt_oracle = oracle.mfpt_direct(sol.tm, sol.pi)
    rel = np.abs(sol.mfpt - mfpt_oracle) / np.maximum(np.abs(mfpt_oracle), 1.0)
    table.insert(-1, ("M from H = M from elimination (relative)", rel.max()))
    rows = [(name, value, value <= args.tol_identity) for name, value in table]
    reference = fixtures.reference_values(sol.tm)
    if reference is not None:
        rows.extend(_published_rows(sol, reference))
    width = max(len(name) for name, _, _ in rows)
    failed = False
    for name, value, ok in rows:
        failed |= not ok
        print(f"{name:<{width}}  {value:>12.3e}  {'pass' if ok else 'FAIL'}")
    if failed:
        print("residuals exceeded tolerance", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def _cmd_scan(args) -> int:
    config = ScanConfig(
        state_counts=args.states,
        trials=args.trials,
        seed=args.seed,
        sparsity=args.sparsity,
    )
    with open(args.log, "wb") if args.log else contextlib.nullcontext() as fh:
        found = None if fh is None else lambda ce: fh.write(io.dumps(ce) + b"\n")
        result = run_scan(config, found)
    print(f"{'relation':<24}{'m':>4}{'trials':>10}{'violations':>12}{'rate':>10}")
    for s in result.summaries:
        print(
            f"{s.relation:<24}{s.m:>4}{s.trials:>10}{s.violating_trials:>12}"
            f"{s.rate:>10.4f}"
        )
    print(f"counterexamples: {result.counterexamples}")
    if result.hard_failures:
        for line in result.hard_failures:
            print(f"HARD FAILURE: {line}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def _print_matrix(name: str, a: np.ndarray) -> None:
    print(f"{name}:")
    for row in a:
        print("  " + "  ".join(f"{x:>12.6f}" for x in row))


def _print_closed_form(p, form) -> None:
    """Print a closed form's quantities and its deviation from the pipeline."""
    print("stationary:", " ".join(f"{x:.6f}" for x in form.pi))
    _print_matrix("M", form.mfpt)
    _print_matrix("H", form.h)
    _print_matrix("Z", form.z)
    print(f"kemeny constant: {form.kemeny:.6f}")
    sol = solve_chain(validate(p))
    deviation = max(
        float(np.abs(sol.pi - form.pi).max()),
        float(np.abs(sol.h - form.h).max()),
        float(np.abs(z_from_h(sol.h, sol.pi) - form.z).max()),
        float(np.abs(sol.mfpt - form.mfpt).max()),
        abs(kemeny_from_h(sol.h) - form.kemeny),
    )
    print(f"max deviation from pipeline: {deviation:.3e}")


def _cmd_closed_form_two(args) -> int:
    form = oracle.two_state_closed_form(args.a, args.b)
    print(f"parameters: a={args.a!r} b={args.b!r} (d = {form.d!r})")
    _print_closed_form(np.array([[1.0 - args.a, args.a], [args.b, 1.0 - args.b]]), form)
    return EXIT_OK


def _cmd_closed_form_three(args) -> int:
    form = oracle.three_state_closed_form(
        args.p2, args.p3, args.q1, args.q3, args.r1, args.r2
    )
    print(
        f"parameters: p2={args.p2!r} p3={args.p3!r} q1={args.q1!r} "
        f"q3={args.q3!r} r1={args.r1!r} r2={args.r2!r}"
    )
    print(
        "subdeterminants:",
        f"{form.delta1!r} {form.delta2!r} {form.delta3!r} (total {form.delta!r})",
    )
    _print_closed_form(form.p, form)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcsum",
        description=(
            "Analyze finite irreducible Markov chains through the column-sum "
            "generalized inverse (I - P + e c^T)^{-1}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p):
        p.add_argument("--input", required=True, help="matrix file (CSV or JSON)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="override the format inferred from the extension",
        )

    p_an = sub.add_parser("analyze", help="full chain report")
    add_input_opts(p_an)
    p_an.add_argument(
        "--reorder-by-colsum",
        action="store_true",
        help="permute states into descending column-sum order first",
    )
    p_an.add_argument("--output", help="write the JSON report here")
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="print the identity residual table")
    add_input_opts(p_ver)
    p_ver.add_argument(
        "--tol-identity",
        type=_tolerance,
        default=IDENTITY_TOL,
        help="maximum acceptable residual (default %(default)g)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="random-ensemble ordering scan")
    p_scan.add_argument(
        "--states",
        type=_parse_states,
        required=True,
        help="state counts, e.g. '3', '3..8', '2,4,6'",
    )
    p_scan.add_argument("--trials", type=int, default=1000, help="trials per state count")
    p_scan.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_scan.add_argument(
        "--sparsity", type=float, default=0.0, help="expected zero fraction in [0, 0.8]"
    )
    p_scan.add_argument("--log", help="write the counterexample log (JSON lines) here")
    p_scan.set_defaults(func=_cmd_scan)

    p_cf = sub.add_parser("closed-form", help="evaluate the small-chain closed forms")
    cf_sub = p_cf.add_subparsers(dest="form", required=True)

    p_two = cf_sub.add_parser("two-state", help="chain [[1-a, a], [b, 1-b]]")
    p_two.add_argument("--a", type=float, required=True)
    p_two.add_argument("--b", type=float, required=True)
    p_two.set_defaults(func=_cmd_closed_form_two)

    p_three = cf_sub.add_parser("three-state", help="six-parameter three-state chain")
    for name in ("p2", "p3", "q1", "q3", "r1", "r2"):
        p_three.add_argument(f"--{name}", type=float, required=True)
    p_three.set_defaults(func=_cmd_closed_form_three)

    return parser


#: The parser reads no environment, so one serves every call of ``main``.
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
