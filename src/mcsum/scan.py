"""Random chain ensembles and ordering-relation scanning.

The scanner samples row-Dirichlet chains, computes the sign of every
pairwise comparison among the column sums, stationary probabilities,
diagonal entries of H and Z, and the passage-time row/column totals, and
tallies violations of candidate order implications.  Relations proved for
every chain (or for every two-state chain) are asserted; the rest are
conjectures whose violation rates are simply measured.  Each trial also
re-checks the identity suite and the bounds against ``analysis.IDENTITY_TOL``,
the tolerance ``mcsum verify`` uses by default.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .analysis import (
    IDENTITY_TOL,
    ChainSolution,
    bounds_check,
    identity_residuals,
    solve_chain,
)
from .chain import TransitionMatrix, validate
from .errors import GenerationFailed, NotIrreducible

#: |x - y| below this counts as a tie; ties never violate a relation.
SIGN_TIE_TOL = 1e-12

#: Comparison vectors recorded per chain, keyed by name.
SIGN_VECTORS = (
    "colsum",          # c_j
    "pi",              # stationary probabilities
    "h_diag",          # diagonal of H
    "z_diag",          # diagonal of Z
    "m_col_total",     # sum_i m_ij: expected time into state j
    "m_row_total",     # sum_j m_ij: expected time out of state i
)


@dataclass(frozen=True)
class Relation:
    """Claimed sign link between two comparison vectors.

    ``direction`` is +1 when v_i > v_j should imply w_i > w_j, and -1 when
    the orders should reverse.  ``proven_scope`` names where the link is a
    theorem: for every chain ("all"), for two-state chains only ("m2"), or
    nowhere ("none").  Outside its proven scope a relation is a conjecture
    whose violation rate is measured, never asserted.
    """

    left: str
    right: str
    direction: int
    proven_scope: str  # "all" | "m2" | "none"


RELATIONS: dict[str, Relation] = {
    # m_jj = 1/pi_j makes this exact for every chain
    "pi_vs_recurrence": Relation("pi", "m_recurrence", -1, "all"),
    # two-state equivalences; open questions beyond m = 2
    "c_vs_pi": Relation("colsum", "pi", +1, "m2"),
    "c_vs_h_diag": Relation("colsum", "h_diag", -1, "m2"),
    "h_diag_vs_m_col_total": Relation("h_diag", "m_col_total", +1, "m2"),
    # observed on the five-state reference chain (larger column sum, smaller
    # total time into the state); provable at m = 2 by composing the above
    "c_vs_m_col_total": Relation("colsum", "m_col_total", -1, "m2"),
}

#: Relations proved for every chain.
THEOREM_RELATIONS = tuple(k for k, r in RELATIONS.items() if r.proven_scope == "all")

#: Relations proved for two-state chains (including the universal ones).
M2_THEOREM_RELATIONS = tuple(
    k for k, r in RELATIONS.items() if r.proven_scope in ("all", "m2")
)


@dataclass(frozen=True)
class ScanConfig:
    state_counts: tuple[int, ...]
    trials: int
    seed: int
    sparsity: float = 0.0
    relations: tuple[str, ...] = tuple(RELATIONS)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if any(m < 2 for m in self.state_counts):
            raise ValueError("state counts must all be at least 2")
        if not 0.0 <= self.sparsity <= 0.8:
            raise ValueError("sparsity must lie in [0, 0.8]")
        unknown = set(self.relations) - set(RELATIONS)
        if unknown:
            raise ValueError(f"unknown relations: {sorted(unknown)}")


@dataclass(frozen=True)
class OrderingRecord:
    """Pairwise sign comparisons for one chain plus the failed implications."""

    digest: str
    m: int
    signs: dict[str, np.ndarray]
    violations: dict[str, list[tuple[int, int]]]


def random_chain(m: int, seed: int, sparsity: float = 0.0) -> TransitionMatrix:
    """Sample an irreducible chain with flat-Dirichlet rows.

    Rows are normalized unit-exponential variates; entries whose raw variate
    falls below the sparsity quantile of Exp(1) are zeroed before
    renormalization, so the expected zero fraction equals `sparsity`.
    Reducible draws are retried with fresh derived streams.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    cutoff = -np.log1p(-sparsity)  # Exp(1) quantile at the sparsity level
    for attempt in range(100):
        u = rng.uniform_block(rng.derive_stream(seed, attempt), m * m)
        raw = -np.log1p(-u.reshape(m, m))
        if cutoff > 0.0:
            raw[raw < cutoff] = 0.0
        sums = raw.sum(axis=1)
        if (sums == 0.0).any():
            continue
        try:
            return validate(raw / sums[:, None])
        except NotIrreducible:
            continue
    raise GenerationFailed(
        f"no irreducible {m}-state chain in 100 attempts (sparsity={sparsity})"
    )


def _sign_matrix(v: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix of pairwise comparison signs with tie tolerance."""
    diff = v[:, None] - v[None, :]
    s = np.sign(diff).astype(np.int8)
    s[np.abs(diff) < SIGN_TIE_TOL] = 0
    return s


def _relation_violations(
    signs: dict[str, np.ndarray], rel: Relation
) -> list[tuple[int, int]]:
    left, right = signs[rel.left], signs[rel.right]
    bad = (left != 0) & (right != 0) & (left != rel.direction * right)
    i, j = np.nonzero(np.triu(bad, k=1))
    return list(zip(i.tolist(), j.tolist()))


def ordering_from_solution(sol: ChainSolution) -> OrderingRecord:
    """Ordering record computed from an existing pipeline solution."""
    vectors = {
        "colsum": sol.c,
        "pi": sol.pi,
        "h_diag": sol.hc.h.diagonal(),
        "z_diag": sol.zf.z.diagonal(),
        "m_col_total": sol.mfpt.sum(axis=0),
        "m_row_total": sol.mfpt.sum(axis=1),
        "m_recurrence": sol.mfpt.diagonal(),
    }
    signs = {name: _sign_matrix(v) for name, v in vectors.items()}
    violations = {
        name: _relation_violations(signs, rel) for name, rel in RELATIONS.items()
    }
    digest = hashlib.sha256(np.ascontiguousarray(sol.tm.p).tobytes()).hexdigest()
    public_signs = {name: signs[name] for name in SIGN_VECTORS}
    return OrderingRecord(digest=digest, m=sol.tm.n, signs=public_signs, violations=violations)


def ordering_report(tm: TransitionMatrix) -> OrderingRecord:
    """Pairwise sign relations and implication violations for one chain."""
    return ordering_from_solution(solve_chain(tm))


@dataclass(frozen=True)
class RelationSummary:
    relation: str
    m: int
    trials: int
    violating_trials: int
    violating_pairs: int

    @property
    def rate(self) -> float:
        return self.violating_trials / self.trials


@dataclass(frozen=True)
class Counterexample:
    m: int
    trial: int
    seed: int
    p: np.ndarray
    record: OrderingRecord


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    summaries: list[RelationSummary]
    counterexamples: list[Counterexample]
    hard_failures: list[str] = field(default_factory=list)

    def violations(self, relation: str, m: int | None = None) -> int:
        return sum(
            s.violating_trials
            for s in self.summaries
            if s.relation == relation and (m is None or s.m == m)
        )


def scan(config: ScanConfig) -> ScanResult:
    """Run the ensemble scan described by `config`.

    Every trial also re-evaluates the identity suite and the bounds; any
    residual beyond IDENTITY_TOL, any bound margin below -IDENTITY_TOL, or a
    violated theorem-backed relation is recorded as a hard failure: those
    are theorems for every accepted chain, so a miss is an implementation
    bug, not a finding.
    """
    counts: dict[tuple[str, int], list[int]] = {
        (name, m): [0, 0] for name in config.relations for m in config.state_counts
    }
    counterexamples: list[Counterexample] = []
    hard_failures: list[str] = []

    for m in sorted(config.state_counts):
        for trial in range(config.trials):
            chain_seed = rng.derive_stream(config.seed, m, trial)
            tm = random_chain(m, chain_seed, config.sparsity)
            sol = solve_chain(tm)
            record = ordering_from_solution(sol)

            violated = False
            for name in config.relations:
                pairs = record.violations[name]
                if pairs:
                    counts[(name, m)][0] += 1
                    counts[(name, m)][1] += len(pairs)
                    violated = True
                    scope = RELATIONS[name].proven_scope
                    if scope == "all" or (scope == "m2" and m == 2):
                        hard_failures.append(
                            f"m={m} trial={trial}: theorem relation {name} violated on {pairs}"
                        )
            if violated:
                counterexamples.append(
                    Counterexample(m=m, trial=trial, seed=chain_seed, p=tm.p, record=record)
                )

            resid = identity_residuals(sol)
            worst = max(resid.items(), key=lambda kv: kv[1])
            if worst[1] > IDENTITY_TOL:
                hard_failures.append(
                    f"m={m} trial={trial}: identity residual {worst[0]!r} = {worst[1]:.3e}"
                )
            margins = bounds_check(sol).worst_margin
            if margins < -IDENTITY_TOL:
                hard_failures.append(
                    f"m={m} trial={trial}: bound margin {margins:.3e} negative"
                )

    summaries = [
        RelationSummary(
            relation=name,
            m=m,
            trials=config.trials,
            violating_trials=counts[(name, m)][0],
            violating_pairs=counts[(name, m)][1],
        )
        for name in config.relations
        for m in sorted(config.state_counts)
    ]
    return ScanResult(
        config=config,
        summaries=summaries,
        counterexamples=counterexamples,
        hard_failures=hard_failures,
    )
