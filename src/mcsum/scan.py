"""Random chain ensembles and ordering-relation scanning.

``scan`` draws each state count's row-Dirichlet chains as (T, m, m) stacks,
solves them with the functions that solve one chain, and judges each block in
one pass: ``ordering_masks`` flags every relation at once on the pairs i < j
of the column sums, pi, diag H, mean recurrence times and column totals of M,
and ``analysis.residuals`` (H's rows and the bounds) is held to
``analysis.IDENTITY_TOL``.  Relations proved for every chain (or every
two-state chain) are asserted; the rest are conjectures whose violation
rates are measured.  Each violating trial leaves ``scan`` as a plain dict,
the very ``scan --log`` line that ``io.dumps`` writes.
"""
from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import rng
from .analysis import IDENTITY_TOL, RESIDUAL_ROWS, ChainSolution, residuals, solve_chain
from .chain import TransitionMatrix, is_irreducible
from .errors import GenerationFailed

#: |x - y| below this counts as a tie; ties never violate a relation.
SIGN_TIE_TOL = 1e-12

#: Matrix entries per stack of chains that ``scan`` solves at once (m^2 per
#: chain, and at least one chain): each stacked float array of a block then
#: takes at most 512 kB for m <= 256.
BLOCK_ENTRIES = 1 << 16

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

    def proven_for(self, m: int) -> bool:
        """Whether the relation is a theorem for m-state chains."""
        return self.proven_scope == "all" or (self.proven_scope == "m2" and m == 2)


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

#: Relations proved for two-state chains (including the universal ones).
M2_THEOREM_RELATIONS = tuple(k for k, r in RELATIONS.items() if r.proven_for(2))


@dataclass(frozen=True)
class ScanConfig:
    state_counts: tuple[int, ...]
    trials: int
    seed: int
    sparsity: float = 0.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if any(m < 2 for m in self.state_counts):
            raise ValueError("state counts must all be at least 2")
        repeated = sorted({m for m in self.state_counts if self.state_counts.count(m) > 1})
        if repeated:
            raise ValueError(f"state counts must be distinct; repeated: {repeated}")
        if not 0.0 <= self.sparsity <= 0.8:
            raise ValueError("sparsity must lie in [0, 0.8]")


def random_chains(m: int, seeds: np.ndarray, sparsity: float = 0.0) -> np.ndarray:
    """Irreducible chains with flat-Dirichlet rows, one (m, m) matrix per seed.

    Rows are normalized unit-exponential variates; entries whose raw variate
    falls below the sparsity quantile of Exp(1) are zeroed before
    renormalization, so the expected zero fraction equals `sparsity`.
    Reducible draws alone are retried, each with its next derived stream.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    cutoff = -np.log1p(-sparsity)  # Exp(1) quantile at the sparsity level
    p = np.empty((len(seeds), m, m))
    todo = np.arange(len(seeds))
    for attempt in range(100):
        u = rng.uniform_block(rng.derive_stream(seeds[todo], attempt), m * m)
        raw = -np.log1p(-u.reshape(-1, m, m))
        raw[raw < cutoff] = 0.0
        ok = is_irreducible(raw)  # also false for a draw with an all-zero row
        # divide by the row sums, then renormalize exactly as validate() does
        raw = raw[ok]
        q = raw / raw.sum(axis=-1, keepdims=True)
        p[todo[ok]] = q / q.sum(axis=-1, keepdims=True)
        todo = todo[~ok]
        if not todo.size:
            return p
    raise GenerationFailed(
        f"no irreducible {m}-state chain in 100 attempts (sparsity={sparsity})"
    )


def random_chain(m: int, seed: int, sparsity: float = 0.0) -> TransitionMatrix:
    """The chain ``random_chains`` draws for one seed (any int, modulo 2^64)."""
    p = random_chains(m, np.array([seed % 2**64]), sparsity)[0]
    p.flags.writeable = False
    return TransitionMatrix(p=p, labels=tuple(str(i + 1) for i in range(m)))


def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``, the pairs i < j in row-major order, from one 1-D
    ``nonzero`` split by ``np.divmod`` (a 2-D ``nonzero`` is slower from m ~ 100)."""
    r = np.arange(m)
    return np.divmod((r[:, None] < r).ravel().nonzero()[0], m)


def ordering_masks(sol: ChainSolution) -> np.ndarray:
    """Per relation of RELATIONS, in its order, the flags of the pairs i < j
    (``np.triu_indices`` order) that violate it, as one (relations, ...,
    m(m-1)/2) bool array for one chain or a stack; a tie never violates.
    `sol` is a ChainSolution or holds its c, pi, h_diag, col_totals and m_diag.
    The compared vectors are gathered by ``np.take`` when the pairs outnumber
    their rows (one chain: three times faster than ``v[..., i]`` at m = 300) and
    by ``v[..., i]`` otherwise (a stack of small chains, where ``np.take`` is
    the slower)."""
    names = ("colsum", "pi", "h_diag", "m_col_total", "m_recurrence")
    v = np.array((sol.c, sol.pi, sol.h_diag, sol.col_totals, sol.m_diag))
    m = v.shape[-1]
    i, j = _pairs(m)
    take = len(i) > v.size // m
    diff = np.take(v, i, axis=-1) if take else v[..., i]
    diff -= np.take(v, j, axis=-1) if take else v[..., j]  # in place: at m = 600 each is 7 MB
    signs = (diff >= SIGN_TIE_TOL).view(np.int8) - (diff <= -SIGN_TIE_TOL).view(np.int8)
    left = [names.index(r.left) for r in RELATIONS.values()]
    right = [names.index(r.right) for r in RELATIONS.values()]
    direction = np.array([r.direction for r in RELATIONS.values()], dtype=np.int8)
    # signs in {-1, 0, 1}: the product is -direction exactly when both are
    # nonzero and their order breaks the relation
    return signs[left] * signs[right] == -direction.reshape(-1, *[1] * (diff.ndim - 1))


def flagged_pairs(flags: np.ndarray, m: int, limit: int | None = None) -> np.ndarray:
    """The first `limit` (or all) pairs (i, j) that one relation's ``ordering_masks``
    flags of one chain mark, as a (k, 2) int array in ``np.triu_indices`` order;
    split by the row starts of the triangle, so no (m(m-1)/2,) array is built."""
    k = np.flatnonzero(flags)[:limit]
    r = np.arange(m)
    starts = r * (2 * m - 1 - r) // 2  # the index of the pair (i, i + 1)
    i = np.searchsorted(starts, k, side="right") - 1
    return np.stack((i, k - starts[i] + i + 1), axis=-1)


@dataclass(frozen=True)
class RelationSummary:
    relation: str
    m: int
    trials: int
    violating_trials: int

    @property
    def rate(self) -> float:
        return self.violating_trials / self.trials


@dataclass(frozen=True)
class ScanResult:
    summaries: list[RelationSummary]
    counterexamples: int  # trials that violate at least one relation
    hard_failures: list[str] = field(default_factory=list)

    def violations(self, relation: str, m: int | None = None) -> int:
        return sum(
            s.violating_trials
            for s in self.summaries
            if s.relation == relation and (m is None or s.m == m)
        )


def scan(config: ScanConfig, found: Callable[[dict], object] | None = None) -> ScanResult:
    """Run the ensemble scan described by `config`.

    Each trial that violates a relation is handed to `found`, in trial
    order, as its block is solved: the dict ``{"m", "trial", "seed",
    "sparsity", "digest", "violated"}`` whose ``io.dumps`` is its ``scan
    --log`` line.  ``random_chain(m, seed, sparsity)`` rebuilds its P, whose
    sha256 is ``digest``; ``violated`` names the broken relations in
    RELATIONS order.  None is kept, so memory does not grow with the trial
    count.  Every trial also re-evaluates ``residuals``; a row beyond
    IDENTITY_TOL or a violated theorem-backed relation is recorded as a hard
    failure: those are theorems for every accepted chain, so a miss is an
    implementation bug, not a finding.  The passage-time rows are not judged:
    on M read off H and pi, each combines rows of ``residuals``.
    """
    counts = {m: np.zeros(len(RELATIONS), dtype=np.int64) for m in config.state_counts}
    counterexamples = 0
    hard_failures: list[str] = []

    for m in sorted(config.state_counts):
        step = max(1, BLOCK_ENTRIES // (m * m))
        theorems = [r.proven_for(m) for r in RELATIONS.values()]
        for start in range(0, config.trials, step):
            trials = np.arange(start, min(start + step, config.trials))
            seeds = rng.derive_stream(config.seed, m, trials)
            p = random_chains(m, seeds, config.sparsity)
            sol = solve_chain(TransitionMatrix(p=p))
            flags = ordering_masks(sol)
            hits = flags.any(axis=-1)  # (relations, trials)
            counts[m] += np.count_nonzero(hits, axis=1)
            violated = np.flatnonzero(hits.any(axis=0))
            counterexamples += len(violated)
            if found is not None:
                # the digest hashes each C-ordered P through the buffer protocol,
                # without the copy ``tobytes()`` would make
                for t, seed, broken in zip(violated.tolist(), seeds[violated].tolist(),
                                           hits[:, violated].T.tolist()):
                    found({"m": m, "trial": start + t, "seed": seed, "sparsity": config.sparsity,
                           "digest": hashlib.sha256(p[t]).hexdigest(),
                           "violated": list(compress(RELATIONS, broken))})
            table = residuals(sol)
            worst = table.argmax(axis=0)  # the first of equal largest residuals
            failed = np.flatnonzero((table.max(axis=0) > IDENTITY_TOL) | hits[theorems].any(axis=0))
            for t in failed.tolist():
                trial = int(trials[t])
                hard_failures += [
                    f"m={m} trial={trial}: theorem relation {name} violated on "
                    f"{list(map(tuple, flagged_pairs(f[t], m).tolist()))}"
                    for name, f, theorem in zip(RELATIONS, flags, theorems)
                    if theorem and f[t].any()
                ]
                if table[worst[t], t] > IDENTITY_TOL:
                    hard_failures.append(
                        f"m={m} trial={trial}: identity residual {RESIDUAL_ROWS[worst[t]]!r} = "
                        f"{table[worst[t], t]:.3e}"
                    )

    summaries = [
        RelationSummary(name, m, config.trials, int(counts[m][r]))
        for r, name in enumerate(RELATIONS)
        for m in sorted(config.state_counts)
    ]
    return ScanResult(summaries, counterexamples, hard_failures)
