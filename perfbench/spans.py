"""Span tracing around the public functions of each mcsum module.

A traced function is wrapped at every module attribute that holds it:
``from .x import y`` binds ``y`` in the importing module, and callers look
it up there, so patching only ``mcsum.x.y`` would miss most calls.  Spans
(name, start, end, parent, work) live in memory and are folded into
per-layer totals after each operation; self time is a span's duration
minus the part of it covered by its child spans.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Public functions wrapped in the traced run, as ``module.function``.
TRACED = (
    "cli.main",
    "io.load_matrix",
    "chain.validate",
    "chain.is_irreducible",
    "rng.uniform_block",
    "linalg.invert",
    "linalg.lu_factor",
    "linalg.solve",
    "linalg.condition_estimate",
    "ginv.compute_h",
    "ginv.compute_z",
    "ginv.theorem2_residuals",
    "oracle.stationary_direct",
    "oracle.mfpt_direct",
    "analysis.solve_chain",
    "analysis.identity_residuals",
    "analysis.bounds_check",
    "analysis.doubly_stochastic_report",
    "scan.scan",
    "scan.random_chain",
    "scan.ordering_from_solution",
    "report.analyze",
    "report.report_to_dict",
)

#: The package modules, one layer each.
LAYERS = ("io", "chain", "rng", "linalg", "ginv", "analysis", "oracle", "scan", "report", "cli")

#: Inclusive seconds per chain are reported for these spans as ``<name>_s``.
TIMED = (
    "linalg.invert",
    "linalg.condition_estimate",
    "ginv.compute_h",
    "ginv.compute_z",
    "ginv.theorem2_residuals",
    "report.report_to_dict",
    "report.json",
    "oracle.mfpt_direct",
    "oracle.stationary_direct",
    "analysis.doubly_stochastic_report",
    "analysis.identity_residuals",
    "analysis.bounds_check",
    "scan.random_chain",
    "scan.ordering_from_solution",
    "chain.validate",
    "rng.uniform_block",
    "io.load_matrix",
)

_ROOT = "op"


def _lu_flops(args, kwargs) -> float:
    n = args[0].shape[0]
    return 2.0 / 3.0 * n**3


def _solve_flops(args, kwargs) -> float:
    n = args[0].n
    b = args[1]
    k = b.shape[1] if b.ndim == 2 else 1
    return 2.0 * n * n * k


#: Flops computed from operand sizes: 2/3 n^3 per factorization and
#: 2 n^2 per right-hand side per solve (2 n^3 for an identity solve).
_WORK = {"linalg.lu_factor": _lu_flops, "linalg.solve": _solve_flops}


class Tracer:
    """Installs span-recording wrappers and accumulates per-span totals."""

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)
        self.child_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.op_seconds = 0.0
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, perf = self._spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        def wrapper(*args, **kwargs):
            if not stack:  # outside a timed operation
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], work(args, kwargs) if work else 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        wrapper.bench_wrapped = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, name: str, original) -> None:
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mcsum" or mod_name.startswith("mcsum.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for dotted in TRACED:
            mod_name, func = dotted.split(".")
            original = getattr(sys.modules.get("mcsum." + mod_name), func, None)
            if original is None:
                self.missing.append(dotted)
                continue
            self._patch_everywhere(dotted, original)
        # JSON encoding is stdlib code reached through ``json.dump``; it is
        # the serialization step of the report layer.
        for func in ("dump", "dumps"):
            original = getattr(json, func)
            setattr(json, func, self._wrap("report.json", original))
            self._patches.append((json, func, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def wrappers_left() -> list[str]:
        """Module attributes that still hold a wrapper (empty when clean)."""
        left = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name in ("mcsum", "json") or mod_name.startswith("mcsum.")):
                continue
            for attr, value in list(vars(mod).items()):
                if getattr(value, "bench_wrapped", False):
                    left.append(f"{mod_name}.{attr}")
        return left

    @contextmanager
    def op(self):
        """Root span of one timed operation; folds its spans on exit."""
        self._spans.append([_ROOT, 0.0, 0.0, None, 0.0])
        self._stack.append(0)
        self._spans[0][1] = time.perf_counter()
        try:
            yield
        finally:
            self._spans[0][2] = time.perf_counter()
            self._stack.clear()
            self._fold()

    def _fold(self) -> None:
        spans = self._spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, work in spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, parent, work) in enumerate(spans):
            dur = end - start
            self.inclusive[name] += dur
            self.self_time[name] += dur - covered[i]
            self.calls[name] += 1
            self.work[name] += work
            if parent is not None:
                self.child_calls[(spans[parent][0], name)] += 1
        self.op_seconds += spans[0][2] - spans[0][1]
        spans.clear()

    def metrics(self, chains: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalized per chain, as name -> (value, unit)."""
        per = 1.0 / chains
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}_s"] = (self.inclusive[name] * per, "s")
        out["analysis.solve_chain_self_s"] = (self.self_time["analysis.solve_chain"] * per, "s")
        for layer in LAYERS:
            total = sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)
            out[f"self_s.{layer}"] = (total * per, "s")
        out["linalg.lu_factor_calls_per_chain"] = (self.calls["linalg.lu_factor"] * per, "count")
        busy = self.inclusive["linalg.lu_factor"] + self.inclusive["linalg.solve"]
        flops = self.work["linalg.lu_factor"] + self.work["linalg.solve"]
        out["linalg.gflops_computed"] = (flops / busy / 1e9 if busy else 0.0, "GFLOP/s")
        out["chain.is_irreducible_calls_per_chain"] = (
            self.calls["chain.is_irreducible"] * per, "count")
        drawn = self.calls["scan.random_chain"]
        attempts = self.child_calls[("scan.random_chain", "rng.uniform_block")]
        out["scan.random_chain_attempts_per_chain"] = (attempts / drawn if drawn else 0.0, "count")
        out["trace.op_s"] = (self.op_seconds * per, "s")
        out["trace.unaccounted_share"] = (
            self.self_time[_ROOT] / self.op_seconds if self.op_seconds else 0.0, "share")
        return out
